"""Banded discretizations of radial operators and linear-algebra kernels.

Radial mode operators D_r^2 + V(r) are realized as banded complex matrices
on a uniform grid over (r0, r_max) with a Dirichlet wall at r0.  A box
closed at r_max by a second Dirichlet wall (a Hermitian truncation, used by
the eigensolves and the functional calculus) takes the order-2 stencil.  For
solves at a real energy lam the box is instead closed by the discrete
outgoing wave, and the operator is Numerov's pencil: (H - z) u = f becomes
(A - z M) u = M f with the stiffness A = -delta^2/h^2 + M diag(V) and the
mass M = tridiag(1, 10, 1)/12, which is fourth order at the cost of a
tridiagonal solve.  Past r_max the potential is the constant (n-1)^2/4 and
Numerov's free recurrence u_{i+1} + u_{i-1} = 2 xi u_i has the solutions
beta^i; the outgoing (above threshold) or decaying (below threshold) root
closes the half-line problem exactly with one diagonal entry.  This is the
discrete transparent boundary condition of Arnold and of Ehrhardt and
Arnold; with it (H - lam - i0)^{-1} = (A - lam M)^{-1} M is a single solve on
the real axis.

The kernels provided here are shifted tridiagonal solves with a residual
certificate (LAPACK's tridiagonal LU), matrix-free weighted operator norms by
power iteration on the Gram map, Hermitian eigendecompositions, and Schur
kernel bounds.  The vector norms and inner products of the solves and of the
power iteration are numpy ufunc reductions, not BLAS level-1 calls: on long
vectors OpenBLAS runs those on its own threads, which oversubscribe the cores
when the solves already run in a process pool.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import zgttrf, zgttrs

from hyplab.errors import ConfigError, NumericalFailure

_SOLVE_RESID_TOL = 1e-10
_DENSE_SVD_MAX_N = 1500
_TAIL_TOL = 1e-9


@dataclasses.dataclass(frozen=True)
class RadialGrid:
    """Uniform interior grid r_i = r0 + i h, i = 1..N, h = (r_max-r0)/(N+1)."""

    r0: float
    r_max: float
    N: int

    def __post_init__(self):
        if self.r_max <= self.r0:
            raise ConfigError("r_max must exceed r0")
        if self.N < 8:
            raise ConfigError("grid needs at least 8 interior points")

    @property
    def h(self):
        return (self.r_max - self.r0) / (self.N + 1)

    def points(self):
        return self.r0 + self.h * np.arange(1, self.N + 1)

    def refined(self):
        """Same interval with half the step."""
        return dataclasses.replace(self, N=2 * (self.N + 1) - 1)


class DiscreteOperator:
    """Banded matrix acting on radial grid vectors.

    Stored as a dict of diagonals {offset: values}; offsets are symmetric for
    the operators built here.  Immutable by convention (no mutating API).
    ``outgoing_energy`` is the energy of the outgoing closure at r_max, or
    None for a box closed by a Dirichlet wall.  ``mass`` holds the constant
    (lower, main, upper) diagonals of the tridiagonal mass matrix M of a
    pencil (the operator is then M^{-1} A, with A the stored diagonals, and
    matvec applies A), or None for M = I.
    """

    def __init__(self, grid, diagonals, outgoing_energy=None, mass=None):
        self.grid = grid
        self.diagonals = {int(k): np.asarray(v) for k, v in diagonals.items()}
        self.outgoing_energy = outgoing_energy
        self.mass = mass
        n = grid.N
        for off, vals in self.diagonals.items():
            if len(vals) != n - abs(off):
                raise ConfigError(f"diagonal {off} has wrong length")

    @property
    def n(self):
        return self.grid.N

    @property
    def bandwidth(self):
        return max(abs(o) for o in self.diagonals)

    def is_hermitian(self, tol=1e-12):
        scale = max(np.max(np.abs(v)) for v in self.diagonals.values())
        for off in self.diagonals:
            upper = self.diagonals.get(off)
            lower = self.diagonals.get(-off)
            if lower is None:
                return False
            if np.max(np.abs(upper - np.conj(lower))) > tol * scale:
                return False
        return True

    def dense(self, shift=0.0):
        """Dense A - shift M (M = I without a mass)."""
        out = np.zeros((self.n, self.n), dtype=complex)
        for off, vals in self.diagonals.items():
            out += np.diag(vals, off)
        if self.mass is None:
            out[np.diag_indices(self.n)] -= shift
        else:
            out -= shift * self.dense_mass()
        return out

    def dense_mass(self):
        """Dense mass matrix M of a pencil."""
        lower, diag, upper = self.mass
        n = self.n
        return (diag * np.eye(n) + upper * np.eye(n, k=1)
                + lower * np.eye(n, k=-1))

    def matvec(self, x):
        x = np.asarray(x)
        out = np.zeros(self.n, dtype=np.result_type(x.dtype, complex))
        for off, vals in self.diagonals.items():
            if off >= 0:
                out[: self.n - off] += vals * x[off:]
            else:
                out[-off:] += vals * x[: self.n + off]
        return out

    def scaled_shifted(self, scale=1.0, shift=0.0):
        """Return scale*op + shift (shift acts on the main diagonal)."""
        diags = {o: scale * v for o, v in self.diagonals.items()}
        diags[0] = diags[0] + shift
        return DiscreteOperator(self.grid, diags)


def d2_operator(grid):
    """The discrete -d^2/dr^2 with Dirichlet walls (order-2 stencil)."""
    n, h = grid.N, grid.h
    return DiscreteOperator(grid, {
        0: np.full(n, 2.0 / h**2),
        1: np.full(n - 1, -1.0 / h**2),
        -1: np.full(n - 1, -1.0 / h**2),
    })


# Numerov's mass matrix M = tridiag(1, 10, 1)/12: (lower, main, upper)
_NUMEROV_MASS = (1.0 / 12.0, 10.0 / 12.0, 1.0 / 12.0)


def outgoing_root(lam, shift, h):
    """Root beta = xi + i (1 - xi^2)^{1/2} of Numerov's free recurrence
    beta + 1/beta = 2 xi, xi = (1 - 5 h^2 kappa^2/12)/(1 + h^2 kappa^2/12),
    kappa^2 = lam - shift: e^{i theta} (outgoing) above the threshold shift,
    the decaying real root in (0, 1) below it."""
    t = h**2 * (lam - shift) / 12.0
    xi = (1.0 - 5.0 * t) / (1.0 + t) if t > -1.0 else -math.inf
    if xi < -1.0:
        raise ConfigError(
            f"grid step {h:.4g} does not resolve the wavelength at energy {lam}"
        )
    return xi + 1j * np.sqrt(complex(1.0 - xi * xi))


def discretize(spec, grid, outgoing=None):
    """Banded matrix for a radial mode operator D_r^2 + V_k(r).

    Parameters
    ----------
    spec : RadialOperatorSpec
        Carries the potential handle and the Dirichlet wall r0.
    grid : RadialGrid
    outgoing : float or None
        None closes the box by a Dirichlet wall, with the order-2 stencil.
        A real energy lam gives Numerov's pencil (stiffness A, mass M),
        closed by the outgoing wave u_{N+1} = beta u_N at r_max, which adds
        beta (-1/h^2 - kappa^2/12), kappa^2 = lam - shift, to A's last
        diagonal entry.  The closure is exact only where the potential has
        reached its constant tail, so a tail above _TAIL_TOL at r_max is
        rejected.
    """
    if abs(spec.r0 - grid.r0) > 1e-12:
        raise ConfigError("spec and grid disagree on r0")
    v = spec.potential(grid.points())
    if outgoing is None:
        diags = dict(d2_operator(grid).diagonals)
        diags[0] = diags[0].astype(complex) + v
        return DiscreteOperator(grid, diags)
    tail = abs(float(spec.potential(grid.r_max)) - spec.shift)
    if tail > _TAIL_TOL:
        raise ConfigError(
            f"potential tail {tail:.3g} at r_max exceeds {_TAIL_TOL:g}; "
            "the outgoing closure needs a longer box"
        )
    h2 = grid.h**2
    kappa_sq = outgoing - spec.shift
    diag = (2.0 / h2 + (10.0 / 12.0) * v).astype(complex)
    diag[-1] += outgoing_root(outgoing, spec.shift, grid.h) * (
        -1.0 / h2 - kappa_sq / 12.0)
    diags = {0: diag, 1: -1.0 / h2 + v[1:] / 12.0,
             -1: -1.0 / h2 + v[:-1] / 12.0}
    return DiscreteOperator(grid, diags, outgoing_energy=outgoing,
                            mass=_NUMEROV_MASS)


def _norm(x):
    """Euclidean norm of a vector, by a ufunc reduction."""
    return math.sqrt(np.add.reduce(x.real * x.real + x.imag * x.imag))


def _tridiagonal_matvec(lower, diag, upper, x):
    y = diag * x
    y[:-1] += upper * x[1:]
    y[1:] += lower * x[:-1]
    return y


class ShiftedSolver:
    """LU factorization of the tridiagonal (op - z M) supporting repeated
    direct/adjoint solves of the resolvent (op - z M)^{-1} M, M = op.mass
    (the identity when op has none).

    Tridiagonal LU with partial pivoting (LAPACK zgttrf; zgttrs solves with
    the factors, and with trans="C" solves the adjoint system), with a
    residual certificate per tridiagonal solve and one step of iterative
    refinement when the first solve misses it.  The residuals are formed
    from the three stored diagonals.
    """

    def __init__(self, op, z):
        if op.bandwidth > 1:
            raise ConfigError(
                f"tridiagonal solver needs bandwidth <= 1, got {op.bandwidth}"
            )
        self.op = op
        self.z = complex(z)
        absent = np.zeros(op.n - 1)
        lower = np.asarray(op.diagonals.get(-1, absent), dtype=complex)
        diag = np.asarray(op.diagonals[0], dtype=complex)
        upper = np.asarray(op.diagonals.get(1, absent), dtype=complex)
        self._mass = op.mass
        if op.mass is None:
            diag = diag - self.z
        else:
            m_lower, m_diag, m_upper = op.mass
            lower = lower - self.z * m_lower
            diag = diag - self.z * m_diag
            upper = upper - self.z * m_upper
        *self._lu, info = zgttrf(lower, diag, upper)
        if info != 0:
            raise NumericalFailure(
                f"singular factorization at z={z}: zgttrf info={info}"
            )
        self._diagonals = (lower, diag, upper)
        self._diagonals_h = (upper.conj(), diag.conj(), lower.conj())

    def _solve(self, rhs, trans, diagonals):
        rhs = np.asarray(rhs, dtype=complex)
        if not np.any(rhs):
            return np.zeros_like(rhs)
        tol = _SOLVE_RESID_TOL * max(_norm(rhs), 1e-300)
        x = zgttrs(*self._lu, rhs, trans=trans)[0]
        resid = rhs - _tridiagonal_matvec(*diagonals, x)
        resid_norm = _norm(resid)
        if resid_norm > tol:
            x += zgttrs(*self._lu, resid, trans=trans, overwrite_b=1)[0]
            resid_norm = _norm(rhs - _tridiagonal_matvec(*diagonals, x))
        if resid_norm > tol:
            raise NumericalFailure(
                f"solve residual {resid_norm:.3e} exceeds tolerance",
                history=[resid_norm],
            )
        return x

    def solve(self, rhs):
        """(op - z M)^{-1} M rhs."""
        if self._mass is not None:
            rhs = _tridiagonal_matvec(*self._mass, np.asarray(rhs))
        return self._solve(rhs, "N", self._diagonals)

    def solve_adjoint(self, rhs):
        """M (op - z M)^{-H} rhs, the adjoint of solve."""
        x = self._solve(rhs, "C", self._diagonals_h)
        if self._mass is None:
            return x
        return _tridiagonal_matvec(*self._mass, x)


def _power_start(n):
    """Deterministic generic start vector for power iterations."""
    v = np.cos(0.7 * np.arange(n)) + 1.3 + 0.1j * np.sin(1.3 * np.arange(n) + 0.4)
    return v / _norm(v)


# share of the generic start mixed into a warm start
_COLD_SHARE = 1e-2


def weighted_operator_norm(op, z, w_left, w_right, tol=1e-6, max_iter=5000,
                           start=None):
    """Largest singular value of W_l R W_r, matrix-free, where
    R = (op - z M)^{-1} M is the resolvent that ShiftedSolver applies.

    Power iteration on the Gram map G x = W_r R^* W_l^2 R W_r x.  It starts from
    _power_start, or, given ``start`` (a guess at the top right singular
    vector, such as the vector returned for a neighbouring operator), from
    start plus a 1e-2 share of _power_start, so that a guess orthogonal to
    the top direction still reaches it.  For a unit v the estimate
    theta = ||G v|| lies between <v, G v> and sigma_1^2, so sqrt(theta) is a
    lower bound on the norm.  Converged when successive estimates agree to
    0.1 tol relative and the eigen-residual ||G v - <v, G v> v|| is at most
    sqrt(tol) <v, G v>.

    Returns (norm, vector, steps): the unit vector G v / ||G v|| of the last
    step (None when the map is zero) and the number of Gram steps, each one
    solve and one adjoint solve.
    """
    w_left = np.asarray(w_left, dtype=float)
    w_right = np.asarray(w_right, dtype=float)
    if not np.any(w_left) or not np.any(w_right):
        return 0.0, None, 0
    s = ShiftedSolver(op, z)
    w_left_sq = w_left**2

    def gram(x):
        y = s.solve(w_right * x)
        return w_right * s.solve_adjoint(w_left_sq * y)

    v = _power_start(op.n)
    if start is not None:
        start = np.asarray(start, dtype=complex)
        v = start / _norm(start) + _COLD_SHARE * v
        v /= _norm(v)
    theta = 0.0
    history = []
    for step in range(1, max_iter + 1):
        u = gram(v)
        theta_new = _norm(u)
        history.append(theta_new)
        if theta_new == 0.0:
            return 0.0, None, step
        rayleigh = float(np.add.reduce(v.real * u.real + v.imag * u.imag))
        resid = _norm(u - rayleigh * v)
        v = u / theta_new
        if (
            abs(theta_new - theta) <= 0.1 * tol * theta_new
            and resid <= math.sqrt(tol) * abs(rayleigh)
        ):
            return math.sqrt(theta_new), v, step
        theta = theta_new
    raise NumericalFailure(
        f"power iteration did not converge in {max_iter} iterations",
        history=history[-50:],
    )


def weighted_operator_norm_dense(op, z, w_left, w_right):
    """Dense SVD cross-check path for moderate problem sizes: the norm of
    W_l (op - z M)^{-1} M W_r."""
    if op.n > _DENSE_SVD_MAX_N:
        raise ConfigError(
            f"dense SVD path limited to N <= {_DENSE_SVD_MAX_N}, got {op.n}"
        )
    w_left = np.asarray(w_left, dtype=float)
    w_right = np.asarray(w_right, dtype=float)
    inv = np.linalg.inv(op.dense(shift=complex(z)))
    if op.mass is not None:
        inv = inv @ op.dense_mass()
    return float(np.linalg.norm(w_left[:, None] * inv * w_right[None, :], ord=2))


def hermitian_eig(op, select_range=None):
    """Eigendecomposition of a Hermitian DiscreteOperator.

    Returns (eigenvalues ascending, orthonormal eigenvectors as columns).
    With ``select_range=(lo, hi)`` only the eigenpairs in (lo, hi] are
    returned; the tridiagonal path computes only those, the dense path
    computes all and filters.
    """
    if not op.is_hermitian():
        raise ConfigError("operator is not Hermitian")
    if op.bandwidth == 1 and all(
        np.max(np.abs(np.imag(v))) == 0.0 for v in op.diagonals.values()
    ):
        d = np.real(op.diagonals[0]).astype(float)
        e = np.real(op.diagonals[1]).astype(float)
        if select_range is not None:
            return sla.eigh_tridiagonal(
                d, e, select="v", select_range=select_range
            )
        return sla.eigh_tridiagonal(d, e)
    evals, evecs = np.linalg.eigh(op.dense())
    if select_range is not None:
        lo, hi = select_range
        keep = (evals > lo) & (evals <= hi)
        return evals[keep], evecs[:, keep]
    return evals, evecs


def schur_bound(kernel, measure):
    """Schur bound max(sup row integral, sup column integral) of |kernel|.

    Guaranteed to dominate the operator norm of the integral operator with
    this kernel under the given grid measure.
    """
    kernel = np.abs(np.asarray(kernel))
    measure = np.asarray(measure, dtype=float)
    row_sums = kernel @ measure
    col_sums = measure @ kernel
    return float(max(row_sums.max(), col_sums.max()))


def dirichlet_laplacian_eigenvalues(grid):
    """Closed-form eigenvalues (4/h^2) sin^2(j h pi / (2(r_max-r0))) ... of the
    order-2 Dirichlet stencil for -d^2/dr^2; used as a frozen oracle."""
    h = grid.h
    L = grid.r_max - grid.r0
    j = np.arange(1, grid.N + 1)
    return (4.0 / h**2) * np.sin(j * np.pi * h / (2.0 * L)) ** 2
