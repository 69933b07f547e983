"""Tridiagonal discretizations of radial operators and linear-algebra kernels.

Radial mode operators D_r^2 + V(r) are realized on a uniform grid over
(r0, r_max) with a Dirichlet wall at r0, as a tridiagonal pencil (A, M)
standing for M^{-1} A: (H - z) u = f becomes (A - z M) u = M f, with the
stiffness A = -delta^2/h^2 + M diag(V).  A box closed at r_max by a second
Dirichlet wall (a Hermitian truncation, used by the eigensolves and the
functional calculus) takes M = I, the order-2 stencil.  For solves at a real
energy lam the box is instead closed by the discrete outgoing wave, with
Numerov's mass M = tridiag(1, 10, 1)/12, which is fourth order at the cost
of a tridiagonal solve.  Past r_max the potential is the constant (n-1)^2/4 and
Numerov's free recurrence u_{i+1} + u_{i-1} = 2 xi u_i has the solutions
beta^i; the outgoing (above threshold) or decaying (below threshold) root
closes the half-line problem exactly with one diagonal entry.  This is the
discrete transparent boundary condition of Arnold and of Ehrhardt and
Arnold; with it (H - lam - i0)^{-1} = (A - lam M)^{-1} M is a single solve on
the real axis.

The kernels provided here are shifted tridiagonal solves with a residual
certificate (LAPACK's tridiagonal LU), matrix-free weighted operator norms by
power iteration on the Gram map, Hermitian eigendecompositions, and Schur
kernel bounds.  The vector norms and real inner products of the solves and of
the power iteration work on the float64 view of the complex vectors (real and
imaginary parts interleaved): one elementwise ufunc and one np.add.reduce,
whose pairwise summation keeps the rounding near one ulp, where np.einsum's
running sum costs about the same and errs up to ten times more on long
vectors.  None is a BLAS level-1 call (np.dot, np.vdot, np.linalg.norm of a
real vector): on long vectors OpenBLAS runs those on its own threads, which
oversubscribe the cores when the solves already run in a process pool.
"""

from __future__ import annotations

import dataclasses
import functools
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


# The mass M of a pencil, as constant (lower, main, upper) diagonals: the
# identity, and Numerov's M = tridiag(1, 10, 1)/12.  Both are real symmetric.
_IDENTITY_MASS = (0.0, 1.0, 0.0)
_NUMEROV_MASS = (1.0 / 12.0, 10.0 / 12.0, 1.0 / 12.0)


def _dense(n, lower, diag, upper):
    """Dense complex n x n matrix with these diagonals, arrays or scalars."""
    out = np.zeros((n, n), dtype=complex)
    i = np.arange(n)
    out[i, i] = diag
    out[i[1:], i[:-1]] = lower
    out[i[:-1], i[1:]] = upper
    return out


class DiscreteOperator:
    """Tridiagonal pencil (A, M) on radial grid vectors, standing for M^{-1} A.

    A is given as a dict of diagonals {offset: values} with offsets in
    {-1, 0, 1}; an absent off-diagonal is zero, and ``diagonals`` returns
    all three.  M is a constant (lower, main, upper) triple: the identity
    by default, Numerov's mass for the outgoing closure.  matvec applies A.
    ``outgoing_energy`` is the energy of the outgoing closure at r_max, or
    None for a box closed by a Dirichlet wall.  Immutable by convention (no
    mutating API).
    """

    def __init__(self, grid, diagonals, outgoing_energy=None,
                 mass=_IDENTITY_MASS):
        if not set(diagonals) <= {-1, 0, 1}:
            raise ConfigError(f"offset outside -1..1 in {sorted(diagonals)}")
        n = grid.N
        absent = np.zeros(n - 1) if len(diagonals) < 3 else None
        self.grid = grid
        self.lower = np.asarray(diagonals.get(-1, absent))
        self.main = np.asarray(diagonals[0])
        self.upper = np.asarray(diagonals.get(1, absent))
        self.outgoing_energy = outgoing_energy
        self.mass = mass
        if (len(self.main) != n
                or {len(self.lower), len(self.upper)} != {n - 1}):
            raise ConfigError("diagonal has wrong length")

    @property
    def n(self):
        return self.grid.N

    @property
    def diagonals(self):
        return {-1: self.lower, 0: self.main, 1: self.upper}

    def pencil(self, z=0.0):
        """(lower, main, upper) diagonals of A - z M."""
        m_lower, m_diag, m_upper = self.mass
        return (self.lower - z * m_lower, self.main - z * m_diag,
                self.upper - z * m_upper)

    def is_hermitian(self, tol=1e-12):
        """Whether A (for a pencil A alone, not M^{-1} A) is Hermitian."""
        bound = tol * max(np.max(np.abs(d))
                          for d in (self.lower, self.main, self.upper))
        return bool(np.max(np.abs(self.upper - np.conj(self.lower))) <= bound
                    and np.max(np.abs(np.imag(self.main))) <= 0.5 * bound)

    def dense(self, shift=0.0):
        """Dense A - shift M."""
        return _dense(self.n, *self.pencil(shift))

    def matvec(self, x):
        """A x, complex."""
        return _tridiagonal_matvec(self.lower, self.main, self.upper,
                                   np.asarray(x, dtype=complex))

    def scaled_shifted(self, scale=1.0, shift=0.0):
        """scale*op + shift (on the main diagonal); M = I only."""
        if self.mass != _IDENTITY_MASS:
            raise ConfigError("scaled_shifted needs M = I")
        return DiscreteOperator(self.grid, {-1: scale * self.lower,
                                            0: scale * self.main + shift,
                                            1: scale * self.upper})


def d2_operator(grid):
    """The discrete -d^2/dr^2 with Dirichlet walls (order-2 stencil)."""
    n, h = grid.N, grid.h
    return DiscreteOperator(grid, {
        0: np.full(n, 2.0 / h**2),
        1: np.full(n - 1, -1.0 / h**2),
        -1: np.full(n - 1, -1.0 / h**2),
    })


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
    """Tridiagonal pencil (A, M) for a radial mode operator D_r^2 + V_k(r),
    with the stiffness A = -delta^2/h^2 + M diag(V).

    Parameters
    ----------
    spec : RadialOperatorSpec
        Carries the potential handle and the Dirichlet wall r0.
    grid : RadialGrid
    outgoing : float or None
        None closes the box by a Dirichlet wall, with M = I: the order-2
        stencil.  A real energy lam gives Numerov's mass M, closed by the
        outgoing wave u_{N+1} = beta u_N at r_max, which adds
        beta (-1/h^2 - kappa^2/12), kappa^2 = lam - shift, to A's last
        diagonal entry.  The closure is exact only where the potential has
        reached its constant tail, so a tail above _TAIL_TOL at r_max is
        rejected.
    """
    if abs(spec.r0 - grid.r0) > 1e-12:
        raise ConfigError("spec and grid disagree on r0")
    v = spec.potential(grid.points())
    h2 = grid.h**2
    mass, closure = _IDENTITY_MASS, 0.0
    if outgoing is not None:
        tail = abs(float(spec.potential(grid.r_max)) - spec.shift)
        if tail > _TAIL_TOL:
            raise ConfigError(
                f"potential tail {tail:.3g} at r_max exceeds {_TAIL_TOL:g}; "
                "the outgoing closure needs a longer box"
            )
        mass = _NUMEROV_MASS
        closure = outgoing_root(outgoing, spec.shift, grid.h) * (
            -1.0 / h2 - (outgoing - spec.shift) / 12.0)
    m_lower, m_diag, m_upper = mass
    diag = (2.0 / h2 + m_diag * v).astype(complex)
    diag[-1] += closure
    diags = {0: diag, 1: -1.0 / h2 + m_upper * v[1:],
             -1: -1.0 / h2 + m_lower * v[:-1]}
    return DiscreteOperator(grid, diags, outgoing_energy=outgoing, mass=mass)


def _floats(x):
    """A complex128 vector's float64 view, real and imaginary parts
    interleaved; a float64 vector itself."""
    return np.ascontiguousarray(x).view(np.float64)


def _dot(x, y):
    """Re <x, y> of two complex128 (or two float64) vectors, by a pairwise
    ufunc reduction over their float views."""
    return float(np.add.reduce(_floats(x) * _floats(y)))


def _norm(x):
    """Euclidean norm of a complex128 or float64 vector, by a pairwise ufunc
    reduction over its float view."""
    return math.sqrt(np.add.reduce(np.square(_floats(x))))


def _tridiagonal_matvec(lower, diag, upper, x):
    y = diag * x
    t = upper * x[1:]
    y[:-1] += t
    np.multiply(lower, x[:-1], out=t)
    y[1:] += t
    return y


def _residual(diagonals, x, rhs):
    """rhs - T x for the tridiagonal T with these diagonals, formed in place
    of T x."""
    y = _tridiagonal_matvec(*diagonals, x)
    return np.subtract(rhs, y, out=y)


class ShiftedSolver:
    """LU factorization of the tridiagonal A - z M of a pencil op = (A, M)
    supporting repeated direct/adjoint solves of the resolvent
    (A - z M)^{-1} M, which is (M^{-1} A - z)^{-1}.

    Tridiagonal LU with partial pivoting (LAPACK zgttrf; zgttrs solves with
    the factors, and with trans="C" solves the adjoint system), with a
    residual certificate per tridiagonal solve and one step of iterative
    refinement when the first solve misses it.  The residuals are formed
    from the three diagonals of A - z M.
    """

    def __init__(self, op, z):
        self.op = op
        self.z = complex(z)
        lower, diag, upper = op.pencil(self.z)
        *self._lu, info = zgttrf(lower, diag, upper)
        if info != 0:
            raise NumericalFailure(
                f"singular factorization at z={z}: zgttrf info={info}"
            )
        self._diagonals = (lower, diag, upper)
        self._diagonals_h = (upper.conj(), diag.conj(), lower.conj())

    def _solve(self, rhs, trans, diagonals):
        rhs = np.ascontiguousarray(rhs, dtype=complex)
        # The norm is needed anyway; np.any only runs when it underflows.
        rhs_norm = _norm(rhs)
        if rhs_norm == 0.0 and not np.any(rhs):
            return np.zeros_like(rhs)
        tol = _SOLVE_RESID_TOL * max(rhs_norm, 1e-300)
        x = zgttrs(*self._lu, rhs, trans=trans)[0]
        resid = _residual(diagonals, x, rhs)
        resid_norm = _norm(resid)
        if resid_norm > tol:
            x += zgttrs(*self._lu, resid, trans=trans, overwrite_b=1)[0]
            resid_norm = _norm(_residual(diagonals, x, rhs))
        if resid_norm > tol:
            raise NumericalFailure(
                f"solve residual {resid_norm:.3e} exceeds tolerance",
                history=[resid_norm],
            )
        return x

    def solve(self, rhs):
        """(A - z M)^{-1} M rhs."""
        rhs = _tridiagonal_matvec(*self.op.mass, np.asarray(rhs))
        return self._solve(rhs, "N", self._diagonals)

    def solve_adjoint(self, rhs):
        """M (A - z M)^{-H} rhs, the adjoint of solve (M is real symmetric)."""
        x = self._solve(rhs, "C", self._diagonals_h)
        return _tridiagonal_matvec(*self.op.mass, x)


@functools.lru_cache(maxsize=32)
def _power_start(n):
    """Deterministic generic unit start vector for power iterations, built
    once per size and read-only."""
    v = np.cos(0.7 * np.arange(n)) + 1.3 + 0.1j * np.sin(1.3 * np.arange(n) + 0.4)
    v /= _norm(v)
    v.flags.writeable = False
    return v


# share of the generic start mixed into a warm start
_COLD_SHARE = 1e-2


def weighted_operator_norm(op, z, w_left, w_right, tol=1e-6, max_iter=5000,
                           start=None):
    """Largest singular value of W_l R W_r, matrix-free, where
    R = (A - z M)^{-1} M is the resolvent that ShiftedSolver applies.

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
    # Complex weights: the products with complex vectors cast real ones anyway.
    w_left_sq = (w_left**2).astype(complex)
    w_right = w_right.astype(complex)

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
        rayleigh = _dot(v, u)
        resid = _norm(u - rayleigh * v)
        # u * (1/theta) is bit for bit numpy's u / theta, done faster.
        v = u * (1.0 / theta_new)
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
    W_l (A - z M)^{-1} M W_r."""
    if op.n > _DENSE_SVD_MAX_N:
        raise ConfigError(
            f"dense SVD path limited to N <= {_DENSE_SVD_MAX_N}, got {op.n}"
        )
    w_left = np.asarray(w_left, dtype=float)
    w_right = np.asarray(w_right, dtype=float)
    inv = np.linalg.inv(op.dense(shift=complex(z))) @ _dense(op.n, *op.mass)
    return float(np.linalg.norm(w_left[:, None] * inv * w_right[None, :], ord=2))


def hermitian_eig(op, select_range=None):
    """Eigendecomposition of a Hermitian DiscreteOperator with M = I (a
    pencil's M^{-1} A is not the Hermitian A, and is refused).

    Returns (eigenvalues ascending, orthonormal eigenvectors as columns), by
    eigh_tridiagonal for a real operator and by dense eigh for one with
    nonzero imaginary entries (the generator A_k).  With
    ``select_range=(lo, hi)`` only the eigenpairs in (lo, hi] are returned;
    the tridiagonal path computes only those, the dense path computes all
    and filters.
    """
    if op.mass != _IDENTITY_MASS:
        raise ConfigError("hermitian_eig needs M = I, not a pencil's M^{-1} A")
    if not op.is_hermitian():
        raise ConfigError("operator is not Hermitian")
    if not any(np.any(np.imag(d)) for d in (op.lower, op.main, op.upper)):
        d = np.real(op.main).astype(float)
        e = np.real(op.upper).astype(float)
        select = "a" if select_range is None else "v"
        return sla.eigh_tridiagonal(d, e, select=select,
                                    select_range=select_range)
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
