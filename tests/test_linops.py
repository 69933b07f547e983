"""Discretization, shifted solves, norms, eigendecomposition, Schur bounds."""

import math

import numpy as np
import pytest
from scipy.linalg.lapack import zgttrs
from scipy.special import erf

from hyplab import linops
from hyplab.errors import ConfigError, NumericalFailure
from hyplab.linops import (DiscreteOperator, RadialGrid, ShiftedSolver,
                           d2_operator, dirichlet_laplacian_eigenvalues,
                           discretize, hermitian_eig, outgoing_root,
                           schur_bound, weighted_operator_norm,
                           weighted_operator_norm_dense)
from hyplab.model import ModelConfig, mode_operator_spec

from conftest import make_mode_operator


def _circle_config():
    return ModelConfig(n=2, r0=0.25,
                       cross_section={"kind": "circle", "radius": 1.0})


# ----------------------------------------------------------------------------
# Grids and discretization
# ----------------------------------------------------------------------------


def test_grid_spacing_and_points():
    g = RadialGrid(r0=0.0, r_max=1.0, N=9)
    assert g.h == pytest.approx(0.1)
    assert g.points() == pytest.approx(np.linspace(0.1, 0.9, 9))


def test_d2_stencil_rows():
    g = RadialGrid(r0=0.0, r_max=1.0, N=9)
    op = d2_operator(g)
    dense = op.dense()
    h2 = g.h**2
    assert dense[4, 3] == pytest.approx(-1.0 / h2)
    assert dense[4, 4] == pytest.approx(2.0 / h2)
    assert dense[4, 5] == pytest.approx(-1.0 / h2)


def test_dirichlet_laplacian_eigenvalues_closed_form():
    g = RadialGrid(r0=0.0, r_max=np.pi, N=40)
    evals, _ = hermitian_eig(d2_operator(g))
    j = np.arange(1, g.N + 1)
    expected = (4.0 / g.h**2) * np.sin(j * g.h / 2.0) ** 2
    assert evals == pytest.approx(np.sort(expected), rel=1e-10)
    assert dirichlet_laplacian_eigenvalues(g) == pytest.approx(
        np.sort(expected), rel=1e-12)


def test_discretize_constant_potential_diagonal():
    cfg = _circle_config()
    g = RadialGrid(r0=0.25, r_max=10.25, N=99)
    op = discretize(mode_operator_spec(cfg, 0), g)
    assert op.diagonals[0] == pytest.approx(
        np.full(g.N, 2.0 / g.h**2 + 0.25))


def test_dirichlet_discretize_is_the_order_two_stencil_plus_potential():
    # -delta^2/h^2 + diag(V) with M = I, for a potential that varies.
    cfg = _circle_config()
    g = RadialGrid(r0=0.25, r_max=10.25, N=99)
    spec = mode_operator_spec(cfg, 2)
    op = discretize(spec, g)
    assert op.mass == (0.0, 1.0, 0.0) and op.outgoing_energy is None
    expected = d2_operator(g).dense() + np.diag(spec.potential(g.points()))
    assert np.array_equal(op.dense(), expected)
    assert np.array_equal(op.dense(shift=2.0 - 1j),
                          expected - (2.0 - 1j) * np.eye(g.N))


def test_scaled_shifted_refuses_a_pencil():
    cfg = _circle_config()
    g = RadialGrid(r0=0.25, r_max=30.0, N=400)
    op = discretize(mode_operator_spec(cfg, 1), g, outgoing=4.0)
    with pytest.raises(ConfigError):
        op.scaled_shifted(scale=2.0)
    bare = discretize(mode_operator_spec(cfg, 1), g)
    scaled = bare.scaled_shifted(scale=2.0, shift=-1.0)
    assert np.array_equal(scaled.dense(), 2.0 * bare.dense() - np.eye(g.N))


def test_discretize_r0_mismatch_rejected():
    cfg = _circle_config()
    g = RadialGrid(r0=0.5, r_max=10.0, N=50)
    with pytest.raises(ConfigError):
        discretize(mode_operator_spec(cfg, 0), g)


def _numerov_xi(lam, shift, h):
    t = h**2 * (lam - shift) / 12.0
    return (1.0 - 5.0 * t) / (1.0 + t)


def test_outgoing_root_branches():
    h = 0.1
    # Above threshold: the outgoing root e^{i theta}, cos theta = xi, of
    # Numerov's free recurrence beta + 1/beta = 2 xi.
    beta = outgoing_root(4.0, 0.25, h)
    assert abs(beta) == pytest.approx(1.0, abs=1e-14)
    assert beta.imag > 0.0
    assert beta.real == pytest.approx(_numerov_xi(4.0, 0.25, h), abs=1e-15)
    # Below threshold: the decaying real root of beta + 1/beta = 2 xi.
    beta = outgoing_root(0.1, 0.25, h)
    xi = _numerov_xi(0.1, 0.25, h)
    assert xi > 1.0
    assert beta.imag == 0.0
    assert 0.0 < beta.real < 1.0
    assert beta.real + 1.0 / beta.real == pytest.approx(2.0 * xi, rel=1e-14)
    # h^2 kappa^2 = 5.4 is past the order-2 limit 4 but keeps xi >= -1.
    beta = outgoing_root(5.4 / h**2 + 0.25, 0.25, h)
    assert abs(beta) == pytest.approx(1.0, abs=1e-14) and beta.imag > 0.0
    # A step that does not resolve the wavelength has xi < -1 and no
    # outgoing root; neither has a step with h^2 kappa^2 <= -12.
    for lam in (6.0 / h**2 + 1.0, 0.25 - 12.0 / h**2):
        with pytest.raises(ConfigError):
            outgoing_root(lam, 0.25, h)
    assert _numerov_xi(6.0 / h**2 + 1.0, 0.25, h) < -1.0


def _numerov_pencil(op, z):
    """Dense A - z M and M of a Numerov operator, with the mass matrix
    M = tridiag(1, 10, 1)/12 written out."""
    n = op.n
    mass = (10.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)) / 12.0
    return op.dense() - z * mass, mass


def test_outgoing_closure_is_one_diagonal_entry():
    cfg = _circle_config()
    g = RadialGrid(r0=0.25, r_max=30.0, N=400)
    spec = mode_operator_spec(cfg, 1)
    bare = discretize(spec, g)
    closed = discretize(spec, g, outgoing=4.0)
    assert closed.outgoing_energy == 4.0 and bare.outgoing_energy is None
    # The Dirichlet box keeps the order-2 stencil, with M = I.
    assert bare.mass == (0.0, 1.0, 0.0)
    assert bare.diagonals[1] == pytest.approx(np.full(g.N - 1, -1.0 / g.h**2))
    # The unclosed Numerov pencil: A = -delta^2/h^2 + M diag(V).
    v = spec.potential(g.points())
    h2 = g.h**2
    unclosed = {0: 2.0 / h2 + 10.0 * v / 12.0,
                1: -1.0 / h2 + v[1:] / 12.0,
                -1: -1.0 / h2 + v[:-1] / 12.0}
    assert closed.mass == (1.0 / 12.0, 10.0 / 12.0, 1.0 / 12.0)
    for off in (1, -1):
        assert closed.diagonals[off] == pytest.approx(unclosed[off],
                                                      rel=1e-15)
    delta = closed.diagonals[0] - unclosed[0]
    assert np.max(np.abs(delta[:-1])) <= 1e-15 * np.max(unclosed[0])
    kappa_sq = 4.0 - 0.25
    assert delta[-1] == pytest.approx(
        outgoing_root(4.0, 0.25, g.h) * (-1.0 / h2 - kappa_sq / 12.0),
        rel=1e-12)
    # dense() applies the mass: A - z M.
    pencil, _ = _numerov_pencil(closed, 4.0)
    assert np.array_equal(closed.dense(shift=4.0), pencil)


def test_outgoing_closure_rejects_unmet_assumptions():
    cfg = _circle_config()
    # mu_k e^{-2 r_max} = 9 e^{-10} is far above the 1e-9 tail tolerance.
    short = RadialGrid(r0=0.25, r_max=5.0, N=200)
    with pytest.raises(ConfigError):
        discretize(mode_operator_spec(cfg, 3), short, outgoing=4.0)
    # h = 0.5 cannot carry a wave at energy 100.
    coarse = RadialGrid(r0=0.25, r_max=30.0, N=59)
    with pytest.raises(ConfigError):
        discretize(mode_operator_spec(cfg, 0), coarse, outgoing=100.0)


def test_mode_operator_spectrum_above_threshold():
    cfg = _circle_config()
    g = RadialGrid(r0=0.25, r_max=40.0, N=600)
    op = discretize(mode_operator_spec(cfg, 0), g)
    evals, _ = hermitian_eig(op)
    assert evals[0] >= 0.25 - 5.0 * g.h**2


# ----------------------------------------------------------------------------
# Shifted solves
# ----------------------------------------------------------------------------


def _diag_operator(values, pad_to=8, pad_from=100.0):
    """Diagonal operator holding `values`, padded with distant entries to
    satisfy the minimum grid size."""
    vals = list(np.asarray(values, dtype=float))
    while len(vals) < pad_to:
        vals.append(pad_from + len(vals))
    g = RadialGrid(r0=0.0, r_max=float(len(vals) + 1), N=len(vals))
    return DiscreteOperator(g, {0: np.asarray(vals)})


def test_shifted_solve_scalar_diagonal():
    op = _diag_operator([1.0, 2.0, 3.0])
    rhs = np.zeros(op.n, dtype=complex)
    rhs[0] = 1.0
    x = ShiftedSolver(op, 1j).solve(rhs)
    # scalar inversion 1/(1 - i) = (1 + i)/2
    assert x[0] == pytest.approx((1.0 + 1j) / 2.0)
    assert np.all(x[1:] == 0.0)


def test_shifted_solve_zero_rhs():
    op = _diag_operator([1.0, 2.0, 3.0])
    x = ShiftedSolver(op, 1j).solve(np.zeros(op.n, dtype=complex))
    assert np.all(x == 0.0)


def test_shifted_solve_residual_certificate():
    cfg = _circle_config()
    g = RadialGrid(r0=0.25, r_max=30.0, N=500)
    op = make_mode_operator(cfg, 1, g)
    rng = np.random.default_rng(7)
    rhs = rng.standard_normal(g.N) + 1j * rng.standard_normal(g.N)
    z = 4.0
    x = ShiftedSolver(op, z).solve(rhs)
    _, mass = _numerov_pencil(op, z)
    # The solve is (A - z M)^{-1} M rhs, certified on A - z M.
    residual = op.matvec(x) - z * (mass @ x) - mass @ rhs
    assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(mass @ rhs)


def _counting_zgttrs(monkeypatch):
    """Route linops' zgttrs through a call log; returns the logged trans."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("trans", "N"))
        return zgttrs(*args, **kwargs)

    monkeypatch.setattr(linops, "zgttrs", counted)
    return calls


def _sweep_like_solver(N=500):
    cfg = _circle_config()
    g = RadialGrid(r0=0.25, r_max=30.0, N=N)
    rng = np.random.default_rng(11)
    rhs = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    op = make_mode_operator(cfg, 1, g)
    return op, ShiftedSolver(op, 4.0), rhs


def test_shifted_solve_skips_refinement_within_the_certificate(monkeypatch):
    # LU with partial pivoting already meets the residual certificate, so
    # each solve takes one zgttrs and no refinement step.
    op, solver, rhs = _sweep_like_solver()
    calls = _counting_zgttrs(monkeypatch)
    x = solver.solve(rhs)
    y = solver.solve_adjoint(rhs)
    assert calls == ["N", "C"]
    mat, mass = _numerov_pencil(op, 4.0)
    # x = (A - z M)^{-1} M rhs and y = M (A - z M)^{-H} rhs.
    for lhs, b in ((mat @ x, mass @ rhs),
                   (mat.conj().T @ np.linalg.solve(mass, y), rhs)):
        assert np.linalg.norm(lhs - b) <= 1e-10 * np.linalg.norm(b)


def test_shifted_solve_refines_when_the_first_solve_misses(monkeypatch):
    # Perturbed multipliers (an inexact factorization) leave the first
    # residual near 1e-8 of the right-hand side; one refinement step with
    # the same factors brings it under the certificate.
    op, solver, rhs = _sweep_like_solver()
    solver._lu[0] *= 1.0 + 1e-8
    mat, mass = _numerov_pencil(op, 4.0)
    b = mass @ rhs
    unrefined = zgttrs(*solver._lu, b)[0]
    assert np.linalg.norm(mat @ unrefined - b) > 1e-10 * np.linalg.norm(b)
    calls = _counting_zgttrs(monkeypatch)
    x = solver.solve(rhs)
    assert calls == ["N", "N"]
    assert np.linalg.norm(mat @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_shifted_solve_adjoint_matches_dense():
    # The outgoing closure, and Numerov's M diag(V) for a varying potential,
    # make A - z M non-Hermitian, so the adjoint solve differs from the
    # direct and the transposed one.
    cfg = _circle_config()
    g = RadialGrid(r0=0.25, r_max=30.0, N=300)
    op = make_mode_operator(cfg, 1, g)
    z = 4.0
    mat, mass = _numerov_pencil(op, z)
    assert np.max(np.abs(mat - mat.conj().T)) > 1.0
    resolvent = np.linalg.inv(mat) @ mass
    rng = np.random.default_rng(3)
    rhs = rng.standard_normal(g.N) + 1j * rng.standard_normal(g.N)
    other = rng.standard_normal(g.N) + 1j * rng.standard_normal(g.N)
    solver = ShiftedSolver(op, z)
    x, y = solver.solve(rhs), solver.solve_adjoint(other)
    for sol, ref in ((x, resolvent @ rhs), (y, resolvent.conj().T @ other)):
        assert np.linalg.norm(sol - ref) <= 1e-10 * np.linalg.norm(ref)
    # <R rhs, other> = <rhs, R^* other>.
    assert np.vdot(other, x) == pytest.approx(np.vdot(y, rhs), rel=1e-10)


def test_dirichlet_box_solves_match_dense():
    # With M = I the resolvent is (A - z)^{-1} and its adjoint (A - z)^{-H}.
    cfg = _circle_config()
    g = RadialGrid(r0=0.25, r_max=30.0, N=1200)
    op = discretize(mode_operator_spec(cfg, 2), g)
    z = 100.0 + 1j
    mat = op.dense(z)
    rng = np.random.default_rng(5)
    rhs = rng.standard_normal(g.N) + 1j * rng.standard_normal(g.N)
    other = rng.standard_normal(g.N) + 1j * rng.standard_normal(g.N)
    solver = ShiftedSolver(op, z)
    x, y = solver.solve(rhs), solver.solve_adjoint(other)
    for sol, ref in ((x, np.linalg.solve(mat, rhs)),
                     (y, np.linalg.solve(mat.conj().T, other))):
        assert np.linalg.norm(sol - ref) <= 1e-10 * np.linalg.norm(ref)


def test_shifted_solve_of_a_tiny_rhs_is_not_zero():
    # Entries of 1e-170 square to below the smallest double, so the norm of
    # the right-hand side underflows to 0; the solve must still run.
    op = _diag_operator([1.0, 2.0, 3.0])
    solver = ShiftedSolver(op, 0.5j)
    rhs = 1e-170 * (1.0 + np.arange(op.n) * (1.0 - 1j))
    assert linops._norm(rhs) == 0.0
    x = solver.solve(rhs)
    assert np.all(x != 0.0)
    assert np.allclose(x, rhs / (op.main - 0.5j), rtol=1e-12, atol=0.0)


def test_shifted_solver_singular_pivot_raises():
    op = _diag_operator([1.0, 2.0, 3.0])
    with pytest.raises(NumericalFailure):
        ShiftedSolver(op, 2.0)


def test_operator_rejects_offset_two():
    g = RadialGrid(r0=0.0, r_max=1.0, N=9)
    for extra in ({2: np.ones(7)}, {-2: np.ones(7)},
                  {2: np.ones(7), -2: np.ones(7)}):
        with pytest.raises(ConfigError):
            DiscreteOperator(g, {**d2_operator(g).diagonals, **extra})


def _greens_solution(grid, z, rhs):
    """Outgoing Green's function of D_r^2 + 1/4 on [r0, inf), Dirichlet at
    r0, applied to a grid function by the trapezoid-free Riemann sum that
    matches the grid inner product."""
    kappa = np.sqrt(complex(z) - 0.25)
    if kappa.imag < 0:
        kappa = -kappa
    r = grid.points()
    rl = np.minimum.outer(r, r) - grid.r0
    rg = np.maximum.outer(r, r) - grid.r0
    G = np.sin(kappa * rl) * np.exp(1j * kappa * rg) / kappa
    return (G * grid.h) @ rhs


def test_shifted_solve_matches_greens_function_at_order_two():
    cfg = _circle_config()
    z = 4.0 + 2.0j
    errors = []
    hs = []
    for N in (300, 600, 1200):
        g = RadialGrid(r0=0.25, r_max=30.25, N=N)
        op = discretize(mode_operator_spec(cfg, 0), g)
        r = g.points()
        rhs = np.exp(-((r - 8.0) ** 2))
        x = ShiftedSolver(op, z).solve(rhs.astype(complex))
        u = _greens_solution(g, z, rhs)
        errors.append(np.max(np.abs(x - u)))
        hs.append(g.h)
    rate = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    assert rate == pytest.approx(2.0, abs=0.3)


def _free_outgoing_solution(grid, lam, center):
    """Outgoing solution of (D_r^2 + 1/4 - lam - i0) u = e^{-(r - center)^2}
    on [r0, inf), Dirichlet at r0, in closed form at the grid points: the
    kernel sin(k(r_< - r0)) e^{ik(r_> - r0)} / k, k = (lam - 1/4)^{1/2},
    integrated against the Gaussian with the complex error function."""
    k = np.sqrt(lam - 0.25)
    rho = grid.points() - grid.r0
    a = center - grid.r0

    def wave_integral(w, lo, hi):
        # int_lo^hi e^{i w s} e^{-(s - a)^2} ds
        c = a + 0.5j * w
        return (np.exp(1j * w * a - 0.25 * w * w) * 0.5 * np.sqrt(np.pi)
                * (erf(hi - c) - erf(lo - c)))

    below = (wave_integral(k, 0.0, rho) - wave_integral(-k, 0.0, rho)) / 2j
    above = wave_integral(k, rho, np.inf)
    return (np.exp(1j * k * rho) * below + np.sin(k * rho) * above) / k


def test_outgoing_closure_matches_free_kernel_at_order_four():
    # The box ends at 15.25, where the wave is still large: a wrong closure
    # reflects it back over the whole box.  The oracle is exact, so the
    # rate is the scheme's own.
    cfg = ModelConfig(n=2, r0=0.25, cross_section={"kind": "custom", "mu": [0.0]})
    lam = 4.0
    errors = []
    hs = []
    for N in (1499, 2999, 5999):
        g = RadialGrid(r0=0.25, r_max=15.25, N=N)
        op = discretize(mode_operator_spec(cfg, 0), g, outgoing=lam)
        r = g.points()
        rhs = np.exp(-((r - 8.0) ** 2))
        x = ShiftedSolver(op, lam).solve(rhs.astype(complex))
        u = _free_outgoing_solution(g, lam, 8.0)
        errors.append(np.max(np.abs(x - u)) / np.max(np.abs(u)))
        hs.append(g.h)
    assert errors[0] <= 5e-4
    rate = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    assert rate == pytest.approx(4.0, abs=0.3)


# ----------------------------------------------------------------------------
# Norms
# ----------------------------------------------------------------------------


def test_weighted_norm_normal_matrix():
    op = _diag_operator([1.0, 2.0, 3.0])
    w = np.ones(op.n)
    eps = 1e-2
    norm, _, _ = weighted_operator_norm(op, 2.0 + 1j * eps, w, w)
    assert norm == pytest.approx(1.0 / eps, rel=1e-5)


def test_weighted_norm_zero_weights():
    op = _diag_operator([1.0, 2.0, 3.0])
    zero = np.zeros(op.n)
    assert weighted_operator_norm(op, 1j, zero, zero) == (0.0, None, 0)


def test_weighted_norm_matches_dense_svd():
    cfg = _circle_config()
    g = RadialGrid(r0=0.25, r_max=30.0, N=400)
    op = make_mode_operator(cfg, 0, g)
    r = g.points()
    w = (1.0 + r**2) ** -0.5
    z = 4.0
    iterative, _, _ = weighted_operator_norm(op, z, w, w)
    dense = weighted_operator_norm_dense(op, z, w, w)
    mat, mass = _numerov_pencil(op, z)
    matrix = w[:, None] * (np.linalg.inv(mat) @ mass) * w[None, :]
    assert dense == pytest.approx(np.linalg.norm(matrix, 2), rel=1e-12)
    assert iterative == pytest.approx(dense, rel=1e-6)
    # sqrt(||G v||) for a unit v is a lower bound on the norm.
    assert iterative <= dense * (1.0 + 1e-10)


def test_weighted_norm_warm_start():
    cfg = _circle_config()
    g = RadialGrid(r0=0.25, r_max=30.0, N=400)
    op = make_mode_operator(cfg, 0, g)
    r = g.points()
    w = (1.0 + r**2) ** -0.5
    z = 4.0
    mat, mass = _numerov_pencil(op, z)
    matrix = w[:, None] * (np.linalg.inv(mat) @ mass) * w[None, :]
    _, sigma, vh = np.linalg.svd(matrix)
    cold, vector, cold_steps = weighted_operator_norm(op, z, w, w)
    assert np.linalg.norm(vector) == pytest.approx(1.0, rel=1e-14)
    # The returned vector is the top right singular vector up to a phase.
    assert abs(np.vdot(vh[0].conj(), vector)) == pytest.approx(1.0, abs=1e-6)
    warm, _, warm_steps = weighted_operator_norm(op, z, w, w, start=vector)
    assert warm == pytest.approx(sigma[0], rel=1e-6)
    assert warm_steps < cold_steps
    # A start orthogonal to the top direction still reaches it, through the
    # share of the generic start mixed in.
    lost, _, _ = weighted_operator_norm(op, z, w, w, start=vh[1].conj())
    assert lost == pytest.approx(sigma[0], rel=1e-6)


def _exact_dot(a, b):
    """Re <a, b> of two float64 vectors, correctly rounded: each product is
    split exactly into p + e (Dekker's two-product), and math.fsum sums all
    the parts exactly before one rounding."""
    split = 134217729.0  # 2**27 + 1

    def halves(v):
        c = split * v
        hi = c - (c - v)
        return hi, v - hi

    p = a * b
    a_hi, a_lo = halves(a)
    b_hi, b_lo = halves(b)
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return math.fsum(np.concatenate([p, e]))


@pytest.mark.parametrize("n", [1, 172, 10556])
def test_norm_and_dot_match_an_exact_sum(n):
    # 10,556 points (refine = 4 at lambda = 10^4) is past the length at which
    # OpenBLAS threads its level-1 calls; the helpers make none.  The oracle
    # is exact, since numpy's own BLAS-backed norm and vdot round about as
    # much as the helpers do; they serve only as a looser sanity check.
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    near = x + 1e-3 * y

    def floats(v):
        return np.ascontiguousarray(v).view(np.float64)

    for a, b in ((x, y), (x.real, y.real)):
        norm_a = math.sqrt(_exact_dot(floats(a), floats(a)))
        norm_b = math.sqrt(_exact_dot(floats(b), floats(b)))
        assert linops._norm(a) == pytest.approx(norm_a, rel=1e-15)
        assert linops._norm(a) == pytest.approx(np.linalg.norm(a), rel=1e-13)
        dot = _exact_dot(floats(a), floats(b))
        assert abs(linops._dot(a, b) - dot) <= 1e-15 * norm_a * norm_b
        assert abs(linops._dot(a, b) - np.vdot(a, b).real) <= (
            1e-13 * norm_a * norm_b)
    # Nearly parallel, as in the Rayleigh quotient <v, G v>.
    assert linops._dot(x, near) == pytest.approx(
        _exact_dot(floats(x), floats(near)), rel=1e-15)
    for zero in (np.zeros(n, dtype=complex), np.zeros(n)):
        assert linops._norm(zero) == 0.0
        assert linops._dot(zero, zero) == 0.0


def test_gram_steps_make_two_zgttrs_calls_and_one_start_per_size(
        monkeypatch):
    # Over a sweep's chains of cold and warm-started cells on Numerov's
    # pencil, each Gram step is one solve and one adjoint solve of one
    # zgttrs call each, and the start vector is built once per grid size,
    # not once per cell.
    from hyplab.laplab import SweepConfig, lambda_sweep

    linops._power_start.cache_clear()
    calls = _counting_zgttrs(monkeypatch)
    result = lambda_sweep(SweepConfig(lambdas=(1e2, 1e3), K_max=3))
    steps = sum(row["iterations"] for row in result.rows)
    assert steps > len(result.rows)
    assert calls == ["N", "C"] * steps
    info = linops._power_start.cache_info()
    assert info.misses == 2
    assert info.hits == len(result.rows) - 2 == 6


def test_power_start_cache_is_read_only_and_left_unchanged():
    cfg = _circle_config()
    g = RadialGrid(r0=0.25, r_max=30.0, N=400)
    op = make_mode_operator(cfg, 0, g)
    w = (1.0 + g.points()**2) ** -0.5
    z = 4.0
    linops._power_start.cache_clear()
    cold = weighted_operator_norm(op, z, w, w)
    start = linops._power_start(op.n)
    kept = start.copy()
    with pytest.raises(ValueError):
        start[0] = 0.0
    again = weighted_operator_norm(op, z, w, w)
    assert linops._power_start.cache_info().misses == 1
    assert again[0] == cold[0] and again[2] == cold[2]
    assert np.array_equal(again[1], cold[1])
    weighted_operator_norm(op, z, w, w, start=cold[1])
    assert linops._power_start(op.n) is start
    assert np.array_equal(start, kept)


def test_outgoing_closure_passivity_resolvent_bound():
    # Im beta >= 0 makes the closed operator dissipative, so its resolvent
    # obeys ||(H - z)^{-1}|| <= 1 / Im z in the upper half plane.
    cfg = _circle_config()
    g = RadialGrid(r0=0.25, r_max=30.0, N=400)
    op = make_mode_operator(cfg, 1, g)
    w = np.ones(g.N)
    for eps in (0.5, 0.1, 0.01):
        norm, _, _ = weighted_operator_norm(op, 4.0 + 1j * eps, w, w)
        assert norm <= (1.0 + 1e-6) / eps


# ----------------------------------------------------------------------------
# Eigendecomposition
# ----------------------------------------------------------------------------


def test_hermitian_eig_diagonal_permutation():
    op = _diag_operator([3.0, 1.0, 2.0])
    evals, evecs = hermitian_eig(op)
    assert evals[:3] == pytest.approx([1.0, 2.0, 3.0])
    # permutation eigenvectors for the three distinguished entries
    assert np.abs(evecs[:3, :3]) == pytest.approx(
        np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float), abs=1e-12)


def test_hermitian_eig_residuals_and_orthonormality():
    cfg = _circle_config()
    g = RadialGrid(r0=0.25, r_max=30.0, N=300)
    op = discretize(mode_operator_spec(cfg, 2), g)
    evals, evecs = hermitian_eig(op)
    dense = op.dense().real
    scale = np.linalg.norm(dense, 2)
    for j in (0, 100, 299):
        res = np.linalg.norm(dense @ evecs[:, j] - evals[j] * evecs[:, j])
        assert res <= 1e-8 * scale
    gram = evecs.T @ evecs
    assert np.max(np.abs(gram - np.eye(g.N))) <= 1e-10


def test_hermitian_eig_rejects_cap():
    # A complex absorbing potential makes the operator non-Hermitian, and the
    # outgoing closure is a pencil with M != I.
    cfg = _circle_config()
    g = RadialGrid(r0=0.25, r_max=30.0, N=100)
    bare = discretize(mode_operator_spec(cfg, 0), g)
    ramp = np.clip((g.points() - 22.0) / 8.0, 0.0, None) ** 2
    for op in (bare.scaled_shifted(shift=-5j * ramp),
               make_mode_operator(cfg, 0, g)):
        with pytest.raises(ConfigError):
            hermitian_eig(op)


# ----------------------------------------------------------------------------
# Schur bounds
# ----------------------------------------------------------------------------


def test_schur_bound_rank_one_tight():
    n = 64
    h = 1.0 / n
    kernel = np.ones((n, n))
    assert schur_bound(kernel, np.full(n, h)) == pytest.approx(1.0)


def test_schur_bound_diagonal():
    d = np.array([0.5, -2.0, 1.0])
    h = 0.1
    kernel = np.diag(d) / h
    assert schur_bound(kernel, np.full(3, h)) == pytest.approx(2.0)


def test_schur_bound_dominates_svd():
    x = np.linspace(0.0, 10.0, 201)
    h = x[1] - x[0]
    kernel = np.exp(-np.subtract.outer(x, x) ** 2)
    bound = schur_bound(kernel, np.full(x.size, h))
    true_norm = np.linalg.norm(kernel * h, 2)
    assert bound >= true_norm


# ----------------------------------------------------------------------------
# Elliptic bound: ||D^2 (H_k + i)^{-1}|| uniform over modes
# ----------------------------------------------------------------------------


def test_elliptic_bound_uniform_over_modes():
    cfg = _circle_config()
    g = RadialGrid(r0=0.25, r_max=20.0, N=250)
    d2 = d2_operator(g).dense()

    def sup_over(K):
        vals = []
        for k in range(K + 1):
            H = discretize(mode_operator_spec(cfg, k), g).dense()
            R = np.linalg.inv(H + 1j * np.eye(g.N))
            vals.append(np.linalg.norm(d2 @ R, 2))
        return max(vals)

    s8 = sup_over(8)
    s16 = sup_over(16)
    assert abs(s16 - s8) <= 0.1 * s8
