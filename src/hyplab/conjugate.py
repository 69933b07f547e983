"""Escape-function conjugate operator: a_k, its flow, and the unitary group.

The conjugate operator for mode k is built from the radial vector field

    a_k(r) = (r + 2S - log nu_k) chi_R(r) xi_S(r - log nu_k),

with chi_R(r) = chi(r/R) and xi_S(x) = xi(x/S).  The associated objects are

* the flow gamma_t solving d/dt gamma = a(gamma), with its spatial
  derivative d_r gamma_t(r) = a(gamma_t(r)) / a(r) in closed form;
* the induced unitary group U_t phi = (d_r gamma_t)^{1/2} phi(gamma_t);
* the Hermitian generator A_k = a_k D_r - i a_k'/2, whose commutators
  with H_k hyplab.mourre assembles from the derivatives of a_k.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from hyplab.errors import ConfigError, FlowExitsGrid, NumericalFailure
from hyplab.weights import cutoff_derivs

A_MAX_DERIVATIVE = 5


@dataclasses.dataclass(frozen=True)
class ConjugateParams:
    """Cutoff scales (R, S); from_lambda derives them from an energy."""

    R: float
    S: float

    @staticmethod
    def from_lambda(lam):
        if lam <= 0:
            raise ConfigError("lambda must be positive")
        return ConjugateParams(R=math.log(5.0 * lam), S=math.log(4.0 * lam))

    def validate(self, r0):
        if not (self.R > self.S > r0 + 1.0):
            raise ConfigError(
                f"require R > S > r0+1, got R={self.R}, S={self.S}, r0={r0}"
            )


def a_k_derivs(params, nu_k, r, top):
    """[a_k, a_k', ..., a_k^{(top)}] at r, by the Leibniz rule over the
    factors of a_k, with one profile evaluation per cutoff factor.

    Derivatives are supported to order 5, one beyond the bound table, so that
    products a_k * a_k^{(j+1)} can be formed for j up to 4.
    """
    if not (0 <= top <= A_MAX_DERIVATIVE):
        raise ConfigError(f"derivative order {top} outside [0, {A_MAX_DERIVATIVE}]")
    r = np.asarray(r, dtype=float)
    scal = r.ndim == 0
    r = np.atleast_1d(r)
    R, S = params.R, params.S
    lognu = math.log(nu_k)
    u = r + 2.0 * S - lognu
    orders = range(top + 1)
    chi_d = [c / R**m for m, c in enumerate(cutoff_derivs("chi", r / R, orders))]
    xi_d = [c / S**m
            for m, c in enumerate(cutoff_derivs("xi", (r - lognu) / S, orders))]

    # p = chi * xi by the Leibniz rule; u' = 1 and u'' = 0 give
    # a^{(j)} = u p^{(j)} + j p^{(j-1)}.
    p = []
    for j in orders:
        pj = chi_d[0] * xi_d[j]
        for i in range(1, j + 1):
            pj = pj + math.comb(j, i) * chi_d[i] * xi_d[j - i]
        p.append(pj)
    derivs = [u * p[0]] + [u * p[j] + j * p[j - 1] for j in orders[1:]]
    return [d[0] for d in derivs] if scal else derivs


def a_k_eval(params, nu_k, r, j=0):
    """j-th derivative of a_k at r (0 <= j <= 5); see a_k_derivs."""
    return a_k_derivs(params, nu_k, r, j)[j]


@dataclasses.dataclass(frozen=True)
class AkField:
    """The field that drives the flow: x -> (a_k(x), a_k'(x)), and a_k(x)
    alone through ``value``, for the stepper, which needs no a_k'."""

    params: ConjugateParams
    nu_k: float

    def __call__(self, x):
        return tuple(a_k_derivs(self.params, self.nu_k, x, 1))

    def value(self, x):
        return a_k_eval(self.params, self.nu_k, x)


def a_k_field(params, nu_k):
    """The field pair x -> (a_k(x), a_k'(x)) that drives the flow."""
    return AkField(params, nu_k)


@dataclasses.dataclass
class FlowResult:
    """Flow values at the grid points for one time t."""

    t: float
    gamma: np.ndarray
    dgamma: np.ndarray
    n_steps: int
    n_evals: int

    def gronwall_ok(self, a_prime_sup):
        """Check ||d_r gamma||_inf <= e^{||a'||_inf |t|}."""
        bound = math.exp(a_prime_sup * abs(self.t))
        return float(np.max(self.dgamma)) <= bound * (1.0 + 1e-10)


# ----------------------------------------------------------------------------
# Dormand-Prince 8(5,3) stepper (Hairer-Norsett-Wanner, Solving ODEs I,
# II.10), as scipy.integrate.solve_ivp(method="DOP853") runs it
# ----------------------------------------------------------------------------

# The 12 stepping stages of the tableau, from SciPy's
# scipy/integrate/_ivp/dop853_coefficients.py.  The field is autonomous, so
# the stage times (the c column) are never needed; there is no dense output.
_DOP_A = np.zeros((12, 12))
_DOP_A[1, 0] = 5.26001519587677318785587544488e-2
_DOP_A[2, :2] = (1.97250569845378994544595329183e-2,
                 5.91751709536136983633785987549e-2)
_DOP_A[3, [0, 2]] = (2.95875854768068491816892993775e-2,
                     8.87627564304205475450678981324e-2)
_DOP_A[4, [0, 2, 3]] = (2.41365134159266685502369798665e-1,
                        -8.84549479328286085344864962717e-1,
                        9.24834003261792003115737966543e-1)
_DOP_A[5, [0, 3, 4]] = (3.7037037037037037037037037037e-2,
                        1.70828608729473871279604482173e-1,
                        1.25467687566822425016691814123e-1)
_DOP_A[6, [0, 3, 4, 5]] = (3.7109375e-2, 1.70252211019544039314978060272e-1,
                           6.02165389804559606850219397283e-2, -1.7578125e-2)
_DOP_A[7, [0, 3, 4, 5, 6]] = (3.70920001185047927108779319836e-2,
                              1.70383925712239993810214054705e-1,
                              1.07262030446373284651809199168e-1,
                              -1.53194377486244017527936158236e-2,
                              8.27378916381402288758473766002e-3)
_DOP_A[8, [0, 3, 4, 5, 6, 7]] = (6.24110958716075717114429577812e-1,
                                 -3.36089262944694129406857109825,
                                 -8.68219346841726006818189891453e-1,
                                 2.75920996994467083049415600797e1,
                                 2.01540675504778934086186788979e1,
                                 -4.34898841810699588477366255144e1)
_DOP_A[9, [0, 3, 4, 5, 6, 7, 8]] = (4.77662536438264365890433908527e-1,
                                    -2.48811461997166764192642586468,
                                    -5.90290826836842996371446475743e-1,
                                    2.12300514481811942347288949897e1,
                                    1.52792336328824235832596922938e1,
                                    -3.32882109689848629194453265587e1,
                                    -2.03312017085086261358222928593e-2)
_DOP_A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = (-9.3714243008598732571704021658e-1,
                                        5.18637242884406370830023853209,
                                        1.09143734899672957818500254654,
                                        -8.14978701074692612513997267357,
                                        -1.85200656599969598641566180701e1,
                                        2.27394870993505042818970056734e1,
                                        2.49360555267965238987089396762,
                                        -3.0467644718982195003823669022)
_DOP_A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = (
    2.27331014751653820792359768449, -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
    2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
    -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1)
# the 8th-order weights, and the 5th- and 3rd-order error estimators over
# the 12 stages plus the derivative at the new point
_DOP_B = np.zeros(12)
_DOP_B[[0, 5, 6, 7, 8, 9, 10, 11]] = (
    5.42937341165687622380535766363e-2, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2)
_DOP_E3 = np.zeros(13)
_DOP_E3[:-1] = _DOP_B
_DOP_E3[0] -= 0.244094488188976377952755905512
_DOP_E3[8] -= 0.733846688281611857341361741547
_DOP_E3[11] -= 0.220588235294117647058823529412e-1
_DOP_E5 = np.zeros(13)
_DOP_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = (
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1)

# step control: h_new = h * SAFETY * err^(-1/8), the factor kept in
# [MIN_FACTOR, MAX_FACTOR], and no growth on the step after a rejection
_DOP_SAFETY, _DOP_MIN_FACTOR, _DOP_MAX_FACTOR = 0.9, 0.2, 10
_DOP_EXPONENT = -1 / 8
# the flow's relative and absolute tolerances
_DOP_RTOL, _DOP_ATOL = 1e-11, 1e-12


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _dop853(fun, t0, y0, t1):
    """(y(t1), fun(y(t1)), accepted steps, evaluations of fun) for y' =
    fun(y), y(t0) = y0, at _DOP_RTOL and _DOP_ATOL, with SciPy's DOP853
    initial step, error norm and step control, so that the result matches
    solve_ivp(method="DOP853") bit for bit.

    Raises NumericalFailure when the step falls below ten spacings of the
    floating-point numbers at t, as solve_ivp fails.
    """
    direction = np.sign(t1 - t0)
    y, f = y0, fun(y0)
    # initial step (HNW II.4): the Euler step's scale and the change of f
    # along it, at error order 8
    scale = _DOP_ATOL + np.abs(y) * _DOP_RTOL
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, abs(t1 - t0))
    d2 = _rms((fun(y + h0 * direction * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100 * h0, h1, abs(t1 - t0))

    K = np.empty((13, y.size))
    t, n_steps, n_evals = t0, 0, 2  # fun(y0) and the initial-step probe
    while direction * (t - t1) < 0:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise NumericalFailure(
                    f"flow integration failed: the step fell below the "
                    f"minimum {min_step:.3g} at t = {t:.17g}")
            t_new = t + h_abs * direction
            if direction * (t_new - t1) > 0:
                t_new = t1
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s in range(1, 12):
                K[s] = fun(y + np.dot(K[:s].T, _DOP_A[s, :s]) * h)
            y_new = y + h * np.dot(K[:-1].T, _DOP_B)
            K[-1] = f_new = fun(y_new)
            n_evals += 12
            scale = _DOP_ATOL + np.maximum(np.abs(y),
                                           np.abs(y_new)) * _DOP_RTOL
            err5 = np.linalg.norm(np.dot(K.T, _DOP_E5) / scale) ** 2
            err3 = np.linalg.norm(np.dot(K.T, _DOP_E3) / scale) ** 2
            if err5 == 0 and err3 == 0:
                error_norm = 0.0
            else:
                error_norm = h_abs * err5 / np.sqrt(
                    (err5 + 0.01 * err3) * scale.size)
            if error_norm < 1:
                break
            h_abs *= max(_DOP_MIN_FACTOR,
                         _DOP_SAFETY * error_norm ** _DOP_EXPONENT)
            rejected = True
        if error_norm == 0:
            factor = _DOP_MAX_FACTOR
        else:
            factor = min(_DOP_MAX_FACTOR,
                         _DOP_SAFETY * error_norm ** _DOP_EXPONENT)
        h_abs *= min(1, factor) if rejected else factor
        t, y, f = t_new, y_new, f_new
        n_steps += 1
    return y, f, n_steps, n_evals


def flow_integrate(field, t, r, start=None):
    """Integrate the flow gamma_t of the field a from the points r.

    Parameters
    ----------
    field : callable
        The vector field and its derivative, x -> (a(x), a'(x)), vectorized.
        It is called once at r; the stepper evaluates a alone, through
        ``field.value`` where the field has one (a_k_field), else as
        field(y)[0].
    t : float
        Flow time (either sign).
    r : array_like
        Starting points (typically the radial grid).
    start : FlowResult, optional
        An earlier result on the same r.  The solve then runs from
        (start.t, start.gamma) to t, by the group law
        gamma_t = gamma_{t - s} o gamma_s.

    Only the positions are integrated.  The flow is one-dimensional and
    autonomous, so differentiating int_r^{gamma_t(r)} dx / a = t in r gives
    d_r gamma_t(r) = a(gamma_t(r)) / a(r).  Points where a(r) = 0 are fixed
    points: gamma stays put and d_r gamma_t = e^{a'(r) t}.  The other points
    go to Dormand-Prince 8(5,3) (_dop853), whose last stage supplies
    a(gamma_t).
    """
    r = np.asarray(r, dtype=float)
    if start is None:
        start = FlowResult(0.0, r, np.ones(r.size), 0, 0)
    gamma = start.gamma.copy()
    if t == start.t:
        return FlowResult(t, gamma, start.dgamma.copy(), 0, 0)
    a, a_prime = field(r)
    moving = a != 0.0
    dgamma = np.exp(a_prime * t)
    n_steps, n_evals = 0, 1
    if np.any(moving):
        value = getattr(field, "value", lambda y: field(y)[0])
        gamma[moving], a_t, n_steps, n_solver_evals = _dop853(
            value, float(start.t), gamma[moving], float(t))
        dgamma[moving] = a_t / a[moving]
        n_evals += n_solver_evals
    if np.any(dgamma <= 0.0):
        raise NumericalFailure("flow lost positivity of d_r gamma")
    return FlowResult(t, gamma, dgamma, n_steps, n_evals)


def unitary_apply(flow, phi, r):
    """Transported function U_t phi = (d_r gamma_t)^{1/2} phi(gamma_t).

    flow is the flow_integrate result on the increasing points r, where phi
    is sampled; values of phi at gamma_t(r) are obtained by piecewise-linear
    interpolation, whose O(h^2) error scale matches the discretization
    order used everywhere else.  The flow maps the grid onto
    [gamma_t(r[0]), gamma_t(r[-1])], so U_t keeps the norm only of a phi
    that is negligible outside that interval and at each end of the grid
    that the flow pulls values from beyond.  Raises FlowExitsGrid
    otherwise: when a non-negligible part of phi would be carried past
    either end of the grid or transported from beyond it.
    """
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi)
    gamma = flow.gamma
    # the points the flow carries past the ends of the grid, and each end
    # that it pulls values from beyond
    outside = (r < gamma[0]) | (r > gamma[-1])
    outside[0] |= gamma[0] < r[0]
    outside[-1] |= gamma[-1] > r[-1]
    if np.any(np.abs(phi[outside])
              > 1e-8 * max(float(np.max(np.abs(phi))), 1e-300)):
        raise FlowExitsGrid(
            f"flow at t={flow.t} moves phi across the ends of "
            f"[{r[0]}, {r[-1]}]"
        )
    re = np.interp(gamma, r, np.real(phi), left=0.0, right=0.0)
    if np.iscomplexobj(phi):
        im = np.interp(gamma, r, np.imag(phi), left=0.0, right=0.0)
        vals = re + 1j * im
    else:
        vals = re
    return np.sqrt(flow.dgamma) * vals
