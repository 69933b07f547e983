"""Independent reference for the sweep's N(lambda), from an exact outgoing
boundary condition.

This module uses numpy and scipy only; nothing here imports hyplab, so it
shares no code with the program it checks.

For the circle cross-section of radius 1 the mode operators are

    H_k = -d^2/dr^2 + (n-1)^2/4 + k^2 e^{-2r}   on (r0, infinity),

with a Dirichlet condition at r0.  On the uniform grid r_i = r0 + i h,
i = 1..N, the order-2 stencil is closed at the box end by the discrete
outgoing wave: past r_max the potential is the constant (n-1)^2/4 (the
k^2 e^{-2r} term is below 1e-14 there), the discrete free equation has the
solutions beta^i with cos(theta) = 1 - h^2 (lambda - (n-1)^2/4) / 2, and the
outgoing one is beta = e^{i theta}.  The condition u_{N+1} = beta u_N is one
diagonal entry, and (H_k - lambda - i0)^{-1} becomes a single tridiagonal
solve on the real axis (the discrete transparent boundary condition of
Arnold and of Ehrhardt and Arnold).

The weighted norm ||W (H_k - lambda - i0)^{-1} W|| uses the mode-shifted
weight W = w^{-s}(r - log nu_k), nu_k = (1 + k^2)^{1/2}, with w built from
the closed-form step q(x) = sigma(1/(1-x) - 1/x).  Its largest singular
value comes from Lanczos (ARPACK) on the Gram map.  N(lambda) is the sup over
k <= K_max, refined in the grid step and in the box length until halving the
step and doubling the box each change it by less than REL_TOL.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import lapack
from scipy.sparse.linalg import LinearOperator, eigsh
from scipy.special import expit

REL_TOL = 5e-3
STEP_FACTOR = 0.5   # starting step h = STEP_FACTOR / sqrt(lambda)
BOX_START = 20.0    # starting box end r_max
MAX_REFINEMENTS = 4


def step_q(x):
    """q(x) = sigma(1/(1-x) - 1/x) on (0, 1); 0 below, 1 above."""
    x = np.asarray(x, dtype=float)
    out = np.where(x >= 1.0, 1.0, 0.0)
    mid = (x > 0.0) & (x < 1.0)
    xm = x[mid]
    out[mid] = expit(1.0 / (1.0 - xm) - 1.0 / xm)
    return out


def weight_w(x):
    """w(x) = 1 for x <= 0, x for x >= 1, 1 + q(x)(x - 1) between."""
    x = np.asarray(x, dtype=float)
    return np.where(x >= 1.0, x, 1.0 + step_q(x) * (x - 1.0))


class OutgoingMode:
    """(H_k - lambda - i0) on the box (r0, r_max) closed by u_{N+1} = beta u_N."""

    def __init__(self, lam, k, h, r_max, s=1.0, n=2, r0=0.25):
        shift = (n - 1) ** 2 / 4.0
        if lam <= shift:
            raise ValueError("energy must lie above the continuum threshold")
        N = int(round((r_max - r0) / h)) - 1
        self.h = (r_max - r0) / (N + 1)
        self.r = r0 + self.h * np.arange(1, N + 1)
        theta = math.acos(1.0 - self.h**2 * (lam - shift) / 2.0)
        self.beta = complex(math.cos(theta), math.sin(theta))
        inv_h2 = 1.0 / self.h**2
        diag = (2.0 * inv_h2 + shift + k * k * np.exp(-2.0 * self.r)
                - lam).astype(complex)
        diag[-1] -= self.beta * inv_h2
        off = np.full(N - 1, -inv_h2, dtype=complex)
        dl, d, du, du2, ipiv, info = lapack.zgttrf(off, diag, off)
        if info != 0:
            raise ValueError(f"singular tridiagonal factorization (info={info})")
        self._lu = (dl, d, du, du2, ipiv)
        self.weight = weight_w(self.r - 0.5 * math.log1p(k * k)) ** (-s)

    def solve(self, rhs, trans="N"):
        """(H - lambda - i0)^{-1} rhs (trans="C": the adjoint)."""
        x, info = lapack.zgttrs(*self._lu, np.asarray(rhs, dtype=complex),
                                trans=trans)
        if info != 0:
            raise ValueError(f"tridiagonal solve failed (info={info})")
        return x

    def weighted_norm(self):
        """||W (H - lambda - i0)^{-1} W|| by Lanczos on the Gram map."""
        w = self.weight
        n = len(w)

        def gram(x):
            y = w * self.solve(w * x)
            return w * self.solve(w * y, trans="C")

        op = LinearOperator((n, n), matvec=gram, dtype=complex)
        start = 1.0 + np.cos(0.37 * np.arange(n))
        top = eigsh(op, k=1, which="LM", v0=start, tol=1e-10,
                    return_eigenvectors=False)
        return math.sqrt(float(np.real(top[0])))


def mode_norms(lam, K_max, h, r_max, s=1.0, n=2, r0=0.25):
    """[||W (H_k - lambda - i0)^{-1} W|| for k = 0..K_max]."""
    return [OutgoingMode(lam, k, h, r_max, s=s, n=n, r0=r0).weighted_norm()
            for k in range(K_max + 1)]


def n_of_lambda(lam, K_max, s=1.0, n=2, r0=0.25, rel_tol=REL_TOL):
    """N(lambda) = sup_{k <= K_max} of the weighted norm, refined until halving
    the step and doubling the box each change N by less than rel_tol.

    Returns a dict with N, the per-mode norms, the final step and box, and the
    last two relative changes.
    """
    h = STEP_FACTOR / math.sqrt(lam)
    r_max = BOX_START
    base = mode_norms(lam, K_max, h, r_max, s, n, r0)
    for _ in range(MAX_REFINEMENTS):
        finer = mode_norms(lam, K_max, 0.5 * h, r_max, s, n, r0)
        longer = mode_norms(lam, K_max, h, 2.0 * r_max, s, n, r0)
        d_step = abs(max(finer) / max(base) - 1.0)
        d_box = abs(max(longer) / max(base) - 1.0)
        if d_step < rel_tol and d_box < rel_tol:
            return {"N": max(base), "norms": base, "h": h, "r_max": r_max,
                    "step_change": d_step, "box_change": d_box}
        if d_step >= rel_tol:
            h *= 0.5
            base = finer
        if d_box >= rel_tol:
            r_max *= 2.0
            base = (longer if d_step < rel_tol
                    else mode_norms(lam, K_max, h, r_max, s, n, r0))
    raise RuntimeError(f"N({lam}) did not settle within {MAX_REFINEMENTS} "
                       "refinements")


def reference_table(lambdas, K_max, s=1.0, n=2, r0=0.25, rel_tol=REL_TOL):
    """{lambda: n_of_lambda(lambda, ...)} over the sweep's energies."""
    return {float(lam): n_of_lambda(float(lam), K_max, s, n, r0, rel_tol)
            for lam in lambdas}


SWEEP_DEFAULTS = {"lambdas": [1e2, 10**2.5, 1e3, 10**3.5, 1e4], "K_max": 24,
                  "s": 1.0, "n": 2, "r0": 0.25}


if __name__ == "__main__":
    # python3 benchmark/reference.py [PARAMS_JSON [OUT_JSON]]: the table for
    # the sweep parameters (default: hyplab's default sweep), optionally
    # written to OUT_JSON as {repr(lambda): N}.
    import json
    import sys
    import time

    params = json.loads(sys.argv[1]) if len(sys.argv) > 1 else SWEEP_DEFAULTS
    t0 = time.perf_counter()
    table = reference_table(**params)
    for lam, row in table.items():
        print(json.dumps({"lambda": lam, "N_ref": row["N"],
                          "argmax_k": int(np.argmax(row["norms"])),
                          "h": row["h"], "r_max": row["r_max"],
                          "step_change": row["step_change"],
                          "box_change": row["box_change"]}))
    print(f"reference computed in {time.perf_counter() - t0:.1f} s")
    if len(sys.argv) > 2:
        with open(sys.argv[2], "w", encoding="utf-8") as fh:
            json.dump({repr(lam): row["N"] for lam, row in table.items()}, fh)
