"""Rotating-frame periodic system, monodromy matrix and Floquet duality.

In the co-rotating frame the perturbed rotor becomes a potential system
with time-periodic coefficients of frequency 2 Omega.  Its monodromy
matrix over one period T = pi / Omega, computed as the product of the
classical RK4 step propagators of that linear system, carries the same
stability content as the autonomous pencil: each autonomous eigenvalue
lambda maps onto the multiplier -exp(lambda T), the sign coming from the
half-turn rotation exp(pi G) = -I of a single doublet.  The multipliers
and det M come from LAPACK (``numpy.linalg``), the autonomous eigenvalues
from ``qep.solve_qep``, so the duality check compares two independent
eigensolvers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InfinitePeriodError, OverflowRescaleError, ResolutionError
from .model import J2, RotorModel, PerturbationSet, build_pencil
from .qep import _OVERFLOW_MESSAGE, companion_stack, solve_qep
from .tolerances import DEFAULT

_LOG_MAX = math.log(np.finfo(float).max)
_LOG_32EPS = math.log(32.0 * np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class PeriodicSystem:
    """Rotor plus perturbations viewed from the rotating frame (n = 1)."""

    base: RotorModel
    pert: PerturbationSet

    def __post_init__(self):
        if self.base.n != 1:
            raise NotImplementedError(
                "the rotating-frame coefficient formulas cover 2 degrees of "
                f"freedom only; model has {self.base.n} doublets"
            )
        if self.pert.Omega == 0.0:
            raise InfinitePeriodError(
                "Omega = 0 gives an infinite period; use the autonomous "
                "solver (qep.solve_qep) instead"
            )

    @property
    def period(self) -> float:
        return math.pi / abs(self.pert.Omega)


@dataclass(frozen=True, eq=False)
class FloquetResult:
    monodromy: np.ndarray                 # (4, 4) real
    multipliers: np.ndarray               # (4,) complex, entry i pairs with
                                          # predicted_multipliers[i]
    predicted_multipliers: np.ndarray     # (4,) complex, -exp(lambda T)
    match_error: float
    liouville_error: float                # relative |det M| defect; inf
                                          # when beyond a double
    steps: int


def rotating_frame(ps: PeriodicSystem, ts):
    """Dt, Kt and the coupling -delta Omega Dt G at the time or times ts.

    Dt and Kt are each diag(trM, trM)/2 + (M + JMJ)/2 cos 2 Omega t
    + (JM - MJ)/2 sin 2 Omega t; all three have shape ts.shape + (2, 2).
    The coupling comes from differentiating the transform; N is frame-invariant.
    """
    phase = 2.0 * ps.pert.Omega * np.asarray(ts, dtype=float)
    c = np.cos(phase)[..., None, None]
    s = np.sin(phase)[..., None, None]
    frames = []
    for M in (ps.pert.D, ps.pert.K):
        tr = M[0, 0] + M[1, 1]
        sym = M + J2 @ M @ J2
        rot = J2 @ M - M @ J2
        frames.append(0.5 * (np.diag([tr, tr]) + c * sym + s * rot))
    Dt, Kt = frames
    return Dt, Kt, -ps.pert.delta * ps.pert.Omega * (Dt @ ps.base.G)


def _system_matrix_grid(ps: PeriodicSystem, ts: np.ndarray) -> np.ndarray:
    """First-order form z' = A(t) z stacked over a time grid."""
    Dt, Kt, coupling = rotating_frame(ps, ts)
    S = ps.base.P + coupling + ps.pert.kappa * Kt + ps.pert.nu * ps.pert.N
    return companion_stack(ps.pert.delta * Dt, S)


# an overflowing system shows as a non-finite M, not as numpy warnings
@np.errstate(over="ignore", invalid="ignore")
def _integrate_monodromy(ps: PeriodicSystem, steps: int) -> np.ndarray:
    """Fixed-step classical Runge-Kutta over one period, columns from I.

    The system is linear, so step k is the fixed matrix
    R_k = I + h/6 (A1 + 2 K2 + 2 K3 + K4) with K2 = A2 + h/2 A2 A1,
    K3 = A2 + h/2 A2 K2 and K4 = A4 + h A4 K3, where A1, A2 and A4 are
    the coefficients at the start, middle and end of the step.  All R_k
    are built in one batched pass and M = R_{N-1} ... R_0 is formed by
    pairwise reduction, about log2(steps) batched matmuls.
    """
    T = ps.period
    h = T / steps
    # coefficient matrices at every half step, evaluated in one pass
    A = _system_matrix_grid(ps, 0.5 * h * np.arange(2 * steps + 1))
    A1, A2, A4 = A[:-1:2], A[1::2], A[2::2]
    R = np.matmul(A2, A1)
    R *= 0.5 * h
    R += A2                                   # K2
    K = np.matmul(A2, R)
    K *= 0.5 * h
    K += A2                                   # K3
    R *= 2.0
    R += A1
    # A2 is spent: its slots of the grid take K4
    np.matmul(A4, K, out=A2)
    A2 *= h
    A2 += A4                                  # K4
    K *= 2.0
    R += K
    R += A2
    R *= h / 6.0
    R[:, range(4), range(4)] += 1.0

    # each level multiplies neighbours, later step on the left; an odd
    # last factor is carried up unchanged; R and K take turns as output,
    # so the peak stays at the grid plus two (steps, 4, 4) stacks
    src, dst, n = R, K, steps
    while n > 1:
        half = n // 2
        np.matmul(src[1:2 * half:2], src[:2 * half:2], out=dst[:half])
        if n % 2:
            dst[half] = src[n - 1]
        src, dst, n = dst, src, half + n % 2
    return src[0].copy()


def best_pairing(a, b) -> tuple[int, ...]:
    """Permutation p pairing a[i] with b[p[i]] at the smallest worst distance.

    Ties in the worst distance go to the smaller sum of distances, so a
    pair that does not set the worst distance still meets its nearest
    partner.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    perms = np.array(list(itertools.permutations(range(len(b)))))
    d = np.abs(a[:, None] - b[None, :])[np.arange(len(a)), perms]
    best = np.lexsort((d.sum(axis=1), d.max(axis=1)))[0]
    return tuple(int(p) for p in perms[best])


def monodromy(ps: PeriodicSystem, steps: int = 4096,
              liouville_rtol: float = DEFAULT.liouville_rtol,
              verify_steps: bool = False,
              duality_tol: float = DEFAULT.duality_tol,
              poly_residual: float = DEFAULT.poly_residual) -> FloquetResult:
    """Monodromy matrix, Floquet multipliers and the duality comparison.

    Integrates the 4-dimensional first-order form over T = pi / Omega
    (the coefficients oscillate at 2 Omega) and compares the multipliers
    with -exp(lambda T) built from the autonomous spectrum.  The
    multipliers come back in the order of the predicted values they pair
    with, so multipliers[i] sits next to predicted_multipliers[i].

    Parameters
    ----------
    steps : int
        Fixed Runge-Kutta steps over one period; at least 256.
    verify_steps : bool
        Re-integrate at half resolution and fail if the two monodromy
        matrices disagree beyond the Liouville tolerance.
    duality_tol : float
        Fail when the worst pairing distance between the multipliers and
        -exp(lambda T) exceeds duality_tol * max(1, max |multiplier|):
        relative to the largest multiplier, since a strongly growing
        monodromy resolves its multipliers only to that scale.
    poly_residual : float
        Root residual gate of the autonomous spectrum (``qep.accepted``).

    Raises OverflowRescaleError when M or its Liouville determinant
    overflows a double.
    """
    if steps < 256:
        raise ValueError(f"steps must be >= 256, got {steps}")
    M = _integrate_monodromy(ps, steps)
    T = ps.period
    # Liouville: |det M| = exp(-integral tr(delta Dt) dt) = exp(-delta trD T)
    log_det = -ps.pert.delta * float(np.trace(ps.pert.D)) * T
    if not (np.isfinite(M).all() and -math.inf < log_det < _LOG_MAX):
        raise OverflowRescaleError(_OVERFLOW_MESSAGE)
    if verify_steps:
        M_half = _integrate_monodromy(ps, steps // 2)
        drift = float(np.linalg.norm(M - M_half))
        if drift > liouville_rtol * (1.0 + np.linalg.norm(M)):
            raise ResolutionError(
                f"step-halving disagreement {drift:.3e} at {steps} steps; "
                "increase steps"
            )

    multipliers = np.linalg.eigvals(M).astype(complex)
    multipliers = multipliers[np.lexsort((multipliers.imag, multipliers.real))]

    pencil = build_pencil(ps.base, ps.pert)
    lam = solve_qep(pencil, want_vectors=False,
                    residual_tol=poly_residual).eigenvalues
    predicted = -np.exp(lam * T)
    order = np.lexsort((predicted.imag, predicted.real))
    predicted = predicted[order]
    multipliers = multipliers[list(best_pairing(predicted, multipliers))]
    match = float(np.abs(multipliers - predicted).max())

    # compared in log space, so that neither det M, exp(log_det) nor the
    # floor can overflow or underflow.  det of a strongly growing monodromy
    # cannot be resolved below the roundoff of its largest entries, so an
    # absolute floor 32 eps (1 + ||M||)^4 is allowed besides the relative
    # tolerance; both sides are scaled by exp(-ref) before comparing
    log_abs = float(np.linalg.slogdet(M)[1])
    log_floor = _LOG_32EPS + 4.0 * math.log1p(float(np.linalg.norm(M)))
    gap = log_abs - log_det
    liouville = abs(math.expm1(gap)) if gap < _LOG_MAX else math.inf
    ref = max(log_abs, log_det, log_floor)
    got, want, floor = (math.exp(v - ref) for v in (log_abs, log_det, log_floor))
    if not abs(got - want) <= liouville_rtol * want + floor:
        raise ResolutionError(
            f"Liouville determinant defect {liouville:.3e} exceeds "
            f"{liouville_rtol:.1e} at {steps} steps; increase steps"
        )
    scale = max(1.0, float(np.abs(multipliers).max()))
    if not match <= duality_tol * scale:
        raise ResolutionError(
            f"Floquet multipliers miss -exp(lambda T) by {match:.3e}, more "
            f"than {duality_tol:.1e} x {scale:.3e} at {steps} steps; "
            "increase steps"
        )
    return FloquetResult(monodromy=M, multipliers=multipliers,
                         predicted_multipliers=predicted,
                         match_error=match,
                         liouville_error=liouville, steps=steps)
