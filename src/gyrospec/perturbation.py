"""Closed-form perturbation theory of the doublet crossing (single doublet).

Everything here describes how the double eigenvalue i w_1 of the rotor at
rest splits under spin, stiffness detuning, indefinite damping and
circulatory forces: first-order eigenvalue formulas, the veering
hyperbola, the flutter-cone criterion and its circulatory generalization,
exceptional-point locations with their Jordan chains and the local
Whitney-umbrella forms of the stability boundary.

Ordering convention: eigenvalues of D and K are sorted mu1 >= mu2 and
rho1 >= rho2, so kappa0 = 2 nu / (rho1 - rho2) carries the sign of nu.
All formulas cover one doublet (2 x 2 shape matrices); larger models are
rejected with NotImplementedError.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateOrientationError,
    InternalConsistencyError,
    JordanChainDefectError,
    NoRealBoundaryError,
    SingularConfigurationError,
)
from .model import J2, RotorModel, PerturbationSet

# relative cross-check thresholds: the two forms of A, the Jordan chain at kappa0
_A_FORMS_RTOL = 1e-10
_CHAIN_RESIDUAL_RTOL = 1e-8


def _require_2x2(M: np.ndarray, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.shape != (2, 2):
        raise NotImplementedError(
            f"closed-form perturbation theory covers a single doublet only; "
            f"{name} must be 2x2, got {M.shape}"
        )
    return M


def _sym_eigs(M: np.ndarray) -> tuple[float, float]:
    """Eigenvalues of a symmetric 2x2, larger first: (tr +- sqrt(tr^2-4det))/2."""
    tr = M[0, 0] + M[1, 1]
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    disc = max(tr * tr - 4.0 * det, 0.0)
    root = math.sqrt(disc)
    return 0.5 * (tr + root), 0.5 * (tr - root)


@dataclass(frozen=True)
class ModalData:
    """Spectral data of the 2x2 shape matrices at one doublet."""

    mu1: float
    mu2: float
    rho1: float
    rho2: float
    trD: float
    trK: float
    detD: float
    detK: float
    trKD: float
    omega1: float


@dataclass(frozen=True)
class PerturbationReport:
    """All closed-form quantities at one operating point."""

    c: complex
    A: float
    beta0: float
    kappa0: float
    omega0: float
    Omega_cr_nu: float | None
    B: float
    epsilon: float


@dataclass(frozen=True, eq=False)
class JordanChain:
    """Eigenvector u0 and associated vector u1 at a defective eigenvalue."""

    lambda0: complex
    u0: np.ndarray
    u1: np.ndarray
    residual0: float
    residual1: float
    sigma: int                 # chain sign L(l0) u1 + 2 i w0 sigma u0 = 0
    residual1_nu_free: float   # same chain residual with the nu N term dropped


def modal_data(D, K, omega1: float) -> ModalData:
    """Eigenvalues and invariants of the damping and stiffness shapes."""
    D = _require_2x2(D, "D")
    K = _require_2x2(K, "K")
    mu1, mu2 = _sym_eigs(D)
    rho1, rho2 = _sym_eigs(K)
    return ModalData(
        mu1=mu1, mu2=mu2, rho1=rho1, rho2=rho2,
        trD=float(np.trace(D)), trK=float(np.trace(K)),
        detD=float(np.linalg.det(D)), detK=float(np.linalg.det(K)),
        trKD=float(np.trace(K @ D)), omega1=float(omega1),
    )


def coupling_c(md: ModalData, Omega: float, delta: float, kappa: float,
               nu: float) -> complex:
    """Coupling coefficient c of the two interacting doublet modes.

    Its sign structure decides the fate of the crossing: real negative c
    keeps an avoided crossing, positive real part pushes one branch into
    the right half-plane.
    """
    w1 = md.omega1
    re = ((md.mu1 - md.mu2) / 4.0) ** 2 * delta ** 2 \
        - ((md.rho1 - md.rho2) / (4.0 * w1)) ** 2 * kappa ** 2 \
        - Omega ** 2 + nu ** 2 / (4.0 * w1 ** 2)
    im = Omega * nu / w1 \
        - delta * kappa * (2.0 * md.trKD - md.trK * md.trD) / (8.0 * w1)
    return complex(re, im)


def approx_eigenvalues(md: ModalData, Omega: float, delta: float,
                       kappa: float, nu: float) -> np.ndarray:
    """First-order eigenvalues near the crossing at (Omega=0, i omega1).

    Both square-root branches and their complex conjugates:
    lambda = -(mu1+mu2) delta / 4 + i (w1 + (rho1+rho2) kappa / (4 w1)) +- sqrt(c).
    """
    c = coupling_c(md, Omega, delta, kappa, nu)
    base = complex(
        -(md.mu1 + md.mu2) / 4.0 * delta,
        md.omega1 + (md.rho1 + md.rho2) / (4.0 * md.omega1) * kappa,
    )
    s = cmath.sqrt(c)
    lam_p, lam_m = base + s, base - s
    return np.array([lam_p, lam_m, lam_p.conjugate(), lam_m.conjugate()])


def veering_hyperbola(md: ModalData, kappa: float, Omega: float) -> tuple[float, float]:
    """Imaginary parts of the two veering branches (delta = nu = 0).

    Im lambda = w1 + (rho1+rho2) kappa/(4 w1) +- sqrt(Omega^2 + ((rho1-rho2) kappa/(4 w1))^2),
    Re lambda = 0.
    """
    w1 = md.omega1
    mid = w1 + (md.rho1 + md.rho2) / (4.0 * w1) * kappa
    half = math.hypot(Omega, (md.rho1 - md.rho2) / (4.0 * w1) * kappa)
    return mid + half, mid - half


def invariant_A(D, K) -> float:
    """Cone-orientation invariant of the damping/stiffness pair.

    A > 0: flutter cone along the delta axis (ellipse in the (Omega, kappa)
    plane); A = 0: dihedral angle (stripe); A < 0: cone along the Omega
    axis (region between hyperbola branches).  Both algebraic forms are
    evaluated and must agree to ``_A_FORMS_RTOL``.
    """
    D = _require_2x2(D, "D")
    K = _require_2x2(K, "K")
    detD = D[0, 0] * D[1, 1] - D[0, 1] * D[1, 0]
    rho_gap_sq = (K[0, 0] + K[1, 1]) ** 2 - 4.0 * (K[0, 0] * K[1, 1] - K[0, 1] ** 2)
    cross = K[0, 1] * (D[1, 1] - D[0, 0]) - D[0, 1] * (K[1, 1] - K[0, 0])
    first = detD * rho_gap_sq + cross ** 2
    if rho_gap_sq > 0.0:
        # second form ((trD)^2 - 16 beta0^2)(rho1-rho2)^2 / 4
        trD = D[0, 0] + D[1, 1]
        num = 2.0 * np.trace(K @ D) - np.trace(K) * trD
        second = (trD ** 2 - num ** 2 / rho_gap_sq) * rho_gap_sq / 4.0
        scale = max(1.0, abs(first), abs(second))
        if abs(first - second) > _A_FORMS_RTOL * scale:
            raise InternalConsistencyError(
                f"invariant A forms disagree: {first!r} vs {second!r}"
            )
    return float(first)


def beta0(D, K) -> float:
    """Limit slope Omega/delta of the stability boundary at the EP."""
    D = _require_2x2(D, "D")
    K = _require_2x2(K, "K")
    rho1, rho2 = _sym_eigs(K)
    if rho1 == rho2:
        raise SingularConfigurationError(
            "beta0 is undefined for an isotropic stiffness shape (rho1 = rho2)"
        )
    num = 2.0 * float(np.trace(K @ D)) - float(np.trace(K)) * float(np.trace(D))
    return num / (4.0 * (rho1 - rho2))


def cone_criterion(md: ModalData, A: float, Omega: float, kappa: float,
                   delta: float) -> bool:
    """First-order asymptotic stability test without circulatory forces.

    True iff delta tr D > 0 and
    kappa^2 A + Omega^2 (2 w1 tr D)^2 > -det D (w1 tr D)^2 delta^2.
    """
    w1 = md.omega1
    if delta * md.trD <= 0.0:
        return False
    lhs = kappa ** 2 * A + Omega ** 2 * (2.0 * w1 * md.trD) ** 2
    rhs = -md.detD * (w1 * md.trD) ** 2 * delta ** 2
    return lhs > rhs


def criterion_B(md: ModalData, D, K, Omega: float, kappa: float,
                delta: float, nu: float) -> float:
    """Stability quantity B; asymptotic stability needs delta tr D > 0 and B > 0.

    Reduces to the cone criterion for nu = 0 and to Omega^2 < Omega_cr^2
    for kappa = 0.
    """
    A = invariant_A(D, K)
    w1 = md.omega1
    trD2 = md.trD ** 2
    gap2 = (md.rho1 - md.rho2) ** 2
    mixed = 2.0 * md.trKD - md.trK * md.trD
    first = (2.0 * Omega * (delta ** 2 * w1 ** 2 * trD2 - 4.0 * nu ** 2)
             + delta * mixed * kappa * nu) ** 2
    second = delta ** 2 * trD2 * (A * delta ** 2 * w1 ** 2 - nu ** 2 * gap2) * kappa ** 2
    third = delta ** 2 * trD2 \
        * (delta ** 2 * w1 ** 2 * trD2 - 4.0 * nu ** 2) \
        * (nu ** 2 - delta ** 2 * w1 ** 2 * md.detD)
    return first + second - third


def omega_cr_nu(D, omega1: float, delta: float, nu: float) -> float | None:
    """Critical spin speed of the kappa = 0 stability window.

    Omega_cr = (delta trD / 4) sqrt(-(nu^2 - w1^2 d^2 detD)/(nu^2 - w1^2 d^2 (trD/2)^2));
    None when the radicand is negative or its denominator vanishes.
    """
    D = _require_2x2(D, "D")
    trD = float(np.trace(D))
    detD = float(np.linalg.det(D))
    num = nu ** 2 - omega1 ** 2 * delta ** 2 * detD
    den = nu ** 2 - omega1 ** 2 * delta ** 2 * (trD / 2.0) ** 2
    if den == 0.0:
        return None
    radicand = -num / den
    if radicand < 0.0:
        return None
    return delta * trD / 4.0 * math.sqrt(radicand)


def ep_location(K, omega1: float, nu: float) -> tuple[float, float]:
    """Exceptional point (kappa0, omega0) on the kappa axis at delta = Omega = 0.

    kappa0 = 2 nu / (rho1 - rho2); the defective eigenvalues are +- i omega0
    with omega0 = sqrt(w1^2 + nu (rho1+rho2)/(rho1-rho2)).  The mirror point
    at -kappa0 is the exceptional point of the sign-flipped stiffness shape
    (pass -K).
    """
    K = _require_2x2(K, "K")
    rho1, rho2 = _sym_eigs(K)
    if rho1 == rho2:
        raise SingularConfigurationError(
            "exceptional points collapse for an isotropic stiffness shape"
        )
    kappa0 = 2.0 * nu / (rho1 - rho2)
    radicand = omega1 ** 2 + nu * (rho1 + rho2) / (rho1 - rho2)
    if radicand <= 0.0:
        raise SingularConfigurationError(
            f"omega0^2 = {radicand!r} <= 0: the coalescing pair is not oscillatory"
        )
    return kappa0, math.sqrt(radicand)


def jordan_chain(K, omega1: float, nu: float) -> JordanChain:
    """Jordan chain (u0, u1) at the exceptional point (0, +kappa0, 0).

    u0 is parallel to (k11 - k22, 2 k12 + rho1 - rho2) and u1 to (1, 0);
    both residuals are checked, to ``_CHAIN_RESIDUAL_RTOL``, against the full
    pencil including the circulatory term, with the chain sign sigma chosen
    to minimize the residual.  The residual of the circulatory-free
    operator is reported alongside for comparison.
    """
    K = _require_2x2(K, "K")
    if nu == 0.0:
        raise SingularConfigurationError(
            "nu = 0 is a diabolical point: the associated vector diverges as 1/nu"
        )
    kappa0, omega0 = ep_location(K, omega1, nu)
    rho1, rho2 = _sym_eigs(K)
    gap = rho1 - rho2
    a = K[0, 0] - K[1, 1]
    u0_raw = np.array([a, 2.0 * K[0, 1] + gap])
    scale_K = max(abs(K).max(), 1.0)
    if np.linalg.norm(u0_raw) > 1e-12 * scale_K:
        norm0 = np.linalg.norm(u0_raw)
        u0 = u0_raw.astype(complex) / norm0
        u1 = (-2j * omega0 * gap / nu / norm0) * np.array([1.0, 0.0], dtype=complex)
    else:
        # (k11-k22, 2k12+gap) vanishes when k11 = k22 with k12 < 0; the
        # parallel null direction from the first row takes over
        alt = np.array([gap - 2.0 * K[0, 1], a])
        norm0 = np.linalg.norm(alt)
        u0 = alt.astype(complex) / norm0
        u1 = (2j * omega0 * gap / nu / norm0) * np.array([0.0, 1.0], dtype=complex)

    M_full = -omega0 ** 2 * np.eye(2) + omega1 ** 2 * np.eye(2) \
        + kappa0 * K + nu * J2
    residual0 = float(np.linalg.norm(M_full @ u0))
    chain = {s: float(np.linalg.norm(M_full @ u1 + 2j * omega0 * s * u0))
             for s in (1, -1)}
    sigma = min(chain, key=chain.get)
    residual1 = chain[sigma]
    M_free = M_full - nu * J2
    residual1_nu_free = float(
        np.linalg.norm(M_free @ u1 + 2j * omega0 * sigma * u0)
    )
    scale = float(np.linalg.norm(omega1 ** 2 * np.eye(2) + kappa0 * K + nu * J2))
    tol0 = _CHAIN_RESIDUAL_RTOL * scale
    tol1 = _CHAIN_RESIDUAL_RTOL * scale * (1.0 + float(np.linalg.norm(u1)))
    if residual0 > tol0 or residual1 > tol1:
        raise JordanChainDefectError(
            f"Jordan chain residuals {residual0:.3e}, {residual1:.3e} exceed "
            f"tolerances {tol0:.3e}, {tol1:.3e}",
            residual0=residual0, residual1=residual1,
        )
    return JordanChain(lambda0=1j * omega0, u0=u0, u1=u1,
                       residual0=residual0, residual1=residual1,
                       sigma=sigma, residual1_nu_free=residual1_nu_free)


def umbrella_omega(md: ModalData, D, K, kappa: float, delta: float,
                   nu: float) -> tuple[float, float]:
    """First-order flutter boundary lines in the (Omega, delta) plane.

    Omega = (4 beta0 kappa +- trD sqrt(kappa^2 - kappa0^2)) / (4 kappa0) * delta.
    Requires |kappa| >= kappa0; inside the branch cut the lines are complex.
    """
    kappa0, _ = ep_location(K, md.omega1, nu)
    if kappa0 == 0.0:
        raise SingularConfigurationError(
            "umbrella unfolding needs nu != 0 (kappa0 = 0 is the diabolical point)"
        )
    if kappa ** 2 < kappa0 ** 2:
        raise NoRealBoundaryError(
            f"kappa = {kappa} lies inside the branch cut |kappa| < {abs(kappa0)}; "
            "the boundary lines are complex"
        )
    b0 = beta0(D, K)
    root = math.sqrt(kappa ** 2 - kappa0 ** 2)
    base = 4.0 * b0 * kappa
    return (
        (base + md.trD * root) / (4.0 * kappa0) * delta,
        (base - md.trD * root) / (4.0 * kappa0) * delta,
    )


def umbrella_kappa(md: ModalData, D, K, beta: float, nu: float
                   ) -> tuple[tuple[float, float], tuple[float, float]]:
    """Stability boundary kappa(beta) near the exceptional points.

    Returns ``(exact, local)`` where ``exact`` holds the two branches
    kappa = kappa0 (4 beta beta0 +- trD sqrt(beta^2 - beta0^2 + (trD/4)^2))
    / (4 beta0^2 - (trD/2)^2) and ``local`` the canonical umbrella forms
    +- kappa0 [1 + 8 ((beta -+ beta0)/trD)^2].
    """
    kappa0, _ = ep_location(K, md.omega1, nu)
    b0 = beta0(D, K)
    trD = md.trD
    radicand = beta ** 2 - b0 ** 2 + (trD / 4.0) ** 2
    if radicand < 0.0:
        raise NoRealBoundaryError(
            f"radicand beta^2 - beta0^2 + (trD/4)^2 = {radicand!r} < 0"
        )
    den = 4.0 * b0 ** 2 - (trD / 2.0) ** 2
    if den == 0.0:
        raise DegenerateOrientationError(
            "4 beta0^2 = (trD/2)^2: umbrella orientation is degenerate"
        )
    root = math.sqrt(radicand)
    exact = (
        kappa0 * (4.0 * beta * b0 + trD * root) / den,
        kappa0 * (4.0 * beta * b0 - trD * root) / den,
    )
    local = (
        kappa0 * (1.0 + 8.0 * ((beta - b0) / trD) ** 2),
        -kappa0 * (1.0 + 8.0 * ((beta + b0) / trD) ** 2),
    )
    return exact, local


def perturbation_report(model: RotorModel, pert: PerturbationSet) -> PerturbationReport:
    """Evaluate every closed-form quantity at one operating point."""
    if model.n != 1:
        raise NotImplementedError(
            "closed-form perturbation theory covers n = 1 only; "
            f"model has {model.n} doublets"
        )
    md = modal_data(pert.D, pert.K, model.omegas[0])
    A = invariant_A(pert.D, pert.K)
    # numpy float gains: a square too large gives inf or NaN here, for the
    # solver's overflow gate to reject, not a Python OverflowError
    Omega, delta, kappa, nu = map(np.float64, (pert.Omega, pert.delta,
                                               pert.kappa, pert.nu))
    with np.errstate(over="ignore", invalid="ignore"):
        c = coupling_c(md, Omega, delta, kappa, nu)
        B = criterion_B(md, pert.D, pert.K, Omega, kappa, delta, nu)
        if md.rho1 == md.rho2:
            b0 = kappa0 = omega0 = math.nan
        else:
            b0 = beta0(pert.D, pert.K)
            try:
                kappa0, omega0 = ep_location(pert.K, md.omega1, nu)
            except SingularConfigurationError:
                kappa0 = omega0 = math.nan
        om_cr = omega_cr_nu(pert.D, md.omega1, delta, nu)
        dL0 = 1j * md.omega1 * delta * pert.D + kappa * pert.K + nu * pert.N
        eps = float(np.linalg.norm(dL0))
    return PerturbationReport(
        c=c, A=A, beta0=b0, kappa0=kappa0,
        omega0=omega0, Omega_cr_nu=om_cr, B=B, epsilon=eps,
    )
