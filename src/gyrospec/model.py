"""Rotor doublet model and the perturbed quadratic matrix pencil.

A body of revolution reduced to ``n`` frequency doublets carries the
potential matrix ``P = diag(w_1^2, w_1^2, ..., w_n^2, w_n^2)`` and the
gyroscopic matrix ``G = blockdiag(J, 2J, ..., nJ)``.  Damping, stiffness
detuning and circulatory forces enter as symmetric/skew shape matrices
``D``, ``K``, ``N`` scaled by the gains ``delta``, ``kappa``, ``nu``.
All quantities are nondimensional.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ShapeError, StationaryWaveError, SymmetryError
from .tolerances import DEFAULT

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])
J2.flags.writeable = False


def _locked(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


def _symmetrized(M: np.ndarray, name: str, skew: bool, rtol: float) -> np.ndarray:
    """Project onto the (skew-)symmetric part, rejecting large corrections."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ShapeError(f"{name} must be a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ShapeError(f"{name} entries must be finite")
    part = 0.5 * (M - M.T) if skew else 0.5 * (M + M.T)
    corr = np.linalg.norm(M - part)
    scale = max(np.linalg.norm(M), 1.0)
    if corr > rtol * scale:
        kind = "skew-symmetric" if skew else "symmetric"
        raise SymmetryError(
            f"{name} deviates from {kind} by {corr:.3e} (relative tolerance {rtol:.1e})"
        )
    return _locked(part)


@dataclass(frozen=True)
class RotorModel:
    """Rotationally symmetric rotor reduced to ``n`` frequency doublets.

    Parameters
    ----------
    omegas : sequence of float
        Doublet frequencies ``w_1 < w_2 < ... < w_n``, all positive.
    """

    omegas: tuple[float, ...]

    def __post_init__(self):
        om = tuple(float(w) for w in np.atleast_1d(self.omegas))
        if len(om) == 0:
            raise ShapeError("at least one doublet frequency is required")
        if not all(0 < w < np.inf for w in om):
            raise ShapeError("doublet frequencies must be positive and finite")
        if any(b <= a for a, b in zip(om, om[1:])):
            raise ShapeError("doublet frequencies must be strictly increasing")
        object.__setattr__(self, "omegas", om)

    @classmethod
    def string(cls, n: int) -> "RotorModel":
        """Circular-string preset ``w_s = s``."""
        return cls(tuple(float(s) for s in range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.omegas)

    @property
    def size(self) -> int:
        return 2 * self.n

    @cached_property
    def P(self) -> np.ndarray:
        """Potential matrix, each doublet frequency squared with multiplicity 2."""
        return _locked(np.diag(np.repeat(np.square(self.omegas), 2)))

    @cached_property
    def G(self) -> np.ndarray:
        """Gyroscopic matrix blockdiag(J, 2J, ..., nJ)."""
        G = np.zeros((self.size, self.size))
        for s in range(1, self.n + 1):
            G[2 * s - 2 : 2 * s, 2 * s - 2 : 2 * s] = s * J2
        return _locked(G)

    @cached_property
    def G2(self) -> np.ndarray:
        """G squared, blockdiag(-s^2 I2); built directly so it is exact."""
        return _locked(np.diag(-np.repeat(np.square(np.arange(1.0, self.n + 1)), 2)))


def _default_N(n: int) -> np.ndarray:
    """Default circulatory shape: blockdiag of J (equals J for n = 1)."""
    N = np.zeros((2 * n, 2 * n))
    for s in range(n):
        N[2 * s : 2 * s + 2, 2 * s : 2 * s + 2] = J2
    return N


@dataclass(frozen=True, eq=False)
class PerturbationSet:
    """One operating point: shape matrices with their gains and spin speed.

    ``D`` and ``K`` are stored exactly symmetric, ``N`` exactly
    skew-symmetric; inputs violating that beyond ``sym_rtol`` (relative,
    Frobenius) are rejected rather than silently corrected, and non-finite
    entries or gains raise ShapeError.
    """

    D: np.ndarray
    K: np.ndarray
    N: np.ndarray | None = None
    delta: float = 0.0
    kappa: float = 0.0
    nu: float = 0.0
    Omega: float = 0.0
    sym_rtol: float = DEFAULT.sym_rtol

    def __post_init__(self):
        D = _symmetrized(self.D, "D", skew=False, rtol=self.sym_rtol)
        K = _symmetrized(self.K, "K", skew=False, rtol=self.sym_rtol)
        if D.shape != K.shape:
            raise ShapeError(f"D and K must agree in shape, got {D.shape} vs {K.shape}")
        N = self.N
        if N is None:
            N = _default_N(D.shape[0] // 2)
        N = _symmetrized(N, "N", skew=True, rtol=self.sym_rtol)
        if N.shape != D.shape:
            raise ShapeError(f"N must match D in shape, got {N.shape} vs {D.shape}")
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "N", N)
        for name in ("delta", "kappa", "nu", "Omega"):
            value = float(getattr(self, name))
            if not np.isfinite(value):
                raise ShapeError(f"gain {name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)

    def replace(self, **gains) -> "PerturbationSet":
        """New operating point with some gains changed, matrices shared."""
        kw = dict(D=self.D, K=self.K, N=self.N, delta=self.delta,
                  kappa=self.kappa, nu=self.nu, Omega=self.Omega,
                  sym_rtol=self.sym_rtol)
        kw.update(gains)
        return PerturbationSet(**kw)


@dataclass(frozen=True, eq=False)
class QuadraticPencil:
    """L(lambda) = I lambda^2 + damping_total lambda + stiffness_total."""

    damping_total: np.ndarray
    stiffness_total: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "damping_total", _locked(self.damping_total))
        object.__setattr__(self, "stiffness_total", _locked(self.stiffness_total))

    @property
    def size(self) -> int:
        return self.damping_total.shape[0]

    def __call__(self, lam: complex) -> np.ndarray:
        """Evaluate L(lambda)."""
        return (lam * lam) * np.eye(self.size) + lam * self.damping_total \
            + self.stiffness_total


@dataclass(frozen=True)
class MeshEigenvalue:
    """One branch value i(w_s +- s Omega) of the unperturbed spectral mesh."""

    s: int
    branch: str           # '+' or '-'
    conj: bool            # True for the complex-conjugate partner
    value: complex


def pencil_coefficients(model: RotorModel, pert: PerturbationSet,
                        Omega, delta, kappa, nu) -> tuple[np.ndarray, np.ndarray]:
    """Damping and stiffness of the pencil for the shape matrices of ``pert``.

    damping_total = 2 Omega G + delta D
    stiffness_total = P + Omega^2 G^2 + kappa K + nu N

    The gains are scalars or arrays of shape (M, 1, 1), which give stacks
    of M pencils.
    """
    if pert.D.shape != (model.size, model.size):
        raise ShapeError(
            f"perturbation matrices are {pert.D.shape}, rotor needs "
            f"({model.size}, {model.size})"
        )
    C = 2.0 * Omega * model.G + delta * pert.D
    S = model.P + Omega ** 2 * model.G2 + kappa * pert.K + nu * pert.N
    return C, S


def build_pencil(model: RotorModel, pert: PerturbationSet) -> QuadraticPencil:
    """Assemble the perturbed pencil at one operating point.

    The gains are taken as numpy floats, so a gain whose square overflows
    gives inf (and NaN) coefficients for the solver's overflow gate to
    reject, not a Python OverflowError.
    """
    gains = map(np.float64, (pert.Omega, pert.delta, pert.kappa, pert.nu))
    with np.errstate(over="ignore", invalid="ignore"):
        C, S = pencil_coefficients(model, pert, *gains)
    return QuadraticPencil(damping_total=C, stiffness_total=S)


def mesh_spectrum(model: RotorModel, Omega: float) -> list[MeshEigenvalue]:
    """All 4n eigenvalues i(w_s +- s Omega) and their conjugates."""
    out = []
    for s, w in enumerate(model.omegas, start=1):
        for branch, sign in (("+", 1.0), ("-", -1.0)):
            v = 1j * (w + sign * s * Omega)
            out.append(MeshEigenvalue(s=s, branch=branch, conj=False, value=v))
            out.append(MeshEigenvalue(s=s, branch=branch, conj=True, value=-v))
    return out


def critical_speed(model: RotorModel) -> float:
    """Smallest w_s / s; the slowest backward wave becomes stationary there."""
    return min(w / s for s, w in enumerate(model.omegas, start=1))


def classify_wave(s: int, branch: str, Omega: float, model: RotorModel) -> str:
    """Label the (s, branch) wave as forward, backward or reflected.

    A backward wave overtaken by the rotation (w_s - s Omega < 0) appears
    to travel forward in the stationary frame and is labelled reflected.
    Exactly stationary waves are reported as a boundary case.
    """
    if not 1 <= s <= model.n:
        raise ShapeError(f"doublet index {s} outside 1..{model.n}")
    if branch not in ("+", "-"):
        raise ValueError(f"branch must be '+' or '-', got {branch!r}")
    if branch == "+":
        return "forward"
    x = model.omegas[s - 1] - s * Omega
    if x == 0.0:
        raise StationaryWaveError(
            f"wave (s={s}, -) is stationary in the non-rotating frame at Omega={Omega}"
        )
    return "backward" if x > 0 else "reflected"
