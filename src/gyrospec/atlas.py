"""Stability charts: grid classification, flutter boundaries, singular points.

Sweeps classify each node of a 2-D parameter grid with the exact solver,
boundaries between unstable and stable nodes are traced by oriented
marching squares with per-edge bisection against the exact spectrum,
and coalescing eigenvalues are located by minimizing the characteristic
discriminant and certified through the rank of L(lambda0).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (ConvergenceError, InsufficientResolutionError,
                     OverflowRescaleError, ShapeError)
from .model import RotorModel, PerturbationSet, build_pencil, pencil_coefficients
from .qep import charpoly_of_matrix, companion_matrix, companion_stack, \
    poly_roots, roots_batch
from .tolerances import DEFAULT

PARAM_NAMES = ("Omega", "kappa", "delta", "nu")

ASYMPTOTICALLY_STABLE = "asymptotically_stable"
MARGINAL = "marginal"
FLUTTER = "flutter"
DIVERGENCE = "divergence"
ERROR = "error"
CLASS_NAMES = (ASYMPTOTICALLY_STABLE, MARGINAL, FLUTTER, DIVERGENCE, ERROR)


@dataclass(frozen=True)
class StabilityVerdict:
    classification: str
    max_re: float
    critical_eigenvalue: complex


@dataclass(frozen=True)
class Certificate:
    disc_rel: float
    rank_deficiency: int
    min_gap: float
    singular_values: tuple[float, ...]


@dataclass(frozen=True)
class SingularPointRecord:
    kind: str                      # diabolical | exceptional | near_miss
    location: tuple[float, float, float, float]   # (Omega, kappa, delta, nu)
    eigenvalue: complex
    certificate: Certificate


@dataclass(frozen=True, eq=False)
class Polyline:
    vertices: np.ndarray          # (V, 2) in (axis1, axis2) coordinates
    residuals: np.ndarray         # (V,) |max Re| at each refined vertex
    closed: bool
    flagged: bool = False         # split at a non-convergent edge


@dataclass(frozen=True, eq=False)
class StabilityChart:
    plane: tuple[str, str]
    fixed: dict
    axis1: np.ndarray
    axis2: np.ndarray
    max_re: np.ndarray            # (n1, n2)
    im_at_max: np.ndarray
    class_codes: np.ndarray       # (n1, n2) indices into CLASS_NAMES
    errors: tuple
    model: RotorModel
    pert_template: PerturbationSet
    marginal_rtol: float
    boundaries: tuple = ()
    singular_points: tuple = ()

    def __post_init__(self):
        for name in ("axis1", "axis2", "max_re", "im_at_max", "class_codes"):
            arr = np.asarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def class_name(self, i: int, j: int) -> str:
        return CLASS_NAMES[self.class_codes[i, j]]

    def verdict(self, i: int, j: int) -> StabilityVerdict:
        return StabilityVerdict(
            classification=self.class_name(i, j),
            max_re=float(self.max_re[i, j]),
            critical_eigenvalue=complex(self.max_re[i, j], self.im_at_max[i, j]),
        )

    def cell_params(self, i: int, j: int) -> dict:
        p = dict(self.fixed)
        p[self.plane[0]] = float(self.axis1[i])
        p[self.plane[1]] = float(self.axis2[j])
        return p

    def with_boundaries(self, boundaries) -> "StabilityChart":
        return replace(self, boundaries=tuple(boundaries))

    def with_singular_points(self, records) -> "StabilityChart":
        return replace(self, singular_points=tuple(records))


def _verdict_parts(eigs: np.ndarray, marginal_rtol: float):
    """Vectorized classification of eigenvalue rows (M, 4n).

    The critical eigenvalue is the max Re member with the largest |Im|,
    reported with Im >= 0: which partner of a conjugate pair has the
    larger computed real part is down to rounding.
    """
    max_re = eigs.real.max(axis=1)
    order = np.lexsort((np.abs(eigs.imag), eigs.real), axis=1)
    crit = np.take_along_axis(eigs, order[:, -1:], axis=1)[:, 0]
    crit.imag = np.abs(crit.imag)
    scale = np.maximum(1.0, np.abs(eigs).max(axis=1))
    tol = marginal_rtol * scale
    codes = np.full(len(eigs), CLASS_NAMES.index(MARGINAL), dtype=np.int8)
    codes[max_re < -tol] = CLASS_NAMES.index(ASYMPTOTICALLY_STABLE)
    unstable = max_re > tol
    codes[unstable & (crit.imag > tol)] = CLASS_NAMES.index(FLUTTER)
    codes[unstable & (crit.imag <= tol)] = CLASS_NAMES.index(DIVERGENCE)
    return max_re, crit, codes


def _failures(eigs: np.ndarray, resid: np.ndarray, poly_residual: float):
    """Rows the solver could not certify: (mask (M,), reason per failed row).

    Overflowed characteristic coefficients leave NaN rows; otherwise a
    row fails when its worst scaled root residual is above
    ``poly_residual`` or is NaN.
    """
    overflow = ~np.all(np.isfinite(eigs.view(float)), axis=1)
    worst = resid.max(axis=1)
    bad = overflow | ~(worst <= poly_residual)
    reasons = {int(k): "coefficients overflowed" if overflow[k] else
               f"root residual {worst[k]:.3e} above {poly_residual:.1e}"
               for k in np.nonzero(bad)[0]}
    return bad, reasons


def classify(model: RotorModel, pert: PerturbationSet,
             marginal_rtol: float = DEFAULT.marginal_rtol,
             poly_residual: float = DEFAULT.poly_residual) -> StabilityVerdict:
    """Stability verdict at one operating point.

    A one-point call of :func:`eigenvalues_at_points`, so it agrees
    exactly with :func:`sweep2d` at the same node.  Raises
    OverflowRescaleError when the characteristic coefficients overflow
    and ConvergenceError when a root residual is above ``poly_residual``.
    """
    pts = np.array([[pert.Omega, pert.kappa]])
    eigs, resid = eigenvalues_at_points(model, pert, ("Omega", "kappa"), pts)
    bad, reasons = _failures(eigs, resid, poly_residual)
    if bad[0]:
        if not np.all(np.isfinite(eigs)):
            raise OverflowRescaleError(
                "polynomial coefficients overflowed; rescale the pencil "
                "(divide frequencies and gains by a common factor)")
        raise ConvergenceError(f"characteristic {reasons[0]}",
                               best=eigs[0], residuals=resid[0])
    max_re, crit, codes = _verdict_parts(eigs, marginal_rtol)
    return StabilityVerdict(
        classification=CLASS_NAMES[codes[0]],
        max_re=float(max_re[0]),
        critical_eigenvalue=complex(crit[0]),
    )


def eigenvalues_at_points(model: RotorModel, pert: PerturbationSet,
                          plane: tuple[str, str], pts: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Exact eigenvalues at many operating points of one plane.

    Returns (eigenvalues (M, 4n), scaled poly residuals (M, 4n)).  Every
    model size takes the same batched pass: the (M, 4n, 4n) companion
    stack, its characteristic polynomials and one root iteration over
    all rows.  Rows whose coefficients overflow come back as NaN
    eigenvalues with inf residuals.  Residual acceptance is the caller's
    concern.

    The path agrees with LAPACK ``eigvals`` of the companion matrix for
    n <= 3 (the oracle tests); for n >= 4 the degree-4n characteristic
    polynomial is ill-conditioned, the result is not verified and rows
    may fail the residual gate of :func:`sweep2d`.
    """
    pts = np.asarray(pts, dtype=float)
    gains = {name: np.full((len(pts), 1, 1), getattr(pert, name))
             for name in PARAM_NAMES}
    gains[plane[0]] = pts[:, 0, None, None]
    gains[plane[1]] = pts[:, 1, None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        C, S = pencil_coefficients(model, pert, **gains)
        coeffs = charpoly_of_matrix(companion_stack(C, S))
        finite = np.all(np.isfinite(coeffs), axis=1)
        if finite.all():
            return roots_batch(coeffs)
        d = coeffs.shape[1] - 1
        eigs = np.full((len(pts), d), np.nan, dtype=complex)
        resid = np.full((len(pts), d), np.inf)
        if finite.any():
            eigs[finite], resid[finite] = roots_batch(coeffs[finite])
    return eigs, resid


def max_re_at_points(model: RotorModel, pert: PerturbationSet,
                     plane: tuple[str, str], pts: np.ndarray) -> np.ndarray:
    eigs, _ = eigenvalues_at_points(model, pert, plane, pts)
    return eigs.real.max(axis=1)


def _validate_axis(ax, name: str) -> np.ndarray:
    ax = np.asarray(ax, dtype=float)
    if ax.ndim != 1 or len(ax) < 2:
        raise ShapeError(f"{name} must be a 1-D axis with at least 2 samples")
    if not np.all(np.isfinite(ax)):
        raise ShapeError(f"{name} must be finite")
    if not np.all(np.diff(ax) > 0):
        raise ShapeError(f"{name} must be strictly increasing")
    return ax


def sweep2d(model: RotorModel, pert_template: PerturbationSet,
            plane: tuple[str, str], grid,
            marginal_rtol: float = DEFAULT.marginal_rtol,
            poly_residual: float = DEFAULT.poly_residual) -> StabilityChart:
    """Classify every node of a 2-D parameter grid.

    All nodes go through one batched :func:`eigenvalues_at_points` call,
    for any number of doublets.  A node whose coefficients overflow or
    whose worst root residual is above ``poly_residual`` (or NaN) becomes
    an ERROR cell with NaN ``max_re`` and ``im_at_max``; its reason is
    listed in ``chart.errors``.

    Parameters
    ----------
    plane : pair of names from {"Omega", "kappa", "delta", "nu"}
        The two parameters that vary; the others are taken from the
        template.
    grid : (axis1, axis2)
        Strictly increasing sample values for the two plane parameters.
    """
    if len(plane) != 2 or plane[0] == plane[1] \
            or any(p not in PARAM_NAMES for p in plane):
        raise ShapeError(f"plane must be two distinct names from {PARAM_NAMES}")
    axis1 = _validate_axis(grid[0], f"axis {plane[0]}")
    axis2 = _validate_axis(grid[1], f"axis {plane[1]}")
    n1, n2 = len(axis1), len(axis2)
    P1, P2 = np.meshgrid(axis1, axis2, indexing="ij")
    pts = np.column_stack([P1.ravel(), P2.ravel()])

    eigs, resid = eigenvalues_at_points(model, pert_template, plane, pts)
    max_re, crit, codes = _verdict_parts(eigs, marginal_rtol)
    bad, reasons = _failures(eigs, resid, poly_residual)
    codes[bad] = CLASS_NAMES.index(ERROR)
    max_re[bad] = np.nan
    crit[bad] = complex(np.nan, np.nan)
    errors = tuple((flat // n2, flat % n2, why) for flat, why in reasons.items())

    fixed = {name: getattr(pert_template, name) for name in PARAM_NAMES
             if name not in plane}
    return StabilityChart(
        plane=tuple(plane), fixed=fixed, axis1=axis1, axis2=axis2,
        max_re=max_re.reshape(n1, n2),
        im_at_max=crit.imag.reshape(n1, n2),
        class_codes=codes.reshape(n1, n2),
        errors=errors, model=model, pert_template=pert_template,
        marginal_rtol=marginal_rtol,
    )


# Oriented marching squares.  A cell's corners, walked counter-clockwise in
# bit order (c00, c10, c11, c01), pass over its edges b, r, t, l (bottom and
# top are axis2 = const rows).  A segment starts on an edge where the walk
# passes from an unstable corner to a stable one and ends where it passes
# back, so the unstable corners lie on its left.
_MS_SEGMENTS = {
    0b0001: (("l", "t"),), 0b1110: (("t", "l"),),
    0b0010: (("t", "r"),), 0b1101: (("r", "t"),),
    0b0100: (("r", "b"),), 0b1011: (("b", "r"),),
    0b1000: (("b", "l"),), 0b0111: (("l", "b"),),
    0b0011: (("l", "r"),), 0b1100: (("r", "l"),),
    0b1001: (("b", "t"),), 0b0110: (("t", "b"),),
}
# saddles: (pairs if the cell-center mean is stable, pairs if unstable)
_MS_SADDLES = {
    0b0101: ((("r", "b"), ("l", "t")), (("r", "t"), ("l", "b"))),
    0b1010: ((("b", "l"), ("t", "r")), (("b", "r"), ("t", "l"))),
}
_MAX_BISECT = 90


def _refine_edges(chart: StabilityChart, lo, hi, flo, boundary_residual):
    """Bisect all boundary edges (end points lo, hi (E, 2), max Re flo at lo)
    in lockstep against the exact spectrum.

    Returns (points (E, 2), residuals (E,), converged (E,)).
    """
    resid = np.full(len(lo), np.inf)
    point = 0.5 * (lo + hi)
    done = np.zeros(len(lo), dtype=bool)
    for _ in range(_MAX_BISECT):
        active = ~done
        if not active.any():
            break
        mid = 0.5 * (lo[active] + hi[active])
        fm = max_re_at_points(chart.model, chart.pert_template, chart.plane, mid)
        point[active] = mid
        resid[active] = np.abs(fm)
        newly = np.abs(fm) < boundary_residual
        idx = np.nonzero(active)[0]
        done[idx[newly]] = True
        same = (fm > 0) == (flo[active] > 0)
        lo[idx[same]] = mid[same]
        flo[idx[same]] = fm[same]
        hi[idx[~same]] = mid[~same]
    return point, resid, done


def trace_boundary(chart: StabilityChart,
                   boundary_residual: float = DEFAULT.boundary_residual
                   ) -> tuple[Polyline, ...]:
    """Trace the boundary between the chart's unstable and stable nodes.

    Oriented marching squares over the cells whose four corners are
    decided (stable, flutter or divergence); marginal and ERROR nodes
    carry no segment.  Every edge a segment uses is sharpened by
    bisection against the exact spectrum until |max Re| falls below
    ``boundary_residual``.  The unstable (flutter or divergence) side is
    on the left of every polyline.  A polyline is closed, ends on the
    chart frame or ends next to an undecided node; one that ends at an
    edge whose bisection did not converge is ``flagged``.
    """
    f = chart.max_re
    a1, a2 = chart.axis1, chart.axis2
    n1, n2 = f.shape
    cls = chart.class_codes
    unstable = np.isin(cls, (CLASS_NAMES.index(FLUTTER), CLASS_NAMES.index(DIVERGENCE)))
    decided = unstable | (cls == CLASS_NAMES.index(ASYMPTOTICALLY_STABLE))

    # directed segments as pairs of edge ids: (i, j)-(i+1, j) is i * n2 + j,
    # (i, j)-(i, j+1) is nh + i * (n2-1) + j
    nh = (n1 - 1) * n2
    m = unstable.astype(np.int8)
    codes = (m[:-1, :-1] << 3) | (m[1:, :-1] << 2) | (m[1:, 1:] << 1) | m[:-1, 1:]
    cell_ok = decided[:-1, :-1] & decided[1:, :-1] & decided[1:, 1:] & decided[:-1, 1:]
    segments = []
    for i, j in np.argwhere(cell_ok & (codes != 0) & (codes != 15)).tolist():
        code = int(codes[i, j])
        if code in _MS_SADDLES:
            center = 0.25 * (f[i, j] + f[i + 1, j] + f[i + 1, j + 1] + f[i, j + 1])
            pairs = _MS_SADDLES[code][int(center > 0)]
        else:
            pairs = _MS_SEGMENTS[code]
        local = {
            "b": i * n2 + j,
            "t": i * n2 + j + 1,
            "l": nh + i * (n2 - 1) + j,
            "r": nh + (i + 1) * (n2 - 1) + j,
        }
        segments.extend((local[ea], local[eb]) for ea, eb in pairs)

    # bisect the edges the segments use, each from its (i, j) end
    ids = np.unique(np.array(segments, dtype=np.int64))
    h = ids < nh
    ei = np.where(h, ids // n2, (ids - nh) // (n2 - 1))
    ej = np.where(h, ids % n2, (ids - nh) % (n2 - 1))
    lo = np.column_stack([a1[ei], a2[ej]])
    hi = np.column_stack([a1[ei + h], a2[ej + ~h]])
    point, resid, done = _refine_edges(chart, lo, hi, f[ei, ej], boundary_residual)

    # drop segments touching non-converged edges; chains split there
    good = set(ids[done].tolist())
    kept = [s for s in segments if s[0] in good and s[1] in good]
    dropped = {e for s in segments for e in s
               if s[0] not in good or s[1] not in good}

    # every edge starts at most one segment and ends at most one: open
    # chains start at edges no segment ends on, closed ones at their
    # smallest edge id
    nxt = dict(kept)

    def follow(start):
        chain = [start]
        while chain[-1] in nxt:
            chain.append(nxt.pop(chain[-1]))
        return chain

    chains = [follow(e) for e in sorted(set(nxt) - set(nxt.values()))]
    for e in sorted(nxt):
        if e in nxt:
            chains.append(follow(e))

    polylines = []
    for chain in chains:
        rows = np.searchsorted(ids, chain)
        polylines.append(Polyline(vertices=point[rows], residuals=resid[rows],
                                  closed=chain[0] == chain[-1],
                                  flagged=chain[0] in dropped or chain[-1] in dropped))
    polylines.sort(key=lambda p: (tuple(np.round(p.vertices[0], 12)), len(p.vertices)))
    return tuple(polylines)


def boundary_slope_at_origin(chart: StabilityChart,
                             cutoff_fraction: float = 0.4,
                             min_vertices: int = 3) -> tuple[float, float]:
    """Slopes Omega/delta of the two boundary branches through the origin.

    Uses the smallest-delta vertices of the traced boundary (up to
    ``cutoff_fraction`` of the chart's delta range), splits them into two
    branches at the largest gap in Omega/delta, and fits each branch by
    least squares through the origin.
    """
    names = chart.plane
    if set(names) != {"Omega", "delta"}:
        raise ShapeError("boundary_slope_at_origin needs an (Omega, delta) chart")
    om_col = names.index("Omega")
    de_col = names.index("delta")
    boundaries = chart.boundaries or trace_boundary(chart)
    verts = [pl.vertices for pl in boundaries]
    if not verts:
        raise InsufficientResolutionError("no boundary vertices traced")
    V = np.vstack(verts)
    delta = V[:, de_col]
    omega = V[:, om_col]
    keep = delta > 0
    if keep.sum() < 2 * min_vertices:
        raise InsufficientResolutionError(
            f"only {int(keep.sum())} boundary vertices with delta > 0"
        )
    delta, omega = delta[keep], omega[keep]
    axis_max = (chart.axis1 if de_col == 0 else chart.axis2).max()
    cutoff = cutoff_fraction * min(axis_max, delta.max() / cutoff_fraction)
    small = delta <= cutoff
    while small.sum() < 2 * min_vertices and cutoff < delta.max():
        cutoff *= 1.5
        small = delta <= cutoff
    delta, omega = delta[small], omega[small]
    ratios = omega / delta
    order = np.argsort(ratios)
    gaps = np.diff(ratios[order])
    split = int(np.argmax(gaps)) + 1 if len(gaps) else 0
    branch_a = order[:split]
    branch_b = order[split:]
    if len(branch_a) < min_vertices or len(branch_b) < min_vertices:
        raise InsufficientResolutionError(
            f"branches have {len(branch_a)} and {len(branch_b)} vertices; "
            f"need at least {min_vertices} each"
        )
    slopes = []
    for idx in (branch_a, branch_b):
        d, o = delta[idx], omega[idx]
        slopes.append(float(np.sum(o * d) / np.sum(d * d)))
    return (min(slopes), max(slopes))


def _sylvester_resultant(p: np.ndarray, q: np.ndarray) -> float:
    m = len(p) - 1
    n = len(q) - 1
    size = m + n
    S = np.zeros((size, size))
    for r in range(n):
        S[r, r:r + m + 1] = p
    for r in range(m):
        S[n + r, r:r + n + 1] = q
    return float(np.linalg.det(S))


def poly_discriminant(coeffs: np.ndarray) -> float:
    """Discriminant of a real polynomial (closed form for quartics)."""
    coeffs = np.asarray(coeffs, dtype=float)
    d = len(coeffs) - 1
    if d == 4:
        a, b, c, dd, e = coeffs
        return (256*a**3*e**3 - 192*a**2*b*dd*e**2 - 128*a**2*c**2*e**2
                + 144*a**2*c*dd**2*e - 27*a**2*dd**4 + 144*a*b**2*c*e**2
                - 6*a*b**2*dd**2*e - 80*a*b*c**2*dd*e + 18*a*b*c*dd**3
                + 16*a*c**4*e - 4*a*c**3*dd**2 - 27*b**4*e**2
                + 18*b**3*c*dd*e - 4*b**3*dd**3 - 4*b**2*c**3*e
                + b**2*c**2*dd**2)
    dp = coeffs[:-1] * np.arange(d, 0, -1)
    res = _sylvester_resultant(coeffs, dp)
    sign = -1.0 if (d * (d - 1) // 2) % 2 else 1.0
    return sign * res / coeffs[0]


def _disc_at(model, pert, x):
    p = pert.replace(Omega=float(x[0]), kappa=float(x[1]))
    coeffs = charpoly_of_matrix(companion_matrix(build_pencil(model, p)))
    return poly_discriminant(coeffs), coeffs


def _newton_disc(model, template, x0, h, max_iter, bounds):
    """Newton iteration for the critical point of the discriminant."""
    (om_lo, om_hi), (ka_lo, ka_hi), margin = bounds
    x = x0.copy()
    best = x.copy()
    best_disc = abs(_disc_at(model, template, x)[0])
    for _ in range(max_iter):
        f0, _ = _disc_at(model, template, x)
        fs = {}
        for a in (-1, 0, 1):
            for b in (-1, 0, 1):
                if (a, b) == (0, 0):
                    fs[a, b] = f0
                else:
                    fs[a, b], _ = _disc_at(model, template,
                                           x + np.array([a * h[0], b * h[1]]))
        grad = np.array([(fs[1, 0] - fs[-1, 0]) / (2 * h[0]),
                         (fs[0, 1] - fs[0, -1]) / (2 * h[1])])
        mixed = (fs[1, 1] - fs[1, -1] - fs[-1, 1] + fs[-1, -1]) / (4 * h[0] * h[1])
        hess = np.array([[(fs[1, 0] - 2 * f0 + fs[-1, 0]) / h[0] ** 2, mixed],
                         [mixed, (fs[0, 1] - 2 * f0 + fs[0, -1]) / h[1] ** 2]])
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            break  # flat minimum (e.g. hitting the point exactly); keep x
        if not np.all(np.isfinite(step)):
            break
        x = x - step
        if (x[0] < om_lo - margin or x[0] > om_hi + margin
                or x[1] < ka_lo - margin or x[1] > ka_hi + margin):
            return best, False
        d = abs(_disc_at(model, template, x)[0])
        if d <= best_disc:
            best, best_disc = x.copy(), d
        if np.linalg.norm(step) < 1e-12 * max(om_hi - om_lo, ka_hi - ka_lo, 1.0):
            break
    return best, True


def _polish_double_imag(model, template, x0, h, max_iter=30):
    """Machine-precision polish of a double imaginary root for 4x4 pencils.

    At delta = 0 the quartic is monic with zero cubic coefficient, so a
    conjugate pair of double roots +-i w0 means exactly a1 = 0 and
    a2^2 - 4 a0 = 0.  For nu != 0 both equations are active; for nu = 0
    the odd coefficient vanishes identically and the critical point of
    Q = a2^2 - 4 a0 (a clean quadratic minimum) is used instead.
    """
    def system(x):
        _, c = _disc_at(model, template, x)
        return np.array([c[3], c[2] ** 2 - 4.0 * c[4]])

    x = x0.copy()
    if template.nu != 0.0:
        for _ in range(max_iter):
            f0 = system(x)
            Jm = np.empty((2, 2))
            for k in range(2):
                dx = np.zeros(2)
                dx[k] = h[k]
                Jm[:, k] = (system(x + dx) - system(x - dx)) / (2 * h[k])
            try:
                step = np.linalg.solve(Jm, f0)
            except np.linalg.LinAlgError:
                return x0
            if not np.all(np.isfinite(step)):
                return x0
            x = x - step
            if np.linalg.norm(step) < 1e-15 * (1.0 + np.linalg.norm(x)):
                break
        return x

    def Q(x):
        return system(x)[1]

    for _ in range(max_iter):
        f0 = Q(x)
        fs = {}
        for a in (-1, 0, 1):
            for b in (-1, 0, 1):
                fs[a, b] = f0 if (a, b) == (0, 0) else \
                    Q(x + np.array([a * h[0], b * h[1]]))
        grad = np.array([(fs[1, 0] - fs[-1, 0]) / (2 * h[0]),
                         (fs[0, 1] - fs[0, -1]) / (2 * h[1])])
        mixed = (fs[1, 1] - fs[1, -1] - fs[-1, 1] + fs[-1, -1]) / (4 * h[0] * h[1])
        hess = np.array([[(fs[1, 0] - 2 * f0 + fs[-1, 0]) / h[0] ** 2, mixed],
                         [mixed, (fs[0, 1] - 2 * f0 + fs[0, -1]) / h[1] ** 2]])
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            return x0
        if not np.all(np.isfinite(step)):
            return x0
        x = x - step
        if np.linalg.norm(step) < 1e-15 * (1.0 + np.linalg.norm(x)):
            break
    return x


def find_exceptional_points(model: RotorModel, pert_template: PerturbationSet,
                            search_box, coarse: tuple[int, int] = (41, 41),
                            gap_candidate_rtol: float = 0.2,
                            disc_rtol: float = DEFAULT.ep_disc_rtol,
                            rank_rtol: float = DEFAULT.ep_rank_rtol,
                            max_newton: int = 40,
                            max_candidates: int = 8):
    """Locate and certify coalescing eigenvalues in an (Omega, kappa) box.

    The search runs at delta = 0 with nu taken from the template.  A
    coarse grid minimizes the smallest eigenvalue gap; candidates are
    polished by Newton iteration on the characteristic discriminant and
    certified through the discriminant residual and the rank deficiency
    of L(lambda0): one missing rank means an exceptional point (a single
    eigenvector), two a diabolical one.

    Returns ``(found, near_misses)``; failed certifications never appear
    in ``found``.
    """
    (om_lo, om_hi), (ka_lo, ka_hi) = search_box
    if not (om_lo < om_hi and ka_lo < ka_hi):
        raise ShapeError("search box bounds must satisfy lo < hi")
    template = pert_template.replace(delta=0.0)
    plane = ("Omega", "kappa")
    ax1 = np.linspace(om_lo, om_hi, coarse[0])
    ax2 = np.linspace(ka_lo, ka_hi, coarse[1])
    P1, P2 = np.meshgrid(ax1, ax2, indexing="ij")
    pts = np.column_stack([P1.ravel(), P2.ravel()])
    eigs, _ = eigenvalues_at_points(model, template, plane, pts)

    diff = np.abs(eigs[:, :, None] - eigs[:, None, :])
    m = eigs.shape[1]
    iu = np.triu_indices(m, k=1)
    gaps = diff[:, iu[0], iu[1]].min(axis=1)
    scale = 1.0 + np.abs(eigs).max(axis=1)
    rel_gap = (gaps / scale).reshape(coarse)

    # local minima below the candidate threshold
    cand = []
    for i in range(coarse[0]):
        for j in range(coarse[1]):
            g = rel_gap[i, j]
            if g >= gap_candidate_rtol:
                continue
            neigh = rel_gap[max(i - 1, 0):i + 2, max(j - 1, 0):j + 2]
            if g <= neigh.min():
                cand.append((g, i, j))
    cand.sort()
    box_scale = max(om_hi - om_lo, ka_hi - ka_lo)
    picked = []
    for g, i, j in cand:
        x = np.array([ax1[i], ax2[j]])
        if all(np.linalg.norm(x - y) > 0.05 * box_scale for y in picked):
            picked.append(x)
        if len(picked) >= max_candidates:
            break

    found: list[SingularPointRecord] = []
    near: list[SingularPointRecord] = []
    margin = 0.1 * box_scale
    h = np.maximum(1e-4 * np.array([om_hi - om_lo, ka_hi - ka_lo]), 1e-7)
    bounds = ((om_lo, om_hi), (ka_lo, ka_hi), margin)
    for x0 in picked:
        x, ok = _newton_disc(model, template, x0, h, max_newton, bounds)
        if ok and model.n == 1:
            # the discriminant is quartically flat at semisimple doubles;
            # polish with the exact double-imaginary-root conditions
            xp = _polish_double_imag(model, template, x, h)
            if abs(_disc_at(model, template, xp)[0]) <= abs(_disc_at(model, template, x)[0]):
                x = xp

        disc, coeffs = _disc_at(model, template, x)
        roots = poly_roots(coeffs)
        diffs = np.abs(roots[:, None] - roots[None, :])
        iu2 = np.triu_indices(len(roots), k=1)
        pair_flat = int(np.argmin(diffs[iu2]))
        ia, ib = iu2[0][pair_flat], iu2[1][pair_flat]
        min_gap = float(diffs[ia, ib])
        lam0 = 0.5 * (roots[ia] + roots[ib])
        if lam0.imag < 0:
            lam0 = lam0.conjugate()
        dscale = 1.0
        for a in range(len(roots)):
            for b in range(a + 1, len(roots)):
                dscale *= ((1.0 + abs(roots[a])) * (1.0 + abs(roots[b]))) ** 2
        disc_rel = abs(disc) / dscale
        p = template.replace(Omega=float(x[0]), kappa=float(x[1]))
        pencil = build_pencil(model, p)
        L = pencil(lam0)
        sv = np.linalg.svd(L, compute_uv=False)
        # rank threshold on the pencil scale so a diabolical point, where
        # L(lambda0) vanishes entirely, still counts both directions
        thresh = rank_rtol * max(sv[0], float(np.linalg.norm(pencil.stiffness_total)))
        deficiency = int(np.sum(sv <= thresh))
        cert = Certificate(disc_rel=float(disc_rel), rank_deficiency=deficiency,
                           min_gap=min_gap, singular_values=tuple(map(float, sv)))
        loc = (float(x[0]), float(x[1]), 0.0, template.nu)
        if ok and disc_rel < disc_rtol and deficiency >= 1:
            kind = "exceptional" if deficiency == 1 else "diabolical"
            rec = SingularPointRecord(kind=kind, location=loc,
                                      eigenvalue=complex(lam0), certificate=cert)
            if all(np.linalg.norm(np.array(rec.location[:2])
                                  - np.array(f.location[:2])) > 1e-6 * max(box_scale, 1.0)
                   for f in found):
                found.append(rec)
        else:
            near.append(SingularPointRecord(kind="near_miss", location=loc,
                                            eigenvalue=complex(lam0),
                                            certificate=cert))
    found.sort(key=lambda r: r.location)
    near.sort(key=lambda r: r.location)
    return found, near
