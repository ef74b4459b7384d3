"""Stability charts: grid classification, flutter boundaries, singular points.

Sweeps classify each node of a 2-D parameter grid with the exact solver,
boundaries between unstable and stable nodes are traced by oriented
marching squares with per-edge Illinois (bracketed secant) steps against
the exact spectrum,
and coalescing eigenvalues are located by Newton on a Jordan chain of
the pencil, for any number of doublets, and certified through the chain
residual and the rank of L(lambda0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientResolutionError, ShapeError
from .model import RotorModel, PerturbationSet, build_pencil, pencil_coefficients
from .qep import accepted, pencil_eigenvalues, rejected
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
    kind: str    # exceptional | diabolical | real_double | near_miss
    location: tuple[float, float, float, float]   # (Omega, kappa, delta, nu)
    eigenvalue: complex
    certificate: Certificate


@dataclass(frozen=True, eq=False)
class Polyline:
    vertices: np.ndarray          # (V, 2) in (axis1, axis2) coordinates
    residuals: np.ndarray         # (V,) |max Re| at each refined vertex
    closed: bool
    flagged: bool = False         # ends at a non-convergent edge or a failed node


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

    def __post_init__(self):
        for name in ("axis1", "axis2", "max_re", "im_at_max", "class_codes"):
            arr = np.asarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


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


def classify(model: RotorModel, pert: PerturbationSet,
             marginal_rtol: float = DEFAULT.marginal_rtol,
             poly_residual: float = DEFAULT.poly_residual) -> StabilityVerdict:
    """Stability verdict at one operating point.

    A one-point call of :func:`eigenvalues_at_points`, so it agrees
    exactly with :func:`sweep2d` and :func:`~gyrospec.qep.solve_qep` at
    the same node.  Raises through :func:`~gyrospec.qep.accepted` at
    ``poly_residual``; :func:`~gyrospec.qep.pencil_eigenvalues` states
    the model sizes its eigenvalues are verified for.
    """
    pts = np.array([[pert.Omega, pert.kappa]])
    eigs = accepted(*eigenvalues_at_points(model, pert, ("Omega", "kappa"), pts),
                    poly_residual)
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

    Returns (eigenvalues (M, 4n), scaled poly residuals (M, 4n)) from one
    :func:`~gyrospec.qep.pencil_eigenvalues` call on the (M, 2n, 2n)
    pencil stack, for every model size; that function states what an
    overflowing row returns and which model sizes are verified.
    Acceptance is :func:`~gyrospec.qep.rejected`.
    """
    pts = np.asarray(pts, dtype=float)
    gains = {name: np.full((len(pts), 1, 1), getattr(pert, name))
             for name in PARAM_NAMES}
    gains[plane[0]] = pts[:, 0, None, None]
    gains[plane[1]] = pts[:, 1, None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        C, S = pencil_coefficients(model, pert, **gains)
    return pencil_eigenvalues(C, S)


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
    for any number of doublets.  A node that
    :func:`~gyrospec.qep.rejected` rejects (overflowed coefficients, or a
    worst root residual above ``poly_residual`` or NaN) becomes an ERROR
    cell with NaN ``max_re`` and ``im_at_max``; its reason is
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
    bad, reasons = rejected(eigs, resid, poly_residual)
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


def _refine_edges(chart: StabilityChart, lo, hi, flo, fhi, boundary_residual):
    """Refine all boundary edges (end points lo, hi (E, 2), max Re flo at lo
    and fhi at hi, of opposite signs) in lockstep against the exact spectrum.

    Each step is an Illinois step: the secant point of the bracket, with the
    value kept at an end halved whenever that end is kept twice in a row,
    so one-sided convergence cannot stall.  Where the secant point is not
    strictly inside the bracket (a NaN end, or a rounded-off step) the
    step is a bisection.  An edge is done once |max Re| at its latest
    point is below ``boundary_residual``; the bracket always holds the
    sign change, so the point stays on the edge.

    Returns (points (E, 2), residuals (E,), converged (E,)).
    """
    resid = np.full(len(lo), np.inf)
    point = 0.5 * (lo + hi)
    done = np.zeros(len(lo), dtype=bool)
    kept = np.zeros(len(lo), dtype=np.int8)   # +1: lo kept last step, -1: hi
    for _ in range(_MAX_BISECT):
        idx = np.nonzero(~done)[0]
        if not len(idx):
            break
        fl, fh = flo[idx], fhi[idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = fl / (fl - fh)
        t[~((t > 0.0) & (t < 1.0))] = 0.5
        new = lo[idx] + t[:, None] * (hi[idx] - lo[idx])
        fm = max_re_at_points(chart.model, chart.pert_template, chart.plane, new)
        point[idx] = new
        resid[idx] = np.abs(fm)
        done[idx[np.abs(fm) < boundary_residual]] = True
        same = (fm > 0) == (fl > 0)
        # the new point replaces lo where it has lo's sign, otherwise hi
        keep_lo, keep_hi = idx[~same], idx[same]
        fl_half = keep_lo[kept[keep_lo] == 1]
        fh_half = keep_hi[kept[keep_hi] == -1]
        flo[fl_half] *= 0.5
        fhi[fh_half] *= 0.5
        lo[keep_hi], flo[keep_hi] = new[same], fm[same]
        hi[keep_lo], fhi[keep_lo] = new[~same], fm[~same]
        kept[keep_lo], kept[keep_hi] = 1, -1
    return point, resid, done


def trace_boundary(chart: StabilityChart,
                   boundary_residual: float = DEFAULT.boundary_residual
                   ) -> tuple[Polyline, ...]:
    """Trace the boundary between the chart's unstable and stable nodes.

    Oriented marching squares over the cells whose four corners are
    decided (stable, flutter or divergence); marginal and ERROR nodes
    carry no segment.  Every edge a segment uses is sharpened by
    Illinois steps (:func:`_refine_edges`) against the exact spectrum,
    starting from the chart's max Re at both of its nodes, until |max Re|
    falls below ``boundary_residual``.  A vertex is thus off the exact
    crossing by at most that residual over the slope of max Re along its
    edge; against plain bisection the vertices of the 201x201 fig. 2
    charts move by 1.1e-8.  The unstable (flutter or divergence)
    side is on the left of every polyline.  A polyline is closed, ends on
    the chart frame or ends next to an undecided node; one that ends at
    an edge whose refinement did not converge, or next to a failed
    (ERROR) node, is ``flagged``.
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

    # refine the edges the segments use, each from its (i, j) end
    ids = np.unique(np.array(segments, dtype=np.int64))
    h = ids < nh
    ei = np.where(h, ids // n2, (ids - nh) // (n2 - 1))
    ej = np.where(h, ids % n2, (ids - nh) % (n2 - 1))
    lo = np.column_stack([a1[ei], a2[ej]])
    hi = np.column_stack([a1[ei + h], a2[ej + ~h]])
    point, resid, done = _refine_edges(chart, lo, hi, f[ei, ej], f[ei + h, ej + ~h],
                                       boundary_residual)

    # drop segments touching non-converged edges; chains split there.  A
    # chain that ends at such an edge, or at one beside a cell with a
    # failed (ERROR) corner, is flagged
    good = set(ids[done].tolist())
    kept = [s for s in segments if s[0] in good and s[1] in good]
    suspect = {e for s in segments for e in s
               if s[0] not in good or s[1] not in good}
    failed = np.zeros((n1 + 1, n2 + 1), dtype=bool)   # cell (i, j) at [i+1, j+1]
    err = cls == CLASS_NAMES.index(ERROR)
    failed[1:-1, 1:-1] = err[:-1, :-1] | err[1:, :-1] | err[1:, 1:] | err[:-1, 1:]
    beside = failed[ei + 1, ej + 1] | np.where(h, failed[ei + 1, ej], failed[ei, ej + 1])
    suspect.update(ids[beside].tolist())

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
                                  flagged=chain[0] in suspect or chain[-1] in suspect))
    polylines.sort(key=lambda p: (tuple(np.round(p.vertices[0], 12)), len(p.vertices)))
    return tuple(polylines)


# Umbrella slopes: the share of the chart's delta range whose boundary
# vertices are fitted, and the fewest vertices per branch.
_SLOPE_CUTOFF_FRACTION = 0.4
_SLOPE_MIN_VERTICES = 3


def boundary_slope_at_origin(chart: StabilityChart) -> tuple[float, float]:
    """Slopes Omega/delta of the two boundary branches through the origin.

    Uses the smallest-delta vertices of the traced boundary (up to
    ``_SLOPE_CUTOFF_FRACTION`` of the chart's delta range), splits them
    into two branches at the largest gap in Omega/delta, and fits each
    branch by least squares through the origin.
    """
    names = chart.plane
    if set(names) != {"Omega", "delta"}:
        raise ShapeError("boundary_slope_at_origin needs an (Omega, delta) chart")
    om_col = names.index("Omega")
    de_col = names.index("delta")
    verts = [pl.vertices for pl in trace_boundary(chart)]
    if not verts:
        raise InsufficientResolutionError("no boundary vertices traced")
    V = np.vstack(verts)
    delta = V[:, de_col]
    omega = V[:, om_col]
    keep = delta > 0
    if keep.sum() < 2 * _SLOPE_MIN_VERTICES:
        raise InsufficientResolutionError(
            f"only {int(keep.sum())} boundary vertices with delta > 0"
        )
    delta, omega = delta[keep], omega[keep]
    axis_max = (chart.axis1 if de_col == 0 else chart.axis2).max()
    cutoff = _SLOPE_CUTOFF_FRACTION * min(axis_max, delta.max() / _SLOPE_CUTOFF_FRACTION)
    small = delta <= cutoff
    while small.sum() < 2 * _SLOPE_MIN_VERTICES and cutoff < delta.max():
        cutoff *= 1.5
        small = delta <= cutoff
    delta, omega = delta[small], omega[small]
    ratios = omega / delta
    order = np.argsort(ratios)
    gaps = np.diff(ratios[order])
    split = int(np.argmax(gaps)) + 1 if len(gaps) else 0
    branch_a = order[:split]
    branch_b = order[split:]
    if len(branch_a) < _SLOPE_MIN_VERTICES or len(branch_b) < _SLOPE_MIN_VERTICES:
        raise InsufficientResolutionError(
            f"branches have {len(branch_a)} and {len(branch_b)} vertices; "
            f"need at least {_SLOPE_MIN_VERTICES} each"
        )
    slopes = []
    for idx in (branch_a, branch_b):
        d, o = delta[idx], omega[idx]
        slopes.append(float(np.sum(o * d) / np.sum(d * d)))
    return (min(slopes), max(slopes))


# Exceptional-point search: gap threshold and count of the coarse-grid
# candidates, Newton's step cap and relative stopping step, and the chain
# residual up to which a point is certified.
_EP_GAP_RTOL = 0.2
_EP_MAX_CANDIDATES = 8
_EP_MAX_NEWTON = 60
_EP_STEP_RTOL = 1e-14
_EP_RESIDUAL = 1e-10


def _chain_newton(model: RotorModel, template: PerturbationSet, x, lam, lo, hi):
    """Newton on a Jordan chain of the delta = 0 pencil L(l) = l^2 + C l + S.

    Starts from (Omega, kappa) = x and the eigenvalue guess lam.  The
    unknowns are complex u0, u1, l, t and real Omega, kappa; the equations

        L(l) u0 = 0,   L(l) u1 + t L'(l) u0 = 0,
        c^H u0 = 1,    c^H u1 = 0,    d^H u1 + t = 1

    form a square real system of size 8n + 6, with an analytic Jacobian in
    G, G^2 and K.  c is the null vector of L at the start and d the
    direction of the start's associated vector.  At an exceptional point
    t != 0 and u1 / t is the associated vector; at a diabolical point
    t = 0 and u1 is a second eigenvector.  Where L'(l) u0 = 0 (the double
    root l = 0 at Omega = 0) the associated vector is 0 and t = 1, which
    ``d^H u1 = 1`` alone could not express.  The steps are least-squares
    steps: the system is singular at diabolical points and along the
    curves of real double roots.

    Returns (x, (u0, u1, l, t), residual, inside).  ``residual`` is
    ||(L u0, L u1 + t L' u0)|| / ((|l|^2 + |l| ||C|| + ||S||) ||(u0, u1)||).
    ``inside`` is False when a step would have left the box lo <= x <= hi;
    the result is then the last iterate inside it.
    """
    m = model.size
    G, G2, K, eye = model.G, model.G2, template.K, np.eye(m)
    C, S = pencil_coefficients(model, template, x[0], 0.0, x[1], template.nu)
    W, sv, Vh = np.linalg.svd(lam * lam * eye + lam * C + S)
    c = Vh[-1].conj()
    # the start's associated vector, from the other singular directions
    b = W[:, :-1].conj().T @ ((2.0 * lam * eye + C) @ c)
    a = -Vh[:-1].conj().T @ np.divide(b, sv[:-1], out=np.zeros_like(b),
                                      where=sv[:-1] > 0)
    na = np.linalg.norm(a)
    d = a / na if na > 0 else Vh[-2].conj()
    z = np.concatenate([c, a / (1.0 + na), [lam, 1.0 / (1.0 + na)]])
    # complex Jacobian; columns u0, u1, l, t, then the real Omega, kappa
    A = np.zeros((2 * m + 3, 2 * m + 4), dtype=complex)
    A[2 * m, :m] = A[2 * m + 1, m:2 * m] = c.conj()
    A[2 * m + 2, m:2 * m] = d.conj()
    A[2 * m + 2, 2 * m + 1] = 1.0
    x = np.array(x, dtype=float)
    inside, step = True, np.inf
    for k in range(_EP_MAX_NEWTON + 1):
        u0, u1, lam, t = z[:m], z[m:2 * m], z[2 * m], z[2 * m + 1]
        C, S = pencil_coefficients(model, template, x[0], 0.0, x[1], template.nu)
        L, dL = lam * lam * eye + lam * C + S, 2.0 * lam * eye + C
        dL_om = 2.0 * lam * G + 2.0 * x[0] * G2
        F = np.concatenate([L @ u0, L @ u1 + t * (dL @ u0),
                            A[2 * m:, :2 * m + 2] @ z - [1.0, 0.0, 1.0]])
        if k == _EP_MAX_NEWTON \
                or step <= _EP_STEP_RTOL * (1.0 + abs(lam) + np.linalg.norm(x)):
            break
        A[:2 * m] = np.block([
            [L, np.zeros((m, m)),
             np.column_stack([dL @ u0, 0.0 * u0, dL_om @ u0, K @ u0])],
            [t * dL, L,
             np.column_stack([dL @ u1 + 2.0 * t * u0, dL @ u0,
                              dL_om @ u1 + 2.0 * t * (G @ u0), K @ u1])]])
        Ac, Ar = A[:, :-2], A[:, -2:]
        J = np.block([[Ac.real, -Ac.imag, Ar.real], [Ac.imag, Ac.real, Ar.imag]])
        s = np.linalg.lstsq(J, -np.concatenate([F.real, F.imag]), rcond=None)[0]
        xs = x + s[-2:]
        if not (np.all(np.isfinite(s)) and np.all((lo <= xs) & (xs <= hi))):
            inside = False
            break
        x = xs
        z = z + s[:2 * m + 2] + 1j * s[2 * m + 2:4 * m + 4]
        step = float(np.linalg.norm(s))
    scale = abs(lam) ** 2 + abs(lam) * np.linalg.norm(C) + np.linalg.norm(S)
    residual = float(np.linalg.norm(F[:2 * m]) / (scale * np.linalg.norm(z[:2 * m])))
    return x, (u0, u1, lam, t), residual, inside


def _gap_minima(rel_gap: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) of the 3x3 local minima below _EP_GAP_RTOL, by (gap, i, j)."""
    n1, n2 = rel_gap.shape
    padded = np.pad(rel_gap, 1, constant_values=np.inf)
    neigh = np.min([padded[a:a + n1, b:b + n2] for a in range(3) for b in range(3)],
                   axis=0)
    ci, cj = np.nonzero((rel_gap < _EP_GAP_RTOL) & (rel_gap <= neigh))
    order = np.lexsort((cj, ci, rel_gap[ci, cj]))
    return ci[order], cj[order]


def find_exceptional_points(model: RotorModel, pert_template: PerturbationSet,
                            search_box, coarse: tuple[int, int] = (41, 41),
                            rank_rtol: float = DEFAULT.ep_rank_rtol):
    """Locate and certify coalescing eigenvalues in an (Omega, kappa) box.

    The search runs at delta = 0 with nu taken from the template, for any
    number of doublets: Newton and the certificate work on the pencil
    itself, while the starts come from :func:`eigenvalues_at_points`,
    verified for n <= 3 (the tests cover n = 1 and 2).  Nodes of a coarse
    grid where the smallest relative eigenvalue gap has a local minimum
    start Newton on a Jordan chain of the pencil (:func:`_chain_newton`),
    from the midpoint of the node's closest eigenvalue pair.  A converged point is certified when
    its chain residual is at most ``_EP_RESIDUAL`` and L(l) loses rank
    (singular values at most ``rank_rtol`` times the pencil scale): one
    missing rank means an exceptional point (a single eigenvector), two a
    diabolical one.  A certified double root with |Im l| within that
    threshold is real, a divergence onset rather than a flutter one; it
    is reported among the near misses with kind ``real_double``.  Real
    double roots lie on curves of the plane, so their locations there
    are not unique.

    The certificate's ``disc_rel`` is prod_{a<b} |ra - rb|^2 /
    ((1 + |ra|)(1 + |rb|))^2 over the eigenvalues r at the point, and
    ``min_gap`` their smallest distance; the reported eigenvalue is
    Newton's l, in the upper half-plane.

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

    ia, ib = np.triu_indices(eigs.shape[1], k=1)
    pair_gaps = np.abs(eigs[:, ia] - eigs[:, ib])
    closest = pair_gaps.argmin(axis=1)
    rows = np.arange(len(eigs))
    mids = 0.5 * (eigs[rows, ia[closest]] + eigs[rows, ib[closest]])
    rel_gap = (pair_gaps[rows, closest]
               / (1.0 + np.abs(eigs).max(axis=1))).reshape(coarse)

    box_scale = max(om_hi - om_lo, ka_hi - ka_lo)
    picked = []
    for i, j in zip(*_gap_minima(rel_gap)):
        x = np.array([ax1[i], ax2[j]])
        if all(np.linalg.norm(x - y) > 0.05 * box_scale for y, _ in picked):
            picked.append((x, mids[i * coarse[1] + j]))
        if len(picked) >= _EP_MAX_CANDIDATES:
            break

    found: list[SingularPointRecord] = []
    near: list[SingularPointRecord] = []
    lo = np.array([om_lo, ka_lo]) - 0.1 * box_scale
    hi = np.array([om_hi, ka_hi]) + 0.1 * box_scale
    for x0, lam0 in picked:
        x, (_, _, lam, _), residual, inside = _chain_newton(
            model, template, x0, lam0, lo, hi)
        roots = eigenvalues_at_points(model, template, plane, x[None])[0][0]
        gaps = np.abs(roots[ia] - roots[ib])
        weights = (1.0 + np.abs(roots[ia])) * (1.0 + np.abs(roots[ib]))
        disc_rel = float(np.prod((gaps / weights) ** 2))
        if lam.imag < 0:
            lam = lam.conjugate()
        p = template.replace(Omega=float(x[0]), kappa=float(x[1]))
        pencil = build_pencil(model, p)
        sv = np.linalg.svd(pencil(lam), compute_uv=False)
        # rank threshold on the pencil scale so a diabolical point, where
        # L(lambda0) vanishes entirely, still counts both directions
        thresh = rank_rtol * max(sv[0], float(np.linalg.norm(pencil.stiffness_total)))
        deficiency = int(np.sum(sv <= thresh))
        cert = Certificate(disc_rel=disc_rel, rank_deficiency=deficiency,
                           min_gap=float(gaps.min()),
                           singular_values=tuple(map(float, sv)))
        if not (inside and residual <= _EP_RESIDUAL and deficiency >= 1):
            kind = "near_miss"
        elif lam.imag <= thresh:
            kind = "real_double"
        else:
            kind = "exceptional" if deficiency == 1 else "diabolical"
        rec = SingularPointRecord(kind=kind, eigenvalue=complex(lam), certificate=cert,
                                  location=(float(x[0]), float(x[1]), 0.0, template.nu))
        if kind in ("near_miss", "real_double"):
            near.append(rec)
        elif all(np.linalg.norm(x - np.array(f.location[:2]))
                 > 1e-6 * max(box_scale, 1.0) for f in found):
            found.append(rec)
    # Newton leaves rounding noise (~1e-32) in coordinates that are 0
    for records in (found, near):
        records.sort(key=lambda r: np.round(r.location, 12).tolist())
    return found, near
