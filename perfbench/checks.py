"""Independent checks of gyrospec's outputs.

Nothing here imports gyrospec.  The reference spectrum at every point is
``np.linalg.eigvals`` of the first-order companion matrix, assembled from
the pencil formula

    L(l) = I l^2 + (2 Omega G + delta D) l + (P + Omega^2 G^2 + kappa K + nu N)

with P = diag(w_s^2 twice) and G = blockdiag(J, 2J, ..., nJ).  Each check
raises :class:`CheckError` on a wrong answer; tolerances sit far above
the reference's own rounding and far below the defects they catch.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# Classification margin of gyrospec's README: tol = MARGINAL_RTOL * max(1, |l|max).
MARGINAL_RTOL = 1e-8
# Nodes whose reference max Re lies within BAND * scale of zero are not
# classified: two correct solvers may put them on either side.
BAND = 1e-6
# |max Re| agreement at chart nodes; near-double roots carry sqrt(eps) error.
MAX_RE_RTOL = 1e-6
# |max Re| at a traced boundary vertex.
VERTEX_RTOL = 1e-7
# Side probes sit this many grid cells off the boundary, along its normal.
PROBE_CELLS = 0.05
# Exceptional point location and double-root agreement.
EP_LOC_TOL = 1e-6
EP_GAP_RTOL = 1e-3
# Floquet multipliers and the Liouville determinant, relative.
FLOQUET_RTOL = 1e-6
# Single-point spectra.
SPECTRUM_RTOL = 1e-8

PARAMS = ("Omega", "kappa", "delta", "nu")
J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


class CheckError(AssertionError):
    """An output of gyrospec disagrees with the independent computation."""


def _fail(what: str, detail: str):
    raise CheckError(f"{what}: {detail}")


# -- reference spectrum ---------------------------------------------------

def rotor_matrices(omegas):
    """P, G and G^2 of a rotor with doublet frequencies ``omegas``."""
    n = len(omegas)
    P = np.diag(np.repeat(np.square(np.asarray(omegas, dtype=float)), 2))
    G = np.zeros((2 * n, 2 * n))
    for s in range(1, n + 1):
        G[2 * s - 2:2 * s, 2 * s - 2:2 * s] = s * J2
    return P, G, G @ G


def eigenvalues(omegas, D, K, N, params: dict) -> np.ndarray:
    """Reference eigenvalues (M, 4n) at M points; ``params`` maps names to arrays."""
    P, G, G2 = rotor_matrices(omegas)
    D, K, N = (np.asarray(M, dtype=float) for M in (D, K, N))
    m = P.shape[0]
    arrays = np.broadcast_arrays(*(np.atleast_1d(np.asarray(params[p], dtype=float))
                                   for p in PARAMS))
    Om, ka, de, nu = (a[:, None, None] for a in arrays)
    C = 2.0 * Om * G + de * D
    S = P + Om ** 2 * G2 + ka * K + nu * N
    A = np.zeros((len(arrays[0]), 2 * m, 2 * m))
    A[:, :m, m:] = np.eye(m)
    A[:, m:, :m] = -S
    A[:, m:, m:] = -C
    return np.linalg.eigvals(A)


def verdicts(eigs: np.ndarray):
    """(max_re, |Im| of the critical eigenvalue, scale) per row."""
    max_re = eigs.real.max(axis=1)
    scale = np.maximum(1.0, np.abs(eigs).max(axis=1))
    # among the eigenvalues with the largest real part, the largest |Im|
    near_top = eigs.real >= (max_re - BAND * scale)[:, None]
    crit_im = np.where(near_top, np.abs(eigs.imag), -1.0).max(axis=1)
    return max_re, crit_im, scale


def expected_classes(max_re, crit_im, scale):
    """Reference class names, or None where the node lies inside the band."""
    band = BAND * scale
    out = np.full(len(max_re), None, dtype=object)
    out[max_re < -band] = "asymptotically_stable"
    unstable = max_re > band
    out[unstable & (crit_im > band)] = "flutter"
    out[unstable & (crit_im < MARGINAL_RTOL * scale)] = "divergence"
    return out


# -- CSV ------------------------------------------------------------------

def read_csv(path: Path, header: str):
    """Rows of a CSV as lists of strings; blank lines come back as None."""
    if not path.is_file():
        _fail(path.name, "missing output file")
    lines = path.read_text().split("\n")
    if lines[0] != header:
        _fail(path.name, f"header {lines[0]!r}, expected {header!r}")
    if lines[-1] != "":
        _fail(path.name, "missing final newline")
    return [line.split(",") if line else None for line in lines[1:-1]]


def _floats(rows, cols) -> np.ndarray:
    return np.array([[float(r[c]) for c in cols] for r in rows]).reshape(len(rows), len(cols))


def _grid(chart):
    a1 = np.linspace(*chart.axes[0][:2], chart.axes[0][2])
    a2 = np.linspace(*chart.axes[1][:2], chart.axes[1][2])
    return a1, a2


def _params(chart, p1, p2) -> dict:
    out = {name: np.full(np.shape(p1), float(chart.gains[name])) for name in PARAMS}
    out[chart.plane[0]] = np.asarray(p1, dtype=float)
    out[chart.plane[1]] = np.asarray(p2, dtype=float)
    return out


def _chart_eigs(chart, p1, p2):
    return eigenvalues(chart.omegas, chart.D, chart.K, chart.N, _params(chart, p1, p2))


def grid_verdicts(chart, cache: dict | None = None):
    """Reference verdicts at every chart node, row-major like the sweep CSV.

    They depend on the chart's inputs only, so a caller that checks the
    same chart again may pass a ``cache`` dict to compute them once.
    """
    key = repr(chart)
    if cache is not None and key in cache:
        return cache[key]
    a1, a2 = _grid(chart)
    P1, P2 = np.meshgrid(a1, a2, indexing="ij")
    out = verdicts(_chart_eigs(chart, P1.ravel(), P2.ravel()))
    if cache is not None:
        cache[key] = out
    return out


# -- charts ---------------------------------------------------------------

SWEEP_HEADER = "Omega,kappa,delta,nu,max_re,im_at_max,class"
BOUNDARY_HEADER = "param1,param2,max_re_residual"


def check_sweep(chart, path: Path, cache: dict | None = None) -> None:
    """Every node: grid position, max Re and class against the reference."""
    rows = read_csv(path, SWEEP_HEADER)
    a1, a2 = _grid(chart)
    P1, P2 = np.meshgrid(a1, a2, indexing="ij")
    P1, P2 = P1.ravel(), P2.ravel()
    if len(rows) != len(P1) or any(r is None or len(r) != 7 for r in rows):
        _fail(path.name, f"{len(rows)} rows, expected {len(P1)} of 7 fields")
    values = _floats(rows, range(6))
    want = _params(chart, P1, P2)
    for c, name in enumerate(PARAMS):
        if not np.array_equal(values[:, c], want[name]):
            _fail(path.name, f"column {name} is not the configured grid")
    classes = np.array([r[6] for r in rows], dtype=object)
    max_re, crit_im, scale = grid_verdicts(chart, cache)
    compare(path.name, values[:, 4], classes, max_re, crit_im, scale)


def compare(what: str, got_re, got_class, max_re, crit_im, scale) -> None:
    """max Re and classes at nodes outside the marginal band."""
    want = expected_classes(max_re, crit_im, scale)
    err = np.abs(got_re - max_re)
    bad = ~(err <= MAX_RE_RTOL * scale)        # NaN fails too
    if bad.any():
        k = int(np.argmax(np.where(bad, np.nan_to_num(err, nan=np.inf), -1.0)))
        _fail(what, f"{int(bad.sum())} nodes with max Re off the reference, "
                    f"e.g. row {k}: {got_re[k]!r} vs {max_re[k]!r}")
    judged = want != None  # noqa: E711 - elementwise on an object array
    wrong = judged & (got_class != want)
    if wrong.any():
        k = int(np.nonzero(wrong)[0][0])
        _fail(what, f"{int(wrong.sum())} nodes misclassified, e.g. row {k}: "
                    f"{got_class[k]} vs {want[k]} (max Re {max_re[k]!r})")


def read_polylines(path: Path):
    rows = read_csv(path, BOUNDARY_HEADER)
    lines, cur = [], []
    for r in rows:
        if r is None:
            lines.append(cur)
            cur = []
        else:
            if len(r) != 3:
                _fail(path.name, f"row with {len(r)} fields")
            cur.append([float(v) for v in r])
    if cur:
        lines.append(cur)
    if any(len(pl) < 2 for pl in lines):
        _fail(path.name, "polyline with fewer than two vertices")
    return [np.array(pl) for pl in lines]


def check_boundary(chart, path: Path, cache: dict | None = None) -> None:
    """Vertices on max Re = 0, flutter on the left, every crossing covered."""
    polylines = read_polylines(path)
    a1, a2 = _grid(chart)
    if polylines:
        _check_vertices(chart, path, polylines, a1, a2)
    _check_coverage(chart, path, polylines, a1, a2, cache)


def _check_vertices(chart, path, polylines, a1, a2) -> None:
    step = np.array([a1[1] - a1[0], a2[1] - a2[0]])
    V = np.vstack([pl[:, :2] for pl in polylines])
    vre, _, vsc = verdicts(_chart_eigs(chart, V[:, 0], V[:, 1]))
    off = np.abs(vre)
    if not np.all(off <= VERTEX_RTOL * vsc):
        k = int(np.argmax(np.nan_to_num(off / vsc, nan=np.inf)))
        _fail(path.name, f"vertex {V[k].tolist()} has reference max Re {vre[k]!r}")

    # side probes at each vertex along the bisector of the left normals of
    # its two segments (one segment at the ends of an open polyline), in
    # grid-cell units; the bisector stays on the left at corners too
    base, normal = [], []
    for pl in polylines:
        u = pl[:, :2] / step
        closed = len(u) > 2 and np.array_equal(u[0], u[-1])
        if closed:
            u = u[:-1]
        t = np.diff(u, axis=0, append=u[:1] if closed else u[-1:])
        length = np.hypot(t[:, 0], t[:, 1])
        t = t / np.where(length > 0, length, np.inf)[:, None]
        t_in = np.roll(t, 1, axis=0) if closed else np.vstack([t[:1], t[:-1]])
        if not closed:
            t[-1] = t_in[-1]
        n = np.column_stack([-(t[:, 1] + t_in[:, 1]), t[:, 0] + t_in[:, 0]])
        size = np.hypot(n[:, 0], n[:, 1])
        keep = size > 0.1          # hairpins have no defined side
        base.append(pl[:len(u)][keep, :2])
        normal.append(n[keep] / size[keep, None])
    base, normal = np.vstack(base), np.vstack(normal)
    # a probe that leaves the chart is pulled back onto its frame: a side
    # outside the chart is no side of a boundary drawn on the chart
    lo = np.array([a1[0], a2[0]])
    hi = np.array([a1[-1], a2[-1]])
    shift = PROBE_CELLS * normal * step
    left = np.clip(base + shift, lo, hi)
    right = np.clip(base - shift, lo, hi)
    left_re, left_im, lsc = verdicts(_chart_eigs(chart, *left.T))
    right_re, _, rsc = verdicts(_chart_eigs(chart, *right.T))
    thr = MARGINAL_RTOL
    not_flutter = ~((left_re > thr * lsc) & (left_im > BAND * lsc))
    if not_flutter.any():
        k = int(np.nonzero(not_flutter)[0][0])
        _fail(path.name, f"{int(not_flutter.sum())} of {len(base)} vertices have no "
                         f"flutter on their left, e.g. {base[k].tolist()} "
                         f"(max Re {left_re[k]!r} there)")
    right_up = ~(right_re < -thr * rsc)
    if right_up.any():
        k = int(np.nonzero(right_up)[0][0])
        _fail(path.name, f"{int(right_up.sum())} of {len(base)} vertices are not "
                         f"stable on their right, e.g. {base[k].tolist()}")


def _check_coverage(chart, path, polylines, a1, a2, cache) -> None:
    """Every sign change of the reference between two neighbouring nodes
    that both lie outside the band carries a vertex on that edge."""
    f, _, sc = grid_verdicts(chart, cache)
    sign = np.where(f > BAND * sc, 1, np.where(f < -BAND * sc, -1, 0)).reshape(len(a1), len(a2))
    need_h = sign[:-1, :] * sign[1:, :] < 0
    need_v = sign[:, :-1] * sign[:, 1:] < 0
    have_h = np.zeros_like(need_h)
    have_v = np.zeros_like(need_v)
    if polylines:
        V = np.vstack([pl[:, :2] for pl in polylines])
        j = np.searchsorted(a2, V[:, 1])
        on_row = (j < len(a2)) & (a2[np.minimum(j, len(a2) - 1)] == V[:, 1])
        i = np.searchsorted(a1, V[:, 0], side="right") - 1
        ok = on_row & (i >= 0) & (i < len(a1) - 1)
        have_h[i[ok], j[ok]] = True
        i = np.searchsorted(a1, V[:, 0])
        on_col = (i < len(a1)) & (a1[np.minimum(i, len(a1) - 1)] == V[:, 0])
        j = np.searchsorted(a2, V[:, 1], side="right") - 1
        ok = on_col & (j >= 0) & (j < len(a2) - 1)
        have_v[i[ok], j[ok]] = True
    missing = int((need_h & ~have_h).sum() + (need_v & ~have_v).sum())
    if missing:
        _fail(path.name, f"{missing} crossings of max Re = 0 carry no vertex")


# -- singular points, Floquet, point queries --------------------------------

def kappa0(K, nu: float) -> float:
    """2 nu / (rho1 - rho2) with rho1 >= rho2 the eigenvalues of K."""
    rho = np.linalg.eigvalsh(np.asarray(K, dtype=float))
    return 2.0 * nu / (rho[-1] - rho[0])


def _closest_pair(eigs: np.ndarray):
    d = np.abs(eigs[:, None] - eigs[None, :])
    d[np.diag_indices(len(eigs))] = np.inf
    a, b = np.unravel_index(np.argmin(d), d.shape)
    return float(d[a, b]), 0.5 * (eigs[a] + eigs[b])


EP_HEADER = "kind,Omega,kappa,delta,nu,re,im,disc_rel,rank_deficiency,min_gap"


def check_ep(job, path: Path) -> None:
    """Both exceptional points +-kappa0 at Omega = 0; every point a double root."""
    rows = read_csv(path, EP_HEADER)
    nu = job.gains["nu"]
    found = [r for r in rows if r is not None and r[0] in ("exceptional", "diabolical")]
    for r in found:
        om, ka, de, nu_r, re, im = (float(v) for v in r[1:7])
        if de != 0.0 or nu_r != nu:
            _fail(path.name, f"point at delta={de!r}, nu={nu_r!r}; search runs at "
                             f"delta=0, nu={nu!r}")
        eigs = eigenvalues(job.omegas, job.D, job.K, job.N,
                           {"Omega": om, "kappa": ka, "delta": 0.0, "nu": nu})[0]
        scale = max(1.0, float(np.abs(eigs).max()))
        gap, mid = _closest_pair(eigs)
        if not gap <= EP_GAP_RTOL * scale:
            _fail(path.name, f"no double eigenvalue at ({om!r}, {ka!r}): "
                             f"closest pair {gap:.3e} apart")
        lam = complex(re, im)
        if not min(abs(lam - mid), abs(lam - mid.conjugate())) <= EP_GAP_RTOL * scale:
            _fail(path.name, f"eigenvalue {lam} is not the double root {mid}")
    k0 = kappa0(job.K, nu)
    for target in (k0, -k0):
        hits = [r for r in found if r[0] == "exceptional"
                and abs(float(r[1])) <= EP_LOC_TOL
                and abs(float(r[2]) - target) <= EP_LOC_TOL]
        if not hits:
            _fail(path.name, f"no exceptional point within {EP_LOC_TOL} of "
                             f"(0, {target!r})")


FLOQUET_HEADER = ("multiplier_re,multiplier_im,predicted_re,predicted_im,"
                  "match_error,liouville_error")


def _pairing(a, b) -> np.ndarray:
    """Greedy closest pairing; returns b reordered to match a."""
    a, b = list(a), list(b)
    out = []
    for x in a:
        k = int(np.argmin([abs(x - y) for y in b]))
        out.append(b.pop(k))
    return np.array(out)


def check_floquet(job, path: Path) -> None:
    """Multipliers against -exp(l T) and |det M| against exp(-delta trD T)."""
    rows = read_csv(path, FLOQUET_HEADER)
    if len(rows) != 4 * len(job.omegas) or any(r is None for r in rows):
        _fail(path.name, f"{len(rows)} multipliers, expected {4 * len(job.omegas)}")
    v = _floats(rows, range(4))
    mult = v[:, 0] + 1j * v[:, 1]
    g = job.gains
    T = math.pi / abs(g["Omega"])
    lam = eigenvalues(job.omegas, job.D, job.K, job.N, g)[0]
    pred = -np.exp(lam * T)
    paired = _pairing(mult, pred)
    err = np.abs(mult - paired) / np.maximum(1.0, np.abs(paired))
    if not np.all(err <= FLOQUET_RTOL):
        _fail(path.name, f"multiplier off -exp(lambda T) by {np.nanmax(err):.3e} (relative)")
    program_pred = v[:, 2] + 1j * v[:, 3]
    err = np.abs(program_pred - _pairing(program_pred, pred)) / np.maximum(1.0, np.abs(pred))
    if not np.all(err <= FLOQUET_RTOL):
        _fail(path.name, f"predicted multipliers off -exp(lambda T) by {np.nanmax(err):.3e}")
    det = abs(np.prod(mult))
    want = math.exp(-g["delta"] * float(np.trace(np.asarray(job.D))) * T)
    if not abs(det - want) <= FLOQUET_RTOL * want:
        _fail(path.name, f"|det M| = {det!r}, Liouville gives {want!r}")


def check_spectrum(job, path: Path) -> None:
    rows = read_csv(path, "re,im,residual")
    if len(rows) != 4 * len(job.omegas) or any(r is None for r in rows):
        _fail(path.name, f"{len(rows)} eigenvalues, expected {4 * len(job.omegas)}")
    v = _floats(rows, range(3))
    lam = v[:, 0] + 1j * v[:, 1]
    ref = eigenvalues(job.omegas, job.D, job.K, job.N, job.gains)[0]
    scale = max(1.0, float(np.abs(ref).max()))
    err = np.abs(lam - _pairing(lam, ref))
    if not np.all(err <= SPECTRUM_RTOL * scale):
        _fail(path.name, f"eigenvalue off the reference by {np.nanmax(err):.3e}")
    if not np.all(np.isfinite(v[:, 2])):
        _fail(path.name, "non-finite eigenpair residual")


REPORT_HEADER = ("Omega,kappa,delta,nu,re_c,im_c,A,beta0,kappa0,omega0,"
                 "Omega_cr,B,epsilon,max_re,im_at_max,class")


def invariant_A(D, K) -> float:
    """Cone invariant det D (trK^2 - 4 det K) + (K12 (D22 - D11) - D12 (K22 - K11))^2."""
    (d11, d12), (_, d22) = D
    (k11, k12), (_, k22) = K
    gap_sq = (k11 + k22) ** 2 - 4.0 * (k11 * k22 - k12 ** 2)
    return (d11 * d22 - d12 ** 2) * gap_sq + (k12 * (d22 - d11) - d12 * (k22 - k11)) ** 2


def check_report(job, path: Path) -> None:
    """Verdict against the reference; A, kappa0 and omega0 from their definitions."""
    rows = read_csv(path, REPORT_HEADER)
    if len(rows) != 1 or rows[0] is None or len(rows[0]) != 16:
        _fail(path.name, "expected one row of 16 fields")
    row = rows[0]
    v = {name: float(x) for name, x in zip(REPORT_HEADER.split(",")[:15], row)}
    g = job.gains
    if any(v[p] != g[p] for p in PARAMS):
        _fail(path.name, "operating point differs from the config")
    eigs = eigenvalues(job.omegas, job.D, job.K, job.N, g)
    max_re, crit_im, scale = verdicts(eigs)
    compare(path.name, np.array([v["max_re"]]), np.array([row[15]], dtype=object),
            max_re, crit_im, scale)
    A = invariant_A(job.D, job.K)
    if not abs(v["A"] - A) <= 1e-12 * max(1.0, abs(A)):
        _fail(path.name, f"A = {v['A']!r}, closed form gives {A!r}")
    k0 = kappa0(job.K, g["nu"])
    if not abs(v["kappa0"] - k0) <= 1e-12 * max(1.0, abs(k0)):
        _fail(path.name, f"kappa0 = {v['kappa0']!r}, expected {k0!r}")
    # at (Omega, delta, kappa) = (0, 0, kappa0) the pencil has the double
    # root +-i omega0
    ep = eigenvalues(job.omegas, job.D, job.K, job.N,
                     {"Omega": 0.0, "kappa": k0, "delta": 0.0, "nu": g["nu"]})[0]
    _, mid = _closest_pair(ep)
    if not abs(v["omega0"] - abs(mid.imag)) <= 1e-6:
        _fail(path.name, f"omega0 = {v['omega0']!r}, double root at {mid}")


def check_job(job, out_dir: Path, cache: dict | None = None) -> None:
    """Check every output a job should have written into ``out_dir``.

    ``cache`` keeps reference chart verdicts between calls (see
    :func:`grid_verdicts`); gyrospec's outputs are read and checked anew
    on every call.
    """
    out_dir = Path(out_dir)
    if job.charts:
        for chart in job.charts:
            check = check_sweep if chart.kind == "sweep" else check_boundary
            check(chart, out_dir / chart.file, cache)
        return
    check = {"ep": check_ep, "floquet": check_floquet,
             "spectrum": check_spectrum, "report": check_report}[job.command]
    check(job, out_dir / f"{job.command}.csv")
