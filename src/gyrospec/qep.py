"""Quadratic eigenvalue solver for small dense pencils.

Every pencil eigenvalue of the package takes one path,
:func:`pencil_eigenvalues`: the pencils L(lambda) = I lambda^2 + C lambda
+ S of an (M, m, m) stack are linearized to their 2m x 2m companion
matrices, the characteristic polynomials are extracted with the
Faddeev-LeVerrier trace recursion, and all roots are found by one
Aberth-Ehrlich simultaneous iteration followed by a Newton polish; no
other module calls the polynomial or root functions.  The stack is
solved in row blocks of a fixed element budget; every row is computed
on its own, so the results are bit-identical whatever the block size,
and the root iteration's temporary memory is set by the block size,
not by the number of rows.  One rule, :func:`rejected`, decides which
rows are accepted; :func:`accepted` is its raising form for the
single-point callers (:func:`solve_qep`, ``atlas.classify``).  The
Floquet multipliers and ``det M`` of ``floquet.monodromy`` come from
LAPACK (``numpy.linalg``) instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, OverflowRescaleError, ShapeError
from .model import QuadraticPencil
from .tolerances import DEFAULT

# Aberth iteration controls; deterministic by construction.
_MAX_ITER = 400
_POLISH_STEPS = 4
_STEP_TOL = 4.0 * 2.0 ** -52
# companion-matrix elements per pencil_eigenvalues block (4,096 rows at
# n = 1, 455 at n = 3): small enough for the iteration's temporaries to
# stay in cache, large enough to amortize numpy's per-call overhead
_BLOCK_ELEMENTS = 2 ** 16

# relative distance below which cluster_eigenvalues groups two eigenvalues
_CLUSTER_RTOL = 1e-6
_OVERFLOW_MESSAGE = ("polynomial coefficients overflowed; rescale the pencil "
                     "(divide frequencies and gains by a common factor)")


def companion_stack(C: np.ndarray, S: np.ndarray) -> np.ndarray:
    """First-order linearizations [[0, I], [-S, -C]], batched over leading axes."""
    m = C.shape[-1]
    A = np.zeros(C.shape[:-2] + (2 * m, 2 * m))
    A[..., :m, m:] = np.eye(m)
    A[..., m:, :m] = -S
    A[..., m:, m:] = -C
    return A


def charpoly_of_matrix(A: np.ndarray) -> np.ndarray:
    """Characteristic polynomial of A (batched over leading axes).

    Faddeev-LeVerrier recursion: M_1 = A, c_k = -tr(M_k)/k,
    M_{k+1} = A (M_k + c_k I), run on A scaled to unit magnitude so the
    intermediate products stay conditioned; the coefficients are unscaled
    afterwards.  Returns coefficients of det(lambda I - A), shape
    ``A.shape[:-2] + (d+1,)``, highest degree first.
    """
    A = np.asarray(A, dtype=float)
    d = A.shape[-1]
    scale = np.maximum(np.abs(A).max(axis=(-2, -1)), 1.0)
    A = A / scale[..., None, None]
    eye = np.eye(d)
    coeffs = np.empty(A.shape[:-2] + (d + 1,))
    coeffs[..., 0] = 1.0
    Mk = A.copy()
    for k in range(1, d + 1):
        ck = -np.trace(Mk, axis1=-2, axis2=-1) / k
        coeffs[..., k] = ck * scale ** k
        if k < d:
            Mk = A @ (Mk + ck[..., None, None] * eye)
    # the recursion is weakest on the constant term; an LU determinant of
    # the balanced matrix is cheap and much sharper
    sign = 1.0 if d % 2 == 0 else -1.0
    coeffs[..., d] = sign * np.linalg.det(A) * scale ** d
    return coeffs


def _initial_guesses(coeffs: np.ndarray) -> np.ndarray:
    """Deterministic starting points: roots of unity on the Cauchy circle."""
    n, width = coeffs.shape
    d = width - 1
    radius = 1.0 + np.max(np.abs(coeffs[:, 1:]), axis=1)  # monic Cauchy bound
    angles = 2.0 * np.pi * np.arange(d) / d + 0.4  # offset breaks axis symmetry
    return radius[:, None] * np.exp(1j * angles)[None, :]


def _horner_pair(coeffs: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p(x) and p'(x) for batched coefficients (n, d+1) at points (n, d)."""
    p = np.zeros_like(x)
    dp = np.zeros_like(x)
    for k in range(coeffs.shape[1]):
        dp = dp * x + p
        p = p * x + coeffs[:, k, None]
    return p, dp


def scaled_residuals(coeffs: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """|p(x)| / (max|a| (1+|x|)^deg), batched."""
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
    roots = np.atleast_2d(np.asarray(roots, dtype=complex))
    d = coeffs.shape[1] - 1
    p, _ = _horner_pair(coeffs, roots)
    scale = np.max(np.abs(coeffs), axis=1)[:, None] * (1.0 + np.abs(roots)) ** d
    return np.abs(p) / scale


# overflow and NaN in a row that does not converge show in its residual,
# not as numpy warnings
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def roots_batch(coeffs: np.ndarray, max_iter: int = _MAX_ITER) -> tuple[np.ndarray, np.ndarray]:
    """All roots of a batch of real polynomials (n, d+1), leading coeff nonzero.

    Returns (roots, scaled_residuals), each (n, d); roots sorted by
    (Re, Im) per row.  Residual acceptance is the caller's concern.
    """
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
    n, width = coeffs.shape
    d = width - 1
    if d < 1:
        raise ShapeError("polynomial must have degree >= 1")
    lead = coeffs[:, :1]
    if np.any(lead == 0.0):
        raise ShapeError("leading coefficient must be nonzero")
    if not np.all(np.isfinite(coeffs)):
        raise OverflowRescaleError(_OVERFLOW_MESSAGE)
    a = coeffs / lead

    x = _initial_guesses(a)
    if d == 1:
        x = -a[:, 1:2].astype(complex)
    else:
        # simultaneous iteration; converged rows leave the working set.
        # Rounding can trap a row in an exact cycle of states (approximants
        # and live mask) that never passes the step test.  Once Brent's
        # search (snapshots at iterations 2**k - 1) sees the repeat, the row
        # stops where max_iter would have left it in the cycle: same roots.
        rows = np.arange(n)
        wx, wa = x, a
        active = np.ones((n, d), dtype=bool)
        stop = np.full(n, max_iter - 1)
        snap_bits, snap_active, snap_it = x.view(np.uint64).copy(), active, -1
        # the (rows, d, d) pairwise differences are the largest temporary
        # of an iteration; one buffer serves them all
        diff_buf = np.empty((n, d, d), dtype=complex)
        for it in range(max_iter):
            p, dp = _horner_pair(wa, wx)
            # Aberth correction w / (1 - w * sum_j 1/(x_i - x_j))
            dp = np.where(dp == 0.0, np.finfo(float).tiny, dp)
            w = p / dp
            diff = np.subtract(wx[:, :, None], wx[:, None, :],
                               out=diff_buf[:len(wx)])
            np.einsum("nii->ni", diff)[...] = np.inf  # exclude j == i
            repel = np.sum(np.divide(1.0, diff, out=diff), axis=2)
            denom = 1.0 - w * repel
            denom = np.where(denom == 0.0, np.finfo(float).tiny, denom)
            corr = np.where(active, w / denom, 0.0)
            bad = ~np.isfinite(corr)
            if np.any(bad):
                # collided approximants; nudge deterministically
                corr = np.where(bad, 0.0, corr)
                wx = np.where(bad, wx * (1.0 + 1e-8) + 1e-8, wx)
            wx = wx - corr
            active = np.abs(corr) > _STEP_TOL * (1.0 + np.abs(wx))
            bits = wx.view(np.uint64)
            cycled = (bits == snap_bits).all(1) & (active == snap_active).all(1)
            stop[cycled] = it + (max_iter - 1 - it) % (it - snap_it)
            if (it & (it + 1)) == 0:
                snap_bits, snap_active, snap_it = bits, active.copy(), it
            active[stop == it] = False
            x[rows] = wx
            row_live = active.any(axis=1)
            if not row_live.any():
                break
            if row_live.sum() < 0.5 * len(rows):
                rows = rows[row_live]
                wx = wx[row_live]
                wa = wa[row_live]
                active = active[row_live]
                stop = stop[row_live]
                snap_bits = snap_bits[row_live]
                snap_active = snap_active[row_live]
        for _ in range(_POLISH_STEPS):
            p, dp = _horner_pair(a, x)
            step = np.where(dp == 0.0, 0.0, p / np.where(dp == 0.0, 1.0, dp))
            x_new = x - step
            p_new, _ = _horner_pair(a, x_new)
            x = np.where(np.abs(p_new) <= np.abs(p), x_new, x)

    order = np.lexsort((x.imag, x.real), axis=1)
    x = np.take_along_axis(x, order, axis=1)
    return x, scaled_residuals(a, x)


def _solve_block(C: np.ndarray, S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`pencil_eigenvalues` of one block: the companion stack, its
    characteristic polynomials and one root iteration over the finite rows."""
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = charpoly_of_matrix(companion_stack(C, S))
    finite = np.all(np.isfinite(coeffs), axis=1)
    if finite.all():
        return roots_batch(coeffs)
    d = coeffs.shape[1] - 1
    eigs = np.full((len(coeffs), d), np.nan, dtype=complex)
    resid = np.full((len(coeffs), d), np.inf)
    if finite.any():
        eigs[finite], resid[finite] = roots_batch(coeffs[finite])
    return eigs, resid


def pencil_eigenvalues(C: np.ndarray, S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the pencils I lambda^2 + C lambda + S over (M, m, m) stacks.

    Rows are solved in blocks of ``_BLOCK_ELEMENTS // (2m)**2`` pencils:
    per block, the companion stack, its characteristic polynomials and
    one root iteration over the finite rows; the block results are then
    concatenated.  Every step works on each row alone, so the result is
    bit-identical whatever the block size, and the iteration's temporary
    memory is set by the block, not by M.
    Returns (eigenvalues (M, 2m), scaled root residuals (M, 2m)); a row
    whose coefficients overflow comes back as NaN eigenvalues with inf
    residuals.  Whether a row is accepted is decided by :func:`rejected`.

    The eigenvalues agree with LAPACK ``eigvals`` of the companion matrix
    for m <= 6, i.e. up to 3 doublets (the oracle tests); for 4 doublets
    and more the degree-2m characteristic polynomial is ill-conditioned,
    the result is not verified and rows may fail the residual gate.
    """
    d = 2 * C.shape[-1]
    block = max(1, _BLOCK_ELEMENTS // d ** 2)
    # an empty stack is one empty block, so the result keeps shape (0, 2m)
    solved = [_solve_block(C[lo:lo + block], S[lo:lo + block])
              for lo in range(0, max(len(C), 1), block)]
    return (np.concatenate([eigs for eigs, _ in solved]),
            np.concatenate([resid for _, resid in solved]))


_OVERFLOWED = "coefficients overflowed"


def rejected(eigs: np.ndarray, resid: np.ndarray, poly_residual: float):
    """Rows of a root batch that are not accepted: (mask (M,), reasons).

    A row is rejected when its eigenvalues are not finite (overflowed
    coefficients) or its worst scaled root residual is above
    ``poly_residual`` or NaN.  ``reasons`` maps each rejected row to a
    one-line reason.
    """
    overflow = ~np.all(np.isfinite(eigs.view(float)), axis=1)
    worst = resid.max(axis=1)
    bad = overflow | ~(worst <= poly_residual)
    reasons = {int(k): _OVERFLOWED if overflow[k] else
               f"root residual {worst[k]:.3e} above {poly_residual:.1e}"
               for k in np.nonzero(bad)[0]}
    return bad, reasons


def accepted(eigs: np.ndarray, resid: np.ndarray, poly_residual: float) -> np.ndarray:
    """``eigs`` when :func:`rejected` accepts every row; otherwise raise for
    the first rejected row: OverflowRescaleError when it overflowed,
    ConvergenceError carrying its roots and residuals when it did not
    converge."""
    bad, reasons = rejected(eigs, resid, poly_residual)
    if bad.any():
        k = int(np.argmax(bad))
        if reasons[k] == _OVERFLOWED:
            raise OverflowRescaleError(_OVERFLOW_MESSAGE)
        raise ConvergenceError(reasons[k], best=eigs[k], residuals=resid[k])
    return eigs


def cluster_eigenvalues(values):
    """Group eigenvalues closer than _CLUSTER_RTOL (1+|lambda|) into multiplicity tags.

    Returns a list of (center, multiplicity, indices) sorted like the input.
    """
    values = np.asarray(values, dtype=complex)
    m = len(values)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            tol = _CLUSTER_RTOL * (1.0 + max(abs(values[i]), abs(values[j])))
            if abs(values[i] - values[j]) < tol:
                parent[find(i)] = find(j)

    groups: dict[int, list[int]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    out = []
    for idx in sorted(groups.values(), key=lambda g: g[0]):
        center = complex(np.mean(values[idx]))
        out.append((center, len(idx), tuple(idx)))
    return out


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Exact spectrum of one pencil with per-pair residuals.

    ``eigenvectors`` rows are unit vectors; a row of NaN marks a vector
    that could not be recovered (its residual is set to inf, never faked).
    """

    eigenvalues: np.ndarray        # (4n,) complex
    eigenvectors: np.ndarray       # (4n, 2n) complex, NaN rows if unavailable
    residuals: np.ndarray          # (4n,) float, ||L(lam) u||
    poly_residuals: np.ndarray     # (4n,) float, scaled |p(lam)|


def solve_qep(pencil: QuadraticPencil, want_vectors: bool = True,
              residual_tol: float = DEFAULT.poly_residual) -> Spectrum:
    """Solve det L(lambda) = 0 with eigenvectors and residuals.

    Eigenvalues are a one-row :func:`pencil_eigenvalues` call, raising
    through :func:`accepted`; each eigenvector is the right singular
    direction of L(lambda) with the smallest singular value, from one
    batched SVD of all L(lambda_k).  If that SVD does not converge, every
    vector is NaN and every residual inf.
    """
    eigs, poly_resid = pencil_eigenvalues(pencil.damping_total[None],
                                          pencil.stiffness_total[None])
    roots, poly_resid = accepted(eigs, poly_resid, residual_tol)[0], poly_resid[0]

    nvals = len(roots)
    vectors = np.full((nvals, pencil.size), np.nan, dtype=complex)
    residuals = np.full(nvals, np.inf)
    if want_vectors:
        L = pencil(roots[:, None, None])
        try:
            vh = np.linalg.svd(L)[2]
        except np.linalg.LinAlgError:
            pass
        else:
            vectors = vh[:, -1].conj()
            residuals = np.linalg.norm(L @ vectors[:, :, None], axis=(1, 2))
    return Spectrum(eigenvalues=roots, eigenvectors=vectors,
                    residuals=residuals, poly_residuals=poly_resid)


def max_growth_rate(spectrum: Spectrum) -> float:
    """Largest real part over the spectrum."""
    return float(np.max(spectrum.eigenvalues.real))
