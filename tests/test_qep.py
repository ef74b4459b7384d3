import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import FIG_D, FIG_K, pairing_distance, random_symmetric
from gyrospec import qep
from gyrospec.atlas import sweep2d
from gyrospec.errors import ConvergenceError, ShapeError
from gyrospec.model import PerturbationSet, RotorModel, build_pencil
from gyrospec.qep import (accepted, charpoly_of_matrix, cluster_eigenvalues,
                          companion_stack, max_growth_rate, pencil_eigenvalues,
                          roots_batch, scaled_residuals, solve_qep)
from gyrospec.tolerances import DEFAULT

# exact growth rate of the Fig. 1(b) operating point, frozen from the
# quartic det(I s^2 + 0.3 D s + I + 0.2 K) via an independent root solve
FIG1B_MAX_RE = 0.13237554135478674


def pencil_at(model, **gains):
    defaults = dict(D=FIG_D, K=FIG_K)
    defaults.update(gains)
    return build_pencil(model, PerturbationSet(**defaults))


def companion(pen):
    return companion_stack(pen.damping_total, pen.stiffness_total)


def char_poly(pen):
    """Coefficients of det L(lambda), highest degree first."""
    return charpoly_of_matrix(companion(pen))


def gated_roots(coeffs, max_iter=qep._MAX_ITER):
    """All roots of one polynomial, raising through the acceptance gate."""
    roots, resid = roots_batch(np.asarray(coeffs, dtype=float)[None], max_iter)
    return accepted(roots, resid, DEFAULT.poly_residual)[0]


def assert_eigenpair_residuals(pen, s):
    """||L(lambda) u|| <= 1e-8 (1 + |lambda|^2) ||S|| for every pair."""
    scale = np.linalg.norm(pen.stiffness_total)
    assert np.all(s.residuals <= 1e-8 * (1 + np.abs(s.eigenvalues) ** 2) * scale)


class TestCharPoly:
    def test_unperturbed_doublet(self, model1):
        p = char_poly(pencil_at(model1, D=np.zeros((2, 2)), K=np.zeros((2, 2))))
        assert np.allclose(p, (1.0, 0.0, 2.0, 0.0, 1.0), atol=1e-14)

    def test_static_circulatory_coefficients(self, model1):
        # lambda^4 + (2 w1^2 + kappa trK) lambda^2
        #   + kappa^2 detK + kappa w1^2 trK + nu^2 + w1^4
        rng = np.random.default_rng(5)
        for _ in range(25):
            K = random_symmetric(rng)
            kappa, nu = rng.uniform(-0.5, 0.5, 2)
            w1 = rng.uniform(0.5, 2.0)
            m = RotorModel((w1,))
            p = char_poly(build_pencil(
                m, PerturbationSet(D=np.zeros((2, 2)), K=K,
                                   kappa=kappa, nu=nu)))
            trK, detK = np.trace(K), np.linalg.det(K)
            expected = (1.0, 0.0, 2 * w1 ** 2 + kappa * trK, 0.0,
                        kappa ** 2 * detK + kappa * w1 ** 2 * trK
                        + nu ** 2 + w1 ** 4)
            assert np.allclose(p, expected, rtol=1e-12, atol=1e-12)

    def test_matches_determinant(self, model1):
        rng = np.random.default_rng(8)
        pen = pencil_at(model1, delta=0.23, kappa=-0.11, nu=0.07, Omega=0.4)
        p = char_poly(pen)
        for _ in range(10):
            lam = complex(rng.normal(), rng.normal())
            assert abs(np.polyval(p, lam) - np.linalg.det(pen(lam))) \
                < 1e-10 * (1 + abs(lam)) ** 4

    def test_gyroscopic_roots(self, model1):
        pen = pencil_at(model1, D=np.zeros((2, 2)), K=np.zeros((2, 2)), Omega=0.5)
        roots = solve_qep(pen, want_vectors=False).eigenvalues
        assert pairing_distance(roots, [1.5j, -1.5j, 0.5j, -0.5j]) < 1e-10


class TestPolyRoots:
    def test_double_conjugate_pair(self):
        roots = gated_roots([1.0, 0.0, 2.0, 0.0, 1.0])
        clusters = cluster_eigenvalues(roots)
        assert sorted(m for _, m, _ in clusters) == [2, 2]
        centers = sorted((c for c, _, _ in clusters), key=lambda z: z.imag)
        assert abs(centers[0] + 1j) < 1e-6
        assert abs(centers[1] - 1j) < 1e-6

    def test_exceptional_point_quartic(self, model1):
        # kappa0 = 2 nu/(rho1-rho2) makes the quartic discriminant vanish;
        # the double roots are +- i sqrt(w1^2 + nu (rho1+rho2)/(rho1-rho2))
        nu = 0.2
        kappa0 = 2 * nu / np.sqrt(5)
        omega0 = np.sqrt(1 + nu * 3 / np.sqrt(5))
        pen = pencil_at(model1, D=np.zeros((2, 2)), kappa=kappa0, nu=nu)
        a = char_poly(pen)
        assert abs(a[2] ** 2 - 4 * a[4]) < 1e-10 * max(a[2] ** 2, abs(4 * a[4]))
        clusters = cluster_eigenvalues(solve_qep(pen, want_vectors=False).eigenvalues)
        assert sorted(m for _, m, _ in clusters) == [2, 2]
        for center, _, _ in clusters:
            assert abs(abs(center.imag) - omega0) < 1e-8
            assert abs(center.real) < 1e-8

    def test_synthesized_roots_recovered(self):
        rng = np.random.default_rng(17)
        for deg in (4, 8):
            for _ in range(20):
                half = rng.normal(size=deg // 2) + 1j * rng.normal(size=deg // 2)
                roots = np.concatenate([half, half.conj()])
                coeffs = np.real(np.poly(roots))
                got = gated_roots(coeffs)
                assert pairing_distance(got, roots) < 1e-10 * (1 + np.abs(roots).max())

    def test_residuals_definition(self):
        coeffs = np.array([1.0, 0.0, 2.0, 0.0, 1.0])
        roots, resid = roots_batch(coeffs[None, :])
        direct = scaled_residuals(coeffs[None, :], roots)
        assert np.array_equal(resid, direct)
        assert np.all(resid < 1e-12)

    def test_nonconvergence_carries_best_iterate(self):
        coeffs = np.real(np.poly(np.arange(1.0, 9.0)))
        with pytest.raises(ConvergenceError) as err:
            gated_roots(coeffs, max_iter=1)
        assert err.value.best is not None
        assert err.value.residuals is not None

    def test_degree_guards(self):
        with pytest.raises(ShapeError):
            roots_batch(np.array([[1.0]]))
        with pytest.raises(ShapeError):
            roots_batch(np.array([[0.0, 1.0, 1.0]]))


# Characteristic polynomials of n = 2 and n = 3 string rotors (sweep nodes of
# the benchmark's multi-doublet charts) whose root iteration settles into an
# exact cycle of rounding-level steps that never pass the step test, and one
# with a root pair 1.1e-3 apart whose iterates wander without repeating.
CYCLING_ROWS = (
    (1.0, 0.0964706063779951, 11.354424726239284, 0.7579366517972116,
     36.15444927465147, 1.4694453007028832, 41.90255058817452,
     0.7255207362428419, 13.969315941827276),
    (1.0, 0.3290374094704512, 11.332496548211655, 2.577146215317666,
     35.81003884964784, 4.9803373558450845, 41.29954357644254,
     2.4745720228508037, 13.969315941827276),
    (1.0, 0.23601068823346874, 11.001420021081339, 1.832512280032236,
     35.80631303573095, 3.7241080807847697, 43.48360502253273,
     1.9818051287105167, 16.069542895773562),
)
CYCLING_ROWS_N3 = (
    (1.0, 0.270206770872163, 29.00979364119217, 6.4619972240189005,
     307.90202803999165, 54.28188605835897, 1522.0547098753032,
     198.1745907573084, 3631.801211902208, 306.5836651279894,
     3907.063949550917, 153.7699055252444, 1480.830236019605),
    (1.0, 0.1513774083875334, 30.179574291479486, 3.7103866038853948,
     317.5122086192795, 30.46742965753005, 1510.9264761471263,
     105.7673930913616, 3402.5537883208854, 151.98081650399524,
     3419.8207706493827, 69.37999104633798, 1149.7920393591123),
)
WANDERING_ROW = (1.0, 0.5796284534451109, 11.055482087716411,
                 4.474843810443915, 27.8666486164627, 7.71037888112774,
                 22.994609347352984, 3.5405106888716973, 4.157699320637492)


def plain_roots(coeffs, max_iter):
    """roots_batch's iteration with no working set and no cycle search:
    every row steps max_iter times.  Also tells, per row, whether a live
    state (approximants and live mask) came back."""
    a = coeffs / coeffs[:, :1]
    x = qep._initial_guesses(a)
    active = np.ones(x.shape, dtype=bool)
    seen = [set() for _ in x]
    repeated = np.zeros(len(x), dtype=bool)
    tiny = np.finfo(float).tiny
    for _ in range(max_iter):
        p, dp = qep._horner_pair(a, x)
        w = p / np.where(dp == 0.0, tiny, dp)
        diff = x[:, :, None] - x[:, None, :]
        np.einsum("nii->ni", diff)[...] = np.inf
        denom = 1.0 - w * np.sum(1.0 / diff, axis=2)
        corr = np.where(active, w / np.where(denom == 0.0, tiny, denom), 0.0)
        bad = ~np.isfinite(corr)
        corr = np.where(bad, 0.0, corr)
        x = np.where(bad, x * (1.0 + 1e-8) + 1e-8, x) - corr
        active = np.abs(corr) > qep._STEP_TOL * (1.0 + np.abs(x))
        for i in np.flatnonzero(active.any(axis=1)):
            state = x[i].tobytes() + active[i].tobytes()
            repeated[i] |= state in seen[i]
            seen[i].add(state)
    for _ in range(qep._POLISH_STEPS):
        p, dp = qep._horner_pair(a, x)
        x_new = x - np.where(dp == 0.0, 0.0, p / np.where(dp == 0.0, 1.0, dp))
        p_new, _ = qep._horner_pair(a, x_new)
        x = np.where(np.abs(p_new) <= np.abs(p), x_new, x)
    order = np.lexsort((x.imag, x.real), axis=1)
    return np.take_along_axis(x, order, axis=1), repeated


class TestRootCycles:
    """A row trapped in an exact cycle stops early with the same roots."""

    @staticmethod
    def iterations(monkeypatch, coeffs, max_iter):
        calls = 0
        horner = qep._horner_pair

        def counted(a, x):
            nonlocal calls
            calls += 1
            return horner(a, x)

        monkeypatch.setattr(qep, "_horner_pair", counted)
        roots, _ = roots_batch(coeffs, max_iter)
        monkeypatch.undo()
        # the loop, the polish (two evaluations per step), the residual
        return roots, calls - 2 * qep._POLISH_STEPS - 1

    @pytest.mark.parametrize("row", CYCLING_ROWS + CYCLING_ROWS_N3 + (WANDERING_ROW,))
    def test_single_row_bitwise_and_shortened(self, monkeypatch, row):
        coeffs = np.array([row])
        roots, its = self.iterations(monkeypatch, coeffs, 400)
        want, repeated = plain_roots(coeffs, 400)
        assert roots.tobytes() == want.tobytes()
        # a repeating row stops well short of the cap, any other runs to it
        assert (its < 250) == bool(repeated[0])
        assert (its == 400) == (not repeated[0])

    @pytest.mark.parametrize("max_iter", [40, 97, 131, 256, 400])
    def test_batch_bitwise_for_any_cap(self, max_iter):
        easy = np.real(np.poly([-0.1 + 1j, -0.1 - 1j, 0.2 + 2j, 0.2 - 2j,
                                -1.0, -2.0, 0.5 + 0.5j, 0.5 - 0.5j]))
        coeffs = np.array(CYCLING_ROWS + (WANDERING_ROW, tuple(easy)))
        roots, resid = roots_batch(coeffs, max_iter)
        want, _ = plain_roots(coeffs, max_iter)
        assert roots.tobytes() == want.tobytes()
        assert np.array_equal(resid, scaled_residuals(coeffs, want))


class TestSolveQep:
    def test_matches_mesh(self, model1):
        pen = pencil_at(model1, D=np.zeros((2, 2)), K=np.zeros((2, 2)), Omega=0.3)
        s = solve_qep(pen)
        assert pairing_distance(s.eigenvalues, [1.3j, -1.3j, 0.7j, -0.7j]) < 1e-10
        assert_eigenpair_residuals(pen, s)

    def test_fig1b_flutter(self, model1):
        pen = pencil_at(model1, delta=0.3, kappa=0.2)
        s = solve_qep(pen)
        mr = max_growth_rate(s)
        assert abs(mr - FIG1B_MAX_RE) < 1e-12
        # agrees with the first-order estimate -0.075 + 0.20297 to O(eps^2)
        assert abs(mr - 0.12797073701326006) < 0.02
        assert_eigenpair_residuals(pen, s)

    def test_definite_damping_decays(self, model1):
        s = solve_qep(pencil_at(model1, D=np.eye(2), K=np.zeros((2, 2)),
                                delta=0.1, Omega=0.5))
        assert max_growth_rate(s) < 0

    def test_eigenvector_residuals(self, model1):
        pen = pencil_at(model1, delta=0.3, kappa=0.2, nu=0.1, Omega=0.25)
        s = solve_qep(pen)
        scale = np.linalg.norm(pen.stiffness_total)
        for lam, u, r in zip(s.eigenvalues, s.eigenvectors, s.residuals):
            assert abs(np.linalg.norm(u) - 1) < 1e-12
            assert np.allclose(pen(lam) @ u, 0, atol=1e-8 * (1 + abs(lam) ** 2) * scale)
            assert r < 1e-8 * (1 + abs(lam) ** 2) * scale

    def test_max_growth_rate_examples(self, model1):
        marginal = solve_qep(pencil_at(model1, D=np.zeros((2, 2)),
                                       K=np.zeros((2, 2)), Omega=0.7),
                             want_vectors=False)
        assert abs(max_growth_rate(marginal)) < 1e-10
        prop = solve_qep(pencil_at(model1, D=np.eye(2), K=np.zeros((2, 2)),
                                   delta=0.1), want_vectors=False)
        assert abs(max_growth_rate(prop) + 0.05) < 1e-7  # repeated block: clustered roots


def random_pencil(rng, n):
    size = 2 * n
    omegas = tuple(np.cumsum(rng.uniform(0.5, 1.5, n)))
    model = RotorModel(omegas)
    D = rng.uniform(-1, 1, (size, size))
    K = rng.uniform(-1, 1, (size, size))
    N = rng.uniform(-1, 1, (size, size))
    pert = PerturbationSet(
        D=0.5 * (D + D.T), K=0.5 * (K + K.T), N=0.5 * (N - N.T),
        delta=rng.uniform(-0.5, 0.5), kappa=rng.uniform(-0.5, 0.5),
        nu=rng.uniform(-0.5, 0.5), Omega=rng.uniform(-1.0, 1.0))
    return build_pencil(model, pert)


class TestOracleEquivalence:
    def test_companion_qr_oracle(self, model1):
        rng = np.random.default_rng(23)
        for n in (1, 2):
            for _ in range(150):
                pen = random_pencil(rng, n)
                s = solve_qep(pen, want_vectors=False)
                oracle = np.linalg.eigvals(companion(pen))
                assert pairing_distance(s.eigenvalues, oracle) < 1e-8
                assert np.all(s.poly_residuals < 1e-12)

    def test_det_consistency(self):
        rng = np.random.default_rng(37)
        for n in (1, 2):
            for _ in range(50):
                pen = random_pencil(rng, n)
                p = char_poly(pen)
                scale = np.abs(p).max()
                for lam in solve_qep(pen, want_vectors=False).eigenvalues:
                    bound = 1e-8 * scale * (1 + abs(lam)) ** (len(p) - 1)
                    assert abs(np.linalg.det(pen(lam))) < bound

    def test_conjugate_closure(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            pen = random_pencil(rng, 1)
            eigs = solve_qep(pen, want_vectors=False).eigenvalues
            for lam in eigs:
                assert min(abs(lam.conjugate() - mu) for mu in eigs) < 1e-10

    def test_continuity_in_parameters(self, model1):
        base = dict(D=FIG_D, K=FIG_K, delta=0.21, kappa=0.13, nu=0.05)
        e0 = solve_qep(build_pencil(
            model1, PerturbationSet(Omega=0.4, **base)), want_vectors=False)
        e1 = solve_qep(build_pencil(
            model1, PerturbationSet(Omega=0.4 + 1e-6, **base)), want_vectors=False)
        assert pairing_distance(e0.eigenvalues, e1.eigenvalues) < 1e-4

    def test_charpoly_of_matrix_batched_consistent(self):
        rng = np.random.default_rng(31)
        A = rng.normal(size=(7, 4, 4))
        batched = charpoly_of_matrix(A)
        for k in range(7):
            single = charpoly_of_matrix(A[k])
            assert np.allclose(batched[k], single, rtol=1e-12, atol=1e-12)


class TestBlocks:
    """pencil_eigenvalues solves its stack in blocks of _BLOCK_ELEMENTS."""

    @pytest.mark.parametrize("m", [2, 4])
    def test_rows_match_one_row_calls(self, m, monkeypatch):
        block = qep._BLOCK_ELEMENTS // (2 * m) ** 2
        M = 2 * block + block // 2
        rng = np.random.default_rng(m)
        C = rng.normal(size=(M, m, m))
        S = rng.normal(size=(M, m, m))
        # first row, last of a block, first of the next, inside the
        # partial last block
        huge = [0, block - 1, block, 2 * block + 3]
        C[huge] *= 1e160
        eigs, resid = pencil_eigenvalues(C, S)
        assert eigs.shape == resid.shape == (M, 2 * m)
        overflowed = ~np.isfinite(eigs).all(axis=1)
        assert np.nonzero(overflowed)[0].tolist() == huge
        assert np.isnan(eigs[huge]).all() and np.isinf(resid[huge]).all()
        assert np.isfinite(resid[~overflowed]).all()
        # every row against one block holding the whole stack
        monkeypatch.setattr(qep, "_BLOCK_ELEMENTS", M * (2 * m) ** 2)
        whole = pencil_eigenvalues(C, S)
        assert eigs.tobytes() == whole[0].tobytes()
        assert resid.tobytes() == whole[1].tobytes()
        # rows at every block edge and a stride, one at a time
        edges = [k + j for k in (0, block, 2 * block, M) for j in (-2, -1, 0, 1)]
        for k in sorted({k for k in edges if 0 <= k < M} | set(range(0, M, 97))):
            e1, r1 = pencil_eigenvalues(C[k:k + 1], S[k:k + 1])
            assert e1[0].tobytes() == eigs[k].tobytes()
            assert r1[0].tobytes() == resid[k].tobytes()

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_empty_stack(self, m):
        eigs, resid = pencil_eigenvalues(np.zeros((0, m, m)), np.zeros((0, m, m)))
        assert eigs.shape == resid.shape == (0, 2 * m)

    @staticmethod
    def sweep_peak(model, pert, plane, grid):
        tracemalloc.start()
        try:
            sweep2d(model, pert, plane, grid)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_sweep_memory_n1(self, model1):
        # 201x201: ten blocks; the whole-grid solve peaked at 55.6 MB
        pert = PerturbationSet(D=FIG_D, K=FIG_K, delta=0.3)
        grid = (np.linspace(-1.0, 1.0, 201), np.linspace(0.0, 1.0, 201))
        assert self.sweep_peak(model1, pert, ("Omega", "kappa"), grid) < 20e6

    def test_sweep_memory_n3(self):
        # 30x30: two blocks of 455 rows; the whole-grid solve peaked at 6.8 MB
        pert = PerturbationSet(D=np.eye(6), K=np.zeros((6, 6)), delta=0.1)
        grid = (np.linspace(0.1, 1.0, 30), np.linspace(0.05, 0.5, 30))
        assert 30 ** 2 > qep._BLOCK_ELEMENTS // 12 ** 2
        peak = self.sweep_peak(RotorModel.string(3), pert, ("Omega", "delta"), grid)
        assert peak < 5e6


def test_polynomial_path_private_to_qep():
    """No module but qep reaches the characteristic-polynomial and root
    functions, so how pencil eigenvalues are found can change in qep alone."""
    private = {"charpoly_of_matrix", "roots_batch", "scaled_residuals"}
    offenders = []
    for path in sorted(Path(qep.__file__).parent.glob("*.py")):
        if path.name == "qep.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {alias.name.rsplit(".", 1)[-1] for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {name}"
                          for name in sorted(names & private)]
    assert offenders == []


class TestClusters:
    def test_simple_values_stay_separate(self):
        vals = np.array([1.0 + 0j, 2.0 + 0j, 3.0 + 0j])
        assert [m for _, m, _ in cluster_eigenvalues(vals)] == [1, 1, 1]

    def test_chained_clustering(self):
        vals = np.array([1.0, 1.0 + 5e-7, 1.0 + 1e-6, 4.0])
        sizes = sorted(m for _, m, _ in cluster_eigenvalues(vals))
        assert sizes == [1, 3]
