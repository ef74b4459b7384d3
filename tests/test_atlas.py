import math
import warnings

import numpy as np
import pytest

from conftest import FIG_D, FIG_K
from gyrospec import atlas
from gyrospec.atlas import (CLASS_NAMES, StabilityChart,
                            boundary_slope_at_origin, classify,
                            eigenvalues_at_points, find_exceptional_points,
                            max_re_at_points, sweep2d, trace_boundary)
from gyrospec.qep import (accepted, companion_stack, pencil_eigenvalues,
                          roots_batch, solve_qep)
from gyrospec.errors import (ConvergenceError, InsufficientResolutionError,
                             OverflowRescaleError, ShapeError)
from gyrospec.model import (J2, PerturbationSet, QuadraticPencil, RotorModel,
                            build_pencil, pencil_coefficients)
from gyrospec.floquet import PeriodicSystem, _integrate_monodromy, monodromy
from gyrospec.tolerances import DEFAULT
from gyrospec.perturbation import (beta0, criterion_B, ep_location,
                                   invariant_A, jordan_chain, modal_data)

SQRT5 = math.sqrt(5.0)


def zeros2():
    return np.zeros((2, 2))


class TestClassify:
    def test_gyroscopic_marginal(self, model1):
        v = classify(model1, PerturbationSet(D=zeros2(), K=zeros2(), Omega=0.5))
        assert v.classification == "marginal"

    def test_fig1b_flutter(self, model1):
        v = classify(model1, PerturbationSet(D=FIG_D, K=FIG_K,
                                             delta=0.3, kappa=0.2))
        assert v.classification == "flutter"
        assert abs(v.max_re - 0.13237554135478674) < 1e-12
        assert abs(v.critical_eigenvalue.imag) > 1.0

    def test_thomson_tait_chetaev(self, model1):
        v = classify(model1, PerturbationSet(D=np.eye(2), K=zeros2(),
                                             delta=0.2, Omega=0.3))
        assert v.classification == "asymptotically_stable"

    def test_divergence_label(self, model1):
        # strongly negative stiffness detuning produces a real unstable root
        v = classify(model1, PerturbationSet(D=zeros2(), K=np.eye(2),
                                             kappa=-2.0))
        assert v.classification == "divergence"
        assert abs(v.critical_eigenvalue.imag) < 1e-10


class TestSweep2d:
    def test_marginal_plane(self, model1):
        pert = PerturbationSet(D=FIG_D, K=FIG_K)  # delta = nu = 0
        chart = sweep2d(model1, pert, ("Omega", "kappa"),
                        (np.linspace(-0.5, 0.5, 11), np.linspace(-0.2, 0.2, 9)))
        assert all(CLASS_NAMES[chart.class_codes[i, j]] == "marginal"
                   for i in range(11) for j in range(9))

    def test_flutter_between_hyperbola_branches(self, model1):
        pert = PerturbationSet(D=FIG_D, K=FIG_K, delta=0.3)
        chart = sweep2d(model1, pert, ("Omega", "kappa"),
                        (np.linspace(-0.45, 0.45, 31), np.linspace(-0.3, 0.3, 21)))
        codes = chart.class_codes
        flutter = CLASS_NAMES.index("flutter")
        stable = CLASS_NAMES.index("asymptotically_stable")
        # kappa axis entirely inside the flutter band, large Omega stable
        mid = 15
        assert all(codes[mid, j] == flutter for j in range(21))
        assert codes[0, 10] == stable and codes[-1, 10] == stable

    def test_ellipse_for_positive_A_indefinite(self, model1):
        D = np.diag([-0.1, 2.0])
        assert invariant_A(D, FIG_K) > 0 and np.linalg.det(D) < 0
        pert = PerturbationSet(D=D, K=FIG_K, delta=0.3)
        chart = sweep2d(model1, pert, ("Omega", "kappa"),
                        (np.linspace(-0.25, 0.25, 41), np.linspace(-0.25, 0.25, 41)))
        flutter = chart.class_codes == CLASS_NAMES.index("flutter")
        assert flutter.any()
        # flutter region stays away from the frame: a closed blob
        assert not flutter[0, :].any() and not flutter[-1, :].any()
        assert not flutter[:, 0].any() and not flutter[:, -1].any()

    def test_matches_pointwise_classify(self, model1):
        pert = PerturbationSet(D=FIG_D, K=FIG_K, delta=0.25, nu=0.1)
        ax1 = np.linspace(-0.4, 0.4, 7)
        ax2 = np.linspace(-0.3, 0.3, 5)
        chart = sweep2d(model1, pert, ("Omega", "kappa"), (ax1, ax2))
        for i in (0, 3, 6):
            for j in (0, 2, 4):
                v = classify(model1, pert.replace(Omega=ax1[i], kappa=ax2[j]))
                assert CLASS_NAMES[chart.class_codes[i, j]] == v.classification
                assert abs(chart.max_re[i, j] - v.max_re) < 1e-10

    @pytest.mark.parametrize("n", [2, 3])
    def test_multidoublet_matches_companion_eigvals(self, n):
        model = RotorModel.string(n)
        size = 2 * n
        rng = np.random.default_rng(10 + n)
        D = rng.uniform(-1, 1, (size, size))
        K = rng.uniform(-1, 1, (size, size))
        pert = PerturbationSet(D=0.5 * (D + D.T), K=0.5 * (K + K.T),
                               delta=0.2, kappa=0.1)
        ax1, ax2 = np.linspace(-0.45, 0.45, 10), np.linspace(-0.2, 0.2, 7)
        chart = sweep2d(model, pert, ("Omega", "nu"), (ax1, ax2))
        assert chart.errors == ()
        tol = chart.marginal_rtol
        judged = 0
        for i, Om in enumerate(ax1):
            for j, nu in enumerate(ax2):
                pen = build_pencil(model, pert.replace(Omega=Om, nu=nu))
                ref = np.linalg.eigvals(
                    companion_stack(pen.damping_total, pen.stiffness_total))
                scale = max(1.0, np.abs(ref).max())
                top = ref[np.argmax(ref.real)]
                assert abs(chart.max_re[i, j] - top.real) <= 1e-10 * scale
                if abs(top.real) <= 10 * tol * scale:
                    continue  # marginal band: rounding may pick either side
                if top.real < 0:
                    want = "asymptotically_stable"
                else:
                    want = "flutter" if abs(top.imag) > tol * scale else "divergence"
                assert CLASS_NAMES[chart.class_codes[i, j]] == want
                judged += 1
        assert judged > ax1.size * ax2.size // 2

    @pytest.mark.parametrize("n", [2, 3])
    def test_multidoublet_nodes_equal_classify(self, n):
        model = RotorModel.string(n)
        size = 2 * n
        rng = np.random.default_rng(20 + n)
        D = rng.uniform(-1, 1, (size, size))
        pert = PerturbationSet(D=0.5 * (D + D.T), K=np.eye(size), delta=0.1,
                               kappa=0.05)
        ax1, ax2 = np.linspace(-0.3, 0.3, 4), np.linspace(-0.1, 0.1, 3)
        chart = sweep2d(model, pert, ("Omega", "nu"), (ax1, ax2))
        for i, Om in enumerate(ax1):
            for j, nu in enumerate(ax2):
                v = classify(model, pert.replace(Omega=Om, nu=nu))
                assert (CLASS_NAMES[chart.class_codes[i, j]], chart.max_re[i, j],
                        chart.im_at_max[i, j]) == \
                    (v.classification, v.max_re, v.critical_eigenvalue.imag)

    @pytest.mark.parametrize("n", [1, 2])
    def test_poly_residual_gate_same_rule_every_n(self, n):
        model = RotorModel.string(n)
        size = 2 * n
        pert = PerturbationSet(D=np.eye(size), K=np.eye(size), delta=0.2)
        ax1, ax2 = np.linspace(-0.4, 0.4, 6), np.linspace(-0.2, 0.2, 5)
        P1, P2 = np.meshgrid(ax1, ax2, indexing="ij")
        _, resid = eigenvalues_at_points(
            model, pert, ("Omega", "kappa"),
            np.column_stack([P1.ravel(), P2.ravel()]))
        worst = resid.max(axis=1).reshape(P1.shape)
        tight = float(np.median(worst))
        chart = sweep2d(model, pert, ("Omega", "kappa"), (ax1, ax2),
                        poly_residual=tight)
        failed = chart.class_codes == CLASS_NAMES.index("error")
        assert np.array_equal(failed, worst > tight)
        assert failed.any() and not failed.all()
        assert len(chart.errors) == int(failed.sum())
        assert all(why.startswith("root residual") for _, _, why in chart.errors)
        assert np.isnan(chart.max_re[failed]).all()
        assert np.isnan(chart.im_at_max[failed]).all()

    def test_critical_eigenvalue_upper_half_plane(self, model1):
        pert = PerturbationSet(D=FIG_D, K=FIG_K, delta=0.3, nu=0.05)
        ax1, ax2 = np.linspace(-0.45, 0.45, 31), np.linspace(-0.3, 0.3, 21)
        chart = sweep2d(model1, pert, ("Omega", "kappa"), (ax1, ax2))
        assert (chart.im_at_max >= 0).all()
        P1, P2 = np.meshgrid(ax1, ax2, indexing="ij")
        eigs, _ = eigenvalues_at_points(
            model1, pert, ("Omega", "kappa"),
            np.column_stack([P1.ravel(), P2.ravel()]))
        # a max Re eigenvalue of the node or its conjugate partner
        crit = (chart.max_re + 1j * chart.im_at_max).ravel()[:, None]
        assert (np.minimum(np.abs(eigs - crit), np.abs(eigs.conj() - crit))
                .min(axis=1) == 0).all()
        v = classify(model1, pert.replace(Omega=0.1, kappa=0.2))
        assert v.critical_eigenvalue.imag > 0

    def test_cell_failure_recorded_and_sweep_continues(self, model1):
        # gigantic speeds overflow the characteristic coefficients in some
        # cells; those cells are flagged, the rest still classified
        pert = PerturbationSet(D=np.zeros((2, 2)), K=np.zeros((2, 2)))
        chart = sweep2d(model1, pert, ("Omega", "kappa"),
                        (np.linspace(1e-3, 1e160, 5), np.linspace(-0.1, 0.1, 3)))
        assert len(chart.errors) > 0
        error_code = CLASS_NAMES.index("error")
        assert (chart.class_codes == error_code).any()
        assert not (chart.class_codes == error_code).all()
        good = chart.class_codes != error_code
        assert np.all(np.isfinite(chart.max_re[good]))
        assert {why for _, _, why in chart.errors} == {"coefficients overflowed"}

    def test_axis_validation(self, model1):
        pert = PerturbationSet(D=FIG_D, K=FIG_K)
        with pytest.raises(ShapeError):
            sweep2d(model1, pert, ("Omega", "Omega"),
                    (np.linspace(0, 1, 5), np.linspace(0, 1, 5)))
        with pytest.raises(ShapeError):
            sweep2d(model1, pert, ("Omega", "kappa"),
                    (np.array([0.3, 0.1]), np.linspace(0, 1, 5)))

    def test_symmetry_omega_nu_reflection(self, model1):
        # spectra at (Omega, nu) and (-Omega, -nu) coincide exactly
        pert = PerturbationSet(D=FIG_D, K=FIG_K, delta=0.15, kappa=0.1)
        ax = np.linspace(-0.4, 0.4, 9)
        chart = sweep2d(model1, pert, ("Omega", "nu"), (ax, ax))
        flipped = chart.max_re[::-1, ::-1]
        assert np.allclose(chart.max_re, flipped, atol=1e-10)
        big = np.abs(chart.max_re) > 1e-7
        assert np.array_equal(chart.class_codes[big],
                              chart.class_codes[::-1, ::-1][big])


class TestNonFiniteResiduals:
    """String rotor at n = 8: the degree-32 characteristic polynomial gives
    NaN root residuals; the definite damping makes it stable, so a
    flutter verdict there is wrong."""

    model = RotorModel.string(8)
    pert = PerturbationSet(D=np.eye(16), K=np.zeros((16, 16)), delta=0.1,
                           Omega=0.3)

    def test_classify_raises(self):
        with pytest.raises(ConvergenceError):
            classify(self.model, self.pert)

    def test_solver_gates_raise(self):
        pen = build_pencil(self.model, self.pert)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the gates raise, numpy stays quiet
            with pytest.raises(ConvergenceError):
                solve_qep(pen, want_vectors=False)
            with pytest.raises(ConvergenceError):
                accepted(*pencil_eigenvalues(pen.damping_total[None],
                                             pen.stiffness_total[None]),
                         DEFAULT.poly_residual)

    def test_sweep_cells_are_errors(self):
        chart = sweep2d(self.model, self.pert, ("Omega", "delta"),
                        (np.linspace(0.1, 0.4, 7), np.linspace(0.05, 0.3, 6)))
        assert (chart.class_codes == CLASS_NAMES.index("error")).all()
        assert len(chart.errors) == 42
        assert np.isnan(chart.max_re).all()


class TestTraceBoundary:
    def test_closed_contour_positive_A(self, model1):
        D = np.diag([-0.1, 2.0])
        pert = PerturbationSet(D=D, K=FIG_K, delta=0.3)
        chart = sweep2d(model1, pert, ("Omega", "kappa"),
                        (np.linspace(-0.25, 0.25, 81), np.linspace(-0.25, 0.25, 81)))
        polys = trace_boundary(chart)
        assert len(polys) == 1
        pl = polys[0]
        assert pl.closed
        assert np.array_equal(pl.vertices[0], pl.vertices[-1])
        assert pl.residuals.max() < 1e-9

    def test_two_branches_negative_A(self, model1):
        pert = PerturbationSet(D=FIG_D, K=FIG_K, delta=0.3)
        chart = sweep2d(model1, pert, ("Omega", "kappa"),
                        (np.linspace(-0.45, 0.45, 61), np.linspace(-0.3, 0.3, 41)))
        polys = trace_boundary(chart)
        assert len(polys) == 2
        for pl in polys:
            assert not pl.closed
            # terminates on the kappa frame on both ends
            assert abs(abs(pl.vertices[0, 1]) - 0.3) < 1e-9
            assert abs(abs(pl.vertices[-1, 1]) - 0.3) < 1e-9
            assert pl.residuals.max() < 1e-9

    def test_stripe_when_A_vanishes(self, model1):
        d = 3.0 - SQRT5
        D = np.diag([-d, 2.0])
        assert abs(invariant_A(D, FIG_K)) < 1e-12
        pert = PerturbationSet(D=D, K=FIG_K, delta=0.1)
        chart = sweep2d(model1, pert, ("Omega", "kappa"),
                        (np.linspace(-0.15, 0.15, 61), np.linspace(-0.2, 0.2, 41)))
        polys = trace_boundary(chart)
        assert len(polys) == 2
        for pl in polys:
            assert not pl.closed
            assert abs(abs(pl.vertices[0, 1]) - 0.2) < 1e-9

    def test_flutter_on_left_orientation(self, model1):
        D = np.diag([-0.1, 2.0])
        pert = PerturbationSet(D=D, K=FIG_K, delta=0.3)
        chart = sweep2d(model1, pert, ("Omega", "kappa"),
                        (np.linspace(-0.25, 0.25, 41), np.linspace(-0.25, 0.25, 41)))
        pl = trace_boundary(chart)[0]
        k = len(pl.vertices) // 3
        t = pl.vertices[k + 1] - pl.vertices[k]
        left = np.array([-t[1], t[0]])
        left /= np.linalg.norm(left)
        probe = 0.5 * (pl.vertices[k] + pl.vertices[k + 1]) + 0.02 * left
        f = max_re_at_points(chart.model, chart.pert_template, chart.plane,
                             probe[None, :])[0]
        assert f > 0

    def test_vertices_on_exact_boundary(self, model1):
        pert = PerturbationSet(D=FIG_D, K=FIG_K, delta=0.3)
        chart = sweep2d(model1, pert, ("Omega", "kappa"),
                        (np.linspace(-0.45, 0.45, 31), np.linspace(-0.2, 0.2, 21)))
        for pl in trace_boundary(chart):
            f = max_re_at_points(chart.model, chart.pert_template,
                                 chart.plane, pl.vertices)
            assert np.abs(f).max() < 1e-9


def unstable_right(chart, polys):
    """Whether the point a twentieth of a cell right of each segment's
    midpoint is unstable (max Re above the marginal band)."""
    step = np.array([chart.axis1[1] - chart.axis1[0],
                     chart.axis2[1] - chart.axis2[0]])
    probes = []
    for pl in polys:
        t = np.diff(pl.vertices, axis=0) / step
        right = np.column_stack([t[:, 1], -t[:, 0]])
        right /= np.hypot(right[:, 0], right[:, 1])[:, None]
        mid = 0.5 * (pl.vertices[1:] + pl.vertices[:-1])
        probes.append(mid + 0.05 * right * step)
    eigs, _ = eigenvalues_at_points(chart.model, chart.pert_template,
                                    chart.plane, np.vstack(probes))
    tol = chart.marginal_rtol * np.maximum(1.0, np.abs(eigs).max(axis=1))
    return ~(eigs.real.max(axis=1) <= tol)


class TestTraceHardCases:
    """Boundaries that leave the frame at a shallow angle, islands thinner
    than a cell and an exactly marginal frame row."""

    def test_shallow_frame_exit(self, model1):
        D = np.diag([-0.903642858178624, 2.1870028558436427])
        K = np.array([[1.0732767344508272, 1.0722702570258102],
                      [1.0722702570258102, 2.0591142854145557]])
        pert = PerturbationSet(D=D, K=K, delta=0.2907969982013642,
                               nu=0.11606376382545815)
        om, ka = 0.4184181963662975, 0.21154344453764284
        chart = sweep2d(model1, pert, ("Omega", "kappa"),
                        (np.linspace(-om, om, 101), np.linspace(-ka, ka, 101)))
        polys = trace_boundary(chart)
        assert polys
        assert not unstable_right(chart, polys).any()

    def test_umbrella_pocket_islands(self, model1):
        D = np.diag([-0.9732311753749728, 1.8924862514104772])
        K = np.array([[1.0452165418666606, 0.9355886256368973],
                      [0.9355886256368973, 1.980233428193483]])
        pert = PerturbationSet(D=D, K=K, nu=0.19509079375918845,
                               kappa=0.18882093718188722)
        om = 0.012304794628829817
        chart = sweep2d(model1, pert, ("Omega", "delta"),
                        (np.linspace(-om, om, 201),
                         np.linspace(0.0, 0.020212063568636127, 101)))
        polys = trace_boundary(chart)
        assert any(pl.closed for pl in polys)
        assert not unstable_right(chart, polys).any()

    def test_marginal_row(self, model1):
        # at delta = kappa = nu = 0 the spectrum is purely imaginary: the
        # delta = 0 row is marginal and carries no boundary
        pert = PerturbationSet(D=FIG_D, K=FIG_K)
        chart = sweep2d(model1, pert, ("Omega", "delta"),
                        (np.linspace(-0.45, 0.45, 41), np.linspace(0.0, 0.4, 21)))
        polys = trace_boundary(chart)
        assert len(polys) == 2
        assert all((pl.vertices[:, 1] > 0).all() for pl in polys)
        assert not unstable_right(chart, polys).any()


class TestTraceAnalyticField:
    """trace_boundary on g = cos(2x) cos(3y) - 0.01 in place of max Re, with
    failed (NaN) nodes: the positive lobes are convex and nearly touch at
    the saddles of cos cos, so saddle cells of both resolutions occur."""

    axis1 = np.linspace(-2.6, 2.3, 29)
    axis2 = np.linspace(-1.7, 1.4, 23)

    @staticmethod
    def field(pts):
        pts = np.asarray(pts, dtype=float)
        return np.cos(2.0 * pts[:, 0]) * np.cos(3.0 * pts[:, 1]) - 0.01

    def chart(self, margin=2):
        P1, P2 = np.meshgrid(self.axis1, self.axis2, indexing="ij")
        f = self.field(np.column_stack([P1.ravel(), P2.ravel()])).reshape(P1.shape)
        # fail every fifth node next to a sign change, at least three nodes
        # apart and ``margin`` from the frame; at the default margin of two
        # every edge between finite nodes still borders a cell with four
        # finite corners
        sign = f > 0
        nan_nodes = []
        for i in range(margin, f.shape[0] - margin):
            for j in range(margin, f.shape[1] - margin):
                nbrs = (sign[i - 1, j], sign[i + 1, j], sign[i, j - 1], sign[i, j + 1])
                if any(b != sign[i, j] for b in nbrs) and not any(
                        abs(i - a) <= 2 and abs(j - b) <= 2 for a, b in nan_nodes):
                    nan_nodes.append((i, j))
        nan_nodes = nan_nodes[::5]
        for i, j in nan_nodes:
            f[i, j] = np.nan
        # class codes as sweep2d would give them for this field
        codes = np.where(np.isnan(f), CLASS_NAMES.index("error"),
                         np.where(f > 0, CLASS_NAMES.index("flutter"),
                                  CLASS_NAMES.index("asymptotically_stable")))
        pert = PerturbationSet(D=np.zeros((2, 2)), K=np.zeros((2, 2)))
        chart = StabilityChart(
            plane=("Omega", "kappa"), fixed={"delta": 0.0, "nu": 0.0},
            axis1=self.axis1, axis2=self.axis2, max_re=f,
            im_at_max=np.zeros(f.shape), class_codes=codes.astype(np.int8),
            errors=(), model=RotorModel((1.0,)), pert_template=pert,
            marginal_rtol=1e-9)
        return chart, nan_nodes

    def edge_of(self, v):
        """Grid edge (("h" | "v"), i, j) that a vertex lies on."""
        a1, a2 = self.axis1, self.axis2
        if np.any(a2 == v[1]):
            i = int(np.searchsorted(a1, v[0])) - 1
            assert a1[i] < v[0] < a1[i + 1]
            return ("h", i, int(np.nonzero(a2 == v[1])[0][0]))
        assert np.any(a1 == v[0])
        j = int(np.searchsorted(a2, v[1])) - 1
        assert a2[j] < v[1] < a2[j + 1]
        return ("v", int(np.nonzero(a1 == v[0])[0][0]), j)

    def beside_failed(self, f, v):
        """Whether a node of a cell on either side of the edge that vertex
        v lies on is failed (NaN)."""
        kind, i, j = self.edge_of(v)
        if kind == "h":
            block = f[i:i + 2, max(j - 1, 0):j + 2]
        else:
            block = f[max(i - 1, 0):i + 2, j:j + 2]
        return bool(np.isnan(block).any())

    @staticmethod
    def crossings(f):
        """Edges between finite nodes of opposite sign."""
        ok = ~np.isnan(f)
        sign = ok & (f > 0)
        h = ok[:-1] & ok[1:] & (sign[:-1] != sign[1:])
        v = ok[:, :-1] & ok[:, 1:] & (sign[:, :-1] != sign[:, 1:])
        return ({("h", i, j) for i, j in np.argwhere(h).tolist()}
                | {("v", i, j) for i, j in np.argwhere(v).tolist()})

    def trace(self, monkeypatch, chart):
        """trace_boundary on the field; also returns the edges whose
        points went to the first solver call (the first refinement step)."""
        calls = []

        def field(model, pert, plane, pts):
            calls.append(np.array(pts))
            return self.field(pts)

        monkeypatch.setattr(atlas, "max_re_at_points", field)
        polys = trace_boundary(chart)
        return polys, sorted(self.edge_of(p) for p in calls[0])

    def test_failed_nodes_and_saddles(self, monkeypatch):
        chart, nan_nodes = self.chart()
        f = chart.max_re
        ok = ~np.isnan(f)
        sign = ok & (f > 0)

        # preconditions: saddle cells of both resolutions, failed nodes on
        # the boundary
        m = sign.astype(int)
        codes = (m[:-1, :-1] << 3) | (m[1:, :-1] << 2) | (m[1:, 1:] << 1) | m[:-1, 1:]
        finite_cell = ok[:-1, :-1] & ok[1:, :-1] & ok[1:, 1:] & ok[:-1, 1:]
        saddle = finite_cell & ((codes == 0b0101) | (codes == 0b1010))
        center = 0.25 * (f[:-1, :-1] + f[1:, :-1] + f[1:, 1:] + f[:-1, 1:])
        keep_first = (center > 0) == sign[:-1, :-1]
        assert (saddle & keep_first).any() and (saddle & ~keep_first).any()
        assert len(nan_nodes) == 7

        crossing = self.crossings(f)
        polys, bisected = self.trace(monkeypatch, chart)
        on_edge = []
        for pl in polys:
            verts = pl.vertices[:-1] if pl.closed else pl.vertices
            on_edge += [self.edge_of(v) for v in verts]
            # flagged exactly when an end lies beside a failed node
            assert pl.flagged == (not pl.closed and (
                self.beside_failed(f, pl.vertices[0])
                or self.beside_failed(f, pl.vertices[-1])))
            # |g| below the refinement tolerance at every vertex
            assert np.abs(self.field(pl.vertices)).max() < DEFAULT.boundary_residual
            # g > 0 a twentieth of a cell left of every segment
            step = np.array([self.axis1[1] - self.axis1[0],
                             self.axis2[1] - self.axis2[0]])
            t = np.diff(pl.vertices, axis=0) / step
            left = np.column_stack([-t[:, 1], t[:, 0]])
            left /= np.hypot(left[:, 0], left[:, 1])[:, None]
            mid = 0.5 * (pl.vertices[1:] + pl.vertices[:-1])
            assert (self.field(mid + 0.05 * left * step) > 0).all()

        assert any(pl.flagged for pl in polys) and not all(pl.flagged for pl in polys)
        # one vertex on every edge between finite nodes of opposite sign,
        # none on an edge that touches a failed node
        assert sorted(on_edge) == sorted(crossing)
        for kind, i, j in on_edge:
            assert ok[i, j] and (ok[i + 1, j] if kind == "h" else ok[i, j + 1])
        # the first refinement step gets exactly the edges that carry a vertex
        assert bisected == sorted(on_edge)

    def test_bisects_only_edges_with_vertices(self, monkeypatch):
        # failed nodes one node in from the frame leave sign changes on the
        # frame that border no cell with four finite corners
        chart, _ = self.chart(margin=1)
        polys, bisected = self.trace(monkeypatch, chart)
        on_edge = sorted(self.edge_of(v) for pl in polys
                         for v in (pl.vertices[:-1] if pl.closed else pl.vertices))
        assert len(self.crossings(chart.max_re)) > len(on_edge)
        assert bisected == on_edge

    def test_unconverged_edge_splits_and_flags(self, monkeypatch):
        # |g| stays at 1e-3 along one edge inside an unflagged open polyline,
        # so its refinement never converges: the polyline splits there into
        # two flagged pieces, and every other polyline stays as it was
        chart, _ = self.chart()
        polys, _ = self.trace(monkeypatch, chart)
        whole = max((pl for pl in polys if not pl.flagged),
                    key=lambda pl: len(pl.vertices))
        assert not whole.closed
        cut = whole.vertices[len(whole.vertices) // 2]
        edge = self.edge_of(cut)

        def field(model, pert, plane, pts):
            g = self.field(pts)
            bad = np.array([self.edge_of(p) == edge for p in pts])
            return np.where(bad, np.copysign(np.maximum(np.abs(g), 1e-3), g), g)

        monkeypatch.setattr(atlas, "max_re_at_points", field)
        split = trace_boundary(chart)
        assert len(split) == len(polys) + 1

        def same(a, b):
            return a.vertices.shape == b.vertices.shape \
                and np.array_equal(a.vertices, b.vertices) and a.flagged == b.flagged

        pieces = [pl for pl in split if not any(same(pl, q) for q in polys)]
        assert len(pieces) == 2 and all(pl.flagged for pl in pieces)
        assert sum(len(pl.vertices) for pl in pieces) == len(whole.vertices) - 1
        assert not any(np.all(pl.vertices == cut, axis=1).any() for pl in split)


class TestBoundarySlopes:
    def test_cone_slopes_nu_zero(self, model1):
        # at kappa = 0, nu = 0 the boundary lines are Omega = +- delta sqrt(-detD)/2
        pert = PerturbationSet(D=FIG_D, K=FIG_K)
        chart = sweep2d(model1, pert, ("Omega", "delta"),
                        (np.linspace(-0.12, 0.12, 121), np.linspace(1e-4, 0.15, 101)))
        lo, hi = boundary_slope_at_origin(chart)
        expected = math.sqrt(2.0) / 2
        assert abs(hi - expected) < 0.02
        assert abs(lo + expected) < 0.02

    def test_insufficient_vertices(self, model1):
        # an all-marginal azimuth gives no boundary at all
        empty = sweep2d(model1, PerturbationSet(D=zeros2(), K=zeros2()),
                        ("Omega", "delta"),
                        (np.linspace(-0.1, 0.1, 5), np.linspace(1e-4, 0.1, 4)))
        with pytest.raises(InsufficientResolutionError):
            boundary_slope_at_origin(empty)

    def test_requires_omega_delta_plane(self, model1):
        pert = PerturbationSet(D=FIG_D, K=FIG_K, delta=0.3)
        chart = sweep2d(model1, pert, ("Omega", "kappa"),
                        (np.linspace(-0.4, 0.4, 5), np.linspace(-0.2, 0.2, 5)))
        with pytest.raises(ShapeError):
            boundary_slope_at_origin(chart)


class TestFindExceptionalPoints:
    def test_certified_ep_matches_closed_form(self, model1):
        pert = PerturbationSet(D=zeros2(), K=FIG_K, nu=0.2)
        found, near = find_exceptional_points(
            model1, pert, ((-0.05, 0.05), (0.1, 0.25)))
        assert len(found) == 1
        rec = found[0]
        kap0, om0 = ep_location(FIG_K, 1.0, 0.2)
        assert rec.kind == "exceptional"
        assert abs(rec.location[0]) < 1e-6
        assert abs(rec.location[1] - kap0) < 1e-6
        assert abs(rec.eigenvalue - 1j * om0) < 1e-8
        assert rec.certificate.disc_rel < 1e-10
        assert rec.certificate.rank_deficiency == 1

    def test_diabolical_point_at_origin(self, model1):
        pert = PerturbationSet(D=zeros2(), K=FIG_K, nu=0.0)
        found, _ = find_exceptional_points(
            model1, pert, ((-0.093, 0.11), (-0.081, 0.107)))
        assert len(found) == 1
        rec = found[0]
        assert rec.kind == "diabolical"
        assert np.hypot(rec.location[0], rec.location[1]) < 1e-6
        assert rec.certificate.rank_deficiency == 2
        assert abs(rec.eigenvalue - 1j) < 1e-6

    def test_both_eps_in_wide_box(self, model1):
        pert = PerturbationSet(D=zeros2(), K=FIG_K, nu=0.2)
        found, _ = find_exceptional_points(
            model1, pert, ((-0.05, 0.06), (-0.3, 0.3)), coarse=(41, 81))
        kap0, _ = ep_location(FIG_K, 1.0, 0.2)
        kappas = sorted(r.location[1] for r in found)
        assert len(found) == 2
        assert abs(kappas[0] + kap0) < 1e-6
        assert abs(kappas[1] - kap0) < 1e-6
        om_plus = math.sqrt(1 + 0.6 / SQRT5)
        om_minus = math.sqrt(1 - 0.6 / SQRT5)
        oms = sorted(abs(r.eigenvalue) for r in found)
        assert abs(oms[0] - om_minus) < 1e-7
        assert abs(oms[1] - om_plus) < 1e-7

    def test_empty_box(self, model1):
        pert = PerturbationSet(D=zeros2(), K=FIG_K, nu=0.2)
        found, near = find_exceptional_points(
            model1, pert, ((0.3, 0.5), (0.5, 0.8)))
        assert found == []

    def test_gap_minima_match_loop(self):
        def loop(rel_gap):
            cand = []
            for i in range(rel_gap.shape[0]):
                for j in range(rel_gap.shape[1]):
                    g = rel_gap[i, j]
                    if g >= atlas._EP_GAP_RTOL:
                        continue
                    if g <= rel_gap[max(i - 1, 0):i + 2, max(j - 1, 0):j + 2].min():
                        cand.append((g, i, j))
            return [(i, j) for _, i, j in sorted(cand)]

        rng = np.random.default_rng(7)
        for shape in ((41, 41), (5, 9), (2, 2)):
            # coarse values give ties, a few NaN nodes stand for failed rows
            rel_gap = np.round(rng.uniform(0.0, 0.3, shape), 2)
            rel_gap[rng.uniform(size=shape) < 0.03] = np.nan
            ci, cj = atlas._gap_minima(rel_gap)
            assert list(zip(ci.tolist(), cj.tolist())) == loop(rel_gap)

    def wide_box(self, model1):
        pert = PerturbationSet(D=zeros2(), K=FIG_K, nu=0.2)
        return pert, find_exceptional_points(
            model1, pert, ((-0.3, 0.3), (-0.4, 0.4)), coarse=(41, 41))

    def test_wide_box_places_both_eps_exactly(self, model1):
        pert, (found, near) = self.wide_box(model1)
        kap0, om_plus = ep_location(FIG_K, 1.0, 0.2)
        _, om_minus = ep_location(-FIG_K, 1.0, 0.2)
        for kappa, omega in ((kap0, om_plus), (-kap0, om_minus)):
            hits = [r for r in found if r.kind == "exceptional"
                    and abs(r.location[0]) <= 1e-10
                    and abs(r.location[1] - kappa) <= 1e-10]
            assert len(hits) == 1
            assert abs(hits[0].eigenvalue - 1j * omega) <= 1e-10
        for r in found + near:
            L = build_pencil(model1, pert.replace(Omega=r.location[0],
                                                  kappa=r.location[1]))
            sv = r.certificate.singular_values
            thresh = DEFAULT.ep_rank_rtol * max(
                sv[0], np.linalg.norm(L.stiffness_total))
            if abs(r.eigenvalue.imag) <= thresh:
                assert r.kind != "exceptional"
        # P + kappa K + nu N is singular at kappa = -0.4: the double root
        # l = 0 of Omega = 0 is a divergence onset
        zero = [r for r in near if r.kind == "real_double"
                and abs(r.eigenvalue) <= 1e-10]
        assert len(zero) == 1
        assert abs(zero[0].location[0]) <= 1e-10
        assert abs(zero[0].location[1] + 0.4) <= 1e-10

    def test_disc_rel_from_roots(self, model1):
        pert, (found, near) = self.wide_box(model1)
        assert found
        for r in found + near:
            roots, _ = eigenvalues_at_points(model1, pert, ("Omega", "kappa"),
                                             np.array([r.location[:2]]))
            roots = roots[0]
            expect = 1.0
            for a in range(len(roots)):
                for b in range(a + 1, len(roots)):
                    expect *= (abs(roots[a] - roots[b]) / (
                        (1 + abs(roots[a])) * (1 + abs(roots[b])))) ** 2
            assert r.certificate.disc_rel == pytest.approx(expect, rel=1e-12)
            if r.certificate.min_gap > 0:
                assert r.certificate.disc_rel > 0

    def test_two_doublets(self):
        model = RotorModel.string(2)
        K = np.array([[1.0, 1.0, 0.3, 0.1], [1.0, 2.0, 0.2, 0.4],
                      [0.3, 0.2, 1.5, 0.5], [0.1, 0.4, 0.5, 1.0]])
        pert = PerturbationSet(D=np.zeros((4, 4)), K=K, nu=0.2)
        found, _ = find_exceptional_points(model, pert, ((-0.3, 0.3), (-0.4, 0.4)))
        eps = [r for r in found if r.kind == "exceptional"]
        assert eps
        for r in eps:
            L = build_pencil(model, pert.replace(Omega=r.location[0],
                                                 kappa=r.location[1]))
            ev = np.linalg.eigvals(companion_stack(L.damping_total, L.stiffness_total))
            scale = max(1.0, np.abs(ev).max())
            assert np.sum(np.abs(ev - r.eigenvalue) <= 1e-6 * scale) >= 2

    def test_chain_matches_closed_form(self, model1):
        pert = PerturbationSet(D=zeros2(), K=FIG_K, nu=0.2)
        kap0, om0 = ep_location(FIG_K, 1.0, 0.2)
        x, (u0, u1, lam, t), residual, inside = atlas._chain_newton(
            model1, pert, np.array([0.015, 0.17]), 1.12j,
            np.array([-0.36, -0.46]), np.array([0.36, 0.46]))
        assert inside and residual <= atlas._EP_RESIDUAL
        assert abs(x[0]) <= 1e-10 and abs(x[1] - kap0) <= 1e-10
        assert abs(lam - 1j * om0) <= 1e-10
        ref = jordan_chain(FIG_K, 1.0, 0.2)
        norm0 = np.linalg.norm(u0)
        assert abs(abs(np.vdot(u0 / norm0, ref.u0)) - 1.0) <= 1e-10
        # associated vector u1 / t, scaled with u0 to a unit eigenvector;
        # L'(l) = 2 i omega0 at Omega = 0, the chain sign sigma = 1
        assoc = u1 / t / norm0
        M = -om0 ** 2 * np.eye(2) + np.eye(2) + kap0 * FIG_K + 0.2 * J2
        chain_residual = np.linalg.norm(M @ assoc + 2j * om0 * u0 / norm0)
        scale = np.linalg.norm(np.eye(2) + kap0 * FIG_K + 0.2 * J2)
        assert chain_residual <= 1e-8 * scale * (1.0 + np.linalg.norm(assoc))


class TestChartAgainstCriterionB:
    def test_disagreement_shrinks_with_scale(self, model1):
        md_dir = dict(delta=0.3, nu=0.1)
        md = modal_data(FIG_D, FIG_K, 1.0)
        fractions = []
        for eps in (0.1, 0.05, 0.01, 0.005):
            ax = np.linspace(-2 * eps, 2 * eps, 31)
            pert = PerturbationSet(D=FIG_D, K=FIG_K,
                                   delta=md_dir["delta"] * eps,
                                   nu=md_dir["nu"] * eps)
            chart = sweep2d(model1, pert, ("Omega", "kappa"), (ax, ax))
            stable_chart = chart.class_codes == CLASS_NAMES.index(
                "asymptotically_stable")
            mismatch = 0
            for i, Om in enumerate(ax):
                for j, ka in enumerate(ax):
                    B = criterion_B(md, FIG_D, FIG_K, Om, ka,
                                    pert.delta, pert.nu)
                    pred = (pert.delta * md.trD > 0) and (B > 0)
                    mismatch += int(pred != stable_chart[i, j])
            fractions.append(mismatch / ax.size ** 2)
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] < 0.05


class TestBatchEigenvalues:
    def test_matches_scalar_path(self, model1):
        pert = PerturbationSet(D=FIG_D, K=FIG_K, delta=0.2, nu=0.05)
        pts = np.array([[0.1, 0.05], [-0.3, 0.15], [0.0, 0.0]])
        eigs, resid = eigenvalues_at_points(model1, pert, ("Omega", "kappa"), pts)
        assert resid.max() < 1e-12
        for row, (Om, ka) in zip(eigs, pts):
            s = solve_qep(build_pencil(model1, pert.replace(Omega=Om, kappa=ka)),
                          want_vectors=False)
            assert np.allclose(np.sort_complex(row),
                               np.sort_complex(s.eigenvalues), atol=1e-10)


class TestOnePath:
    """solve_qep, classify and the batched path share one solve and one gate."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_single_point_callers_bitwise(self, n):
        rng = np.random.default_rng(1)
        model = RotorModel.string(n)
        size = 2 * n
        for _ in range(40):
            D, K = rng.normal(size=(2, size, size))
            pert = PerturbationSet(
                D=0.5 * (D + D.T), K=0.5 * (K + K.T),
                delta=rng.uniform(0.0, 0.4), kappa=rng.uniform(-0.4, 0.4),
                nu=rng.uniform(-0.3, 0.3), Omega=rng.uniform(-0.6, 0.6))
            eigs = eigenvalues_at_points(model, pert, ("Omega", "kappa"),
                                         np.array([[pert.Omega, pert.kappa]]))[0][0]
            s = solve_qep(build_pencil(model, pert))
            assert s.eigenvalues.tobytes() == eigs.tobytes()
            assert classify(model, pert).max_re == eigs.real.max()

    def test_overflow_same_error_every_caller(self, model1):
        # the overflowing node of test_cell_failure_recorded_and_sweep_continues
        pert = PerturbationSet(D=zeros2(), K=zeros2(), Omega=1e160)
        with pytest.raises(OverflowRescaleError) as from_classify:
            classify(model1, pert)
        with np.errstate(over="ignore", invalid="ignore"):
            C, S = pencil_coefficients(model1, pert, np.float64(1e160), 0.0, 0.0, 0.0)
        with pytest.raises(OverflowRescaleError) as from_solve:
            solve_qep(QuadraticPencil(damping_total=C, stiffness_total=S))
        with pytest.raises(OverflowRescaleError) as from_poly:
            roots_batch(np.array([[1.0, np.inf, 0.0]]))
        assert str(from_classify.value) == str(from_solve.value) \
            == str(from_poly.value)
        # a monodromy matrix that overflows, and a finite one whose
        # Liouville determinant exp(-delta trD T) overflows
        for D, delta, finite in ((FIG_D, 1e160, False), (np.eye(2), -46.0, True)):
            ps = PeriodicSystem(model1, PerturbationSet(D=D, K=FIG_K, delta=delta,
                                                        Omega=0.4))
            assert np.isfinite(_integrate_monodromy(ps, 256)).all() == finite
            with pytest.raises(OverflowRescaleError) as from_floquet:
                monodromy(ps, steps=256)
            assert str(from_floquet.value) == str(from_solve.value)
        assert "rescale the pencil" in str(from_solve.value)
