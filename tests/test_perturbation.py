import math

import numpy as np
import pytest

from conftest import FIG_D, FIG_K, pairing_distance, random_symmetric
from gyrospec.errors import (DegenerateOrientationError, NoRealBoundaryError,
                             SingularConfigurationError)
from gyrospec.model import PerturbationSet, RotorModel, build_pencil
from gyrospec.perturbation import (ModalData, approx_eigenvalues, beta0,
                                   cone_criterion, coupling_c, criterion_B,
                                   ep_location, invariant_A, jordan_chain,
                                   modal_data, omega_cr_nu,
                                   perturbation_report, umbrella_kappa,
                                   umbrella_omega, veering_hyperbola)
from gyrospec.qep import solve_qep

SQRT5 = math.sqrt(5.0)


@pytest.fixture
def fig_md():
    return modal_data(FIG_D, FIG_K, 1.0)


class TestModalData:
    def test_caption_stiffness(self, fig_md):
        assert abs(fig_md.rho1 - (3 + SQRT5) / 2) < 1e-12
        assert abs(fig_md.rho2 - (3 - SQRT5) / 2) < 1e-12
        assert fig_md.trKD == 3.0

    def test_caption_damping(self, fig_md):
        assert fig_md.mu1 == 2.0 and fig_md.mu2 == -1.0
        assert fig_md.detD == -2.0

    def test_isotropic(self):
        md = modal_data(FIG_D, np.eye(2), 1.0)
        assert md.rho1 == md.rho2 == 1.0

    def test_trace_det_consistency(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            D = random_symmetric(rng)
            K = random_symmetric(rng)
            md = modal_data(D, K, 1.0)
            assert abs(md.mu1 + md.mu2 - md.trD) < 1e-12
            assert abs(md.mu1 * md.mu2 - md.detD) < 1e-12
            assert abs(md.rho1 + md.rho2 - md.trK) < 1e-12
            assert abs(md.rho1 * md.rho2 - md.detK) < 1e-12
            assert md.mu1 >= md.mu2 and md.rho1 >= md.rho2

    def test_refuses_larger_blocks(self):
        with pytest.raises(NotImplementedError):
            modal_data(np.eye(4), np.eye(4), 1.0)


class TestCouplingC:
    def test_fig1b(self, fig_md):
        c = coupling_c(fig_md, 0.0, 0.3, 0.2, 0.0)
        assert abs(c - (0.038125 - 0.0225j)) < 1e-15

    def test_gyroscopic_only(self, fig_md):
        assert abs(coupling_c(fig_md, 0.4, 0.0, 0.0, 0.0) + 0.16) < 1e-15

    def test_circulatory_only(self, fig_md):
        assert abs(coupling_c(fig_md, 0.0, 0.0, 0.0, 0.2) - 0.01) < 1e-15


class TestApproxEigenvalues:
    def test_static_detuning_vertex(self, fig_md):
        lam = approx_eigenvalues(fig_md, 0.0, 0.0, 0.2, 0.0)
        assert all(abs(v.real) < 1e-15 for v in lam)
        ims = sorted(abs(v.imag) for v in lam)
        assert abs(ims[0] - (1 + 0.15 - 0.2 * SQRT5 / 4)) < 1e-12
        assert abs(ims[-1] - (1 + 0.15 + 0.2 * SQRT5 / 4)) < 1e-12

    def test_fig1b_growth(self, fig_md):
        lam = approx_eigenvalues(fig_md, 0.0, 0.3, 0.2, 0.0)
        assert abs(max(v.real for v in lam) - (-0.075 + 0.2029705)) < 1e-6
        assert abs(min(v.real for v in lam) - (-0.075 - 0.2029705)) < 1e-6

    def test_reduces_to_mesh(self, fig_md):
        lam = approx_eigenvalues(fig_md, 0.3, 0.0, 0.0, 0.0)
        assert pairing_distance(lam, [1.3j, 0.7j, -1.3j, -0.7j]) < 1e-12

    def test_conjugation_closure(self, fig_md):
        rng = np.random.default_rng(4)
        for _ in range(50):
            lam = approx_eigenvalues(fig_md, *rng.uniform(-0.4, 0.4, 4))
            assert pairing_distance(lam, np.conj(lam)) < 1e-14


class TestVeering:
    def test_vertex(self, fig_md):
        hi, lo = veering_hyperbola(fig_md, 0.2, 0.0)
        assert abs(hi - 1.15 - SQRT5 * 0.2 / 4) < 1e-12
        assert abs(lo - 1.15 + SQRT5 * 0.2 / 4) < 1e-12

    def test_unperturbed_crossing(self, fig_md):
        hi, lo = veering_hyperbola(fig_md, 0.0, 0.25)
        assert abs(hi - 1.25) < 1e-15 and abs(lo - 0.75) < 1e-15

    def test_asymptotes(self, fig_md):
        hi, lo = veering_hyperbola(fig_md, 0.2, 50.0)
        mid = 1 + 3 * 0.2 / 4
        assert abs(hi - (mid + 50.0)) < 1e-3
        assert abs(lo - (mid - 50.0)) < 1e-3


class TestInvariantA:
    def test_caption_value(self):
        assert invariant_A(FIG_D, FIG_K) == -1.0

    def test_definite_damping(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            K = random_symmetric(rng)
            md = modal_data(np.eye(2), K, 1.0)
            assert abs(invariant_A(np.eye(2), K) - (md.rho1 - md.rho2) ** 2) < 1e-10

    def test_proportional_case(self):
        A = invariant_A(FIG_D, FIG_D)
        md = modal_data(FIG_D, FIG_D, 1.0)
        assert abs(A - md.detD * (md.mu1 - md.mu2) ** 2) < 1e-12

    def test_forms_agree_randomly(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            D = random_symmetric(rng)
            K = random_symmetric(rng)
            invariant_A(D, K)  # raises on disagreement


class TestBeta0:
    def test_caption_value(self):
        assert abs(beta0(FIG_D, FIG_K) - 3 / (4 * SQRT5)) < 1e-14

    def test_proportional_damping_vanishes(self):
        assert beta0(2.5 * np.eye(2), FIG_K) == 0.0

    def test_diagonal_cancellation(self):
        assert beta0(np.diag([0.7, 0.7]), np.diag([3.0, 1.0])) == 0.0

    def test_isotropic_rejected(self):
        with pytest.raises(SingularConfigurationError):
            beta0(FIG_D, np.eye(2))


class TestConeCriterion:
    def test_fig1b_flutter(self, fig_md):
        assert not cone_criterion(fig_md, -1.0, 0.0, 0.2, 0.3)

    def test_definite_damping_stable(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            W = rng.uniform(-1, 1, (2, 2))
            D = W @ W.T + 0.1 * np.eye(2)
            K = random_symmetric(rng)
            md = modal_data(D, K, 1.0)
            A = invariant_A(D, K)
            Omega, kappa = rng.uniform(-0.8, 0.8, 2)
            assert cone_criterion(md, A, Omega, kappa, rng.uniform(0.01, 0.5))

    def test_wrong_damping_sign(self, fig_md):
        assert not cone_criterion(fig_md, -1.0, 0.5, 0.4, -0.2)


class TestCriterionB:
    def test_reduces_to_cone_quadratic(self, fig_md):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            D = random_symmetric(rng)
            K = random_symmetric(rng)
            md = modal_data(D, K, 1.0)
            A = invariant_A(D, K)
            Omega, kappa = rng.uniform(-1, 1, 2)
            delta = rng.uniform(-0.6, 0.6)
            B = criterion_B(md, D, K, Omega, kappa, delta, 0.0)
            lhs = kappa ** 2 * A + Omega ** 2 * (2 * md.omega1 * md.trD) ** 2
            rhs = -md.detD * (md.omega1 * md.trD) ** 2 * delta ** 2
            if abs(delta * md.trD) > 1e-3 and abs(lhs - rhs) > 1e-9:
                assert (B > 0) == (lhs > rhs)

    def test_zero_at_omega_cr(self, fig_md):
        delta, nu = 0.3, 0.1
        target = omega_cr_nu(FIG_D, 1.0, delta, nu)
        lo, hi = 0.0, 2 * target
        blo = criterion_B(fig_md, FIG_D, FIG_K, lo, 0.0, delta, nu)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            bm = criterion_B(fig_md, FIG_D, FIG_K, mid, 0.0, delta, nu)
            if (bm > 0) == (blo > 0):
                lo, blo = mid, bm
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - target) < 1e-8

    def test_vanishes_toward_ep(self, fig_md):
        kap0, _ = ep_location(FIG_K, 1.0, 0.2)
        values = [abs(criterion_B(fig_md, FIG_D, FIG_K, 0.0, kap0, d, 0.2))
                  for d in (1e-2, 1e-3, 1e-4)]
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-6


class TestOmegaCrNu:
    def test_nu_zero_positive(self):
        # detD < 0 keeps the radicand positive for nu = 0
        val = omega_cr_nu(FIG_D, 1.0, 0.3, 0.0)
        assert val is not None
        assert abs(val - 0.3 * math.sqrt(2.0) / 2) < 1e-12

    def test_zero_numerator(self):
        D = np.diag([1.0, 2.0])
        nu = math.sqrt(1.0 ** 2 * 0.2 ** 2 * 2.0)
        val = omega_cr_nu(D, 1.0, 0.2, nu)
        assert val is not None and abs(val) < 1e-8

    def test_pole_undefined(self):
        D = np.diag([1.0, 2.0])
        nu = 1.0 * 0.2 * 1.5  # exactly omega1 delta trD/2
        assert omega_cr_nu(D, 1.0, 0.2, nu) is None


class TestEpLocation:
    def test_caption_values(self):
        kap0, om0 = ep_location(FIG_K, 1.0, 0.2)
        assert abs(kap0 - 0.4 / SQRT5) < 1e-14
        assert abs(om0 - math.sqrt(1 + 0.6 / SQRT5)) < 1e-14

    def test_nu_zero_diabolical(self):
        kap0, om0 = ep_location(FIG_K, 1.0, 0.0)
        assert kap0 == 0.0 and om0 == 1.0

    def test_shapiro_shape(self):
        kap0, _ = ep_location(np.diag([-1.0, 1.0]), 1.0, 0.07)
        assert abs(kap0 - 0.07) < 1e-15

    def test_singular_and_regime_errors(self):
        with pytest.raises(SingularConfigurationError):
            ep_location(np.eye(2), 1.0, 0.2)
        with pytest.raises(SingularConfigurationError):
            ep_location(np.diag([3.0, 1.0]), 1.0, -0.6)


class TestJordanChain:
    def test_caption_chain(self):
        jc = jordan_chain(FIG_K, 1.0, 0.2)
        direction = np.array([-1.0, 2 + SQRT5])
        cosang = abs(np.vdot(jc.u0, direction)) / (
            np.linalg.norm(jc.u0) * np.linalg.norm(direction))
        assert 1 - cosang < 1e-12
        assert jc.residual0 < 1e-12
        assert jc.residual1 < 1e-12
        # dropping the circulatory term cannot close the chain
        assert jc.residual1_nu_free > 0.1

    def test_residuals_against_full_pencil(self):
        model = RotorModel((1.0,))
        rng = np.random.default_rng(15)
        for _ in range(50):
            K = random_symmetric(rng)
            md = modal_data(np.zeros((2, 2)), K, 1.0)
            if md.rho1 - md.rho2 < 0.2:
                continue
            nu = rng.uniform(0.05, 0.3) * rng.choice([-1.0, 1.0])
            try:
                kap0, om0 = ep_location(K, 1.0, nu)
            except SingularConfigurationError:
                continue
            jc = jordan_chain(K, 1.0, nu)
            pen = build_pencil(model, PerturbationSet(
                D=np.zeros((2, 2)), K=K, kappa=kap0, nu=nu))
            L0 = pen(jc.lambda0)
            assert np.linalg.norm(L0 @ jc.u0) < 1e-10
            assert np.linalg.norm(L0 @ jc.u1 + 2 * jc.lambda0 * jc.sigma * jc.u0) < 1e-9

    def test_diagonal_shape(self):
        K = np.diag([2.0, 1.0])
        jc = jordan_chain(K, 1.0, 0.1)
        direction = np.array([1.0, 1.0])  # (k11-k22, rho1-rho2)
        cosang = abs(np.vdot(jc.u0, direction)) / (
            np.linalg.norm(jc.u0) * np.linalg.norm(direction))
        assert 1 - cosang < 1e-12

    def test_degenerate_direction_fallback(self):
        # k11 = k22 with negative k12 nulls (k11-k22, 2k12+gap); the
        # parallel row direction must take over
        K = np.array([[1.0, -1.0], [-1.0, 1.0]])
        jc = jordan_chain(K, 2.0, 0.1)
        assert jc.residual0 < 1e-12 and jc.residual1 < 1e-12

    def test_nu_zero_divergence_reported(self):
        with pytest.raises(SingularConfigurationError):
            jordan_chain(FIG_K, 1.0, 0.0)

    def test_u1_norm_grows_as_inverse_nu(self):
        norms = [np.linalg.norm(jordan_chain(FIG_K, 1.0, nu).u1)
                 for nu in (0.1, 0.01, 0.001)]
        assert norms[1] / norms[0] > 8
        assert norms[2] / norms[1] > 8


class TestUmbrella:
    def test_slopes_coincide_at_kappa0(self, fig_md):
        kap0, _ = ep_location(FIG_K, 1.0, 0.2)
        b0 = beta0(FIG_D, FIG_K)
        hi, lo = umbrella_omega(fig_md, FIG_D, FIG_K, kap0, 0.05, 0.2)
        assert abs(hi - b0 * 0.05) < 1e-14
        assert abs(lo - b0 * 0.05) < 1e-14

    def test_slopes_at_twice_kappa0(self, fig_md):
        kap0, _ = ep_location(FIG_K, 1.0, 0.2)
        b0 = beta0(FIG_D, FIG_K)
        trD = fig_md.trD
        hi, lo = umbrella_omega(fig_md, FIG_D, FIG_K, 2 * kap0, 1.0, 0.2)
        assert abs(hi - (2 * b0 + math.sqrt(3) * trD / 4)) < 1e-12
        assert abs(lo - (2 * b0 - math.sqrt(3) * trD / 4)) < 1e-12

    def test_traceless_damping_single_line(self):
        D = np.array([[1.0, 0.3], [0.3, -1.0]])
        md = modal_data(D, FIG_K, 1.0)
        kap0, _ = ep_location(FIG_K, 1.0, 0.2)
        b0 = beta0(D, FIG_K)
        hi, lo = umbrella_omega(md, D, FIG_K, 2 * kap0, 0.1, 0.2)
        assert abs(hi - lo) < 1e-14
        assert abs(hi - b0 * 2 * kap0 / kap0 * 0.1) < 1e-12

    def test_branch_cut_rejected(self, fig_md):
        kap0, _ = ep_location(FIG_K, 1.0, 0.2)
        with pytest.raises(NoRealBoundaryError):
            umbrella_omega(fig_md, FIG_D, FIG_K, 0.5 * kap0, 0.1, 0.2)

    def test_kappa_local_form(self, fig_md):
        kap0, _ = ep_location(FIG_K, 1.0, 0.2)
        b0 = beta0(FIG_D, FIG_K)
        exact, local = umbrella_kappa(fig_md, FIG_D, FIG_K, b0, 0.2)
        assert abs(local[0] - kap0) < 1e-14
        assert abs(min(abs(e - kap0) for e in exact)) < 1e-12
        _, local2 = umbrella_kappa(fig_md, FIG_D, FIG_K,
                                   b0 + fig_md.trD / math.sqrt(8), 0.2)
        assert abs(local2[0] - 2 * kap0) < 1e-12

    def test_exact_inverts_omega_lines(self, fig_md):
        # z8 is the algebraic inversion of z7: feeding a z7 slope back in
        # must return the same kappa on one branch
        kap0, _ = ep_location(FIG_K, 1.0, 0.2)
        for factor in (1.05, 1.2, 1.7):
            kappa = factor * kap0
            hi, lo = umbrella_omega(fig_md, FIG_D, FIG_K, kappa, 1.0, 0.2)
            for slope in (hi, lo):
                exact, _ = umbrella_kappa(fig_md, FIG_D, FIG_K, slope, 0.2)
                assert min(abs(e - kappa) for e in exact) < 1e-10

    def test_degenerate_orientation(self):
        D = np.array([[0.0, 1.0], [1.0, 0.0]])  # trD = 0 and beta0 = 0
        K = np.diag([2.0, 1.0])
        md = modal_data(D, K, 1.0)
        with pytest.raises(DegenerateOrientationError):
            umbrella_kappa(md, D, K, 0.3, 0.1)


class TestFirstOrderValidity:
    def test_error_order_in_scale(self, fig_md):
        model = RotorModel((1.0,))
        dists = []
        ts = (1.0, 0.5, 0.25, 0.125)
        for t in ts:
            pert = PerturbationSet(D=FIG_D, K=FIG_K, delta=0.3 * t,
                                   kappa=0.2 * t, nu=0.1 * t, Omega=0.05 * t)
            exact = solve_qep(build_pencil(model, pert),
                              want_vectors=False).eigenvalues
            approx = approx_eigenvalues(fig_md, pert.Omega, pert.delta,
                                        pert.kappa, pert.nu)
            dists.append(pairing_distance(exact, approx))
        slope = np.polyfit(np.log(ts), np.log(dists), 1)[0]
        assert slope >= 1.9
        # the error over t must vanish faster than t itself
        assert dists[-1] / ts[-1] < 0.2 * dists[0] / ts[0]


class TestRelabelingSymmetry:
    def test_label_swap_leaves_physics(self, fig_md):
        swapped = ModalData(
            mu1=fig_md.mu2, mu2=fig_md.mu1, rho1=fig_md.rho2,
            rho2=fig_md.rho1, trD=fig_md.trD, trK=fig_md.trK,
            detD=fig_md.detD, detK=fig_md.detK, trKD=fig_md.trKD,
            omega1=fig_md.omega1)
        args = (0.15, 0.25, 0.1, 0.07)
        assert abs(coupling_c(fig_md, *args) - coupling_c(swapped, *args)) < 1e-15
        lam_a = approx_eigenvalues(fig_md, *args)
        lam_b = approx_eigenvalues(swapped, *args)
        assert pairing_distance(lam_a, lam_b) < 1e-13
        va = veering_hyperbola(fig_md, 0.2, 0.1)
        vb = veering_hyperbola(swapped, 0.2, 0.1)
        assert np.allclose(sorted(va), sorted(vb), atol=1e-14)


class TestReport:
    def test_fig1b_report(self):
        model = RotorModel((1.0,))
        pert = PerturbationSet(D=FIG_D, K=FIG_K, delta=0.3, kappa=0.2)
        rep = perturbation_report(model, pert)
        assert rep.A == -1.0
        assert abs(rep.c - (0.038125 - 0.0225j)) < 1e-15
        assert abs(rep.beta0 - 3 / (4 * SQRT5)) < 1e-14
        assert rep.kappa0 == 0.0 and rep.omega0 == 1.0  # nu = 0
        assert abs(rep.B - criterion_B(modal_data(FIG_D, FIG_K, 1.0),
                                       FIG_D, FIG_K, 0.0, 0.2, 0.3, 0.0)) < 1e-15
        expected_eps = np.linalg.norm(0.3j * FIG_D + 0.2 * FIG_K)
        assert abs(rep.epsilon - expected_eps) < 1e-12

    def test_refuses_multidoublet(self):
        model = RotorModel((1.0, 2.0))
        pert = PerturbationSet(D=np.zeros((4, 4)), K=np.zeros((4, 4)))
        with pytest.raises(NotImplementedError):
            perturbation_report(model, pert)
