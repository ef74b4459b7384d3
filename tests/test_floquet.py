import math

import numpy as np
import pytest

from conftest import FIG_D, FIG_K, pairing_distance
from gyrospec import floquet
from gyrospec.errors import InfinitePeriodError, ResolutionError
from gyrospec.floquet import (FloquetResult, PeriodicSystem,
                              _integrate_monodromy, _system_matrix_grid,
                              best_pairing, monodromy, rotating_frame)
from gyrospec.model import J2, PerturbationSet, RotorModel

def loop_monodromy(ps, steps):
    """Reference: classical RK4 on the 4x4 fundamental matrix, step by step."""
    h = ps.period / steps
    A = _system_matrix_grid(ps, 0.5 * h * np.arange(2 * steps + 1))
    Y = np.eye(4)
    for k in range(steps):
        A1, A2, A4 = A[2 * k], A[2 * k + 1], A[2 * k + 2]
        K1 = A1 @ Y
        K2 = A2 @ (Y + 0.5 * h * K1)
        K3 = A2 @ (Y + 0.5 * h * K2)
        K4 = A4 @ (Y + h * K3)
        Y = Y + (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)
    return Y


def zeros2():
    return np.zeros((2, 2))


def system(model, **gains):
    defaults = dict(D=FIG_D, K=FIG_K)
    defaults.update(gains)
    return PeriodicSystem(model, PerturbationSet(**defaults))


class TestPeriodicSystem:
    def test_period(self, model1):
        ps = system(model1, Omega=0.5)
        assert ps.period == math.pi / 0.5

    def test_rejects_zero_speed(self, model1):
        with pytest.raises(InfinitePeriodError):
            system(model1, Omega=0.0)

    def test_rejects_multidoublet(self):
        model = RotorModel((1.0, 2.0))
        with pytest.raises(NotImplementedError):
            PeriodicSystem(model, PerturbationSet(D=np.zeros((4, 4)),
                                                  K=np.zeros((4, 4)), Omega=0.3))


class TestPeriodicMatrices:
    def test_identity_at_t0(self, model1):
        ps = system(model1, delta=0.3, kappa=0.2, Omega=0.5)
        Dt, Kt, _ = rotating_frame(ps, 0.0)
        assert np.allclose(Dt, FIG_D, atol=1e-15)
        assert np.allclose(Kt, FIG_K, atol=1e-15)

    def test_quarter_period_flip(self, model1):
        Omega = 0.5
        ps = system(model1, delta=0.3, kappa=0.2, Omega=Omega)
        _, Kt, _ = rotating_frame(ps, math.pi / (2 * Omega))
        expected = 0.5 * (np.diag([3.0, 3.0]) - (FIG_K + J2 @ FIG_K @ J2))
        assert np.allclose(Kt, expected, atol=1e-12)

    def test_isotropic_shape_constant(self, model1):
        ps = system(model1, K=2.5 * np.eye(2), kappa=0.1, Omega=0.4)
        for t in (0.0, 0.3, 1.1):
            _, Kt, _ = rotating_frame(ps, t)
            assert np.allclose(Kt, 2.5 * np.eye(2), atol=1e-14)

    def test_matches_rotation_similarity(self, model1):
        rng = np.random.default_rng(8)
        Omega = 0.37
        ps = system(model1, delta=0.2, kappa=0.1, Omega=Omega)
        for t in rng.uniform(0, 10, 10):
            R = np.array([[math.cos(Omega * t), math.sin(Omega * t)],
                          [-math.sin(Omega * t), math.cos(Omega * t)]])
            Dt, Kt, _ = rotating_frame(ps, t)
            assert np.allclose(Dt, R.T @ FIG_D @ R, atol=1e-12)
            assert np.allclose(Kt, R.T @ FIG_K @ R, atol=1e-12)

    def test_periodicity(self, model1):
        ps = system(model1, delta=0.3, kappa=0.2, Omega=0.45)
        T = ps.period
        for t in (0.1, 0.8):
            a = rotating_frame(ps, t)
            b = rotating_frame(ps, t + T)
            for Ma, Mb in zip(a, b):
                assert np.allclose(Ma, Mb, atol=1e-12)

    def test_coupling_term(self, model1):
        ps = system(model1, delta=0.3, Omega=0.5)
        Dt, _, coupling = rotating_frame(ps, 0.7)
        assert np.allclose(coupling, -0.3 * 0.5 * Dt @ J2, atol=1e-14)


class TestMonodromy:
    def test_unperturbed_duality(self, model1):
        ps = system(model1, D=zeros2(), K=zeros2(), Omega=0.37)
        r = monodromy(ps, steps=2048)
        # the unsplit doublet gives double multipliers; the individual
        # roots carry the cluster-extraction error, their centers do not
        from gyrospec.qep import cluster_eigenvalues
        clusters = cluster_eigenvalues(r.multipliers)
        assert sorted(m for _, m, _ in clusters) == [2, 2]
        for center, _, _ in clusters:
            assert abs(abs(center) - 1) < 5e-9
        assert r.match_error < 1e-7

    def test_unit_circle_when_hamiltonian(self, model1):
        rng = np.random.default_rng(14)
        for _ in range(5):
            A = rng.uniform(-1, 1, (2, 2))
            K = 0.5 * (A + A.T)
            Omega = rng.uniform(0.2, 0.8)
            ps = system(model1, D=zeros2(), K=K, kappa=0.08, Omega=Omega)
            r = monodromy(ps, steps=2048)
            assert np.all(np.abs(np.abs(r.multipliers) - 1) < 1e-8)

    def test_subcritical_parametric_resonance(self, model1):
        ps = system(model1, delta=0.3, kappa=0.2, Omega=0.05)
        r = monodromy(ps, steps=4096)
        assert np.abs(r.multipliers).max() > 1.0

    def test_damped_inside_unit_circle(self, model1):
        ps = system(model1, D=np.eye(2), K=zeros2(), delta=0.2, Omega=0.5)
        r = monodromy(ps, steps=2048)
        assert np.abs(r.multipliers).max() < 1.0
        assert r.match_error < 1e-9

    def test_duality_random_draws(self, model1):
        rng = np.random.default_rng(20260810)
        for _ in range(20):
            A = rng.uniform(-1, 1, (2, 2))
            D = 0.5 * (A + A.T)
            B = rng.uniform(-1, 1, (2, 2))
            K = 0.5 * (B + B.T)
            d, k, n = rng.uniform(0.2, 1.0, 3)
            eps = rng.uniform(0.05, 0.3)
            s = eps / np.linalg.norm(1j * d * D + k * K + n * J2)
            Omega = rng.uniform(0.05, 0.9) * rng.choice([-1.0, 1.0])
            ps = PeriodicSystem(model1, PerturbationSet(
                D=D, K=K, delta=d * s, kappa=k * s, nu=n * s, Omega=Omega))
            r = monodromy(ps, steps=4096)
            assert r.match_error < 1e-6

    def test_fourth_order_convergence(self, model1):
        ps = system(model1, delta=0.2, kappa=0.15, nu=0.1, Omega=0.37)
        errors = [monodromy(ps, steps=s).match_error
                  for s in (256, 512, 1024)]
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert all(3.3 < o < 4.7 for o in orders)

    def test_liouville_identity(self, model1):
        ps = system(model1, delta=0.25, kappa=0.1, nu=0.05, Omega=0.4)
        r = monodromy(ps, steps=2048)
        assert r.liouville_error < 1e-6
        T = ps.period
        assert abs(abs(np.linalg.det(r.monodromy))
                   - math.exp(-0.25 * np.trace(FIG_D) * T)) < 1e-6

    def test_liouville_underflow(self, model1, monkeypatch):
        # exp(-delta trD T) = exp(-942) underflows a double and the
        # computed det M is roundoff, below the floor: the check stands on
        # the floor, with no NaN and no numpy warning.  The relative
        # defect |det M| / exp(-942) - 1 is 1 where LAPACK returns
        # det M = 0 and inf where the ratio is beyond a double; which one
        # depends on the LAPACK build
        ps = system(model1, D=np.eye(2), delta=60.0, kappa=0.2, Omega=0.4)
        r = monodromy(ps)
        log_det = -ps.pert.delta * 2.0 * ps.period
        log_abs = float(np.linalg.slogdet(r.monodromy)[1])
        log_floor = (floquet._LOG_32EPS
                     + 4.0 * math.log1p(np.linalg.norm(r.monodromy)))
        assert log_det < -800.0 and log_abs < log_floor
        if log_abs == -math.inf:
            assert r.liouville_error == 1.0
        elif log_abs - log_det >= floquet._LOG_MAX:
            assert r.liouville_error == math.inf
        else:
            assert r.liouville_error == abs(math.expm1(log_abs - log_det))
        # a det M of 1 is far above that floor
        monkeypatch.setattr(floquet, "_integrate_monodromy",
                            lambda ps, steps: np.eye(4))
        with pytest.raises(ResolutionError, match="Liouville"):
            monodromy(ps)

    @pytest.mark.parametrize("delta", [-25.0, -40.0])
    def test_liouville_floor_finite(self, model1, monkeypatch, delta):
        # ||M|| near 1e85 and 1e136: 32 eps (1 + ||M||)^4 is beyond a
        # double, but in log space the floor stays finite, so a det M far
        # above it still fails
        ps = system(model1, D=np.diag([-1.0, 1.0]), delta=delta, kappa=0.2,
                    Omega=0.4)
        M = _integrate_monodromy(ps, 4096)
        assert 4.0 * math.log10(np.linalg.norm(M)) > 308.0
        with pytest.raises(ResolutionError, match="miss -exp"):
            monodromy(ps)
        # same norm, |det| = ||M||^4 / 16 against exp(log_det) = 1
        fake = 0.5 * np.linalg.norm(M) * np.eye(4)
        monkeypatch.setattr(floquet, "_integrate_monodromy",
                            lambda ps, steps: fake)
        with pytest.raises(ResolutionError, match="Liouville"):
            monodromy(ps)

    def test_liouville_nan_fails(self, model1, monkeypatch):
        ps = system(model1, delta=0.25, kappa=0.1, nu=0.05, Omega=0.4)
        monkeypatch.setattr(np.linalg, "slogdet", lambda M: (1.0, math.nan))
        with pytest.raises(ResolutionError, match="Liouville"):
            monodromy(ps, steps=2048)

    def test_duality_gate(self, model1):
        ps = system(model1, delta=0.2, kappa=0.15, nu=0.1, Omega=0.37)
        r = monodromy(ps, steps=1024)
        assert 0.0 < r.match_error < 1e-6
        with pytest.raises(ResolutionError, match="miss -exp"):
            monodromy(ps, steps=1024, duality_tol=1e-14)

    def test_duality_gate_relative_to_largest_multiplier(self, model1):
        # |mu| ~ 3e3 here: the match error is above 1e-6 absolute but
        # within 1e-6 of the largest multiplier
        ps = system(model1, delta=0.3, kappa=0.2, Omega=0.05)
        r = monodromy(ps, steps=4096)
        scale = np.abs(r.multipliers).max()
        assert scale > 1000 and r.match_error > 1e-6
        assert r.match_error <= 1e-6 * scale

    def test_multipliers_in_predicted_order(self, model1):
        for Omega in (0.45, -0.3, 0.05):
            ps = system(model1, delta=0.2, kappa=0.1, nu=0.05, Omega=Omega)
            r = monodromy(ps, steps=4096)
            gaps = np.abs(r.multipliers - r.predicted_multipliers)
            assert gaps.max() == r.match_error
            # no other pairing of the two lists is better
            assert best_pairing(r.predicted_multipliers,
                                r.multipliers) == (0, 1, 2, 3)

    def test_minimum_steps(self, model1):
        ps = system(model1, Omega=0.5)
        with pytest.raises(ValueError):
            monodromy(ps, steps=100)

    def test_step_halving_verification(self, model1):
        ps = system(model1, delta=0.2, kappa=0.1, Omega=0.45)
        r = monodromy(ps, steps=2048, verify_steps=True)
        assert isinstance(r, FloquetResult)
        with pytest.raises(ResolutionError):
            # grossly under-resolved long period cannot pass the check
            monodromy(system(model1, delta=0.3, kappa=0.2, nu=0.1, Omega=0.02),
                      steps=256, verify_steps=True)


class TestPairing:
    def test_pairing_distance(self):
        a = [1 + 1j, 2.0, -1j]
        b = [2.0 + 1e-9, -1j + 1e-9j, 1 + 1j]
        assert pairing_distance(a, b) < 2e-9
        assert best_pairing(a, b) == (2, 0, 1)

    def test_ties_go_to_nearest_partners(self):
        # 10 with 20 sets the worst distance whichever way 0 and 1 pair;
        # the smaller sum of distances pairs each with its neighbour
        a = [0.0, 1.0, 10.0]
        b = [1.0 + 1e-3, 1e-3, 20.0]
        assert best_pairing(a, b) == (1, 0, 2)
        assert pairing_distance(a, b) == 10.0


class TestBatchedMonodromy:
    """The product of step propagators against the step-by-step loop."""

    @pytest.mark.parametrize("Omega", [0.37, -0.37])
    @pytest.mark.parametrize("steps", [256, 257, 1000, 4095, 4096])
    def test_matches_loop(self, model1, steps, Omega):
        ps = system(model1, delta=0.2, kappa=0.15, nu=0.1, Omega=Omega)
        M = _integrate_monodromy(ps, steps)
        ref = loop_monodromy(ps, steps)
        assert np.abs(M - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_matches_loop_strongly_growing(self, model1):
        ps = system(model1, delta=0.3, kappa=0.2, Omega=0.05)
        M = _integrate_monodromy(ps, 4095)
        ref = loop_monodromy(ps, 4095)
        assert np.abs(np.linalg.eigvals(ref)).max() > 1000
        assert np.abs(M - ref).max() <= 1e-13 * np.abs(ref).max()
