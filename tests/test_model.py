import math

import numpy as np
import pytest

from conftest import FIG_D, FIG_K
from gyrospec.errors import ShapeError, StationaryWaveError, SymmetryError
from gyrospec.model import (J2, PerturbationSet, RotorModel, build_pencil,
                            classify_wave, critical_speed, mesh_spectrum)


def zeros2():
    return np.zeros((2, 2))


class TestRotorModel:
    def test_derived_matrices(self):
        m = RotorModel((1.0, 2.5))
        assert np.array_equal(m.P, np.diag([1.0, 1.0, 6.25, 6.25]))
        G = m.G
        assert np.array_equal(G[:2, :2], J2)
        assert np.array_equal(G[2:, 2:], 2 * J2)
        assert np.array_equal(G, -G.T)
        assert np.allclose(G @ G, m.G2)
        assert np.array_equal(m.G2, np.diag([-1.0, -1.0, -4.0, -4.0]))

    def test_string_preset(self):
        m = RotorModel.string(3)
        assert m.omegas == (1.0, 2.0, 3.0)

    def test_rejects_bad_frequencies(self):
        with pytest.raises(ShapeError):
            RotorModel((1.0, 1.0))
        with pytest.raises(ShapeError):
            RotorModel((-1.0,))
        with pytest.raises(ShapeError):
            RotorModel(())

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_frequencies(self, bad):
        with pytest.raises(ShapeError, match="finite"):
            RotorModel((bad,))
        with pytest.raises(ShapeError, match="finite"):
            RotorModel((1.0, bad))

    def test_immutable(self):
        m = RotorModel((1.0,))
        with pytest.raises(ValueError):
            m.P[0, 0] = 5.0


class TestPerturbationSet:
    def test_default_N_is_J(self):
        p = PerturbationSet(D=zeros2(), K=zeros2())
        assert np.array_equal(p.N, J2)

    def test_symmetrizes_exactly(self):
        D = FIG_D + 1e-14 * np.array([[0.0, 1.0], [-1.0, 0.0]])
        p = PerturbationSet(D=D, K=FIG_K)
        assert np.array_equal(p.D, p.D.T)
        assert np.array_equal(p.N, -p.N.T)

    def test_rejects_asymmetry(self):
        with pytest.raises(SymmetryError):
            PerturbationSet(D=np.array([[0.0, 1.0], [0.0, 0.0]]), K=zeros2())
        with pytest.raises(SymmetryError):
            PerturbationSet(D=zeros2(), K=zeros2(), N=np.eye(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("gain", ["delta", "kappa", "nu", "Omega"])
    def test_rejects_non_finite_gain(self, gain, bad):
        with pytest.raises(ShapeError, match=gain):
            PerturbationSet(D=FIG_D, K=FIG_K, **{gain: bad})
        with pytest.raises(ShapeError, match=gain):
            PerturbationSet(D=FIG_D, K=FIG_K).replace(**{gain: bad})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["D", "K", "N"])
    def test_rejects_non_finite_entry(self, name, bad):
        # a NaN entry would pass the symmetry gate: nan > tol is false
        mats = {"D": FIG_D.copy(), "K": FIG_K.copy(), "N": J2.copy()}
        mats[name][1, 1] = bad
        with pytest.raises(ShapeError, match=name):
            PerturbationSet(**mats)

    def test_replace_shares_matrices(self):
        p = PerturbationSet(D=FIG_D, K=FIG_K, delta=0.1)
        q = p.replace(Omega=0.5)
        assert q.delta == 0.1 and q.Omega == 0.5
        assert np.array_equal(q.D, p.D)


class TestBuildPencil:
    def test_unperturbed_at_rest(self):
        m = RotorModel((1.0,))
        pen = build_pencil(m, PerturbationSet(D=zeros2(), K=zeros2()))
        assert np.array_equal(pen.damping_total, zeros2())
        assert np.array_equal(pen.stiffness_total, np.eye(2))

    def test_gyroscopic_terms(self):
        # 2 Omega G = J and P + Omega^2 G^2 = 0.75 I at Omega = 1/2
        m = RotorModel((1.0,))
        pen = build_pencil(m, PerturbationSet(D=zeros2(), K=zeros2(), Omega=0.5))
        assert np.array_equal(pen.damping_total, np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert np.array_equal(pen.stiffness_total, 0.75 * np.eye(2))

    def test_caption_arithmetic(self):
        m = RotorModel((1.0,))
        pen = build_pencil(m, PerturbationSet(D=FIG_D, K=FIG_K,
                                              delta=0.3, kappa=0.2))
        assert np.allclose(pen.stiffness_total,
                           [[1.2, 0.2], [0.2, 1.4]], atol=1e-15)
        assert np.allclose(pen.damping_total, np.diag([-0.3, 0.6]), atol=1e-15)

    def test_dimension_mismatch(self):
        m = RotorModel((1.0, 2.0))
        with pytest.raises(ShapeError):
            build_pencil(m, PerturbationSet(D=zeros2(), K=zeros2()))


class TestMeshSpectrum:
    def test_at_rest_doublet(self):
        m = RotorModel((1.0,))
        values = sorted((e.value for e in mesh_spectrum(m, 0.0)),
                        key=lambda z: z.imag)
        assert values == [-1j, -1j, 1j, 1j]

    def test_split_branches(self):
        m = RotorModel((1.0,))
        values = {(e.branch, e.conj): e.value for e in mesh_spectrum(m, 0.3)}
        assert values[("+", False)] == 1.3j
        assert values[("-", False)] == 0.7j
        assert values[("+", True)] == -1.3j
        assert values[("-", True)] == -0.7j

    def test_critical_speed_zero(self):
        m = RotorModel((1.0,))
        zeros = [e for e in mesh_spectrum(m, 1.0) if e.value == 0]
        assert len(zeros) == 2

    def test_mesh_values_are_pencil_roots(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            omegas = np.cumsum(rng.uniform(0.5, 2.0, n))
            m = RotorModel(tuple(omegas))
            Omega = rng.uniform(-1.5, 1.5)
            size = 2 * n
            pen = build_pencil(
                m, PerturbationSet(D=np.zeros((size, size)),
                                   K=np.zeros((size, size)), Omega=Omega))
            for e in mesh_spectrum(m, Omega):
                lam = e.value
                assert abs(np.linalg.det(pen(lam))) < 1e-10 * (1 + abs(lam)) ** (4 * n)

    def test_conjugate_and_reflection_closure(self):
        m = RotorModel((1.0, 1.7))
        values = [e.value for e in mesh_spectrum(m, 0.4)]
        for v in values:
            assert any(abs(v.conjugate() - w) < 1e-15 for w in values)
            assert any(abs(-v - w) < 1e-15 for w in values)


class TestCriticalSpeed:
    def test_single_doublet(self):
        assert critical_speed(RotorModel((1.0,))) == 1.0
        assert critical_speed(RotorModel((2.5,))) == 2.5

    def test_minimum_over_doublets(self):
        assert critical_speed(RotorModel((1.0, 1.5))) == 0.75


class TestClassifyWave:
    def test_labels(self):
        m = RotorModel((1.0,))
        assert classify_wave(1, "-", 0.5, m) == "backward"
        assert classify_wave(1, "-", 1.2, m) == "reflected"
        assert classify_wave(1, "+", 7.0, m) == "forward"

    def test_stationary_boundary(self):
        m = RotorModel((1.0,))
        with pytest.raises(StationaryWaveError):
            classify_wave(1, "-", 1.0, m)

    def test_bad_index(self):
        m = RotorModel((1.0,))
        with pytest.raises(ShapeError):
            classify_wave(2, "-", 0.5, m)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            omegas = tuple(np.cumsum(rng.uniform(0.5, 2.0, 2)))
            m = RotorModel(omegas)
            Omega = rng.uniform(0.0, 2.0)
            c = rng.uniform(0.1, 10.0)
            mc = RotorModel(tuple(c * w for w in omegas))
            for s in (1, 2):
                try:
                    a = classify_wave(s, "-", Omega, m)
                except StationaryWaveError:
                    continue
                assert a == classify_wave(s, "-", c * Omega, mc)
