"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Every tolerance is pinned here; nothing is calibrated
at run time.
"""

import math
from fractions import Fraction

import numpy as np

from conftest import FIG_D, FIG_K, pairing_distance, random_symmetric
from gyrospec.atlas import (boundary_slope_at_origin, classify, sweep2d,
                            trace_boundary)
from gyrospec.floquet import J2, PeriodicSystem, monodromy
from gyrospec.model import PerturbationSet, RotorModel, build_pencil
from gyrospec.perturbation import (approx_eigenvalues, beta0, criterion_B,
                                   ep_location, invariant_A, jordan_chain,
                                   modal_data, omega_cr_nu)
from gyrospec.qep import (charpoly_of_matrix, cluster_eigenvalues,
                          companion_stack, solve_qep)

SQRT5 = math.sqrt(5.0)
MODEL = RotorModel((1.0,))


def report(number, ok, detail):
    line = f"criterion {number:2d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_ep_certification():
    nu = 0.2
    kappa0 = 2 * nu / SQRT5
    omega0 = math.sqrt(1 + 3 * nu / SQRT5)
    pen = build_pencil(MODEL, PerturbationSet(D=np.zeros((2, 2)), K=FIG_K,
                                              kappa=kappa0, nu=nu))
    a = charpoly_of_matrix(companion_stack(pen.damping_total, pen.stiffness_total))
    disc_pair = abs(a[2] ** 2 - 4 * a[4])
    rel = disc_pair / max(a[2] ** 2, abs(4 * a[4]))
    clusters = cluster_eigenvalues(solve_qep(pen, want_vectors=False).eigenvalues)
    sizes = sorted(m for _, m, _ in clusters)
    centers = sorted((c for c, _, _ in clusters), key=lambda z: z.imag)
    root_err = max(abs(centers[0] + 1j * omega0), abs(centers[1] - 1j * omega0))
    ok = rel < 1e-10 and sizes == [2, 2] and root_err < 1e-8
    report(1, ok, f"EP quartic: |a2^2-4a0| rel {rel:.2e}, "
                  f"double roots off +-i*omega0 by {root_err:.2e}")


def test_criterion_02_invariant_A_identity():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10_000):
        D = random_symmetric(rng)
        K = random_symmetric(rng)
        detD = D[0, 0] * D[1, 1] - D[0, 1] ** 2
        gap_sq = (K[0, 0] + K[1, 1]) ** 2 - 4 * (K[0, 0] * K[1, 1] - K[0, 1] ** 2)
        cross = K[0, 1] * (D[1, 1] - D[0, 0]) - D[0, 1] * (K[1, 1] - K[0, 0])
        first = detD * gap_sq + cross ** 2
        trD = D[0, 0] + D[1, 1]
        num = 2 * np.trace(K @ D) - np.trace(K) * trD
        second = (trD ** 2 * gap_sq - num ** 2) / 4.0
        worst = max(worst, abs(first - second) / max(1.0, abs(first), abs(second)))
    # Fig. 1 caption values in exact rational arithmetic
    detD = Fraction(-1) * Fraction(2)
    gap_sq = Fraction(3) ** 2 - 4 * Fraction(1)  # trK^2 - 4 detK
    cross = Fraction(1) * (Fraction(2) - Fraction(-1))
    exact_A = detD * gap_sq + cross ** 2
    ok = worst < 1e-10 and exact_A == -1 and invariant_A(FIG_D, FIG_K) == -1.0
    report(2, ok, f"A-forms agree on 10^4 samples (worst rel {worst:.2e}); "
                  f"Fig.1 A = {invariant_A(FIG_D, FIG_K)} (exact {exact_A})")


def test_criterion_03_first_order_accuracy():
    md = modal_data(FIG_D, FIG_K, 1.0)
    ts = (1.0, 0.5, 0.25, 0.125)
    dists = []
    for t in ts:
        pert = PerturbationSet(D=FIG_D, K=FIG_K, delta=0.3 * t, kappa=0.2 * t)
        exact = solve_qep(build_pencil(MODEL, pert), want_vectors=False).eigenvalues
        approx = approx_eigenvalues(md, 0.0, 0.3 * t, 0.2 * t, 0.0)
        dists.append(pairing_distance(exact, approx))
    slope = float(np.polyfit(np.log(ts), np.log(dists), 1)[0])
    ok = slope >= 1.9
    report(3, ok, f"eigenvalue error order in t: {slope:.3f} "
                  f"(distances {['%.2e' % d for d in dists]})")


def test_criterion_04_cone_morphology():
    # (a) indefinite damping with A > 0: single closed flutter contour
    D_pos = np.diag([-0.1, 2.0])
    A_pos = invariant_A(D_pos, FIG_K)
    pert = PerturbationSet(D=D_pos, K=FIG_K, delta=0.3)
    chart = sweep2d(MODEL, pert, ("Omega", "kappa"),
                    (np.linspace(-0.25, 0.25, 201), np.linspace(-0.25, 0.25, 201)))
    polys_a = trace_boundary(chart)
    closed_ok = (A_pos > 0 and np.linalg.det(D_pos) < 0
                 and len(polys_a) == 1 and polys_a[0].closed)

    # (b) Fig. 1 damping, A = -1: two branches unbounded in kappa
    pert = PerturbationSet(D=FIG_D, K=FIG_K, delta=0.3)
    chart = sweep2d(MODEL, pert, ("Omega", "kappa"),
                    (np.linspace(-0.45, 0.45, 201), np.linspace(-0.3, 0.3, 201)))
    polys_b = trace_boundary(chart)
    frame_ok = (len(polys_b) == 2
                and all(not pl.closed for pl in polys_b)
                and all(abs(abs(pl.vertices[i, 1]) - 0.3) < 1e-9
                        for pl in polys_b for i in (0, -1)))
    ok = closed_ok and frame_ok
    report(4, ok, f"A={A_pos:.2f}>0: {len(polys_a)} closed contour; "
                  f"A=-1: {len(polys_b)} frame-terminating branches")


def test_criterion_05_umbrella_slopes():
    nu = 0.2
    kappa0, _ = ep_location(FIG_K, 1.0, nu)
    b0 = beta0(FIG_D, FIG_K)
    devs = []
    for offset in (1.1, 1.01, 1.001):
        pert = PerturbationSet(D=FIG_D, K=FIG_K, kappa=offset * kappa0, nu=nu)
        chart = sweep2d(MODEL, pert, ("Omega", "delta"),
                        (np.linspace(0.0, 0.012, 401),
                         np.linspace(1e-4, 0.02, 201)))
        lo, hi = boundary_slope_at_origin(chart)
        devs.append(max(abs(lo - b0), abs(hi - b0)))
    ok = devs[0] > devs[1] > devs[2] and devs[2] < 1e-2
    report(5, ok, f"slope deviations from beta0={b0:.5f} at offsets "
                  f"1.1/1.01/1.001: {devs[0]:.4f}/{devs[1]:.4f}/{devs[2]:.4f}")


def test_criterion_06_B_reductions():
    rng = np.random.default_rng(1234)
    mismatches = 0
    for _ in range(10_000):
        D = random_symmetric(rng)
        K = random_symmetric(rng)
        md = modal_data(D, K, 1.0)
        A = invariant_A(D, K)
        Omega, kappa = rng.uniform(-1, 1, 2)
        delta = rng.uniform(-0.6, 0.6)
        B = criterion_B(md, D, K, Omega, kappa, delta, 0.0)
        lhs = kappa ** 2 * A + Omega ** 2 * (2 * md.omega1 * md.trD) ** 2
        rhs = -md.detD * (md.omega1 * md.trD) ** 2 * delta ** 2
        if (B > 0) != (lhs > rhs):
            mismatches += 1

    delta, nu = 0.3, 0.1
    md = modal_data(FIG_D, FIG_K, 1.0)
    target = omega_cr_nu(FIG_D, 1.0, delta, nu)
    lo, hi = 0.0, 2 * target
    blo = criterion_B(md, FIG_D, FIG_K, lo, 0.0, delta, nu)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        bm = criterion_B(md, FIG_D, FIG_K, mid, 0.0, delta, nu)
        if (bm > 0) == (blo > 0):
            lo, blo = mid, bm
        else:
            hi = mid
    bisect_err = abs(0.5 * (lo + hi) - target)
    ok = mismatches == 0 and bisect_err < 1e-8
    report(6, ok, f"sign(B) vs cone inequality: {mismatches} mismatches "
                  f"of 10^4; kappa=0 sign change off Omega_cr by {bisect_err:.2e}")


def test_criterion_07_krein_subcritical_marginality():
    rng = np.random.default_rng(77)
    worst = -np.inf
    for _ in range(1000):
        K = random_symmetric(rng, scale=1.0)
        pert = PerturbationSet(D=np.zeros((2, 2)), K=K,
                               kappa=rng.uniform(-0.09, 0.09),
                               Omega=rng.uniform(-0.9, 0.9))
        s = solve_qep(build_pencil(MODEL, pert), want_vectors=False)
        worst = max(worst, float(s.eigenvalues.real.max()))
    ok = worst < 1e-8
    report(7, ok, f"potential perturbations keep subcritical marginality: "
                  f"max Re lambda = {worst:.2e} over 10^3 draws")


def test_criterion_08_thomson_tait_chetaev():
    rng = np.random.default_rng(88)
    all_stable = True
    for _ in range(1000):
        W = rng.uniform(-1, 1, (2, 2))
        D = W @ W.T + 0.1 * np.eye(2)
        pert = PerturbationSet(D=D, K=np.zeros((2, 2)),
                               delta=rng.uniform(1e-3, 0.5),
                               Omega=rng.uniform(-0.9, 0.9))
        v = classify(MODEL, pert)
        if v.classification != "asymptotically_stable":
            all_stable = False
            break
    report(8, all_stable, "definite damping at subcritical speeds is "
                          "asymptotically stable on 10^3 draws")


def test_criterion_09_floquet_duality():
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(100):
        A = rng.uniform(-1, 1, (2, 2))
        D = 0.5 * (A + A.T)
        B = rng.uniform(-1, 1, (2, 2))
        K = 0.5 * (B + B.T)
        d, k, n = rng.uniform(0.2, 1.0, 3)
        eps = rng.uniform(0.05, 0.3)
        s = eps / np.linalg.norm(1j * d * D + k * K + n * J2)
        Omega = rng.uniform(0.05, 0.9) * rng.choice([-1.0, 1.0])
        ps = PeriodicSystem(MODEL, PerturbationSet(
            D=D, K=K, delta=d * s, kappa=k * s, nu=n * s, Omega=Omega))
        worst = max(worst, monodromy(ps, steps=4096).match_error)

    ps = PeriodicSystem(MODEL, PerturbationSet(
        D=FIG_D, K=FIG_K, delta=0.2, kappa=0.15, nu=0.1, Omega=0.37))
    errors = [monodromy(ps, steps=s).match_error for s in (256, 512, 1024)]
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    ok = worst < 1e-6 and all(3.3 < o < 4.7 for o in orders)
    report(9, ok, f"duality match error {worst:.2e} over 100 draws; "
                  f"step-halving orders {['%.2f' % o for o in orders]}")


def test_criterion_10_qep_oracle_equivalence():
    rng = np.random.default_rng(1010)
    worst_pair = 0.0
    worst_resid = 0.0
    for n in (1, 2):
        for _ in range(500):
            size = 2 * n
            omegas = tuple(np.cumsum(rng.uniform(0.5, 1.5, n)))
            model = RotorModel(omegas)
            D = rng.uniform(-1, 1, (size, size))
            K = rng.uniform(-1, 1, (size, size))
            N = rng.uniform(-1, 1, (size, size))
            pert = PerturbationSet(
                D=0.5 * (D + D.T), K=0.5 * (K + K.T), N=0.5 * (N - N.T),
                delta=rng.uniform(-0.5, 0.5), kappa=rng.uniform(-0.5, 0.5),
                nu=rng.uniform(-0.5, 0.5), Omega=rng.uniform(-1, 1))
            pen = build_pencil(model, pert)
            s = solve_qep(pen, want_vectors=False)
            oracle = np.linalg.eigvals(
                companion_stack(pen.damping_total, pen.stiffness_total))
            worst_pair = max(worst_pair, pairing_distance(s.eigenvalues, oracle))
            worst_resid = max(worst_resid, float(s.poly_residuals.max()))
    ok = worst_pair < 1e-8 and worst_resid < 1e-12
    report(10, ok, f"solver vs companion-QR oracle: worst pairing "
                   f"{worst_pair:.2e}, worst root residual {worst_resid:.2e}")


def test_criterion_11_jordan_chains_at_both_eps():
    nu = 0.2
    worst_res = 0.0
    worst_align = 0.0
    for Keff, sign in ((FIG_K, +1), (-FIG_K, -1)):
        kap0, om0 = ep_location(Keff, 1.0, nu)
        jc = jordan_chain(Keff, 1.0, nu)
        pen = build_pencil(MODEL, PerturbationSet(
            D=np.zeros((2, 2)), K=Keff, kappa=kap0, nu=nu))
        L0 = pen(1j * om0)
        scale = np.linalg.norm(pen.stiffness_total)
        res0 = np.linalg.norm(L0 @ jc.u0) / scale
        res1 = np.linalg.norm(L0 @ jc.u1 + 2j * om0 * jc.sigma * jc.u0) \
            / (scale * (1 + np.linalg.norm(jc.u1)))
        worst_res = max(worst_res, res0, res1)
        md = modal_data(np.zeros((2, 2)), Keff, 1.0)
        direction = np.array([Keff[0, 0] - Keff[1, 1],
                              2 * Keff[0, 1] + md.rho1 - md.rho2])
        cosang = abs(np.vdot(jc.u0, direction)) / (
            np.linalg.norm(jc.u0) * np.linalg.norm(direction))
        worst_align = max(worst_align, math.sqrt(max(0.0, 1 - cosang ** 2)))
    ok = worst_res < 1e-8 and worst_align < 1e-6
    report(11, ok, f"chains at (0, +-kappa0, 0): worst residual "
                   f"{worst_res:.2e} of scale, u0 misalignment {worst_align:.2e}")
