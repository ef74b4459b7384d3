"""Seeded job lists of the three workloads.

A job is one gyrospec run configuration plus what the checks need to
know about it: the rotor, the shape matrices, the gains and, for charts,
the plane and the axes.  Inputs depend only on the workload name and the
seed.  This module uses the standard library only, so that the set-up
measurement times gyrospec's import and config parsing, not numpy work
of the benchmark.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("charts", "multi_doublet", "singular")

# Doublet data of the paper's figures (gyrospec README, "fig" presets).
FIG_D = ((-1.0, 0.0), (0.0, 2.0))
FIG_K = ((1.0, 1.0), (1.0, 2.0))
J = ((0.0, -1.0), (1.0, 0.0))

# Seeds move the inputs by a few per cent: enough that no input repeats,
# little enough that the work per job, and so a run's figures, barely
# depend on the seed.
JITTER = 0.03


@dataclass(frozen=True)
class Chart:
    """One chart output: the CSV file, its kind and its parameters."""

    file: str
    kind: str                      # "sweep" or "boundary"
    omegas: tuple
    D: tuple
    K: tuple
    N: tuple
    gains: dict                    # Omega, kappa, delta, nu
    plane: tuple                   # two names from Omega, kappa, delta, nu
    axes: tuple                    # ((lo, hi, count), (lo, hi, count))


@dataclass(frozen=True)
class Job:
    """One config; point jobs carry their inputs, chart jobs their charts."""

    name: str
    command: str
    text: str                      # the config handed to gyrospec
    omegas: tuple = (1.0,)
    D: tuple = FIG_D
    K: tuple = FIG_K
    N: tuple = J
    gains: dict = field(default_factory=dict)
    charts: tuple = ()
    # A fault of the program makes this job fail on every run (README).
    known_fault: str | None = None


def _blockdiag(*blocks) -> tuple:
    size = sum(len(b) for b in blocks)
    out = [[0.0] * size for _ in range(size)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                out[at + i][at + j] = float(v)
        at += len(b)
    return tuple(tuple(r) for r in out)


def _near(rng: random.Random, x: float) -> float:
    """x moved by up to JITTER relative."""
    return x * rng.uniform(1.0 - JITTER, 1.0 + JITTER)


def _jitter(rng: random.Random, M) -> tuple:
    """A symmetric 2x2 matrix with each entry moved by up to JITTER relative."""
    a, d, b = _near(rng, M[0][0]), _near(rng, M[1][1]), _near(rng, M[0][1])
    return ((a, b), (b, d))


def _flat(M) -> str:
    return ",".join(repr(float(v)) for row in M for v in row)


def _config(command: str, omegas, D, K, N, gains: dict, axes: dict | None = None,
            preset: bool = False, extra: str = "") -> str:
    lines = [f"command = {command}", f"model.n = {len(omegas)}"]
    if preset:
        lines.append("model.preset = string")
    else:
        lines.append("model.omegas = " + ",".join(repr(w) for w in omegas))
    lines += [f"matrices.D = {_flat(D)}", f"matrices.K = {_flat(K)}",
              f"matrices.N = {_flat(N)}"]
    lines += [f"gains.{k} = {v!r}" for k, v in sorted(gains.items())]
    for name, (lo, hi, count) in (axes or {}).items():
        lines.append(f"axes.{name} = {lo!r}:{hi!r}:{count}")
    return "\n".join(lines) + "\n" + extra


def _gains(**kw) -> dict:
    g = {"Omega": 0.0, "kappa": 0.0, "delta": 0.0, "nu": 0.0}
    g.update({k: float(v) for k, v in kw.items()})
    return g


def _chart_job(name, command, omegas, D, K, N, gains, plane, axes,
               preset=False, known_fault=None) -> Job:
    ax = dict(zip(plane, axes))
    text = _config(command, omegas, D, K, N, gains, ax, preset=preset)
    chart = Chart(file=f"{command}.csv", kind=command, omegas=tuple(omegas),
                  D=D, K=K, N=N, gains=gains, plane=plane, axes=tuple(axes))
    return Job(name=name, command=command, text=text, charts=(chart,),
               known_fault=known_fault)


def _kappa0(K, nu: float) -> float:
    """2 nu / (rho1 - rho2) for a symmetric 2x2 K."""
    gap = math.hypot(K[0][0] - K[1][1], 2.0 * K[0][1])
    return 2.0 * nu / gap


def charts(seed: int) -> list[Job]:
    """Single-doublet charts at 201-point resolution: the paper's figures.

    Seeded boundaries are closed flutter contours well inside their window.
    A boundary that ends on the chart frame may be traced unoriented (see
    CHANGES.md), so such boundaries appear only on fixed inputs, checked to
    come out right.
    """
    rng = random.Random(f"charts:{seed}")
    jobs = []

    # fig2 preset: two (Omega, kappa) charts, sweeps and traced boundaries
    fig2 = []
    for label, d0, win in (("a", -0.1, ((-0.25, 0.25), (-0.25, 0.25))),
                           ("c", -1.0, ((-0.45, 0.45), (-0.3, 0.3)))):
        D = ((d0, 0.0), (0.0, 2.0))
        g = _gains(delta=0.3)
        axes = ((win[0][0], win[0][1], 201), (win[1][0], win[1][1], 201))
        for kind in ("sweep", "boundary"):
            fig2.append(Chart(file=f"fig2{label}_{kind}.csv", kind=kind,
                              omegas=(1.0,), D=D, K=FIG_K, N=J, gains=g,
                              plane=("Omega", "kappa"), axes=axes))
    jobs.append(Job(name="fig2", command="fig2", text="command = fig2\n",
                    charts=tuple(fig2)))

    # fig3 preset at one fixed delta: pockets shrinking onto |kappa| >= kappa0
    g = _gains(delta=0.1, nu=0.2)
    fig3 = tuple(Chart(file=f"fig3_{kind}_delta_0.1.csv", kind=kind,
                       omegas=(1.0,), D=FIG_D, K=FIG_K, N=J, gains=g,
                       plane=("Omega", "kappa"),
                       axes=((-0.25, 0.25, 201), (-0.35, 0.35, 201)))
                 for kind in ("sweep", "boundary"))
    jobs.append(Job(name="fig3", command="fig3",
                    text="command = fig3\nfig3.deltas = 0.1\n",
                    gains=g, charts=fig3))

    def window(half1, half2):
        h1, h2 = _near(rng, half1), _near(rng, half2)
        return ((-h1, h1, 201), (-h2, h2, 201))

    # (Omega, kappa) at delta > 0, where roots converge early: cones of the
    # fig. 2(c) kind (A < 0) as sweeps, closed contours of the fig. 2(a)
    # kind (indefinite damping, A > 0) as boundaries
    for tag, nu in (("nu0", 0.0), ("nu", _near(rng, 0.1)), ("nu_neg", -_near(rng, 0.1))):
        D, K = _jitter(rng, FIG_D), _jitter(rng, FIG_K)
        jobs.append(_chart_job(
            f"cone_sweep_{tag}", "sweep", (1.0,), D, K, J,
            _gains(delta=_near(rng, 0.3), nu=nu), ("Omega", "kappa"),
            window(0.45, 0.3)))
    for tag, nu in (("nu0", 0.0), ("nu", _near(rng, 0.02))):
        D, K = _jitter(rng, ((-0.1, 0.0), (0.0, 2.0))), _jitter(rng, FIG_K)
        jobs.append(_chart_job(
            f"contour_boundary_{tag}", "boundary", (1.0,), D, K, J,
            _gains(delta=_near(rng, 0.3), nu=nu), ("Omega", "kappa"),
            window(0.25, 0.25)))

    # (Omega, delta) from delta = 0: with nu = 0 the delta = 0 row is
    # marginal, with nu != 0 it flutters
    for tag, nu in (("nu0", 0.0), ("nu", _near(rng, 0.2))):
        D, K = _jitter(rng, FIG_D), _jitter(rng, FIG_K)
        jobs.append(_chart_job(
            f"omega_delta_sweep_{tag}", "sweep", (1.0,), D, K, J,
            _gains(kappa=_near(rng, 0.1), nu=nu), ("Omega", "delta"),
            (window(0.45, 0.3)[0], (0.0, _near(rng, 0.4), 201))))

    # (Omega, delta) from delta = 0 near the exceptional point +kappa0: the
    # Whitney-umbrella pocket, where near-double roots run the root
    # iteration to its cap
    D, K = _jitter(rng, FIG_D), _jitter(rng, FIG_K)
    nu = _near(rng, 0.2)
    kappa = _kappa0(K, nu) * (1.0 + _near(rng, 0.01))
    half = _near(rng, 0.012)
    jobs.append(_chart_job(
        "umbrella_sweep", "sweep", (1.0,), D, K, J, _gains(kappa=kappa, nu=nu),
        ("Omega", "delta"),
        ((-half, half, 201), (0.0, _near(rng, 0.02), 101))))

    # Fixed inputs from here on.  With nu != 0 the whole delta = 0 row
    # flutters and the boundary rises from the frame.
    jobs.append(_chart_job(
        "omega_delta_boundary", "boundary", (1.0,), FIG_D, FIG_K, J,
        _gains(kappa=0.1, nu=0.2), ("Omega", "delta"),
        ((-0.45, 0.45, 201), (0.0, 0.4, 201))))
    # At delta = kappa = nu = 0 the delta = 0 row is exactly marginal, and
    # trace_boundary masks on the sign of rounding noise there.
    jobs.append(_chart_job(
        "marginal_row_boundary", "boundary", (1.0,), FIG_D, FIG_K, J,
        _gains(), ("Omega", "delta"), ((-0.45, 0.45, 201), (0.0, 0.4, 101)),
        known_fault="trace_boundary draws fragments along the marginal "
                    "delta = 0 row"))
    return jobs


def multi_doublet(seed: int) -> list[Job]:
    """String rotors with n = 2 and n = 3 on small sweep grids.

    The grid sizes give every job about the same work: a node costs about
    four times as much for n = 3 as for n = 2 on the per-point path, and
    an (Omega, delta) node about 15 % more than an (Omega, kappa) one.
    Even counts keep Omega = 0, where near-double roots run the root
    iteration to its cap, off the grids.
    """
    rng = random.Random(f"multi_doublet:{seed}")
    jobs = []
    for n, count in ((2, 16), (2, 16), (3, 10), (3, 10)):
        omegas = tuple(float(s) for s in range(1, n + 1))
        # the paper's doublet on the first doublet, positive damping and
        # mild detuning on the others: stable and flutter nodes side by side
        blocks_D = [_jitter(rng, FIG_D)]
        blocks_K = [_jitter(rng, FIG_K)]
        for _ in range(n - 1):
            d, k = _near(rng, 0.5), _near(rng, 0.15)
            blocks_D.append(((d, 0.0), (0.0, _near(rng, d))))
            blocks_K.append(((k, 0.0), (0.0, _near(rng, 0.5 * k))))
        D, K, N = _blockdiag(*blocks_D), _blockdiag(*blocks_K), _blockdiag(*[J] * n)
        om = _near(rng, 0.45)
        if len(jobs) % 2 == 0:
            gains = _gains(delta=_near(rng, 0.3), nu=_near(rng, 0.025))
            plane = ("Omega", "kappa")
            ka = _near(rng, 0.3)
            axes = ((-om, om, count), (-ka, ka, count))
        else:
            gains = _gains(kappa=_near(rng, 0.1))
            plane = ("Omega", "delta")
            axes = ((-om, om, count), (0.05, _near(rng, 0.4), count))
        jobs.append(_chart_job(f"n{n}_{plane[1]}_sweep", "sweep", omegas,
                               D, K, N, gains, plane, axes, preset=True))
    return jobs


# EP searches come from a fixed pool.  Under a 3 % move of K and nu the
# discriminant Newton iteration of one search takes anywhere from 129 to
# 839 characteristic polynomials, so seeded searches would make the work
# of a round depend on the seed.
EP_POOL = (
    (FIG_K, 0.2),
    (FIG_K, 0.15),
    (((1.05, 0.97), (0.97, 2.04)), 0.24),
    (((0.97, 1.02), (1.02, 1.95)), 0.18),
)


def singular(seed: int) -> list[Job]:
    """Short n = 1 jobs: EP searches, Floquet checks, point queries."""
    rng = random.Random(f"singular:{seed}")
    jobs = []
    for i, (K, nu) in enumerate(EP_POOL):
        k0 = _kappa0(K, nu)
        g = _gains(nu=nu)
        text = _config("ep", (1.0,), FIG_D, K, J, g,
                       {"Omega": (-0.25, 0.25, 21), "kappa": (-1.35 * k0, 1.35 * k0, 21)})
        jobs.append(Job(name=f"ep{i}", command="ep", text=text, K=K, gains=g))
    for i in range(6):
        D, K = _jitter(rng, FIG_D), _jitter(rng, FIG_K)
        g = _gains(Omega=rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 0.5),
                   delta=rng.uniform(0.1, 0.2), kappa=rng.uniform(-0.1, 0.1),
                   nu=rng.uniform(-0.1, 0.1))
        text = _config("floquet", (1.0,), D, K, J, g, extra="floquet.steps = 4096\n")
        jobs.append(Job(name=f"floquet{i}", command="floquet", text=text,
                        D=D, K=K, gains=g))
    for command in ("spectrum", "report", "spectrum", "report"):
        D, K = _jitter(rng, FIG_D), _jitter(rng, FIG_K)
        g = _gains(Omega=rng.uniform(-0.4, 0.4), delta=rng.uniform(0.0, 0.4),
                   kappa=rng.uniform(-0.3, 0.3), nu=rng.uniform(-0.2, 0.2))
        text = _config(command, (1.0,), D, K, J, g)
        jobs.append(Job(name=f"{command}{len(jobs)}", command=command,
                        text=text, D=D, K=K, gains=g))
    return jobs


def make(workload: str, seed: int) -> list[Job]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return {"charts": charts, "multi_doublet": multi_doublet,
            "singular": singular}[workload](seed)
