"""Command-line front end: config ingestion, batch commands, CSV emission.

Exit codes: 0 success, 1 domain error (solver/regime failures), 2 usage
error (bad arguments or configuration).  Outputs are written atomically
(write-then-rename) and are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import atlas, floquet, perturbation, qep
from .config import RunConfig, parse_config
from .errors import ConfigError, GyrospecError
from .model import RotorModel, PerturbationSet, build_pencil, mesh_spectrum
from .tolerances import DEFAULT, Tolerances

# fig2 morphology presets: the caption damping to the cone-invariant sign.
# An indefinite matrix with A > 0 is needed for the closed flutter contour;
# positive definite damping would leave the whole plane stable.
_FIG2_VARIANTS = (
    ("a", np.diag([-0.1, 2.0]), "positive"),
    ("c", np.diag([-1.0, 2.0]), "negative"),
)
_FIG2_WINDOWS = {
    "a": ((-0.25, 0.25), (-0.25, 0.25)),
    "c": ((-0.45, 0.45), (-0.3, 0.3)),
}
_FIG3_WINDOW = ((-0.25, 0.25), (-0.35, 0.35))


def _tag(x: float) -> str:
    """Short file-name tag for a parameter value."""
    return f"{float(x):g}"


def _write_atomic(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)
    return path


def _table(template: str, *columns) -> str:
    """Lines of equal-length value columns, one %-template per line.

    ``"%.17g"`` renders a float exactly as ``f"{x:.17g}"`` does, nan, inf
    and -0 included.  The template is repeated once per line and applied
    to the interleaved values in a single formatting call.
    """
    width = len(columns)
    count = len(columns[0]) if columns else 0
    flat = [None] * (width * count)
    for k, col in enumerate(columns):
        flat[k::width] = col
    return (template * count) % tuple(flat)


def _build_model(cfg: RunConfig) -> RotorModel:
    if cfg.omegas is not None:
        return RotorModel(tuple(cfg.omegas))
    return RotorModel.string(cfg.n)


def _build_template(cfg: RunConfig, tol: Tolerances, **overrides) -> PerturbationSet:
    size = 2 * cfg.n
    def mat(entries):
        return None if entries is None else \
            np.array(entries, dtype=float).reshape(size, size)
    kw = dict(
        D=mat(cfg.D) if cfg.D is not None else np.zeros((size, size)),
        K=mat(cfg.K) if cfg.K is not None else np.zeros((size, size)),
        N=mat(cfg.N),
        delta=cfg.delta, kappa=cfg.kappa, nu=cfg.nu, Omega=cfg.Omega,
        sym_rtol=tol.sym_rtol,
    )
    kw.update(overrides)
    return PerturbationSet(**kw)


def _axis(values: tuple) -> np.ndarray:
    lo, hi, count = values
    return np.linspace(lo, hi, count)


_SWEEP_HEADER = "Omega,kappa,delta,nu,max_re,im_at_max,class"
_SWEEP_LINE = "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s\n"
_BOUNDARY_HEADER = "param1,param2,max_re_residual"
_CLASS_NAMES = np.array(atlas.CLASS_NAMES, dtype=object)


def _sweep_text(chart: atlas.StabilityChart) -> str:
    """Sweep CSV body, formatted one axis-1 row (len(axis2) lines) at a time."""
    n2 = len(chart.axis2)
    cols = {name: [float(value)] * n2 for name, value in chart.fixed.items()}
    cols[chart.plane[1]] = chart.axis2.tolist()
    blocks = []
    for i, a1 in enumerate(chart.axis1.tolist()):
        cols[chart.plane[0]] = [a1] * n2
        blocks.append(_table(_SWEEP_LINE, *(cols[p] for p in atlas.PARAM_NAMES),
                             chart.max_re[i].tolist(), chart.im_at_max[i].tolist(),
                             _CLASS_NAMES[chart.class_codes[i]].tolist()))
    return "".join(blocks)


def _boundary_text(polylines) -> str:
    """Boundary CSV body: one block per polyline, blank line between blocks."""
    return "\n".join(
        _table("%.17g,%.17g,%.17g\n", pl.vertices[:, 0].tolist(),
               pl.vertices[:, 1].tolist(), pl.residuals.tolist())
        for pl in polylines)


def _points_text(omegas: np.ndarray, eigs: np.ndarray) -> str:
    """Omega,re,im lines for eigenvalue rows (len(omegas), k)."""
    return _table("%.17g,%.17g,%.17g\n",
                  np.repeat(omegas, eigs.shape[1]).tolist(),
                  eigs.real.ravel().tolist(), eigs.imag.ravel().tolist())


def run(cfg: RunConfig, out_dir: str | None = None,
        tol_overrides: dict | None = None) -> list[Path]:
    """Execute one configured command; returns the written files."""
    tol = DEFAULT.override(**{**cfg.tolerances, **(tol_overrides or {})})
    out = Path(out_dir if out_dir is not None else cfg.out_path)
    model = _build_model(cfg)
    written: list[Path] = []

    def emit(name: str, header: str, body: str):
        written.append(_write_atomic(out / name, header + "\n" + body))

    command = cfg.command
    if command == "spectrum":
        pert = _build_template(cfg, tol)
        spectrum = qep.solve_qep(build_pencil(model, pert),
                                 residual_tol=tol.poly_residual,
                                 qep_residual_rtol=tol.qep_residual_rtol)
        lam = spectrum.eigenvalues
        emit("spectrum.csv", "re,im,residual",
             _table("%.17g,%.17g,%.17g\n", lam.real.tolist(), lam.imag.tolist(),
                    spectrum.residuals.tolist()))

    elif command == "mesh":
        rows = [(e.s, e.branch, e.conj, e.value.real, e.value.imag)
                for e in mesh_spectrum(model, cfg.Omega)]
        emit("mesh.csv", "s,branch,conj,re,im",
             _table("%d,%s,%d,%.17g,%.17g\n", *zip(*rows)))

    elif command == "report":
        pert = _build_template(cfg, tol)
        rep = perturbation.perturbation_report(model, pert)
        verdict = atlas.classify(model, pert, marginal_rtol=tol.marginal_rtol,
                                 poly_residual=tol.poly_residual)
        emit("report.csv",
             "Omega,kappa,delta,nu,re_c,im_c,A,beta0,kappa0,omega0,"
             "Omega_cr,B,epsilon,max_re,im_at_max,class",
             ("%.17g," * 15) % (
                 cfg.Omega, cfg.kappa, cfg.delta, cfg.nu,
                 rep.c.real, rep.c.imag, rep.A, rep.beta0, rep.kappa0,
                 rep.omega0,
                 float("nan") if rep.Omega_cr_nu is None else rep.Omega_cr_nu,
                 rep.B, rep.epsilon, verdict.max_re,
                 verdict.critical_eigenvalue.imag)
             + verdict.classification + "\n")

    elif command in ("sweep", "boundary"):
        plane = tuple(sorted(cfg.axes, key=list(atlas.PARAM_NAMES).index))
        pert = _build_template(cfg, tol)
        chart = atlas.sweep2d(model, pert, plane,
                              (_axis(cfg.axes[plane[0]]), _axis(cfg.axes[plane[1]])),
                              marginal_rtol=tol.marginal_rtol,
                              poly_residual=tol.poly_residual)
        if command == "sweep":
            emit("sweep.csv", _SWEEP_HEADER, _sweep_text(chart))
        else:
            polylines = atlas.trace_boundary(
                chart, boundary_residual=tol.boundary_residual)
            emit("boundary.csv", _BOUNDARY_HEADER, _boundary_text(polylines))

    elif command == "ep":
        pert = _build_template(cfg, tol)
        box = ((cfg.axes["Omega"][0], cfg.axes["Omega"][1]),
               (cfg.axes["kappa"][0], cfg.axes["kappa"][1]))
        coarse = (cfg.axes["Omega"][2], cfg.axes["kappa"][2])
        found, near = atlas.find_exceptional_points(
            model, pert, box, coarse=coarse, rank_rtol=tol.ep_rank_rtol)
        rows = [(r.kind, r.location[0], r.location[1], r.location[2],
                 r.location[3], r.eigenvalue.real, r.eigenvalue.imag,
                 r.certificate.disc_rel, r.certificate.rank_deficiency,
                 r.certificate.min_gap) for r in found + near]
        emit("ep.csv",
             "kind,Omega,kappa,delta,nu,re,im,disc_rel,rank_deficiency,min_gap",
             _table("%s" + ",%.17g" * 7 + ",%d,%.17g\n", *zip(*rows)))

    elif command == "floquet":
        pert = _build_template(cfg, tol)
        ps = floquet.PeriodicSystem(model, pert)
        result = floquet.monodromy(ps, steps=cfg.floquet_steps,
                                   liouville_rtol=tol.liouville_rtol,
                                   duality_tol=tol.duality_tol)
        mu, pr = result.multipliers, result.predicted_multipliers
        emit("floquet.csv",
             "multiplier_re,multiplier_im,predicted_re,predicted_im,"
             "match_error,liouville_error",
             _table("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n",
                    mu.real.tolist(), mu.imag.tolist(), pr.real.tolist(),
                    pr.imag.tolist(), [result.match_error] * len(mu),
                    [result.liouville_error] * len(mu)))

    elif command == "fig1":
        omegas = np.linspace(-0.6, 0.6, 241)
        for delta in (0.0, 0.3):
            pert = _build_template(cfg, tol, delta=delta)
            tag = _tag(delta)
            eigs, _ = atlas.eigenvalues_at_points(
                model, pert, ("Omega", "kappa"),
                np.column_stack([omegas, np.full_like(omegas, pert.kappa)]))
            emit(f"fig1_exact_delta_{tag}.csv", "Omega,re,im",
                 _points_text(omegas, eigs))
            md = perturbation.modal_data(pert.D, pert.K, model.omegas[0])
            approx = np.array([perturbation.approx_eigenvalues(
                md, om, delta, pert.kappa, pert.nu) for om in omegas])
            emit(f"fig1_approx_delta_{tag}.csv", "Omega,re,im",
                 _points_text(omegas, approx))

    elif command == "fig2":
        for label, D, sign in _FIG2_VARIANTS:
            A = perturbation.invariant_A(D, np.array(cfg.K).reshape(2, 2))
            detD = float(np.linalg.det(D))
            if sign == "positive" and not (A > 0 and detD < 0):
                raise GyrospecError(
                    f"fig2(a) preset needs indefinite damping with A > 0, "
                    f"got A={A}, detD={detD}")
            if sign == "negative" and not A < 0:
                raise GyrospecError(f"fig2(c) preset needs A < 0, got A={A}")
            pert = _build_template(cfg, tol, D=D)
            (olo, ohi), (klo, khi) = _FIG2_WINDOWS[label]
            chart = atlas.sweep2d(model, pert, ("Omega", "kappa"),
                                  (np.linspace(olo, ohi, 201),
                                   np.linspace(klo, khi, 201)),
                                  marginal_rtol=tol.marginal_rtol,
                                  poly_residual=tol.poly_residual)
            emit(f"fig2{label}_sweep.csv", _SWEEP_HEADER, _sweep_text(chart))
            polylines = atlas.trace_boundary(
                chart, boundary_residual=tol.boundary_residual)
            emit(f"fig2{label}_boundary.csv", _BOUNDARY_HEADER,
                 _boundary_text(polylines))

    elif command == "fig3":
        (olo, ohi), (klo, khi) = _FIG3_WINDOW
        for delta in cfg.fig3_deltas:
            pert = _build_template(cfg, tol, delta=delta)
            chart = atlas.sweep2d(model, pert, ("Omega", "kappa"),
                                  (np.linspace(olo, ohi, 201),
                                   np.linspace(klo, khi, 201)),
                                  marginal_rtol=tol.marginal_rtol,
                                  poly_residual=tol.poly_residual)
            tag = _tag(delta)
            emit(f"fig3_sweep_delta_{tag}.csv", _SWEEP_HEADER, _sweep_text(chart))
            polylines = atlas.trace_boundary(
                chart, boundary_residual=tol.boundary_residual)
            emit(f"fig3_boundary_delta_{tag}.csv", _BOUNDARY_HEADER,
                 _boundary_text(polylines))

    else:  # pragma: no cover - parse_config already rejects unknown commands
        raise ConfigError(f"unhandled command {command!r}")
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gyrospec",
        description="Spectral stability analysis of rotating gyroscopic "
                    "systems with indefinite damping and circulatory forces.",
    )
    parser.add_argument("config", help="run configuration file")
    parser.add_argument("--out", help="output directory (overrides output.path)")
    parser.add_argument("--tol", action="append", default=[],
                        metavar="KEY=VAL", help="tolerance override")
    args = parser.parse_args(argv)

    tol_overrides = {}
    for item in args.tol:
        key, sep, value = item.partition("=")
        if not sep:
            print(f"gyrospec: --tol expects KEY=VAL, got {item!r}", file=sys.stderr)
            return 2
        try:
            tol_overrides[key.strip()] = float(value)
        except ValueError:
            print(f"gyrospec: --tol {key}: bad number {value!r}", file=sys.stderr)
            return 2

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"gyrospec: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
        DEFAULT.override(**{**cfg.tolerances, **tol_overrides})
    except (ConfigError, KeyError) as exc:
        print(f"gyrospec: {exc}", file=sys.stderr)
        return 2

    try:
        written = run(cfg, out_dir=args.out, tol_overrides=tol_overrides)
    except (GyrospecError, NotImplementedError) as exc:
        print(f"gyrospec: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
