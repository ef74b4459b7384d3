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


def _fmt(x) -> str:
    if x is None:
        return "nan"
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _write_atomic(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)
    return path


def _csv(header: str, rows) -> str:
    lines = [header]
    for row in rows:
        if row is None:
            lines.append("")  # block separator between polylines
        else:
            lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


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


def _sweep_rows(chart: atlas.StabilityChart):
    fixed = chart.fixed
    for i, a1 in enumerate(chart.axis1):
        for j, a2 in enumerate(chart.axis2):
            p = dict(fixed)
            p[chart.plane[0]] = a1
            p[chart.plane[1]] = a2
            yield (p["Omega"], p["kappa"], p["delta"], p["nu"],
                   chart.max_re[i, j], chart.im_at_max[i, j],
                   chart.class_name(i, j))


def _boundary_rows(polylines):
    first = True
    for pl in polylines:
        if not first:
            yield None
        first = False
        for v, r in zip(pl.vertices, pl.residuals):
            yield (v[0], v[1], r)


def _spectrum_rows(spectrum: qep.Spectrum):
    for lam, res in zip(spectrum.eigenvalues, spectrum.residuals):
        yield (lam.real, lam.imag, res)


def run(cfg: RunConfig, out_dir: str | None = None,
        tol_overrides: dict | None = None) -> list[Path]:
    """Execute one configured command; returns the written files."""
    tol = DEFAULT.override(**{**cfg.tolerances, **(tol_overrides or {})})
    out = Path(out_dir if out_dir is not None else cfg.out_path)
    model = _build_model(cfg)
    written: list[Path] = []

    def emit(name: str, header: str, rows):
        written.append(_write_atomic(out / name, _csv(header, rows)))

    command = cfg.command
    if command == "spectrum":
        pert = _build_template(cfg, tol)
        spectrum = qep.solve_qep(build_pencil(model, pert),
                                 residual_tol=tol.poly_residual,
                                 qep_residual_rtol=tol.qep_residual_rtol)
        emit("spectrum.csv", "re,im,residual", _spectrum_rows(spectrum))

    elif command == "mesh":
        rows = [(e.s, e.branch, e.conj, e.value.real, e.value.imag)
                for e in mesh_spectrum(model, cfg.Omega)]
        emit("mesh.csv", "s,branch,conj,re,im", rows)

    elif command == "report":
        pert = _build_template(cfg, tol)
        rep = perturbation.perturbation_report(model, pert)
        verdict = atlas.classify(model, pert, marginal_rtol=tol.marginal_rtol,
                                 poly_residual=tol.poly_residual)
        emit("report.csv",
             "Omega,kappa,delta,nu,re_c,im_c,A,beta0,kappa0,omega0,"
             "Omega_cr,B,epsilon,max_re,im_at_max,class",
             [(cfg.Omega, cfg.kappa, cfg.delta, cfg.nu,
               rep.c.real, rep.c.imag, rep.A, rep.beta0, rep.kappa0,
               rep.omega0, rep.Omega_cr_nu, rep.B, rep.epsilon,
               verdict.max_re, verdict.critical_eigenvalue.imag,
               verdict.classification)])

    elif command in ("sweep", "boundary"):
        plane = tuple(sorted(cfg.axes, key=list(atlas.PARAM_NAMES).index))
        pert = _build_template(cfg, tol)
        chart = atlas.sweep2d(model, pert, plane,
                              (_axis(cfg.axes[plane[0]]), _axis(cfg.axes[plane[1]])),
                              marginal_rtol=tol.marginal_rtol,
                              poly_residual=tol.poly_residual)
        if command == "sweep":
            emit("sweep.csv", "Omega,kappa,delta,nu,max_re,im_at_max,class",
                 _sweep_rows(chart))
        else:
            polylines = atlas.trace_boundary(
                chart, boundary_residual=tol.boundary_residual)
            emit("boundary.csv", "param1,param2,max_re_residual",
                 _boundary_rows(polylines))

    elif command == "ep":
        pert = _build_template(cfg, tol)
        box = ((cfg.axes["Omega"][0], cfg.axes["Omega"][1]),
               (cfg.axes["kappa"][0], cfg.axes["kappa"][1]))
        coarse = (cfg.axes["Omega"][2], cfg.axes["kappa"][2])
        found, near = atlas.find_exceptional_points(
            model, pert, box, coarse=coarse,
            disc_rtol=tol.ep_disc_rtol, rank_rtol=tol.ep_rank_rtol)
        rows = [(r.kind, r.location[0], r.location[1], r.location[2],
                 r.location[3], r.eigenvalue.real, r.eigenvalue.imag,
                 r.certificate.disc_rel, r.certificate.rank_deficiency,
                 r.certificate.min_gap) for r in found + near]
        emit("ep.csv",
             "kind,Omega,kappa,delta,nu,re,im,disc_rel,rank_deficiency,min_gap",
             rows)

    elif command == "floquet":
        pert = _build_template(cfg, tol)
        ps = floquet.PeriodicSystem(model, pert)
        result = floquet.monodromy(ps, steps=cfg.floquet_steps,
                                   liouville_rtol=tol.liouville_rtol)
        rows = [(mu.real, mu.imag, pr.real, pr.imag,
                 result.match_error, result.liouville_error)
                for mu, pr in zip(result.multipliers,
                                  result.predicted_multipliers)]
        emit("floquet.csv",
             "multiplier_re,multiplier_im,predicted_re,predicted_im,"
             "match_error,liouville_error", rows)

    elif command == "fig1":
        omegas = np.linspace(-0.6, 0.6, 241)
        for delta in (0.0, 0.3):
            pert = _build_template(cfg, tol, delta=delta)
            tag = _tag(delta)
            eigs, _ = atlas.eigenvalues_at_points(
                model, pert, ("Omega", "kappa"),
                np.column_stack([omegas, np.full_like(omegas, pert.kappa)]))
            rows = [(om, lam.real, lam.imag)
                    for om, row in zip(omegas, eigs) for lam in row]
            emit(f"fig1_exact_delta_{tag}.csv", "Omega,re,im", rows)
            md = perturbation.modal_data(pert.D, pert.K, model.omegas[0])
            rows = []
            for om in omegas:
                lam = perturbation.approx_eigenvalues(
                    md, om, delta, pert.kappa, pert.nu)
                rows.extend((om, v.real, v.imag) for v in lam)
            emit(f"fig1_approx_delta_{tag}.csv", "Omega,re,im", rows)

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
            emit(f"fig2{label}_sweep.csv",
                 "Omega,kappa,delta,nu,max_re,im_at_max,class",
                 _sweep_rows(chart))
            polylines = atlas.trace_boundary(
                chart, boundary_residual=tol.boundary_residual)
            emit(f"fig2{label}_boundary.csv", "param1,param2,max_re_residual",
                 _boundary_rows(polylines))

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
            emit(f"fig3_sweep_delta_{tag}.csv",
                 "Omega,kappa,delta,nu,max_re,im_at_max,class",
                 _sweep_rows(chart))
            polylines = atlas.trace_boundary(
                chart, boundary_residual=tol.boundary_residual)
            emit(f"fig3_boundary_delta_{tag}.csv",
                 "param1,param2,max_re_residual", _boundary_rows(polylines))

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
    except GyrospecError as exc:
        print(f"gyrospec: {exc}", file=sys.stderr)
        return 1
    except NotImplementedError as exc:
        print(f"gyrospec: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
