from dataclasses import replace

import numpy as np
import pytest

from gyrospec import atlas
from gyrospec.cli import main, run
from gyrospec.config import parse_config
from gyrospec.model import PerturbationSet, RotorModel
from gyrospec.perturbation import perturbation_report

FIG1B_REPORT = """
command = report
model.n = 1
model.omegas = 1.0
matrices.D = -1,0,0,2
matrices.K = 1,1,1,2
gains.delta = 0.3
gains.kappa = 0.2
"""


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestRun:
    def test_report_row(self, tmp_path):
        cfg = parse_config(FIG1B_REPORT)
        files = run(cfg, out_dir=str(tmp_path))
        assert [f.name for f in files] == ["report.csv"]
        header, rows = read_rows(files[0])
        row = dict(zip(header, rows[0]))
        assert float(row["A"]) == -1.0
        assert row["class"] == "flutter"
        assert abs(float(row["max_re"]) - 0.13237554135478674) < 1e-12

    def test_spectrum_schema(self, tmp_path):
        cfg = parse_config("command = spectrum\nmodel.n = 1\nmodel.omegas = 1.0\n"
                           "gains.Omega = 0.3\n")
        files = run(cfg, out_dir=str(tmp_path))
        header, rows = read_rows(files[0])
        assert header == ["re", "im", "residual"]
        ims = sorted(float(r[1]) for r in rows)
        assert np.allclose(ims, [-1.3, -0.7, 0.7, 1.3], atol=1e-9)

    def test_sweep_schema_and_determinism(self, tmp_path):
        text = ("command = sweep\nmodel.n = 1\nmodel.omegas = 1.0\n"
                "matrices.D = -1,0,0,2\nmatrices.K = 1,1,1,2\n"
                "gains.delta = 0.3\n"
                "axes.Omega = -0.4:0.4:9\naxes.kappa = -0.2:0.2:7\n")
        cfg = parse_config(text)
        a = run(cfg, out_dir=str(tmp_path / "a"))[0].read_bytes()
        b = run(cfg, out_dir=str(tmp_path / "b"))[0].read_bytes()
        assert a == b
        header, rows = read_rows(run(cfg, out_dir=str(tmp_path / "c"))[0])
        assert header == ["Omega", "kappa", "delta", "nu",
                          "max_re", "im_at_max", "class"]
        assert len(rows) == 9 * 7

    def test_multidoublet_sweep_deterministic(self, tmp_path):
        text = ("command = sweep\nmodel.n = 2\nmodel.omegas = 1.0,2.2\n"
                "gains.delta = 0.1\n"
                "axes.Omega = -0.3:0.3:4\naxes.nu = -0.1:0.1:3\n")
        cfg = parse_config(text)
        a = run(cfg, out_dir=str(tmp_path / "a"))[0].read_bytes()
        b = run(cfg, out_dir=str(tmp_path / "b"))[0].read_bytes()
        assert a == b
        header, rows = read_rows(run(cfg, out_dir=str(tmp_path / "c"))[0])
        assert len(rows) == 4 * 3
        assert "error" not in {r[6] for r in rows}

    def test_boundary_blocks(self, tmp_path):
        text = ("command = boundary\nmodel.n = 1\nmodel.omegas = 1.0\n"
                "matrices.D = -1,0,0,2\nmatrices.K = 1,1,1,2\n"
                "gains.delta = 0.3\n"
                "axes.Omega = -0.45:0.45:31\naxes.kappa = -0.25:0.25:21\n")
        files = run(parse_config(text), out_dir=str(tmp_path))
        lines = files[0].read_text().strip("\n").split("\n")
        assert lines[0] == "param1,param2,max_re_residual"
        blocks = "\n".join(lines[1:]).split("\n\n")
        assert len(blocks) == 2  # the two hyperbola-like branches
        for block in blocks:
            for line in block.split("\n"):
                assert float(line.split(",")[2]) < 1e-9

    def test_ep_command(self, tmp_path):
        text = ("command = ep\nmodel.n = 1\nmodel.omegas = 1.0\n"
                "matrices.K = 1,1,1,2\ngains.nu = 0.2\n"
                "axes.Omega = -0.05:0.05:41\naxes.kappa = 0.1:0.25:41\n")
        files = run(parse_config(text), out_dir=str(tmp_path))
        header, rows = read_rows(files[0])
        assert rows[0][0] == "exceptional"
        assert abs(float(rows[0][2]) - 0.4 / np.sqrt(5)) < 1e-6

    def test_no_tmp_leftovers(self, tmp_path):
        run(parse_config(FIG1B_REPORT), out_dir=str(tmp_path))
        assert not [p for p in tmp_path.iterdir() if "tmp" in p.name]

    def test_fig1_outputs(self, tmp_path):
        files = run(parse_config("command = fig1\n"), out_dir=str(tmp_path))
        names = sorted(f.name for f in files)
        assert names == ["fig1_approx_delta_0.3.csv", "fig1_approx_delta_0.csv",
                         "fig1_exact_delta_0.3.csv", "fig1_exact_delta_0.csv"]
        header, rows = read_rows(files[0])
        assert header == ["Omega", "re", "im"]
        assert len(rows) == 241 * 4


class TestCsvFormat:
    """CSV text against a rendering built value by value: f"{x:.17g}" per
    number, "nan" for None, strings as they are."""

    CHART = ("command = {}\nmodel.n = 1\nmodel.omegas = 1.0\n"
             "matrices.D = -1,0,0,2\nmatrices.K = 1,1,1,2\n"
             "gains.delta = 0.3\ngains.nu = -0.0\n"
             "axes.Omega = -0.4:0.4:{}\naxes.kappa = -0.2:0.2:{}\n")

    @staticmethod
    def lines(rows):
        def fmt(x):
            if isinstance(x, str):
                return x
            return "nan" if x is None else f"{float(x):.17g}"
        return "".join(",".join(map(fmt, row)) + "\n" for row in rows)

    def test_sweep(self, tmp_path, monkeypatch):
        charts = []

        def doctored(*args, **kwargs):
            # every class name, ERROR cells with NaN, and -0.0 values
            chart = sweep2d(*args, **kwargs)
            n1, n2 = chart.max_re.shape
            codes = np.arange(n1 * n2).reshape(n1, n2) % len(atlas.CLASS_NAMES)
            max_re, im = chart.max_re.copy(), chart.im_at_max.copy()
            error = codes == atlas.CLASS_NAMES.index(atlas.ERROR)
            max_re[error] = im[error] = np.nan
            max_re[0, 0] = im[0, 1] = -0.0
            charts.append(replace(chart, max_re=max_re, im_at_max=im,
                                  class_codes=codes.astype(np.int8)))
            return charts[-1]

        sweep2d = atlas.sweep2d
        monkeypatch.setattr(atlas, "sweep2d", doctored)
        path = run(parse_config(self.CHART.format("sweep", 6, 4)),
                   out_dir=str(tmp_path))[0]
        chart, = charts
        rows = []
        for i in range(len(chart.axis1)):
            for j in range(len(chart.axis2)):
                p = chart.cell_params(i, j)
                rows.append((p["Omega"], p["kappa"], p["delta"], p["nu"],
                             chart.max_re[i, j], chart.im_at_max[i, j],
                             chart.class_name(i, j)))
        text = path.read_text()
        assert text == ("Omega,kappa,delta,nu,max_re,im_at_max,class\n"
                        + self.lines(rows))
        assert ",-0," in text and ",nan,nan,error\n" in text
        assert {r[-1] for r in rows} == set(atlas.CLASS_NAMES)

    def test_boundary(self, tmp_path):
        path = run(parse_config(self.CHART.format("boundary", 31, 21)),
                   out_dir=str(tmp_path))[0]
        chart = atlas.sweep2d(RotorModel((1.0,)),
                              PerturbationSet(D=np.diag([-1.0, 2.0]),
                                              K=np.array([[1.0, 1], [1, 2]]),
                                              delta=0.3, nu=-0.0),
                              ("Omega", "kappa"),
                              (np.linspace(-0.4, 0.4, 31), np.linspace(-0.2, 0.2, 21)))
        polylines = atlas.trace_boundary(chart)
        assert len(polylines) == 2
        blocks = [self.lines((v[0], v[1], r) for v, r in zip(pl.vertices, pl.residuals))
                  for pl in polylines]
        assert path.read_text() == "param1,param2,max_re_residual\n" + "\n".join(blocks)

    def test_report_with_none(self, tmp_path):
        cfg = parse_config(FIG1B_REPORT.replace("D = -1,0,0,2", "D = 1,0,0,2"))
        path = run(cfg, out_dir=str(tmp_path))[0]
        pert = PerturbationSet(D=np.diag([1.0, 2.0]), K=np.array([[1.0, 1], [1, 2]]),
                               delta=0.3, kappa=0.2)
        rep = perturbation_report(RotorModel((1.0,)), pert)
        verdict = atlas.classify(RotorModel((1.0,)), pert)
        assert rep.Omega_cr_nu is None
        row = (cfg.Omega, cfg.kappa, cfg.delta, cfg.nu, rep.c.real, rep.c.imag,
               rep.A, rep.beta0, rep.kappa0, rep.omega0, rep.Omega_cr_nu, rep.B,
               rep.epsilon, verdict.max_re, verdict.critical_eigenvalue.imag,
               verdict.classification)
        header = ("Omega,kappa,delta,nu,re_c,im_c,A,beta0,kappa0,omega0,"
                  "Omega_cr,B,epsilon,max_re,im_at_max,class")
        assert path.read_text() == header + "\n" + self.lines([row])


class TestFigurePresets:
    def test_fig3_pocket_slopes(self, tmp_path):
        files = run(parse_config("command = fig3\nfig3.deltas = 0.05,0.2\n"),
                    out_dir=str(tmp_path))
        kap0 = 0.4 / np.sqrt(5)
        beta0 = 3 / (4 * np.sqrt(5))
        tips = {}
        for delta in (0.05, 0.2):
            path = tmp_path / f"fig3_boundary_delta_{delta:g}.csv"
            rows = [tuple(map(float, line.split(",")))
                    for line in path.read_text().strip().split("\n")[1:] if line]
            V = np.array(rows)
            plus = V[V[:, 1] > 0]
            tip = plus[np.argmin(plus[:, 1])]
            tips[delta] = (tip[1], tip[0] / delta)
        # pocket tip approaches (kappa0, beta0 delta) from above as delta falls
        assert tips[0.2][0] > tips[0.05][0] > kap0
        assert tips[0.05][0] - kap0 < 0.02
        assert abs(tips[0.05][1] - beta0) < abs(tips[0.2][1] - beta0)
        assert abs(tips[0.05][1] - beta0) < 0.06

    def test_fig2_morphology_files(self, tmp_path):
        files = run(parse_config("command = fig2\n"), out_dir=str(tmp_path))
        assert sorted(f.name for f in files) == [
            "fig2a_boundary.csv", "fig2a_sweep.csv",
            "fig2c_boundary.csv", "fig2c_sweep.csv"]
        # (a) one closed contour: a single block whose ends meet
        text = (tmp_path / "fig2a_boundary.csv").read_text().strip()
        blocks = text.split("\n\n")
        assert len(blocks) == 1
        rows = blocks[0].split("\n")[1:]
        assert rows[0] == rows[-1]
        # (c) two open branches
        text = (tmp_path / "fig2c_boundary.csv").read_text().strip()
        assert len(text.split("\n\n")) == 2


class TestMain:
    def write(self, tmp_path, text):
        p = tmp_path / "run.cfg"
        p.write_text(text)
        return str(p)

    def test_success_exit0(self, tmp_path, capsys):
        path = self.write(tmp_path, FIG1B_REPORT
                          + f"output.path = {tmp_path}/out\n")
        assert main([path]) == 0
        assert "report.csv" in capsys.readouterr().out

    def test_missing_file_exit2(self, capsys):
        assert main([str("/no/such/file.cfg")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_bad_config_exit2(self, tmp_path, capsys):
        path = self.write(tmp_path, "command = spectrum\nbogus.key = 1\n")
        assert main([path]) == 2

    def test_domain_error_exit1(self, tmp_path, capsys):
        path = self.write(tmp_path,
                          "command = floquet\nmodel.n = 1\nmodel.omegas = 1.0\n"
                          "gains.Omega = 0\n")
        assert main([path]) == 1
        assert "infinite period" in capsys.readouterr().err

    def test_duality_gate_exit1(self, tmp_path, capsys):
        path = self.write(tmp_path,
                          FIG1B_REPORT.replace("report", "floquet")
                          + "gains.Omega = 0.4\nfloquet.steps = 1024\n"
                          + f"output.path = {tmp_path}/out\n")
        assert main([path]) == 0
        header, rows = read_rows(tmp_path / "out" / "floquet.csv")
        v = np.array(rows, dtype=float)
        gaps = np.abs(v[:, 0] + 1j * v[:, 1] - (v[:, 2] + 1j * v[:, 3]))
        assert gaps.max() == v[0, 4]
        capsys.readouterr()
        assert main([path, "--tol", "duality_tol=1e-14"]) == 1
        assert "miss -exp(lambda T)" in capsys.readouterr().err

    def test_bad_tol_exit2(self, tmp_path, capsys):
        path = self.write(tmp_path, FIG1B_REPORT)
        assert main([path, "--tol", "nonsense=1"]) == 2
        assert main([path, "--tol", "druh"]) == 2

    def test_removed_tol_exit2(self, tmp_path, capsys):
        path = self.write(tmp_path, FIG1B_REPORT)
        assert main([path, "--tol", "ep_disc_rtol=1e-10"]) == 2
        assert "ep_disc_rtol" in capsys.readouterr().err

    def test_tol_override_applies(self, tmp_path):
        path = self.write(tmp_path, FIG1B_REPORT
                          + f"output.path = {tmp_path}/out\n")
        assert main([path, "--tol", "marginal_rtol=1e-10"]) == 0

    def test_threads_option_removed(self, tmp_path, capsys):
        path = self.write(tmp_path, FIG1B_REPORT)
        with pytest.raises(SystemExit) as exc:
            main([path, "--threads", "2"])
        assert exc.value.code == 2
