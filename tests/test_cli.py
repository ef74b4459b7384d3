from dataclasses import replace

import numpy as np
import pytest

from gyrospec import atlas, floquet, qep
from gyrospec.cli import main, run
from gyrospec.config import parse_config
from gyrospec.model import PerturbationSet, RotorModel
from gyrospec.perturbation import perturbation_report
from gyrospec.tolerances import DEFAULT, TOLERANCE_KEYS

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

    AXES = {"Omega": "-0.4:0.4", "kappa": "-0.2:0.2", "delta": "0:0.3",
            "nu": "-0.1:0.1"}
    GAINS = {"Omega": "0.1", "kappa": "0.05", "delta": "0.3", "nu": "-0.0"}

    def test_sweep(self, tmp_path, monkeypatch):
        self.check_sweep(tmp_path, monkeypatch, self.CHART.format("sweep", 6, 4),
                         ("Omega", "kappa"))

    @pytest.mark.parametrize("plane", [("Omega", "kappa"), ("Omega", "delta"),
                                       ("Omega", "nu"), ("kappa", "delta"),
                                       ("kappa", "nu"), ("delta", "nu")],
                             ids="-".join)
    def test_sweep_planes(self, tmp_path, monkeypatch, plane):
        text = ("command = sweep\nmodel.n = 1\nmodel.omegas = 1.0\n"
                "matrices.D = -1,0,0,2\nmatrices.K = 1,1,1,2\n"
                "matrices.N = 0,1,-1,0\n"
                + "".join(f"gains.{name} = {value}\n"
                          for name, value in self.GAINS.items() if name not in plane)
                + f"axes.{plane[0]} = {self.AXES[plane[0]]}:6\n"
                + f"axes.{plane[1]} = {self.AXES[plane[1]]}:4\n")
        self.check_sweep(tmp_path, monkeypatch, text, plane)

    def check_sweep(self, tmp_path, monkeypatch, text, plane):
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
        path = run(parse_config(text), out_dir=str(tmp_path))[0]
        chart, = charts
        assert chart.plane == plane
        rows = []
        for i in range(len(chart.axis1)):
            for j in range(len(chart.axis2)):
                p = {**chart.fixed, chart.plane[0]: float(chart.axis1[i]),
                     chart.plane[1]: float(chart.axis2[j])}
                rows.append((p["Omega"], p["kappa"], p["delta"], p["nu"],
                             chart.max_re[i, j], chart.im_at_max[i, j],
                             atlas.CLASS_NAMES[chart.class_codes[i, j]]))
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

    def test_fig2_morphology_files(self, tmp_path, monkeypatch):
        # solver points spent on the boundary vertices of each chart
        points = []
        trace, max_re = atlas.trace_boundary, atlas.max_re_at_points

        def counted_trace(*args, **kwargs):
            points.append(0)
            return trace(*args, **kwargs)

        def counted_max_re(model, pert, plane, pts):
            points[-1] += len(pts)
            return max_re(model, pert, plane, pts)

        monkeypatch.setattr(atlas, "trace_boundary", counted_trace)
        monkeypatch.setattr(atlas, "max_re_at_points", counted_max_re)
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
        # the 201x201 charts keep their vertex counts, every vertex within
        # boundary_residual, with Illinois steps spending at most 2,000 and
        # 2,500 solver points (plain bisection spent 5,678 and 8,822)
        assert len(points) == 2
        for (label, vertices, most), spent in zip(
                (("a", 327, 2000), ("c", 446, 2500)), points):
            text = (tmp_path / f"fig2{label}_boundary.csv").read_text()
            rows = [line.split(",") for line in text.split("\n")[1:] if line]
            assert len(rows) == vertices
            assert max(float(r[2]) for r in rows) < DEFAULT.boundary_residual
            assert spent <= most


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

    @pytest.mark.parametrize("command", ["spectrum", "report", "floquet"])
    @pytest.mark.parametrize("gain", ["Omega", "delta", "kappa", "nu"])
    def test_huge_gain_overflow_exit1(self, tmp_path, capsys, command, gain):
        # squares of gains this large overflow a double: the solver's
        # overflow gate (or floquet's gate on a non-finite monodromy)
        # answers, no Python OverflowError escapes and numpy warns nothing
        base = FIG1B_REPORT.replace("report", command)
        if command == "floquet":
            base += "gains.Omega = 0.4\n"  # Omega = 0 has an infinite period
        text = "".join(line + "\n" for line in base.splitlines()
                       if not line.startswith(f"gains.{gain}"))
        path = self.write(tmp_path, text
                          + f"gains.{gain} = 1e160\noutput.path = {tmp_path}/out\n")
        assert main([path]) == 1
        assert qep._OVERFLOW_MESSAGE in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    def test_floquet_liouville_underflow_exit0(self, tmp_path, capsys):
        # exp(-delta trD T) underflows a double: the Liouville check runs
        # in log space and passes on its floor; the column holds the
        # library's relative defect of the computed det M (1 or inf,
        # depending on the LAPACK build), never NaN
        text = (FIG1B_REPORT.replace("report", "floquet")
                .replace("matrices.D = -1,0,0,2", "matrices.D = 1,0,0,1")
                .replace("gains.delta = 0.3", "gains.delta = 60"))
        path = self.write(tmp_path, text + "gains.Omega = 0.4\n"
                          + f"output.path = {tmp_path}/out\n")
        assert main([path]) == 0
        header, rows = read_rows(tmp_path / "out" / "floquet.csv")
        liouville = np.array(rows, dtype=float)[:, header.index("liouville_error")]
        ps = floquet.PeriodicSystem(RotorModel((1.0,)), PerturbationSet(
            D=np.eye(2), K=np.array([[1.0, 1.0], [1.0, 2.0]]), delta=60.0,
            kappa=0.2, Omega=0.4))
        expected = floquet.monodromy(ps).liouville_error
        assert expected >= 1.0
        assert (liouville == expected).all()

    def test_bad_tol_exit2(self, tmp_path, capsys):
        path = self.write(tmp_path, FIG1B_REPORT)
        assert main([path, "--tol", "nonsense=1"]) == 2
        assert main([path, "--tol", "druh"]) == 2

    def test_removed_tol_exit2(self, tmp_path, capsys):
        path = self.write(tmp_path, FIG1B_REPORT)
        for key in ("ep_disc_rtol", "cluster_rtol", "qep_residual_rtol"):
            assert main([path, "--tol", f"{key}=1e-10"]) == 2
            assert key in capsys.readouterr().err

    def test_fig1_rejected_row_exit1(self, tmp_path, capsys):
        # fig1's exact rows have worst scaled root residuals up to 1.9e-17
        path = self.write(tmp_path, f"command = fig1\noutput.path = {tmp_path}/out\n")
        assert main([path, "--tol", "poly_residual=1e-18"]) == 1
        assert "root residual" in capsys.readouterr().err

    def test_floquet_poly_residual_exit1(self, tmp_path, capsys):
        # the autonomous spectrum of the duality check takes the same gate
        path = self.write(tmp_path, FIG1B_REPORT.replace("report", "floquet")
                          + "gains.Omega = 0.4\nfloquet.steps = 1024\n"
                          + f"output.path = {tmp_path}/out\n")
        assert main([path, "--tol", "poly_residual=1e-300"]) == 1
        assert "root residual" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("key", TOLERANCE_KEYS)
    def test_bad_tol_value_exit2(self, tmp_path, capsys, key, value):
        # --tol and tolerance.* keys both end in Tolerances' check, before
        # anything is solved or written
        out = tmp_path / "out"
        path = self.write(tmp_path, FIG1B_REPORT + f"output.path = {out}\n")
        assert main([path, "--tol", f"{key}={value}"]) == 2
        assert key in capsys.readouterr().err
        path = self.write(tmp_path, FIG1B_REPORT + f"tolerance.{key} = {value}\n"
                          + f"output.path = {out}\n")
        assert main([path]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_gain_exit2(self, tmp_path, capsys):
        path = self.write(tmp_path, FIG1B_REPORT.replace("gains.delta = 0.3",
                                                         "gains.delta = nan"))
        assert main([path]) == 2
        assert "line 7: gains.delta" in capsys.readouterr().err

    def test_non_utf8_config_exit2(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"command = spectrum\nmodel.omegas = 1.0\n# \xff\n")
        assert main([str(path)]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_tol_override_applies(self, tmp_path):
        path = self.write(tmp_path, FIG1B_REPORT
                          + f"output.path = {tmp_path}/out\n")
        assert main([path, "--tol", "marginal_rtol=1e-10"]) == 0

    def test_threads_option_removed(self, tmp_path, capsys):
        path = self.write(tmp_path, FIG1B_REPORT)
        with pytest.raises(SystemExit) as exc:
            main([path, "--threads", "2"])
        assert exc.value.code == 2
