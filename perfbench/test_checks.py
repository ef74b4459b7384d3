"""The benchmark's checks pass gyrospec's real outputs and catch corrupted ones.

Run with ``python3 -m pytest perfbench``.  Each test writes a small real
output with gyrospec, checks that it passes, corrupts it the way a wrong
answer would look, and expects the check to fail.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gyrospec import cli, config  # noqa: E402

import checks  # noqa: E402
import workloads as wl  # noqa: E402

FIG_D2C = ((-1.0, 0.0), (0.0, 2.0))


def run(job, out: Path) -> Path:
    cli.run(config.parse_config(job.text), out_dir=str(out))
    checks.check_job(job, out)
    return out / f"{job.command}.csv"


def chart_job(command, count=41):
    return wl._chart_job("t", command, (1.0,), FIG_D2C, wl.FIG_K, wl.J,
                         wl._gains(delta=0.3), ("Omega", "kappa"),
                         ((-0.45, 0.45, count), (-0.3, 0.3, count)))


def rewrite(path: Path, edit) -> None:
    lines = path.read_text().split("\n")
    edit(lines)
    path.write_text("\n".join(lines))


def test_flipped_class_fails(tmp_path):
    job = chart_job("sweep")
    path = run(job, tmp_path)

    def flip(lines):
        k = next(i for i, line in enumerate(lines) if line.endswith(",flutter"))
        lines[k] = lines[k].rsplit(",", 1)[0] + ",asymptotically_stable"
    rewrite(path, flip)
    with pytest.raises(checks.CheckError, match="misclassified"):
        checks.check_job(job, tmp_path)


def test_max_re_off_reference_fails(tmp_path):
    job = chart_job("sweep")
    path = run(job, tmp_path)

    def nudge(lines):
        f = lines[5].split(",")
        f[4] = repr(float(f[4]) + 1e-4)
        lines[5] = ",".join(f)
    rewrite(path, nudge)
    with pytest.raises(checks.CheckError, match="max Re off"):
        checks.check_job(job, tmp_path)


def test_vertex_off_level_set_fails(tmp_path):
    job = chart_job("boundary")
    path = run(job, tmp_path)

    def move(lines):
        f = lines[3].split(",")
        f[1] = repr(float(f[1]) + 0.3 * 0.6 / 40)
        lines[3] = ",".join(f)
    rewrite(path, move)
    with pytest.raises(checks.CheckError, match="reference max Re"):
        checks.check_job(job, tmp_path)


def test_reversed_polyline_fails(tmp_path):
    job = chart_job("boundary")
    path = run(job, tmp_path)

    def reverse(lines):
        blocks = "\n".join(lines[1:]).strip("\n").split("\n\n")
        blocks[0] = "\n".join(reversed(blocks[0].split("\n")))
        lines[1:] = "\n\n".join(blocks).split("\n") + [""]
    rewrite(path, reverse)
    with pytest.raises(checks.CheckError, match="no flutter on their left"):
        checks.check_job(job, tmp_path)


def test_dropped_polyline_fails(tmp_path):
    job = chart_job("boundary")
    path = run(job, tmp_path)

    def drop(lines):
        blocks = "\n".join(lines[1:]).strip("\n").split("\n\n")
        lines[1:] = "\n\n".join(blocks[1:]).split("\n") + [""]
    rewrite(path, drop)
    with pytest.raises(checks.CheckError, match="carry no vertex"):
        checks.check_job(job, tmp_path)


def ep_job():
    return wl.singular(0)[0]


def test_shifted_ep_fails(tmp_path):
    job = ep_job()
    path = run(job, tmp_path)
    k0 = checks.kappa0(job.K, job.gains["nu"])

    def shift(lines):
        for i, line in enumerate(lines):
            f = line.split(",")
            if len(f) > 2 and f[0] == "exceptional" and abs(float(f[2]) - k0) < 1e-6:
                f[2] = repr(float(f[2]) + 1e-4)
                lines[i] = ",".join(f)
    rewrite(path, shift)
    with pytest.raises(checks.CheckError):
        checks.check_job(job, tmp_path)


def test_scaled_multiplier_fails(tmp_path):
    job = next(j for j in wl.singular(0) if j.command == "floquet")
    path = run(job, tmp_path)

    def scale(lines):
        f = lines[1].split(",")
        f[0], f[1] = repr(float(f[0]) * 1.001), repr(float(f[1]) * 1.001)
        lines[1] = ",".join(f)
    rewrite(path, scale)
    with pytest.raises(checks.CheckError, match="multiplier"):
        checks.check_job(job, tmp_path)


def test_wrong_kappa0_in_report_fails(tmp_path):
    job = next(j for j in wl.singular(0) if j.command == "report")
    path = run(job, tmp_path)

    def wrong(lines):
        f = lines[1].split(",")
        f[8] = repr(-float(f[8]))
        lines[1] = ",".join(f)
    rewrite(path, wrong)
    with pytest.raises(checks.CheckError, match="kappa0"):
        checks.check_job(job, tmp_path)


def test_workloads_are_seeded():
    for name in wl.WORKLOADS:
        a = [j.text for j in wl.make(name, 7)]
        assert a == [j.text for j in wl.make(name, 7)]
        assert a != [j.text for j in wl.make(name, 8)]
    fixed = [j for j in wl.charts(1) if j.known_fault]
    assert [j.text for j in fixed] == [j.text for j in wl.charts(2) if j.known_fault]
