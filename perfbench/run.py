#!/usr/bin/env python3
"""gyrospec benchmark: one workload, one seed, whole rounds of jobs.

    python3 perfbench/run.py --workload charts --seed 1 --seconds 25 --trace 0

A job is ``config.parse_config`` on a generated config followed by
``cli.run`` into a temporary directory.  Jobs run one after another in
this process (closed loop, one client, no threads) in whole rounds of
the workload's fixed list, until the jobs have run for ``--seconds`` of
wall time.  Every output is checked against computations made apart
from gyrospec (checks.py).

Times are reported in reference seconds: wall time * R_NOM / R, with R
the mean time of a fixed numpy-only kernel (reference.py) run in the
same process right before and right after the job.  With ``--trace 0``
the last stdout line holds the end-to-end metrics; with ``--trace 1``
it holds the per-layer metrics of a traced run and the tracing overhead.
See README.md.
"""

import os

# Pin the environment before numpy loads: one BLAS thread, no gyrospec
# worker threads (the benchmark never passes threads to cli.run either).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("GYROSPEC_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
SETUP_STARTS = 7

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

SETUP_CODE = """
import sys
from gyrospec.config import parse_config
import workloads
for job in workloads.make(sys.argv[1], int(sys.argv[2])):
    parse_config(job.text)
"""


def import_gyrospec():
    """gyrospec from this checkout's src/, never an installed copy."""
    if not (SRC / "gyrospec" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gyrospec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gyrospec
    from gyrospec import cli, config
    if Path(gyrospec.__file__).resolve().parent != (SRC / "gyrospec").resolve():
        raise SystemExit(f"perfbench: imported gyrospec from {gyrospec.__file__}")
    return cli, config


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of SETUP_STARTS fresh interpreters importing gyrospec
    and parsing the workload's configs.  An unmeasured first start fills
    the bytecode caches."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, "-c", SETUP_CODE, workload, str(seed)]
    walls = []
    for _ in range(SETUP_STARTS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=120)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls[1:])


class Runner:
    """Runs whole rounds of the job list and keeps the failure counts.

    Within a round the jobs run back to back with one kernel run between
    each two of them, so that job i is normalised by the mean of the
    kernel times right before and right after it.  On a shared machine
    the speed drifts by several per cent within a second; the mean of the
    two neighbours follows it through the job better than the kernel
    before the job alone (README.md).  The outputs are checked after the
    round.
    """

    def __init__(self, jobs, kernel, r_nom, cli, config, checks, out_root):
        self.jobs = jobs
        self.kernel = kernel
        self.r_nom = r_nom
        self.cli = cli
        self.config = config
        self.checks = checks
        self.out_root = out_root
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reference_cache = {}
        self.kernel_times = []
        self.job_seconds = 0.0
        self.peak_rss_kb = None

    def _run(self, job, out, tracer):
        """Parse and run one job; returns (wall seconds, files, counters)."""
        if tracer is not None:
            tracer.c.clear()
        files = None
        t0 = time.perf_counter()
        try:
            cfg = self.config.parse_config(job.text)
            t1 = time.perf_counter()
            if tracer is None:
                files = self.cli.run(cfg, out_dir=str(out))
            else:
                span = tracer.open("cli.run")
                try:
                    files = self.cli.run(cfg, out_dir=str(out))
                finally:
                    dur = tracer.close(span)
                tracer.c["cli.self_s"] += dur - span.child
        except Exception:  # a job that raises is a failed job, the run goes on
            traceback.print_exc(file=sys.stderr)
            t1 = time.perf_counter()
        wall = time.perf_counter() - t0
        counters = None
        if tracer is not None:
            counters = dict(tracer.c)
            counters["config.parse_s"] = t1 - t0
            counters["cli.bytes_written"] = sum(Path(f).stat().st_size for f in files or ())
        return wall, files, counters

    def _check(self, job, out, ran: bool) -> None:
        ok = ran
        if ok:
            try:
                self.checks.check_job(job, out, self.reference_cache)
            except self.checks.CheckError as exc:
                ok = False
                if job.known_fault is None:
                    print(f"perfbench: {job.name}: {exc}", file=sys.stderr)
        self.attempted += 1
        if not ok:
            self.failed += 1
            if job.known_fault is None:
                self.correct = False

    def round(self, tracer=None):
        """One pass over the job list; returns (normalised times, counters)."""
        if tracer is not None:
            tracer.install()
        try:
            refs = [self.kernel()]
            runs = []
            for i, job in enumerate(self.jobs):
                runs.append(self._run(job, self.out_root / f"job{i}", tracer))
                refs.append(self.kernel())
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.kernel_times += refs
        self.job_seconds += sum(run[0] for run in runs)
        if self.peak_rss_kb is None:
            # gyrospec's peak, read before the checks of the first round
            # add their own allocations
            self.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        times = []
        totals = defaultdict(float)
        for i, (job, (wall, files, counters)) in enumerate(zip(self.jobs, runs)):
            factor = self.r_nom / (0.5 * (refs[i] + refs[i + 1]))
            times.append(wall * factor)
            for key, value in (counters or {}).items():
                is_time = key.endswith(".s") or key.endswith("_s")
                totals[key] += value * factor if is_time else value
            out = self.out_root / f"job{i}"
            self._check(job, out, files is not None)
            shutil.rmtree(out, ignore_errors=True)
        return times, totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # a terminated run still removes its output directories
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    cli, config = import_gyrospec()
    import checks
    import reference
    import tracing

    jobs = workloads.make(args.workload, args.seed)
    kernel = reference.ReferenceKernel()
    for _ in range(5):
        kernel()
    out_root = TMP / str(os.getpid())
    out_root.mkdir(parents=True, exist_ok=True)
    runner = Runner(jobs, kernel, reference.R_NOM, cli, config, checks, out_root)
    metrics = {}
    try:
        if args.trace == 0:
            setup_wall = measure_setup(args.workload, args.seed)
            times = []
            while runner.job_seconds < args.seconds:
                times += runner.round()[0]
            # A start is bound by loading files more than by arithmetic, and
            # one kernel before it tells its speed no better than the run's
            # median kernel time does; that median still takes out the drift
            # between processes.
            r_run = statistics.median(runner.kernel_times)
            metrics["setup_s"] = (setup_wall * reference.R_NOM / r_run, "s")
            metrics["job_p50_s"] = (statistics.median(times), "s")
            metrics["jobs_per_s"] = (len(times) / sum(times), "1/s")
            metrics["peak_rss_mb"] = (runner.peak_rss_kb / 1024.0, "MB")
        else:
            # untraced and traced rounds alternate; the overhead is the
            # median ratio of each job's traced to untraced time
            tracer = tracing.Tracer()
            ratios, per_round = [], []
            while runner.job_seconds < args.seconds:
                plain, _ = runner.round()
                traced, counters = runner.round(tracer)
                ratios += [b / a for a, b in zip(plain, traced)]
                per_round.append(tracing.layer_metrics(counters))
            for name, (_, unit) in per_round[0].items():
                metrics[name] = (statistics.median(r[name][0] for r in per_round), unit)
            metrics["trace.overhead_pct"] = (
                100.0 * (statistics.median(ratios) - 1.0), "%")
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass

    print(f"reference kernel: median {statistics.median(runner.kernel_times):.6g} s "
          f"over {len(runner.kernel_times)} runs, R_NOM = {reference.R_NOM} s")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
