"""Outside-in benchmark of qcb.

    python3 bench/run.py --workload {readme,spin_bus,optomech} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; qcb is imported from its ``src/``.  One
process, one client, closed loop: each job starts when the previous one has
ended.  With ``--trace 0`` the run measures set-up in fresh processes, then
repeats untraced passes over the workload's jobs for about ``--seconds``
seconds and reports the end-to-end metrics.  Between jobs it runs a fixed
calibration kernel, whose time tracks how fast the shared machine runs at
the moment; ``wall_norm`` is the pass time in units of that kernel's time.
With ``--trace 1`` it alternates untraced and traced passes (at least two of
each) and reports the per-layer metrics.  Every output is checked in every
pass.  A table with units and sample counts goes to stdout, followed by one
JSON line holding the metrics listed in BENCHMARK.json; the full result, with
the environment block, is written to bench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import workloads
from spans import Tracer
from workloads import BENCH_DIR, ROOT

OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
# Calibration time spent after each job, as a share of the job's time.
CALIB_SHARE = 0.1
IMPORTTIME_MODULES = ("qcb", "qcb.exceptions", "qcb.qstate", "qcb.gaussian",
                      "qcb.spin_lde", "qcb.ed", "qcb.optomech_stationary",
                      "qcb.optomech_unitary", "qcb.output", "qcb.cli", "scipy.stats")


class Calibration:
    """A fixed mix of the kinds of work the jobs do, none of it in qcb:
    scalar float and complex math through ``math`` and numpy scalars, float
    formatting, small LAPACK calls, a BLAS matmul and a stream over a 16 MB
    array.

    The machine is shared: the same loop runs up to 2x slower for seconds to
    minutes, and CPU time slows with wall time, so the CPU itself runs
    slower.  Sampled between jobs, in proportion to the jobs' time, the
    kernel's mean time gives the run's machine speed.  A bare integer loop
    tracked the slowdown of the interpreter-heavy jobs badly, hence the mix.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = rng.random((200, 200))
        small = rng.random((40, 40))
        self.symmetric = small + small.T
        self.stream = np.empty(2_000_000)
        self.phases = [complex(math.cos(i), math.sin(i)) for i in range(1500)]

    def sample(self) -> float:
        clock = time.perf_counter
        start = clock()
        acc = 0.0
        for i, z in enumerate(self.phases):
            acc += math.lgamma(i + 1.5) - math.log1p(i) + float(np.angle(z)) * abs(z) ** 2
        text = ",".join(f"{acc / (i + 1):.9g}" for i in range(3000))
        acc += len(text)
        for _ in range(16):
            acc += float(np.linalg.eigvalsh(self.symmetric)[0])
        for _ in range(5):
            self.matrix @ self.matrix
        self.stream[:] = acc
        self.stream.sum()
        return clock() - start

    def run_for(self, seconds: float, samples: list) -> None:
        """Append at least one sample, and more until ``seconds`` are spent."""
        spent = 0.0
        while True:
            samples.append(self.sample())
            spent += samples[-1]
            if spent >= seconds:
                return


@dataclass
class PassResult:
    traced: bool
    wall_s: float
    job_s: dict
    outputs: dict               # sha256 of byte outputs, float tuples as they are
    peak_rss_mb: float          # ru_maxrss of this process when the pass ended
    calib_s: list               # calibration samples taken after the jobs
    failures: dict = field(default_factory=dict)
    layers: dict | None = None


def run_pass(jobs, workdir: Path, calib: Calibration,
             tracer: Tracer | None = None) -> PassResult:
    """Run every job once, timed, each followed by calibration samples, then
    check every output."""
    for stale in workdir.iterdir():
        stale.unlink()
    raws, job_s, calib_s = {}, {}, []
    clock = time.perf_counter
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        start = clock()
        try:
            raws[job.name] = job.run()
        except Exception as exc:  # a failing job is counted, the run goes on
            raws[job.name] = exc
        job_s[job.name] = clock() - start
        calib.run_for(CALIB_SHARE * job_s[job.name], calib_s)
    wall = sum(job_s.values())
    result = PassResult(tracer is not None, wall, job_s, {},
                        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, calib_s)
    for job in jobs:
        raw = raws[job.name]
        if isinstance(raw, Exception):
            payload, problem = b"", f"raised {raw!r}"
        else:
            try:
                payload, problem = job.collect(raw)
            except Exception as exc:  # a check that cannot parse the output
                payload, problem = b"", f"check raised {exc!r}"
        result.outputs[job.name] = (payload if isinstance(payload, tuple)
                                    else hashlib.sha256(payload).hexdigest())
        if problem:
            result.failures[job.name] = problem
    if tracer is not None:
        result.layers = tracer.layer_metrics()
    return result


def run_window(jobs, workdir, seconds, required, repeat, tracer=None) -> list[PassResult]:
    """Run the ``required`` passes, then ``repeat`` cyclically until the next
    pass would end after ``seconds``.  Each entry says whether it is traced."""
    passes = []
    calib = Calibration()
    start = time.perf_counter()
    for traced in itertools.chain(required, itertools.cycle(repeat)):
        if traced:
            tracer.reset()
            with tracer.active():
                passes.append(run_pass(jobs, workdir, calib, tracer))
        else:
            passes.append(run_pass(jobs, workdir, calib))
        elapsed = time.perf_counter() - start
        if len(passes) >= len(required) and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def check_determinism(jobs, passes: list[PassResult]) -> None:
    """Every pass, traced or not, must reproduce the first pass's output."""
    first = passes[0]
    for job in jobs:
        if job.name in first.failures:
            continue
        want = first.outputs[job.name]
        for p in passes[1:]:
            if job.name in p.failures:
                continue
            got = p.outputs[job.name]
            same = (got == want if not job.tolerance else
                    all(abs(a - b) <= job.tolerance for a, b in zip(got, want)))
            if not same:
                p.failures[job.name] = "output differs from the first pass"


def setup_probe(workload: str, seed: int, importtime: bool = False):
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + \
        [str(BENCH_DIR / "setup_probe.py"), workload, str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"], proc.stderr


def import_times(stderr: str) -> dict:
    """Cumulative import time [s] per module from ``-X importtime`` output."""
    found = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        name = name.strip()
        if name in IMPORTTIME_MODULES and cumulative.strip().isdigit():
            found[name] = int(cumulative) * 1e-6
    return {f"setup.import.{m}_s": found.get(m, 0.0) for m in IMPORTTIME_MODULES}


def blas_info() -> tuple[str, int | None]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return f"{blas.get('name')} {blas.get('version')}", threads


def environment(qcb_threads_set: bool) -> dict:
    blas, threads = blas_info()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "blas_threads": threads,
            "nproc": len(os.sched_getaffinity(0)), "QCB_THREADS_set": qcb_threads_set,
            "load1_start": os.getloadavg()[0]}


def median_of(values):
    return statistics.median(values) if values else float("nan")


def timed_run(args, jobs, workdir) -> tuple[dict, dict]:
    # Two passes at least: on a slow spell a single spin_bus or optomech pass
    # can take half the window, and one pass is too few to take a mean over.
    passes = run_window(jobs, workdir, args.seconds, [False, False], [False])
    check_determinism(jobs, passes)
    # wall_norm compares time averages: the passes' mean time over the mean
    # calibration sample, both spread over the whole run.  Medians of the two
    # follow different parts of the machine's swings and spread more.
    calib = [c for p in passes for c in p.calib_s]
    wall_mean = statistics.fmean(p.wall_s for p in passes)
    metrics = {"wall_s": (median_of([p.wall_s for p in passes]), "s", len(passes)),
               "wall_norm": (wall_mean / statistics.fmean(calib), "ratio", len(passes)),
               "calib_s": (median_of(calib), "s", len(calib))}
    # Per-job times, reported on the workload that runs the job.
    metric_of = {job.name: job.metric for job in jobs}
    for metric in dict.fromkeys(m for m in metric_of.values() if m):
        per_pass = [sum(t for name, t in p.job_s.items() if metric_of[name] == metric)
                    for p in passes]
        metrics[metric] = (median_of(per_pass), "s", len(passes))
    # Later passes repeat the same jobs; their peak only adds allocator noise
    # (a second 16-spin probe gap can raise it by 25 MB or not), so the peak
    # is read once the first pass has ended.
    metrics["peak_rss_mb"] = (passes[0].peak_rss_mb, "MiB", 1)
    return metrics, {"passes": passes}


def traced_run(args, jobs, workdir, mods) -> tuple[dict, dict]:
    tracer = Tracer({k: mods[k] for k in workloads.QCB_MODULES})
    passes = run_window(jobs, workdir, args.seconds,
                        [False, True, False, True], [False, True], tracer)
    check_determinism(jobs, passes)
    # The first pass also pays one-off costs (lazy imports inside qcb), so
    # the overhead compares traced passes with the later untraced ones.
    untraced = [p for p in passes[1:] if not p.traced]
    traced = [p for p in passes if p.traced]
    problems = []
    layers = {}
    for key in traced[0].layers:
        values = [p.layers[key] for p in traced]
        if key.endswith("self_s"):
            layers[key] = (median_of(values), "s", len(values))
        else:
            if len(set(values)) != 1:
                problems.append(f"{key} differs between traced passes: {values}")
            unit = "ratio" if "_per_" in key else ("B" if key.endswith(".bytes") else "count")
            layers[key] = (values[0], unit, len(values))
    overhead = median_of([p.wall_s for p in traced]) / median_of([p.wall_s for p in untraced]) - 1.0
    layers["trace.overhead_ratio"] = (overhead, "ratio", len(traced))
    samples = [import_times(setup_probe(args.workload, args.seed, importtime=True)[1])
               for _ in range(IMPORTTIME_SAMPLES)]
    for key in samples[0]:
        layers[key] = (median_of([s[key] for s in samples]), "s", len(samples))
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz")
    return layers, {"passes": passes, "problems": problems}


def print_table(title: str, env: dict, metrics: dict) -> None:
    print(title)
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    width = max(len(k) for k in metrics)
    print(f"{'metric':<{width}}  {'median':>14}  {'unit':<6} n")
    for name, (value, unit, n) in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:<{width}}  {shown:>14}  {unit:<6} {n}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                        help="'all' runs every workload, untraced then traced")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    qcb_threads_set = os.environ.pop("QCB_THREADS", None) is not None
    workloads.use_checkout_sources()
    if args.workload == "all":
        return max(subprocess.run([sys.executable, __file__, "--workload", w,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(t)]).returncode
                   for w in workloads.WORKLOADS for t in (0, 1))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment(qcb_threads_set)

    setup = []
    if not args.trace:
        setup = [setup_probe(args.workload, args.seed)[0] for _ in range(SETUP_SAMPLES)]
    mods = workloads.load_qcb()
    ref = workloads.load_reference() if args.seed == workloads.DEFAULT_SEED else None
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        jobs = workloads.make_jobs(args.workload, args.seed, mods, workdir, ref)
        if args.trace:
            metrics, detail = traced_run(args, jobs, workdir, mods)
            wanted = spec["per_layer"]
        else:
            metrics, detail = timed_run(args, jobs, workdir)
            metrics = {"setup_s": (median_of(setup), "s", len(setup))} | metrics
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["load1_end"] = os.getloadavg()[0]

    passes = detail["passes"]
    attempted = len(jobs) * len(passes)
    failed = sum(len(p.failures) for p in passes)
    problems = detail.get("problems", [])
    metrics["fail_ratio"] = (failed / attempted, "ratio", attempted)
    for i, p in enumerate(passes):
        for name, problem in p.failures.items():
            print(f"bench: pass {i} job {name}: {problem}", file=sys.stderr)
    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)

    shown = [m["name"] for m in wanted]
    shown += [k for k in ("wall_s", "wall_norm", "calib_s") if k in metrics and k not in shown]
    shown += [job.metric for job in jobs if job.metric in metrics and job.metric not in shown]
    print_table(f"qcb bench workload={args.workload} seed={args.seed} trace={args.trace} "
                f"passes={len(passes)} ({sum(p.traced for p in passes)} traced)", env,
                {k: metrics[k] for k in shown + ["fail_ratio"]})
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                          for m in wanted}}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env, "setup_samples_s": setup,
              "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
              "passes": [{"traced": p.traced, "wall_s": p.wall_s, "job_s": p.job_s,
                          "calib_s": p.calib_s, "peak_rss_mb": p.peak_rss_mb,
                          "failures": p.failures}
                         for p in passes],
              "problems": problems}
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
