"""Freeze the benchmark's references from the current sources.

    python3 bench/freeze.py

Writes bench/golden/ (stdout and ``--out`` files of every README command)
and bench/reference.json (seed-0 results of the scaled-up jobs).  Run it only
on the commit whose outputs define "same"; the benchmark's checks compare
every later commit against these files.
"""

import json
import shutil

import workloads
from workloads import DEFAULT_SEED, GOLDEN_DIR, REFERENCE_FILE

SUMMARIES = {"scorecard_s": workloads.scorecard_fields,
             "marker_s": workloads.marker_summary,
             "mi_average_s": workloads.mi_value,
             "map_s": workloads.map_summary}


def main() -> None:
    workloads.use_checkout_sources()
    mods = workloads.load_qcb()
    workdir = workloads.BENCH_DIR / "out" / "freeze"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for i, job in enumerate(workloads.make_jobs("readme", DEFAULT_SEED, mods, workdir), 1):
        rc, stdout = job.run()
        if rc != 0:
            raise SystemExit(f"{job.name} exited with {rc}")
        (GOLDEN_DIR / f"{i:02d}.stdout").write_text(stdout)
    for produced in workdir.iterdir():
        shutil.copyfile(produced, GOLDEN_DIR / produced.name)
    shutil.rmtree(workdir)

    reference = {}
    for workload in ("spin_bus", "optomech"):
        for job in workloads.make_jobs(workload, DEFAULT_SEED, mods, workdir):
            if job.metric in SUMMARIES:
                reference[job.name] = SUMMARIES[job.metric](job.run())
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
