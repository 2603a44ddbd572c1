"""One fresh-process set-up, as every CLI user pays it: import qcb.cli and
every qcb module, run build_parser() and build the workload's inputs.

    python3 bench/setup_probe.py <workload> <seed>

Prints {"setup_s": seconds} on stdout.  run.py starts it several times per
run; with ``-X importtime`` it also yields the per-module import times.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    workloads.use_checkout_sources()
    mods = workloads.load_qcb()
    mods["cli"].build_parser()
    workloads.make_jobs(workload, seed, mods, workloads.BENCH_DIR / "out")
    print(json.dumps({"setup_s": time.perf_counter() - T0}))


if __name__ == "__main__":
    main()
