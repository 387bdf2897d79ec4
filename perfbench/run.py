"""Run one benchmark workload and print its result as the last line.

Usage, from the root of a checkout (no install step, no network)::

    python3 perfbench/run.py --workload serve_small --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` the
per-layer ones, and writes the recorded spans under ``perfbench/out/``.
The exit code is 0 only when every correctness check passed.  Every
process the run starts has ended, and been waited for, before it exits.
"""

from time import perf_counter

_PROCESS_START = perf_counter()

import argparse  # noqa: E402  (the clock above starts before any import)
import json  # noqa: E402
import pathlib  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[1]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    """Import the program and the benchmark, as a run does before set-up.

    Their import time is part of set-up; the harness also times this
    function in fresh interpreters (``harness.fresh_import_s``).
    """
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import numpy  # noqa: F401
    import repro.analysis.sweep  # noqa: F401
    import repro.plan.pool  # noqa: F401
    import repro.serve.server  # noqa: F401

    import perfbench.harness  # noqa: F401
    import perfbench.procs  # noqa: F401
    import perfbench.workloads  # noqa: F401


def main(argv=None) -> int:
    args = parse_args(argv)
    # Terminated, a run still closes and waits for what it started.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"no program source at {src}: run from a checkout root",
              file=sys.stderr)
        return 2
    import_program()
    import_s = perf_counter() - _PROCESS_START

    from perfbench.harness import run
    from perfbench.procs import stop_children
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        result, report = run(args.workload, args.seed, args.seconds,
                             bool(args.trace), import_s)
    finally:
        stop_children()
    for line in report:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
