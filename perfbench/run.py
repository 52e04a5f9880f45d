"""The repository benchmark's command line.

Run from the repository root::

    python3 perfbench/run.py --workload lcs2-dense --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics from a traced run.  The last
line of standard output is the result object (``correct``,
``attempted``, ``failed``, ``metrics``); the line before it is the full
report (fingerprint, samples, tail percentile, set-up breakdown,
simulator prediction, additivity table).  Exit status 0 means a result
was printed; without the ``repro`` sources beside ``perfbench/`` the
command prints nothing on standard output and exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
from multiprocessing import resource_tracker
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def stop_children() -> None:
    """Stop every process this run started and wait for each to end.

    The process backend's shared-memory segments start multiprocessing's
    resource tracker, a child that would otherwise outlive this process
    until it notices the exit.  Rank workers and forked set-ups are
    joined where they start; any still alive here are stopped too.
    """
    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join()
    resource_tracker._resource_tracker._stop()
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def main(argv=None) -> int:
    src = ROOT / "src"
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        args = _parse(argv, [w["name"] for w in declared["workloads"]])
        # Measure the sources in this checkout, never an installed copy.
        if not (src / "repro" / "__init__.py").is_file():
            raise ImportError(f"no repro package under {src}")
        sys.path.insert(0, str(src))
        import bench
    except (OSError, ValueError, KeyError, ImportError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2
    try:
        result, detail = bench.run(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    finally:
        stop_children()
    key = "per_layer" if args.trace else "end_to_end"
    result["metrics"] = bench.with_units(result["metrics"], declared[key])
    print(json.dumps({"report": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
