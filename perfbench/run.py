"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload fempic-move --seed 1 \\
        --seconds 15 --trace 0

Prints a summary (every metric with its unit and sample count, the
output checks and the run's provenance) and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  The full result and, for traced
runs, a Chrome trace are written under ``.perfbench/``.
"""
from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fempic-move", "cabana-2rank", "service-mix")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny problems for the benchmark's own tests; "
                             "not for measurement")
    args = parser.parse_args(argv)
    # a termination request unwinds like an error, so every process the
    # workload started is stopped and waited for on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)

    from perfbench import common
    module = importlib.import_module(
        "perfbench." + args.workload.replace("-", "_"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    size = "smoke" if args.smoke else "full"
    res = common.Result(args.workload, common.provenance(
        args.seed, args.seconds, args.trace,
        dict(module.params(args.seed, size), size=size)))
    module.run(res, args.seed, args.seconds, bool(args.trace), size)
    if args.trace:
        names = spec["per_layer"]
        for m in names:
            if m["name"] not in res.metrics:
                # the layer is not on this workload's path
                res.metric(m["name"], 0.0, m["unit"], absent=True)
    else:
        names = spec["end_to_end"]
    res.emit([m["name"] for m in names])
    return 0


if __name__ == "__main__":
    sys.exit(main())
