"""hamsim benchmark entry point.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see README.md in this directory) as a closed loop for S
seconds, checks every output, prints each metric by name with its unit and,
as the last line, one JSON object with the keys correct, attempted, failed
and metrics. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones. The full record of the run, with the machine and input
manifest, goes to benchmarks/out/. Exits 2 without a result when the
checkout holds no hamsim sources.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    # Set before NumPy loads, so that no BLAS pool competes with the
    # estimator's own worker threads; the CLI reads its worker count from
    # HAMSIM_THREADS, and single_state runs one thread.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    os.environ["HAMSIM_THREADS"] = "1"
    from workloads import HERE, WORKLOADS, ProgramMissing, import_hamsim

    args = parse_args(argv, WORKLOADS)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        hs = import_hamsim()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from harness import run_workload

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = out_dir / f"{stem}-spans.npz" if args.trace else None
    result = run_workload(hs, WORKLOADS[args.workload](), args.seed, args.seconds,
                          bool(args.trace), spans_path=spans_path)
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")

    print("manifest " + json.dumps(result["manifest"]))
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} = {value!r} {unit}")
    detail = result["detail"]
    if "latency_tail" in detail:
        tail = detail["latency_tail"]
        print(f"latency_tail_s is p{tail['percentile']:.1f} of {tail['ops']} ops")
    print(f"failed_frac = {result['failed'] / result['attempted']!r} "
          f"({result['failed']} of {result['attempted']} ops)")
    for failure in detail["failures"]:
        print(f"FAILED op {failure['index']} ({failure['phase']}): {failure['problems']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
