"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload experiment --seed 1 --seconds 20 --trace 0

Workloads: ``experiment``, ``ingest_burst``, ``ingest_paced`` (see
perfbench/README.md). With ``--trace 0`` the result carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics from a traced
run and writes every span to ``perfbench/out/trace-<workload>-<seed>.json``.
Detail lines come first; the last line of stdout is the JSON result. The
exit code is 0 when every correctness check passed and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import common  # pins OPENBLAS_NUM_THREADS before anything imports numpy

WORKLOADS = ("experiment", "ingest_burst", "ingest_paced")
BENCHMARK_JSON = common.ROOT / "BENCHMARK.json"


def _declared_metrics(section: str) -> list[str]:
    return [m["name"] for m in json.loads(BENCHMARK_JSON.read_text())[section]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a short run for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not common.sources_present() or not BENCHMARK_JSON.is_file():
        print(f"error: no woodwatch sources under {common.SRC} or no {BENCHMARK_JSON.name}; "
              "run from a full checkout", file=sys.stderr)
        return 2

    work = common.OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.workload == "experiment":
            import experiment as workload
        else:
            import ingest as workload
        size = workload.TINY if args.size == "tiny" else workload.FULL
        if args.workload == "experiment":
            result = workload.run(work, args.seed, args.seconds, bool(args.trace), size)
        else:
            result = workload.run(work, args.workload == "ingest_paced", args.seed,
                                  args.seconds, bool(args.trace), size)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail = dict(result["detail"])
    detail["environment"] = common.environment()
    detail["end_to_end"] = {k: v[0] for k, v in result["end_to_end"].items()}
    if args.trace:
        traced = result["traced_end_to_end"]
        detail["traced_end_to_end"] = {k: v[0] for k, v in traced.items()}
        detail["tracing_overhead"] = {k: traced[k][0] - v[0] for k, v in result["end_to_end"].items()}
        detail["layers"] = {k: v[0] for k, v in result["layers"].items()}
        trace_file = common.OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                          "spans": result["spans"], "layers": detail["layers"]}))
        detail["trace_file"] = str(trace_file.relative_to(common.ROOT))
    detail["problems"] = result["problems"]
    common.emit_detail(detail)

    if args.trace:
        overhead = (result["traced_end_to_end"]["cpu_ms_per_clip"][0]
                    / result["end_to_end"]["cpu_ms_per_clip"][0] - 1.0) * 100.0
        available = dict(result["layers"], **{"trace.overhead_pct": (overhead, "%")})
        names = _declared_metrics("per_layer")
    else:
        available = result["end_to_end"]
        names = _declared_metrics("end_to_end")
    missing = [n for n in names if n not in available]
    problems = result["problems"] + [f"metric {n} was not measured" for n in missing]
    correct = not problems
    metrics = {n: {"value": available[n][0], "unit": available[n][1]} for n in names if n in available}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
