"""Benchmark entry point; run from the repository root.

    python3 perfbench/run.py --workload paper|derived|queries --seed N \
        --seconds S --trace 0|1

With --trace 0 it times the workload untraced and prints the end-to-end
metrics; with --trace 1 it runs rounds of the workload untraced and
traced, and prints the per-layer metrics and the tracing overhead.
Every operation's output is checked against the benchmark's reference
evaluators.  The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it holds
the details (raw seconds, calibration, tails, counters, input
properties, host).  Metric names and units come from BENCHMARK.json.
Besides bytecode caches, everything the run writes goes under
.bench_build/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys

import stats
import workloads

WORKLOADS = ("paper", "derived", "queries")


def _source_digest(src: str) -> str:
    """SHA-256 over the program's sources, standing in for the commit in a
    checkout that is not a git repository."""
    digest = hashlib.sha256()
    package = os.path.join(src, "twosquares")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _host() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }


def _end_to_end(rec, setup_rec) -> tuple[dict, dict]:
    times, raw = rec.times(), rec.times(scaled=False)
    setup, setup_raw = setup_rec.times()["setup"], setup_rec.times(scaled=False)["setup"]
    every = [t for cls in times for t in times[cls]]
    metrics = {
        "setup_s": stats.median(setup),
        "op_a_s": stats.median(times["a"]),
        "op_b_s": stats.median(times["b"]),
        "ops_per_s": len(every) / sum(every),
        "peak_rss_mb": rec.maxrss_kb / 1024.0,
    }
    detail = {
        "raw_s": {
            "setup_s": stats.median(setup_raw),
            "op_a_s": stats.median(raw["a"]),
            "op_b_s": stats.median(raw["b"]),
            "ops_total_s": sum(t for cls in raw for t in raw[cls]),
        },
        "samples": {cls: len(times[cls]) for cls in sorted(times)},
        "tails_s": {cls: stats.tail(times[cls]) for cls in sorted(times)},
    }
    return metrics, detail


def _per_layer(rounds: list[dict], imports: list[float], scale: float) -> tuple[dict, dict]:
    def per_round(fn):
        return stats.median([fn(r["trace"]) for r in rounds])

    first = rounds[0]["trace"]
    calls, items = first["calls"], first["items"]
    decisions = items.get("opposition.decisions", 0)
    metrics = {
        "cli.import_s": stats.median(imports) * scale,
        "formula.parse_calls": calls.get("formula.parse", 0),
        "formula.parse_us": per_round(
            lambda t: 1e6 * t["total_s"]["formula.parse"] / t["calls"]["formula.parse"]
        ) * scale,
        "analytic.decide_calls": calls.get("analytic.decide", 0),
        "analytic.models_enumerated": items.get("analytic.enumerate", 0),
        "synthetic.decide_calls": calls.get("synthetic.decide", 0),
        "synthetic.models_enumerated": items.get("synthetic.enumerate", 0),
        "synthetic.eval_calls": calls.get("synthetic.eval", 0) + calls.get("synthetic.derived_eval", 0),
        "synthetic.structures_enumerated": items.get("synthetic.structures", 0),
        "synthetic.derived_copula_calls": calls.get("synthetic.derived_copula", 0),
        "synthetic.decide_s": per_round(lambda t: t["total_s"].get("synthetic.decide", 0.0)) * scale,
        "opposition.classify_calls": calls.get("opposition.classify", 0),
        "opposition.classify_s": per_round(lambda t: t["total_s"].get("opposition.classify", 0.0)) * scale,
        "opposition.decisions": decisions,
        "opposition.repeated_decision_share":
            items.get("opposition.repeated_decisions", 0) / decisions if decisions else 0.0,
        "proofs.check_calls": calls.get("proofs.check", 0),
        "starb.elements_swept": items.get("starb.elements", 0),
        "report.bytes": items.get("report.bytes", 0),
        "trace.overhead": stats.median([r["traced_s"] / r["untraced_s"] - 1 for r in rounds]),
    }
    layer_self: dict = {}
    for name, seconds in first["self_s"].items():
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + seconds * scale
    detail = {
        "rounds": len(rounds),
        "round_untraced_s": [r["untraced_s"] for r in rounds],
        "round_traced_s": [r["traced_s"] for r in rounds],
        "layer_self_s": layer_self,
        "self_s": {k: v * scale for k, v in sorted(first["self_s"].items())},
        "total_s": {k: v * scale for k, v in sorted(first["total_s"].items())},
        "calls": dict(sorted(calls.items())),
        "items": dict(sorted(items.items())),
        "spans": len(first["spans"]),
    }
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="twosquares benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(src, "twosquares", "__init__.py")):
        print("error: src/twosquares not found; run from the repository root", file=sys.stderr)
        return 2
    if not os.path.isfile(spec_path):
        print("error: BENCHMARK.json not found; run from the repository root", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    sys.path.insert(0, src)
    import twosquares

    if os.path.dirname(os.path.abspath(twosquares.__file__)) != os.path.join(src, "twosquares"):
        print(f"error: imported twosquares from {twosquares.__file__}", file=sys.stderr)
        return 2

    # The cores of a shared host can run at very different speeds.  Pinning
    # this process, and so every interpreter it starts, to one fixed core
    # makes the operations and the calibration loop run on the same core.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    ctx = workloads.Context(root)
    rec = workloads.Recorder()
    setup_rec, imports = workloads.measure_setup(ctx, args.workload, args.seed)
    problems = []
    if args.trace:
        traced = workloads.run_traced(ctx, rec, args.workload, args.seed, args.seconds)
        rounds = traced["rounds"]
        scale = stats.scale(rec.calibration + setup_rec.calibration)
        computed, detail = _per_layer(rounds, imports, scale)
        counted = [{**r["trace"]["calls"], **r["trace"]["items"]} for r in rounds]
        if any(c != counted[0] for c in counted[1:]):
            problems.append("work counters differ between rounds of the same operations")
        properties = traced["properties"]
        with open(os.path.join(build, f"spans-{args.workload}-{args.seed}.json"), "w") as handle:
            json.dump([r["trace"]["spans"] for r in rounds], handle)
        wanted = spec["per_layer"]
    else:
        properties = workloads.run_timed(ctx, rec, args.workload, args.seed, args.seconds)
        computed, detail = _end_to_end(rec, setup_rec)
        wanted = spec["end_to_end"]

    calibration = rec.calibration + [x for op in rec.ops for x in op["samples"]]
    detail.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        calibration_s={
            "reference": stats.REFERENCE_CALIBRATION_S,
            "mean": sum(calibration) / len(calibration),
            "min": min(calibration),
            "max": max(calibration),
            "samples": len(calibration),
        },
        import_s=imports,
        error_rate=rec.failed / rec.attempted,
        problems=rec.problems + problems,
        input_properties=properties,
        host=_host(),
        source_sha256=_source_digest(src),
    )
    with open(os.path.join(build, f"detail-{args.workload}-{args.seed}-{args.trace}.json"), "w") as handle:
        json.dump({**detail, "ops": rec.ops, "calibration": rec.calibration}, handle)
    print(json.dumps({"detail": detail}))
    result = {
        "correct": rec.failed == 0 and not problems,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
