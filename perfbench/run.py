"""Run one benchmark workload against the checkout's corrpois; print metrics.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Untraced (``--trace 0``) the last line of stdout is a JSON object with the
end-to-end metrics; traced (``--trace 1``) it holds the per-layer metrics
and the spans go to ``perfbench/out/trace-<workload>-<seed>.json``.  The
same object is kept in ``perfbench/out/result-<workload>-<seed>-<trace>.json``.
See README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
from collections import Counter

import inputs

SETUP_SAMPLES = 5
LAYER_SAMPLES = 5

# Nearest-rank percentile for latency_tail_s: the highest one that leaves at
# least ten items beyond it at the workload's minimum number of rounds.
TAIL = {"corpus": 0.998, "large_n": 0.89, "cli": 0.90}

SPANS = (
    "pmf.poisson_binomial_pmf",
    "pmf.factorial_moments_sn",
    "corrected.spec",
    "corrected.build_phi_nu",
    "binomial.gamma_floats",
    "distances.tv",
    "distances.d2",
    "distances.certify_domination",
    "distances.d2_exact_product",
    "bounds.check_order2_bound",
    "bounds.check_order3_bound",
    "bounds.check_sandwich",
)

PROBES = {
    "cli.spawn_s": "import time; print(repr(time.process_time()))",
    "cli.import_s": "import corrpois, time; print(repr(time.process_time()))",
}


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def ready_seconds(argv: list[str], samples: int) -> float:
    """Median over fresh interpreters running ``argv`` of the CPU time each
    spent until it printed its own CPU clock, at the reference speed."""
    from workloads import SpeedGauge, spawn

    gauge = SpeedGauge()
    return statistics.median(float(spawn(argv, None)[1]) * gauge.block_scale()
                             for _ in range(samples))


def setup_seconds(workload: str, seed: int) -> float:
    argv = [sys.executable, str(inputs.BENCH_DIR / "setup_probe.py"), workload, str(seed),
            str(inputs.OUT / "probe" / workload)]
    return ready_seconds(argv, SETUP_SAMPLES)


def end_to_end(workload: str, seed: int, tally) -> dict[str, tuple[float, str]]:
    lat = tally.latencies
    if workload == "cli":
        rss_kb = tally.child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_seconds(workload, seed), "s"),
        "items_per_s": (len(lat) / math.fsum(lat), "1/s"),
        "latency_p50_s": (nearest_rank(lat, 0.5), "s"),
        "latency_tail_s": (nearest_rank(lat, TAIL[workload]), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer(tracer, tally) -> dict[str, tuple[float, str]]:
    """Busy time and calls per round for each span name, and the counts."""
    busy: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    for name, _, start, end, scale in tracer.spans:
        busy[name] += (end - start) * scale
        calls[name] += 1
    rounds = tally.rounds
    out = {}
    for name in SPANS:
        out[f"{name}.busy_s"] = (busy[name] / rounds, "s")
        out[f"{name}.calls"] = (calls[name] / rounds, "count")
    out["corrected.build_phi_nu.mass_points"] = (
        tracer.counts["corrected.build_phi_nu.mass_points"] / rounds, "count")
    for name, code in PROBES.items():
        out[name] = (ready_seconds([sys.executable, "-c", code], LAYER_SAMPLES), "s")
    out["cli.main_s"] = (busy["cli.main"] / rounds, "s")
    out["cli.stdout_bytes"] = (tracer.counts["cli.stdout_bytes"] / rounds, "count")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(TAIL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One CPU for this process and the children it starts, so that the speed
    # gauge runs on the CPU the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    inputs.use_checkout_package()
    import workloads

    work = inputs.build(args.workload, args.seed, inputs.OUT / args.workload)
    tracer = workloads.Tracer(bool(args.trace))
    tally = workloads.RUNS[args.workload](work, args.seconds, tracer)
    if not tally.latencies:
        print("perfbench: every item failed", file=sys.stderr)
        return 1
    items_per_s = len(tally.latencies) / math.fsum(tally.latencies)
    metrics = per_layer(tracer, tally) if args.trace else end_to_end(args.workload, args.seed, tally)
    for err in tally.errors[:20]:
        print(f"perfbench: check failed: {err}", file=sys.stderr)
    result = {
        "correct": not tally.errors,
        "attempted": len(tally.latencies) + tally.failed,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    tag = f"{args.workload}-{args.seed}-{args.trace}"
    inputs.OUT.mkdir(parents=True, exist_ok=True)
    (inputs.OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    if args.trace:
        trace = {"workload": args.workload, "seed": args.seed, "rounds": tally.rounds,
                 "items_per_s": items_per_s, "spans": tracer.spans}
        (inputs.OUT / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps(trace))
    print(f"perfbench: {args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={tally.rounds} items={len(tally.latencies)} failed={tally.failed} "
          f"items_per_s={items_per_s:.6g} check_failures={len(tally.errors)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
