"""Open-loop decision-serving benchmark over a Zipf paper-workload mix.

Usage (from the repository root)::

    python3 perfbench/run.py --workload plan-zipf --seed 1 --seconds 26 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 26

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
serves the high rate three times (untraced, with per-layer wrappers
installed, untraced again) and reports the per-layer metrics.  The last
line of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); the full stamped result and the span log go to
``perfbench/out/``.  ``--workload all`` runs every workload in its own
process and prints each one's end-to-end metrics.  The exit code is
non-zero when any served result differs from the synchronous reference.
See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
#: In-process set-ups per run; ``setup_s`` is their median.
SETUPS = 2
#: Share of ``--seconds`` spent at the fixed rates; the rest goes to the
#: max-rate search.
FIXED_SHARE = 0.7
#: Interleaved (low, high) repeats; latency metrics are their medians.
REPEATS = 5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def bind_program() -> None:
    """Import the program from this checkout's ``src`` or exit with 2."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"perfbench: no src/repro under {ROOT}; run from the repository root\n"
        )
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    # Pin the settings the program reads from the environment: the decision
    # cache at its default, observability off until a workload turns it on,
    # kernel traces cached inside the checkout.
    os.environ.pop("REPRO_DECISION_CACHE", None)
    os.environ["REPRO_OBS"] = "0"
    os.environ["REPRO_CACHE_DIR"] = str(OUT_DIR / "trace_cache")


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


async def measure(spec, seed: int, seconds: float, import_s: float):
    """Untraced run: set up ``SETUPS`` times, then low, high and search."""
    import harness
    from keymix import TAIL_BENCHMARK
    from repro.runtime.server import low_latency_gc

    rig = None
    setup_times = []
    for _ in range(SETUPS):
        rig = None  # free the previous set-up before timing the next
        gc.collect()
        rig = await harness.set_up(spec, seed)
        setup_times.append(rig.seconds)
    reference = harness.Reference(spec)
    reference.extend(rig.mix.paper)
    fixed_s = FIXED_SHARE * seconds / REPEATS / 2
    search_s = (1.0 - FIXED_SHARE) * seconds
    lows, highs = [], []
    with low_latency_gc():
        for repeat in range(REPEATS):
            base = seed * 1000 + 10 * repeat
            lows.append(
                await harness.serve_phase(
                    rig, reference, f"low-{repeat}", spec.rate_low, fixed_s, base + 1,
                    sample_speed=True,
                )
            )
            highs.append(
                await harness.serve_phase(
                    rig, reference, f"high-{repeat}", spec.rate_high, fixed_s, base + 2,
                    sample_speed=True,
                )
            )
        # Peak RSS through set-up and the fixed rates: the search serves
        # a run-dependent number of requests, which run-obs retains.
        rss_mb = harness.peak_rss_mb()
        search_low = spec.rate_high
        if not all(phase.meets_slo for phase in highs):
            search_low = spec.rate_low
        probes = harness.probe_count(search_low, spec.search_high) + 2
        max_rate, searched = await harness.search_max_rate(
            rig, reference, search_low, spec.search_high, search_s / probes, seed * 1000 + 500
        )
    served = [w for phase in lows + highs for w in phase.workloads]
    regret = reference.mix_regret_ms(
        rig.mix.paper, [w for w in served if w.benchmark == TAIL_BENCHMARK]
    )
    metrics = {
        "setup_s": metric(import_s + harness.median(setup_times), "s"),
        "cpu_us_per_req.low": metric(harness.cpu_us_per_req(lows), "us"),
        "cpu_us_per_req.high": metric(harness.cpu_us_per_req(highs), "us"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "regret_ms": metric(regret, "ms"),
    }
    phases = [*lows, *highs, *searched]
    extra = {
        "setup_samples_s": setup_times,
        "import_s": import_s,
        "prepare_s": rig.prepare_s,
        "served_regret_ms": reference.served_regret_ms(served),
        # The gated CPU metrics before scaling to the reference host speed.
        "cpu_us_per_req_unscaled": {
            "low": harness.median(p.cpu_us for p in lows),
            "high": harness.median(p.cpu_us for p in highs),
        },
        "speed_us": harness.median(p.speed_us for p in lows + highs),
        # Not gated: wall-clock latency and capacity follow the host's
        # CPU steal (see README).
        "max_rate_rps": max_rate,
        "latency_ms": {
            f"p{q}.{name}": harness.quiet_percentile(phases, q)
            for q in (50, 90, 99)
            for name, phases in (("low", lows), ("high", highs))
        },
    }
    return metrics, phases, extra


async def traced(name: str, spec, seed: int, seconds: float):
    """Traced run: the high rate untraced, with wrappers, untraced again.

    The two untraced phases bracket the traced one, so the tracing
    overhead is not confused with the server warming up.
    """
    import harness
    import numpy as np
    from repro import obs
    from repro.runtime.server import low_latency_gc
    from tracing import LayerTracer

    rig = await harness.set_up(spec, seed)
    reference = harness.Reference(spec)
    reference.extend(rig.mix.paper)
    phase_s = seconds / 3
    server = rig.server
    cache = rig.hetero.decisions.cache
    tracer = LayerTracer(server)
    with low_latency_gc():
        before = await harness.serve_phase(
            rig, reference, "untraced-0", spec.rate_high, phase_s, seed * 1000 + 2
        )
        stats = server.stats
        flushes0, deadline0 = stats.flushes, stats.flush_reasons["deadline"]
        hits0, misses0, evictions0 = cache.stats.hits, cache.stats.misses, cache.stats.evictions
        state = obs.state()
        retained0 = len(state.tracer.records) + len(state.decisions)
        traced_phase = await harness.serve_phase(
            rig, reference, "traced", spec.rate_high, phase_s, seed * 1000 + 3, tracer
        )
        retained = len(state.tracer.records) + len(state.decisions) - retained0
        after = await harness.serve_phase(
            rig, reference, "untraced-1", spec.rate_high, phase_s, seed * 1000 + 4
        )
    requests = max(1, traced_phase.report.completed)
    totals = tracer.totals()

    def us(name: str) -> float:
        return totals.get(name, {}).get("us", 0.0) / requests

    def calls(name: str) -> int:
        return totals.get(name, {}).get("calls", 0)

    flushes = stats.flushes - flushes0
    lookups = (cache.stats.hits - hits0) + (cache.stats.misses - misses0)
    cpu_plain = 1e6 * (before.cpu_s + after.cpu_s) / max(
        1, before.report.completed + after.report.completed
    )
    cpu_traced = 1e6 * traced_phase.cpu_s / requests
    simulate_calls = calls("accel.simulate")
    report = traced_phase.report
    memo_hit = (
        1.0 - tracer.encode_rows / requests if spec.mode == "plan" else 0.0
    )
    layer = {
        "loadgen.lag_p99_ms": (
            1e3 * float(np.percentile(tracer.lags_s, 99)) if tracer.lags_s else 0.0,
            "ms",
        ),
        "server.queue_wait_p50_ms": (report.queue_wait_p50_ms, "ms"),
        "server.queue_wait_p99_ms": (report.queue_wait_p99_ms, "ms"),
        "server.batch_mean": (report.mean_batch, "count"),
        "server.deadline_flush_share": (
            (stats.flush_reasons["deadline"] - deadline0) / max(1, flushes),
            "ratio",
        ),
        "server.memo_hit_ratio": (memo_hit, "ratio"),
        "server.self_us_per_req": (cpu_traced - tracer.root_us() / requests, "us"),
        "serving.keys_us_per_req": (us("serving.keys"), "us"),
        "serving.unique_row_ratio": (
            tracer.unique_keys / tracer.key_rows if tracer.key_rows else 0.0,
            "ratio",
        ),
        "serving.cache_hit_ratio": (
            (cache.stats.hits - hits0) / lookups if lookups else 0.0,
            "ratio",
        ),
        "serving.cache_get_per_req": (tracer.cache_gets / requests, "count"),
        "serving.cache_evictions_per_s": (
            (cache.stats.evictions - evictions0) / traced_phase.wall_s,
            "1/s",
        ),
        "encoding.encode_us_per_req": (us("encoding.encode"), "us"),
        "encoding.decode_us_per_req": (us("encoding.decode"), "us"),
        "predictors.rows_per_req": (tracer.predict_rows / requests, "count"),
        "predictors.us_per_row": (
            us("predictors.predict_batch") * requests / tracer.predict_rows
            if tracer.predict_rows
            else 0.0,
            "us",
        ),
        "decision.choose_us_per_req": (us("decision.choose_encoded"), "us"),
        "decision.decide_us_per_req": (us("decision.decide_batch"), "us"),
        "decision.select_us_per_req": (us("decision.select"), "us"),
        "decision.audit_us_per_req": (us("decision.audit"), "us"),
        "accel.costing_us_per_req": (us("accel.simulate"), "us"),
        "accel.simulate_per_req": (simulate_calls / requests, "count"),
        "accel.simulate_us_per_call": (
            totals["accel.simulate"]["us"] / simulate_calls if simulate_calls else 0.0,
            "us",
        ),
        "scheduler.place_us_per_req": (us("scheduler.place"), "us"),
        "execution.execute_us_per_req": (us("execution.execute"), "us"),
        "obs.us_per_req": (us("obs.call") + us("obs.scope"), "us"),
        "obs.calls_per_req": (tracer.obs_calls / requests, "count"),
        "obs.retained_per_req": (retained / requests, "count"),
        "deploy.prepare_ms_per_workload": (1e3 * rig.prepare_s / len(rig.mix.paper), "ms"),
        "trace.overhead_pct": (100.0 * (cpu_traced - cpu_plain) / cpu_plain, "%"),
    }
    metrics = {name: metric(value, unit) for name, (value, unit) in layer.items()}
    paper_requests = traced_phase.sent - traced_phase.tail
    extra = {
        "key_mix": {
            "paper_key_share": paper_requests / max(1, traced_phase.sent),
            "tail_share": traced_phase.tail / max(1, traced_phase.sent),
            "cache_hit_ratio": layer["serving.cache_hit_ratio"][0],
            "distinct_workloads": len({id(w) for w in traced_phase.workloads}),
            "cache_capacity": cache.capacity,
            "simulate_per_req": layer["accel.simulate_per_req"][0],
        },
        "cpu_us_per_req.high_untraced": cpu_plain,
        "cpu_us_per_req.high_traced": cpu_traced,
        "layers": totals,
    }
    tracer.write(OUT_DIR / "spans" / f"{name}-s{seed}.jsonl")
    return metrics, [before, traced_phase, after], extra


def run_one(args) -> int:
    bind_program()
    import harness
    import host
    from repro import obs
    from repro.obs.config import ObsConfig

    import_s = time.perf_counter() - PROCESS_START
    if args.workload not in harness.WORKLOADS:
        sys.stderr.write(
            f"perfbench: unknown workload {args.workload!r}; "
            f"known: {', '.join(harness.WORKLOADS)}, all\n"
        )
        return 2
    spec = harness.WORKLOADS[args.workload]
    built = harness.ensure_trace_cache()
    if spec.obs_on:
        # In memory, as ``repro-serve --obs-port`` runs it.
        obs.configure(ObsConfig(enabled=True))
        obs.install_slos(obs.DEFAULT_SERVE_SLOS)
    if args.trace:
        metrics, phases, extra = asyncio.run(
            traced(args.workload, spec, args.seed, args.seconds)
        )
        counted = phases
    else:
        metrics, phases, extra = asyncio.run(
            measure(spec, args.seed, args.seconds, import_s)
        )
        counted = phases[: 2 * REPEATS]  # fixed rates; probes may overload
    wrong = sum(phase.wrong for phase in phases)
    dropped = sum(phase.dropped for phase in phases)
    unchecked = sum(phase.unchecked for phase in counted)
    attempted = sum(phase.sent for phase in counted)
    failed = sum(phase.rejected + phase.dropped for phase in counted) + wrong
    correct = wrong == 0 and dropped == 0 and unchecked == 0
    stamped = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": host.git_sha(ROOT),
        "host": host.fingerprint(),
        "traces_built": built,
        "wall_s": time.perf_counter() - PROCESS_START,
        "threads": host.thread_count(),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / max(1, attempted),
        "failed_share_all_phases": sum(p.failed for p in phases)
        / max(1, sum(p.sent for p in phases)),
        "metrics": metrics,
        "phases": [phase.summary() for phase in phases],
        **extra,
    }
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(stamped, indent=2) + "\n", encoding="utf-8")
    for phase in phases:
        s = phase.summary()
        print(
            f"# {s['label']:>13} rate={s['rate']:.0f}/s sent={s['sent']} "
            f"succeeded={s['succeeded']} failed={s['failed']} "
            f"p50={s['p50_ms']:.2f}ms p99={s['p99_ms']:.2f}ms "
            f"host_steal={100 * s['steal_share']:.1f}%"
        )
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value['value']:.6g} {value['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in its own process; non-zero on a mismatch."""
    bind_program()
    import harness

    status = 0
    for name in harness.WORKLOADS:
        proc = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            capture_output=True,
            text=True,
            check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0:
            status = 1
            sys.stderr.write(proc.stderr)
        if not lines or not lines[-1].startswith("{"):
            print(f"{name} produced no result (exit {proc.returncode})")
            continue
        for line in lines[:-1]:
            if not line.startswith("#"):
                print(line)
        result = json.loads(lines[-1])
        print(
            f"{name} correct={result['correct']} "
            f"attempted={result['attempted']} failed={result['failed']}"
        )
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.stderr.write("perfbench: --seconds must be positive\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
