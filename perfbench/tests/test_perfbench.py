"""The benchmark's own checks: key mix, result checking, tracing.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
These use synthetic workloads only, so no kernel traces are built.
"""

import asyncio

import pytest

import harness
from keymix import EPOCH, TAIL_SHARE, KeyMix, tail_workloads
from repro import obs
from repro.obs.config import ObsConfig
from repro.runtime.loadgen import poisson_arrivals, run_open_loop
from repro.runtime.server import DecisionServer, ServerConfig
from tracing import LayerTracer


def test_key_mix_is_deterministic_per_seed():
    paper = [f"paper-{i}" for i in range(81)]
    tail = [f"tail-{i}" for i in range(500)]
    first, first_tails = KeyMix(paper, tail, seed=3).draw(4000)
    again, again_tails = KeyMix(paper, tail, seed=3).draw(4000)
    other, _ = KeyMix(paper, tail, seed=4).draw(4000)
    assert first == again and first_tails == again_tails
    assert first != other
    drawn_tail = [item for item in first if item.startswith("tail-")]
    # The tail is taken in order, each entry once per pass over the pool.
    assert drawn_tail == tail[: len(drawn_tail)]
    assert abs(first_tails / len(first) - TAIL_SHARE) < 0.015
    # Zipf head within one popularity epoch: the hottest rank carries far
    # more than a uniform share.
    head = [item for item in first[:EPOCH] if item.startswith("paper-")]
    hottest = max(head.count(name) for name in set(head))
    assert hottest > 10 * len(head) / len(paper)


def test_key_mix_reranks_every_epoch():
    mix = KeyMix([f"paper-{i}" for i in range(81)], ["tail"], seed=3)
    orders = []
    for _ in range(4):
        mix.draw(1)  # the first request of an epoch
        orders.append(mix.order.tolist())
        mix.draw(EPOCH - 1)
    assert len({tuple(order) for order in orders}) == len(orders)
    # Within an epoch the order holds; a draw across a boundary re-ranks.
    split = KeyMix(mix.paper, mix.tail, seed=3)
    start = split.order.tolist()
    split.draw(EPOCH // 2)
    assert split.order.tolist() == start
    split.draw(EPOCH)
    assert split.order.tolist() != start


def test_tail_workloads_have_distinct_feature_keys():
    from repro.core.encoding import encode_features_batch

    pool = tail_workloads(300, seed=1)
    rows = encode_features_batch([(w.bvars, w.ivars) for w in pool])
    assert len({tuple(row) for row in rows.tolist()}) == len(pool)


@pytest.fixture(scope="module")
def pool():
    return tail_workloads(64, seed=2)


@pytest.mark.parametrize("name", ["plan-zipf", "decide-fleet8", "run-obs"])
def test_check_catches_one_injected_wrong_result(name, pool):
    spec = harness.WORKLOADS[name]
    served = harness.train_heteromap(spec)
    workloads = pool[:20] + pool[:5]
    if spec.mode == "plan":
        results = served.plan_batch(workloads)
    elif spec.mode == "decide":
        results = served.decisions.decide_batch(workloads)
    else:
        results = served.run_many(workloads)
    reference = harness.Reference(spec)
    assert reference.mismatches(workloads, results) == 0
    wrong = list(results)
    if spec.mode == "plan":
        device, config = wrong[7]
        other = next(d for d in served.fleet.devices if d.name != device.name)
        wrong[7] = (other, config)
    elif spec.mode == "decide":
        decision = wrong[7]
        other = next(i for i in range(len(decision.estimates)) if i != decision.chosen_index)
        wrong[7] = type(decision)(
            workload=decision.workload,
            estimates=decision.estimates,
            chosen_index=other,
            runner_up_index=decision.chosen_index,
            vector=decision.vector,
            features=decision.features,
        )
    else:
        outcome = wrong[7]
        slower = type(outcome.result)(
            accelerator=outcome.result.accelerator,
            config=outcome.result.config,
            cost=type(outcome.result.cost)(
                **{**vars(outcome.result.cost), "time_s": outcome.result.cost.time_s * 2}
            ),
            energy=outcome.result.energy,
        )
        wrong[7] = type(outcome)(
            benchmark=outcome.benchmark,
            dataset=outcome.dataset,
            chosen_accelerator=outcome.chosen_accelerator,
            config=outcome.config,
            result=slower,
            predictor_overhead_ms=outcome.predictor_overhead_ms,
        )
    assert reference.mismatches(workloads, wrong) == 1


def _serve(spec, workloads, arrivals, tracer_factory=None):
    """Serve one trace on a fresh server; results in arrival order."""
    hetero = harness.train_heteromap(spec)
    server = DecisionServer(
        hetero.decisions,
        ServerConfig(mode=spec.mode, **harness.SERVER_CONFIG),
        backend=hetero.engine.backend,
        scheduler=hetero.scheduler,
    )
    tracer = tracer_factory(server) if tracer_factory else None

    async def drive():
        async with server:
            if tracer is not None:
                tracer.install()
            try:
                return await run_open_loop(
                    server,
                    arrivals,
                    workloads,
                    tenants=[f"tenant-{i}" for i in range(spec.tenants)],
                    collect_results=True,
                )
            finally:
                if tracer is not None:
                    tracer.remove()

    report = asyncio.run(drive())
    return [harness.result_signature(spec.mode, r) for r in report.results], tracer


@pytest.mark.parametrize("name", ["plan-zipf", "decide-fleet8", "run-obs"])
def test_traced_and_untraced_runs_serve_identical_results(name, pool):
    spec = harness.WORKLOADS[name]
    rate = min(spec.rate_high, 2000)
    arrivals = poisson_arrivals(rate, 0.3, seed=5)
    workloads, _ = KeyMix(pool[:16], pool[16:], seed=5).draw(len(arrivals))
    if spec.obs_on:
        obs.configure(ObsConfig(enabled=True))
    try:
        untraced, _ = _serve(spec, workloads, arrivals)
        traced, tracer = _serve(spec, workloads, arrivals, LayerTracer)
    finally:
        obs.configure(ObsConfig())
    assert traced == untraced
    totals = tracer.totals()
    assert totals, "the traced run recorded no spans"
    assert len(tracer.requests) == len(arrivals)
    simulated = totals.get("accel.simulate", {}).get("calls", 0)
    if spec.mode == "plan":
        assert simulated == 0
    else:
        assert simulated == spec.fleet_size * len(arrivals)
    assert (tracer.obs_calls > 0) == spec.obs_on
    # Self time never exceeds a span's own duration.
    for entry in totals.values():
        assert 0.0 <= entry["self_us"] <= entry["us"] + 1e-6
