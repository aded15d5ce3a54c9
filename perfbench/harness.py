"""Open-loop serving phases, result checking and the max-rate search.

One run serves seeded Poisson traces through the public serving API
(``HeteroMap`` -> ``DecisionServer`` -> ``run_open_loop``) and checks
every served result against a synchronous reference built from an
identically trained, cache-less ``HeteroMap`` on the same workloads:
``plan_batch`` for plan mode, ``decide_batch`` (chosen device, config
and estimate) for decide and run mode.  Decisions are a pure function of
the workload, so the reference is computed once per distinct workload.
"""

from __future__ import annotations

import asyncio
import math
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
from host import SPEED_REF_US, cpu_ticks, speed_sample
from keymix import TAIL_SHARE, KeyMix, paper_workloads, tail_workloads

from repro import obs
from repro.core.heteromap import HeteroMap
from repro.machine.fleet import synthetic_fleet
from repro.machine.specs import DEFAULT_PAIR
from repro.runtime.deploy import trace_cache_key
from repro.runtime.loadgen import poisson_arrivals, run_open_loop
from repro.runtime.server import DecisionServer, ServerConfig
from repro.runtime.serving import DEFAULT_CAPACITY
from repro.runtime.trace_cache import load_trace

PREDICTOR = "deep128"
TRAIN_SEED = 0
TRAIN_SAMPLES = 128
TAIL_POOL = 2 * DEFAULT_CAPACITY
#: The program's own decide-latency ceiling (``DEFAULT_SERVE_SLOS``).
SLO_P99_MS = next(
    spec.ceiling for spec in obs.DEFAULT_SERVE_SLOS if spec.name == "decide_latency"
)
#: The max-rate search stops once its bracket is this narrow (ratio).
SEARCH_STEP = 0.08
#: A failed probe whose p99 stays under this is a near miss, worth a retry.
RETRY_BELOW_MS = 3 * SLO_P99_MS
#: Repeats per fixed rate whose pooled samples give the latency metrics.
QUIET_REPEATS = 3
#: Gap between host-speed samples taken while a fixed-rate phase serves.
SPEED_PERIOD_S = 0.02
#: Server settings as ``repro-serve`` deploys them.
SERVER_CONFIG = dict(max_batch=512, flush_deadline_ms=2.0, queue_capacity=16384)


@dataclass(frozen=True)
class WorkloadSpec:
    """One traffic mix: serving mode, fleet, observability and rates."""

    mode: str
    fleet_size: int  # 2 = the paper's default pair
    obs_on: bool
    tenants: int
    rate_low: float
    rate_high: float
    search_high: float  # upper end of the max-rate bracket (req/s)

    def fleet(self):
        return DEFAULT_PAIR if self.fleet_size == 2 else synthetic_fleet(self.fleet_size)


WORKLOADS = {
    "plan-zipf": WorkloadSpec("plan", 2, False, 1, 25_000, 50_000, 160_000),
    "decide-fleet8": WorkloadSpec("decide", 8, False, 1, 250, 400, 2_000),
    "run-obs": WorkloadSpec("run", 2, True, 4, 250, 400, 2_500),
}


def ensure_trace_cache() -> int:
    """Build any missing proxy-graph kernel trace (one-time, untimed).

    Returns how many traces had to be built.
    """
    from repro.features.profiles import benchmark_names
    from repro.graph.datasets import dataset_names
    from repro.runtime.deploy import prepare_workload

    built = 0
    for benchmark in benchmark_names():
        for dataset in dataset_names():
            if load_trace(trace_cache_key(benchmark, dataset)) is None:
                prepare_workload(benchmark, dataset)
                built += 1
    return built


def train_heteromap(spec: WorkloadSpec, *, cache_capacity=None) -> HeteroMap:
    hetero = HeteroMap(
        spec.fleet(), predictor=PREDICTOR, seed=TRAIN_SEED, cache_capacity=cache_capacity
    )
    hetero.train(num_samples=TRAIN_SAMPLES, seed=TRAIN_SEED)
    return hetero


@dataclass
class Rig:
    """Everything one set-up produced, ready to serve."""

    spec: WorkloadSpec
    hetero: HeteroMap
    server: DecisionServer
    mix: KeyMix
    prepare_s: float
    seconds: float  # the whole set-up, wall clock


async def set_up(spec: WorkloadSpec, seed: int) -> Rig:
    """Prepare the key mix, train, build and warm the server (timed)."""
    start = time.perf_counter()
    paper = paper_workloads()
    prepare_s = time.perf_counter() - start
    tail = tail_workloads(TAIL_POOL, seed)
    hetero = train_heteromap(spec)
    server = DecisionServer(
        hetero.decisions,
        ServerConfig(mode=spec.mode, **SERVER_CONFIG),
        backend=hetero.engine.backend,
        scheduler=hetero.scheduler,
    )
    server.start()
    # Warm-up, as repro-serve does it: every paper workload once.
    await asyncio.gather(*(server.submit(workload) for workload in paper))
    return Rig(
        spec,
        hetero,
        server,
        KeyMix(paper, tail, seed),
        prepare_s,
        time.perf_counter() - start,
    )


# -- result checking -------------------------------------------------------


def result_signature(mode: str, result) -> tuple:
    """What a served result must match: device, config and, past the
    plan tier, the chosen estimate's time and energy."""
    if mode == "plan":
        spec, config = result
        return (spec.name, config)
    if mode == "decide":
        chosen = result.chosen
        return (chosen.spec.name, chosen.config, chosen.result.time_ms, chosen.result.energy_j)
    return (
        result.chosen_accelerator,
        result.config,
        result.result.time_ms,
        result.result.energy_j,
    )


def reference_signature(decision) -> tuple:
    """The reference's decide/run signature from ``decide_batch``."""
    chosen = decision.chosen
    return (chosen.spec.name, chosen.config, chosen.result.time_ms, chosen.result.energy_j)


class Reference:
    """Synchronous reference decisions, computed once per distinct workload."""

    def __init__(self, spec: WorkloadSpec) -> None:
        self.mode = spec.mode
        self.hetero = train_heteromap(spec, cache_capacity=0)
        self.plans: dict[int, tuple] = {}
        self.decisions: dict[int, object] = {}
        self._keep: list = []  # pins workloads so their ids stay unique

    def extend(self, workloads) -> None:
        fresh = {id(w): w for w in workloads if id(w) not in self.decisions}
        if not fresh:
            return
        batch = list(fresh.values())
        self._keep.extend(batch)
        decided = self.hetero.decisions.decide_batch(batch)
        if self.mode == "plan":
            plans = self.hetero.plan_batch(batch)
            for workload, (spec, config) in zip(batch, plans):
                self.plans[id(workload)] = (spec.name, config)
        for workload, decision in zip(batch, decided):
            self.decisions[id(workload)] = decision
            if self.mode != "plan":
                self.plans[id(workload)] = reference_signature(decision)

    def mismatches(self, workloads, results) -> int:
        """Served results that differ from the reference (aligned lists)."""
        self.extend(workloads)
        mode, plans = self.mode, self.plans
        return sum(
            result_signature(mode, result) != plans[id(workload)]
            for workload, result in zip(workloads, results)
        )

    def _regret(self, key: int) -> float:
        """Served device's estimate minus the best fleet estimate (ms)."""
        estimates = self.decisions[key].estimates
        best = min(e.result.time_ms for e in estimates)
        served = self.plans[key][0]  # every checked result matched it
        return next(e.result.time_ms for e in estimates if e.spec.name == served) - best

    def served_regret_ms(self, workloads) -> float:
        """Mean regret per served request (weights follow the seeded
        Zipf rank order, so this swings with the seed)."""
        return sum(self._regret(id(w)) for w in workloads) / len(workloads)

    def mix_regret_ms(self, paper, tail) -> float:
        """Expected regret per request under the key mix.

        The head's seeded rank order averages out to uniform weights
        over the paper workloads; the tail term averages the distinct
        tail workloads actually served.
        """
        head = sum(self._regret(id(w)) for w in paper) / len(paper)
        served_tail = {id(w) for w in tail}
        if not served_tail:
            return head
        tail_mean = sum(self._regret(key) for key in served_tail) / len(served_tail)
        return (1.0 - TAIL_SHARE) * head + TAIL_SHARE * tail_mean


# -- phases ----------------------------------------------------------------


@dataclass
class Phase:
    """One open-loop phase: what was offered, served and checked."""

    label: str
    rate: float
    sent: int
    succeeded: int
    rejected: int
    dropped: int
    wrong: int
    unchecked: int
    tail: int
    p50_ms: float
    p99_ms: float
    drain_ms: float
    cpu_s: float
    wall_s: float
    steal_share: float  # host CPU time stolen by the hypervisor
    speed_samples: list = field(repr=False, default_factory=list)  # seconds each
    report: object = field(repr=False, default=None)
    workloads: list = field(repr=False, default_factory=list)
    latencies_ms: object = field(repr=False, default=None)  # np.ndarray

    @property
    def cpu_us(self) -> float:
        """Process CPU per completed request, the speed samples excluded."""
        return 1e6 * self.cpu_s / max(1, self.succeeded)

    @property
    def speed_us(self) -> float:
        """Median speed-kernel time during the phase; 0 if unsampled."""
        return 1e6 * median(self.speed_samples) if self.speed_samples else 0.0

    @property
    def scaled_cpu_us(self) -> float:
        """``cpu_us`` at the reference host speed (``SPEED_REF_US``)."""
        return self.cpu_us * SPEED_REF_US / self.speed_us

    @property
    def failed(self) -> int:
        return self.rejected + self.dropped + self.wrong

    @property
    def meets_slo(self) -> bool:
        """p99 within the ceiling, nothing refused or wrong, no backlog
        left when the trace ends."""
        return (
            self.p99_ms <= SLO_P99_MS
            and self.failed == 0
            and self.unchecked == 0
            and self.drain_ms <= SLO_P99_MS
        )

    def summary(self) -> dict:
        return {
            "label": self.label,
            "rate": self.rate,
            "sent": self.sent,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "rejected": self.rejected,
            "dropped": self.dropped,
            "wrong": self.wrong,
            "unchecked": self.unchecked,
            "tail_share": self.tail / self.sent if self.sent else 0.0,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "drain_ms": self.drain_ms,
            "cpu_us_per_req": self.cpu_us,
            "steal_share": self.steal_share,
            "speed_samples": len(self.speed_samples),
            "speed_us": self.speed_us,
        }


async def serve_phase(
    rig: Rig,
    reference: Reference,
    label: str,
    rate: float,
    seconds: float,
    seed: int,
    tracer=None,
    sample_speed: bool = False,
) -> Phase:
    """Serve one seeded Poisson trace and check every result.

    A ``tracer`` is installed for the serving only, never for checking.
    With ``sample_speed``, a task on the serving loop times
    :func:`host.speed_kernel` every ``SPEED_PERIOD_S`` while the trace
    runs, so the samples see the same host as the program; their CPU
    time is taken out of the phase's.
    """
    arrivals = poisson_arrivals(rate, seconds, seed=seed)
    workloads, tails = rig.mix.draw(len(arrivals))
    tenants = [f"tenant-{i}" for i in range(rig.spec.tenants)]
    first_sample = len(rig.server.stats.latencies_ms)
    steal0, total0 = cpu_ticks()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    samples: list[float] = []

    async def sample_host() -> None:
        while True:
            await asyncio.sleep(SPEED_PERIOD_S)
            samples.append(speed_sample())

    sampler = asyncio.create_task(sample_host()) if sample_speed else None
    if tracer is not None:
        tracer.install()
    try:
        report = await run_open_loop(
            rig.server, arrivals, workloads, tenants=tenants, collect_results=True, label=label
        )
    finally:
        if tracer is not None:
            tracer.remove()
        if sampler is not None:
            sampler.cancel()
            await asyncio.gather(sampler, return_exceptions=True)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0 - sum(samples)
    steal1, total1 = cpu_ticks()
    wrong = unchecked = 0
    if report.rejected == 0:
        wrong = reference.mismatches(workloads, report.results)
    else:
        # Without the refused tags the results cannot be aligned with
        # the sequence; the phase already fails on its rejections.
        unchecked = len(report.results)
    return Phase(
        label=label,
        rate=rate,
        sent=report.offered,
        succeeded=report.completed - wrong,
        rejected=report.rejected,
        dropped=report.dropped,
        wrong=wrong,
        unchecked=unchecked,
        tail=tails,
        p50_ms=report.latency_p50_ms,
        p99_ms=report.latency_p99_ms,
        drain_ms=1e3 * max(0.0, report.duration_s - float(arrivals[-1])),
        cpu_s=cpu,
        wall_s=wall,
        steal_share=(steal1 - steal0) / max(1, total1 - total0),
        speed_samples=samples,
        report=report,
        workloads=workloads,
        latencies_ms=np.asarray(rig.server.stats.latencies_ms[first_sample:]),
    )


async def search_max_rate(
    rig: Rig, reference: Reference, low: float, high: float, seconds: float, seed: int
) -> tuple[float, list[Phase]]:
    """Highest rate meeting the SLO, by geometric bisection of [low, high].

    ``low`` is known to pass; the search stops when ``high / low`` falls
    below ``1 + SEARCH_STEP``, so the step is finer than the metric's
    bound.  Each probe sends about ``seconds`` worth of arrivals.  A probe
    that only just fails (nothing refused, p99 under ``RETRY_BELOW_MS``)
    is repeated once on a fresh trace and the rate fails only if both
    do, so one host hiccup cannot end the search early.
    The answer interpolates where p99 crosses the ceiling between the
    last passing and the last failing probe (log p99 against log rate),
    which stays inside that final bracket.
    """
    probes = []
    passed = failed = None  # the bracket's probes
    while high / low > 1.0 + SEARCH_STEP:
        rate = (low * high) ** 0.5
        attempts = []
        for _attempt in range(2):
            phase = await serve_phase(
                rig, reference, f"probe-{len(probes)}", rate, seconds, seed + len(probes)
            )
            probes.append(phase)
            attempts.append(phase)
            if phase.meets_slo or phase.rejected or phase.p99_ms > RETRY_BELOW_MS:
                break
        if phase.meets_slo:
            low, passed = rate, phase
        else:
            high, failed = rate, min(attempts, key=lambda p: p.p99_ms)
    if passed is None or failed is None:
        return low, probes
    return crossing(passed, failed), probes


def crossing(passed: Phase, failed: Phase) -> float:
    """Rate where p99 reaches ``SLO_P99_MS`` between two probes.

    A probe that failed on refusals or backlog with its p99 still under
    the ceiling gives no crossing: the passing rate stands.
    """
    if failed.p99_ms <= SLO_P99_MS:
        return passed.rate
    lo_p99 = max(passed.p99_ms, 1e-3)
    hi_p99 = failed.p99_ms
    share = math.log(SLO_P99_MS / lo_p99) / math.log(hi_p99 / lo_p99)
    share = min(1.0, max(0.0, share))
    return passed.rate * (failed.rate / passed.rate) ** share


def probe_count(low: float, high: float) -> int:
    """Probes :func:`search_max_rate` makes over ``[low, high]``."""
    count = 0
    while high / low > 1.0 + SEARCH_STEP:
        high = (low * high) ** 0.5  # width halves in log space either way
        count += 1
    return count


def cpu_us_per_req(phases: list[Phase]) -> float:
    """Median over repeats of process CPU per completed request, each
    repeat scaled to the reference host speed by its own speed samples."""
    return median(p.scaled_cpu_us for p in phases)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    return float(statistics.median(values))


def quiet_percentile(phases: list[Phase], q: float) -> float:
    """The q-th latency percentile pooled over the ``QUIET_REPEATS``
    repeats of one rate that lost the least host CPU to steal.

    On a shared VM, latency at a fixed rate follows the hypervisor's
    steal more than the program: 20% steal tripled p50 here.  Choosing
    repeats by steal, an outside measurement, keeps the program's own
    stalls in the figure.  Ties (no ``/proc/stat``) fall to lower p99.
    """
    kept = sorted(phases, key=lambda phase: (phase.steal_share, phase.p99_ms))
    kept = kept[:QUIET_REPEATS]
    return float(np.percentile(np.concatenate([p.latencies_ms for p in kept]), q))
