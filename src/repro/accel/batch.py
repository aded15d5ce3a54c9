"""Vectorized batch evaluation of the accelerator cost model.

The scalar path (:mod:`repro.accel.cost_model` / :mod:`repro.accel.energy`,
wrapped by :func:`repro.accel.simulator.simulate`) evaluates one
``(profile, spec, config)`` point per call.  Everything that sweeps the
M lattice — the exhaustive oracle, offline training labels, thread-sweep
figures — pays that cost once per lattice point, serially.

This module materializes a set of configurations as NumPy column arrays
(:class:`ConfigTable`: one row per config, columns for cores, threads per
core, SIMD width, schedule, placement, affinity, blocktime, GPU thread
counts) and evaluates *all* of them for a workload profile in one pass
(:func:`batch_evaluate`): the per-phase compute/memory/sync/overhead math
of :func:`~repro.accel.cost_model.evaluate_cost` and the energy and
utilization objectives of :func:`~repro.accel.energy.evaluate_energy` are
re-expressed as array expressions over the config axis.

The scalar path stays the reference implementation: the equivalence suite
(``tests/accel/test_batch.py``) asserts batch == scalar to within 1e-9
relative error for time, energy, and utilization across the full lattice
of every accelerator spec, so the vectorization cannot silently drift
from the model the figures validate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.accel.cost_model import (
    PhaseCost,
    WorkloadCost,
    _ATOMIC_BYTES,
    _CONGESTION_GAIN_GPU,
    _CONGESTION_GAIN_MC,
    _GPU_GROUP_DISPATCH_US,
    _GPU_LAUNCH_US,
    _GRAIN_ITEMS,
    _MC_ATOMIC_CACHE_FACTOR,
    _MC_LAUNCH_US,
    _REUSE_BONUS,
    _SCHED_DYNAMIC_OVERHEAD,
    _SCHED_GUIDED_OVERHEAD,
    _SEQ_MISS,
    _SIMD_MAX_FILL,
    _divergence_divisor,
    _streaming_cost,
)
from repro import obs
from repro.accel.energy import EnergyResult
from repro.accel.simulator import SimulationResult
from repro.errors import SimulationError
from repro.machine.mvars import MachineConfig, OmpSchedule, clamp_config
from repro.machine.space import iter_configs
from repro.machine.specs import AcceleratorSpec
from repro.workload.phases import PhaseKind
from repro.workload.profile import PhaseProfile, WorkloadProfile

__all__ = [
    "ConfigTable",
    "BatchResult",
    "lattice_table",
    "batch_evaluate",
]

# Schedule encoding for the vectorized _schedule_factor: the scalar model
# treats AUTO as DYNAMIC, so both share a code.
_SCHEDULE_CODES = {
    OmpSchedule.STATIC: 0,
    OmpSchedule.GUIDED: 1,
    OmpSchedule.DYNAMIC: 2,
    OmpSchedule.AUTO: 2,
}


@dataclass(frozen=True)
class ConfigTable:
    """A set of machine configurations in structure-of-arrays form.

    One row per configuration (lattice order when built from the lattice),
    one column per knob the cost model reads.  All configs are clamped by
    the ceiling rule on construction, exactly as :func:`simulate` does.
    """

    spec: AcceleratorSpec
    configs: tuple[MachineConfig, ...]
    cores: np.ndarray  # M2 (int)
    threads_per_core: np.ndarray  # M3 (int)
    simd_width: np.ndarray  # M10 (int)
    schedule: np.ndarray  # M11 code: 0 static, 1 guided, 2 dynamic/auto
    omp_chunk: np.ndarray  # M12 (int)
    placement: np.ndarray  # M5-M7 looseness (float)
    affinity: np.ndarray  # M8 (float)
    blocktime_ms: np.ndarray  # M4 (float)
    gpu_global_threads: np.ndarray  # M19 (int)
    gpu_local_threads: np.ndarray  # M20 (int)
    threads: np.ndarray  # deployed worker threads (float)

    def __len__(self) -> int:
        return len(self.configs)

    @classmethod
    def from_configs(
        cls, spec: AcceleratorSpec, configs: Iterable[MachineConfig]
    ) -> "ConfigTable":
        """Columnize ``configs`` for ``spec``, applying the ceiling rule."""
        clamped = tuple(clamp_config(config, spec) for config in configs)
        if not clamped:
            raise SimulationError("a ConfigTable needs at least one config")
        cores = np.array([c.cores for c in clamped], dtype=np.int64)
        tpc = np.array([c.threads_per_core for c in clamped], dtype=np.int64)
        if spec.is_gpu:
            threads = np.minimum(
                np.array([c.gpu_global_threads for c in clamped], dtype=np.int64),
                spec.max_threads,
            )
        else:
            threads = np.minimum(cores * tpc, spec.max_threads)
        return cls(
            spec=spec,
            configs=clamped,
            cores=cores,
            threads_per_core=tpc,
            simd_width=np.array([c.simd_width for c in clamped], dtype=np.int64),
            schedule=np.array(
                [_SCHEDULE_CODES[c.omp_schedule] for c in clamped], dtype=np.int64
            ),
            omp_chunk=np.array([c.omp_chunk for c in clamped], dtype=np.int64),
            placement=np.array(
                [c.placement_looseness for c in clamped], dtype=np.float64
            ),
            affinity=np.array([c.affinity for c in clamped], dtype=np.float64),
            blocktime_ms=np.array(
                [c.blocktime_ms for c in clamped], dtype=np.float64
            ),
            gpu_global_threads=np.array(
                [c.gpu_global_threads for c in clamped], dtype=np.int64
            ),
            gpu_local_threads=np.array(
                [c.gpu_local_threads for c in clamped], dtype=np.int64
            ),
            threads=threads.astype(np.float64),
        )


_lattice_tables: dict[AcceleratorSpec, ConfigTable] = {}


def lattice_table(spec: AcceleratorSpec) -> ConfigTable:
    """The spec's full M lattice as a (cached) :class:`ConfigTable`."""
    table = _lattice_tables.get(spec)
    if table is None:
        table = ConfigTable.from_configs(spec, iter_configs(spec))
        _lattice_tables[spec] = table
    return table


@dataclass(frozen=True)
class BatchResult:
    """Per-config model outputs for one workload on one accelerator.

    All arrays share the config axis of ``table`` (length N); the
    per-phase component arrays have shape (num_phases, N).
    """

    table: ConfigTable
    phase_kinds: tuple[str, ...]
    compute_s: np.ndarray
    memory_s: np.ndarray
    sync_s: np.ndarray
    overhead_s: np.ndarray
    streaming_s: float
    time_s: np.ndarray
    busy_s: np.ndarray
    stall_s: np.ndarray
    utilization: np.ndarray
    avg_power_w: np.ndarray
    energy_j: np.ndarray

    def __len__(self) -> int:
        return len(self.table)

    @property
    def spec(self) -> AcceleratorSpec:
        return self.table.spec

    @property
    def configs(self) -> tuple[MachineConfig, ...]:
        return self.table.configs

    def objective(self, metric: str) -> np.ndarray:
        """Per-config objective array: lower is better.

        Raises:
            SimulationError: for unknown metric names.
        """
        if metric == "time":
            return self.time_s
        if metric == "energy":
            return self.energy_j
        if metric == "edp":
            return self.energy_j * self.time_s
        raise SimulationError(f"unknown objective metric {metric!r}")

    def argbest(self, metric: str = "time") -> int:
        """Index of the best config (first minimum, like the scalar scan)."""
        return int(np.argmin(self.objective(metric)))

    def materialize(self, index: int) -> SimulationResult:
        """Rebuild the full :class:`SimulationResult` for one config."""
        phase_costs = tuple(
            PhaseCost(
                kind=kind,
                compute_s=float(self.compute_s[p, index]),
                memory_s=float(self.memory_s[p, index]),
                sync_s=float(self.sync_s[p, index]),
                overhead_s=float(self.overhead_s[p, index]),
            )
            for p, kind in enumerate(self.phase_kinds)
        )
        cost = WorkloadCost(
            accelerator=self.spec.name,
            phase_costs=phase_costs,
            streaming_s=self.streaming_s,
            time_s=float(self.time_s[index]),
            busy_s=float(self.busy_s[index]),
            stall_s=float(self.stall_s[index]),
        )
        energy = EnergyResult(
            accelerator=self.spec.name,
            avg_power_w=float(self.avg_power_w[index]),
            energy_j=float(self.energy_j[index]),
        )
        return SimulationResult(
            accelerator=self.spec.name,
            config=self.configs[index],
            cost=cost,
            energy=energy,
        )

    def materialize_all(self) -> list[SimulationResult]:
        """All configs as :class:`SimulationResult` objects, in table order."""
        return [self.materialize(i) for i in range(len(self))]

    def best(self, metric: str = "time") -> SimulationResult:
        """Materialized best config for the given objective."""
        return self.materialize(self.argbest(metric))


def _schedule_factor_array(
    table: ConfigTable, phase: PhaseProfile
) -> np.ndarray:
    """Vectorized ``_schedule_factor``: per-config imbalance multiplier."""
    skew = phase.work_skew
    chunk_penalty = _SCHED_DYNAMIC_OVERHEAD * np.sqrt(
        64.0 / np.maximum(table.omp_chunk, 1)
    )
    factor = np.where(
        table.schedule == 0,
        1.0 + 0.5 * skew,
        np.where(
            table.schedule == 1,
            1.0 + 0.2 * skew + _SCHED_GUIDED_OVERHEAD,
            1.0 + 0.1 * skew + chunk_penalty,
        ),
    )
    return factor


def _simd_efficiency_array(
    table: ConfigTable, phase: PhaseProfile
) -> np.ndarray:
    """Vectorized ``_simd_efficiency`` over the config axis."""
    spec = table.spec
    width = np.minimum(table.simd_width, spec.simd_width).astype(np.float64)
    if not phase.kind.is_data_parallel:
        return np.ones(len(table))
    edges_per_item = phase.edges / phase.items if phase.items else 0.0
    density_fill = np.minimum(1.0, edges_per_item / np.maximum(width, 1.0))
    addressable = (
        phase.seq_bytes / phase.total_bytes if phase.total_bytes else 0.0
    )
    fill = _SIMD_MAX_FILL * density_fill * addressable * (1.0 - 0.5 * phase.work_skew)
    return np.where(width <= 1.0, 1.0, 1.0 + (width - 1.0) * fill)


def _phase_cost_arrays(
    table: ConfigTable,
    profile: WorkloadProfile,
    phase: PhaseProfile,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized ``_phase_cost``: (compute, memory, sync, overhead, busy, stall).

    Mirrors the scalar implementation expression by expression; every
    config-independent quantity is computed once as a Python float and the
    config-dependent terms are NumPy arrays over the table's rows.
    """
    spec = table.spec
    threads = table.threads  # float array
    max_par = phase.max_parallelism
    if spec.is_gpu and phase.kind.is_data_parallel:
        edges_per_item = phase.edges / phase.items if phase.items else 0.0
        max_par = max_par * max(1.0, 0.5 * edges_per_item)
    useful = np.maximum(1.0, np.minimum(threads, max_par))
    iterations = max(1, profile.num_iterations)
    items_per_iteration = max(1.0, phase.items / iterations)

    # ---- compute ------------------------------------------------------
    granularity = items_per_iteration / useful
    grain_eff = granularity / (granularity + _GRAIN_ITEMS)
    divisor = _divergence_divisor(spec, phase)
    if spec.is_gpu:
        raw_occupancy = np.minimum(
            1.0, useful / (spec.cores * spec.latency_hiding)
        )
        occupancy = np.maximum(raw_occupancy, useful / spec.max_threads)
        int_rate = spec.cores * spec.clock_ghz * 1e9 * spec.ipc * occupancy
        fp_rate = np.maximum(
            (spec.dp_tflops + 0.03 * spec.sp_tflops) * 1e12 * occupancy, 1e8
        )
        int_rate = int_rate / divisor
        fp_rate = fp_rate / divisor
        skew_waste = 1.0 + 0.8 * phase.work_skew
        compute_s = (
            (phase.int_ops / int_rate + phase.fp_ops / fp_rate)
            * skew_waste / np.maximum(grain_eff, 1e-3)
        )
    else:
        cores_used = np.minimum(table.cores, spec.cores).astype(np.float64)
        tpc = np.minimum(table.threads_per_core, spec.threads_per_core)
        smt_boost = 1.0 + 0.3 * (tpc - 1)
        simd_eff = _simd_efficiency_array(table, phase)
        parallel_cap = np.minimum(1.0, useful / np.maximum(threads, 1.0))
        core_scale = cores_used ** 0.8 / spec.cores ** 0.8 * spec.cores
        scalar_rate = (
            core_scale * spec.clock_ghz * 1e9 * spec.ipc * smt_boost * parallel_cap
        )
        int_rate = scalar_rate * simd_eff
        fp_scalar = (
            spec.dp_tflops * 1e12 / spec.simd_width * (core_scale / spec.cores)
        )
        fp_rate = np.maximum(fp_scalar * simd_eff, 1e8)
        int_rate = int_rate / divisor
        fp_rate = fp_rate / divisor
        compute_s = (
            (phase.int_ops / int_rate + phase.fp_ops / fp_rate)
            * _schedule_factor_array(table, phase)
            / np.maximum(grain_eff, 1e-3)
        )

    # ---- memory -------------------------------------------------------
    cache_hit = min(0.95, spec.cache_bytes / max(profile.footprint_bytes, 1.0))
    if not spec.is_gpu and spec.coherent:
        state_working_set = 24.0 * items_per_iteration
        resident = min(1.0, spec.cache_bytes / max(state_working_set, 1.0))
        rw_share = (
            phase.shared_rw_bytes / phase.total_bytes if phase.total_bytes else 0.0
        )
        bytes_per_pass = phase.total_bytes / max(1, profile.num_iterations)
        reuse = max(
            0.0, 1.0 - profile.footprint_bytes / max(bytes_per_pass, 1.0)
        )
        ro_share = (
            phase.shared_ro_bytes / phase.total_bytes if phase.total_bytes else 0.0
        )
        cache_hit = min(
            0.97,
            cache_hit + 0.45 * rw_share * resident + _REUSE_BONUS * reuse * ro_share,
        )
    seq_traffic = phase.seq_bytes * _SEQ_MISS
    rand_traffic = phase.rand_bytes * (1.0 - cache_hit)
    indirect_traffic = (
        phase.indirect_bytes * (1.0 - cache_hit) * spec.indirect_penalty
    )

    irregular_share = (
        (phase.rand_bytes + phase.indirect_bytes) / phase.total_bytes
        if phase.total_bytes
        else 0.0
    )
    bytes_per_item = phase.total_bytes / phase.items if phase.items else 0.0
    congestion_gain = _CONGESTION_GAIN_GPU if spec.is_gpu else _CONGESTION_GAIN_MC
    thread_pressure = useful / spec.max_threads
    footprint_pressure = min(
        4.0, profile.footprint_bytes / max(spec.cache_bytes, 1.0)
    ) / 4.0
    congestion = (
        congestion_gain
        * thread_pressure
        * irregular_share
        * min(1.0, bytes_per_item / 256.0)
        * footprint_pressure
    )
    if spec.is_gpu:
        congestion = congestion * (0.5 + table.gpu_local_threads / 1024.0)

    if spec.is_gpu:
        saturation_threads = spec.cores * min(spec.latency_hiding, 2.0)
    else:
        saturation_threads = spec.cores * 0.5
    bw_ramp = np.minimum(1.0, np.sqrt(useful / saturation_threads))
    effective_bw = (
        spec.mem_bw_gbps * 1e9 * spec.mem_efficiency
        * np.maximum(bw_ramp, 0.05) / (1.0 + congestion)
    )
    if spec.is_gpu:
        outstanding = useful
    else:
        outstanding = 8.0 * np.minimum(table.cores, spec.cores)
    random_bw_cap = outstanding * 64.0 / (spec.mem_latency_ns * 1e-9)
    random_bw = np.minimum(effective_bw, random_bw_cap)
    memory_s = (
        seq_traffic / effective_bw
        + (rand_traffic + indirect_traffic) / np.maximum(random_bw, 1.0)
    )
    if spec.is_gpu and phase.kind is PhaseKind.PUSH_POP:
        memory_s = memory_s * (1.0 + 3.0 * profile.contention)
    if not spec.is_gpu:
        if phase.total_bytes <= 0:
            placement_factor = np.ones(len(table))
        else:
            rw_share_p = phase.shared_rw_bytes / phase.total_bytes
            preferred = min(1.0, 0.6 * phase.work_skew + 0.6 * rw_share_p)
            placement_factor = 1.0 + 0.35 * np.abs(table.placement - preferred)
        memory_s = memory_s * placement_factor

    # ---- synchronization ----------------------------------------------
    contention = profile.contention
    conflicted = phase.atomics * contention
    addresses = items_per_iteration
    collision = np.minimum(1.0, useful / addresses)
    drain_width = np.maximum(1.0, np.minimum(useful, addresses))
    serialized = conflicted * collision / drain_width
    streamed = (phase.atomics - conflicted * collision) * _ATOMIC_BYTES
    if spec.coherent:
        streamed = streamed * _MC_ATOMIC_CACHE_FACTOR
    atomic_bw = spec.mem_bw_gbps * 1e9 * spec.mem_efficiency
    sync_s = serialized * spec.atomic_cost_ns * 1e-9 + streamed / atomic_bw
    sync_s = sync_s + phase.barriers * spec.barrier_cost_us * 1e-6 * (
        0.25 + 0.75 * threads / spec.max_threads
    )
    if not spec.is_gpu:
        normalized = np.log10(np.maximum(table.blocktime_ms, 1.0)) / 3.0
        blocktime_factor = 1.0 + 0.4 * np.abs(normalized - contention)
        sync_s = sync_s * blocktime_factor
        if phase.total_bytes <= 0:
            affinity_factor = np.ones(len(table))
        else:
            rw_share_a = phase.shared_rw_bytes / phase.total_bytes
            affinity_factor = 1.0 + 0.3 * np.abs(table.affinity - rw_share_a)
        sync_s = sync_s * affinity_factor

    # ---- fixed overheads ----------------------------------------------
    if spec.is_gpu:
        overhead_s = iterations * _GPU_LAUNCH_US * 1e-6 + iterations * (
            useful / np.maximum(table.gpu_local_threads, 1)
        ) * _GPU_GROUP_DISPATCH_US * 1e-6
    else:
        overhead_s = np.full(len(table), iterations * _MC_LAUNCH_US * 1e-6)

    # ---- utilization accounting ---------------------------------------
    if spec.is_gpu:
        hide = np.minimum(1.0, useful / (spec.cores * spec.latency_hiding))
    else:
        tpc = np.minimum(table.threads_per_core, spec.threads_per_core)
        hide = np.minimum(1.0, 0.25 + 0.12 * tpc)
    busy = compute_s + hide * np.minimum(memory_s, compute_s)
    stall = np.maximum(memory_s - compute_s, 0.0) * (1.0 - hide) + sync_s
    return compute_s, memory_s, sync_s, overhead_s, busy, stall


def batch_evaluate(
    profile: WorkloadProfile,
    spec: AcceleratorSpec,
    configs: ConfigTable | Sequence[MachineConfig] | None = None,
) -> BatchResult:
    """Evaluate ``profile`` on every configuration at once.

    Args:
        profile: workload to cost.
        spec: target accelerator.
        configs: a prebuilt :class:`ConfigTable`, an explicit config
            sequence, or None for the spec's full (cached) lattice.

    Returns:
        A :class:`BatchResult` of per-config time, energy, and utilization
        arrays plus the per-phase component breakdowns.
    """
    if configs is None:
        table = lattice_table(spec)
    elif isinstance(configs, ConfigTable):
        table = configs
    else:
        table = ConfigTable.from_configs(spec, configs)
    if table.spec is not spec and table.spec != spec:
        raise SimulationError(
            f"ConfigTable built for {table.spec.name!r} cannot be evaluated "
            f"on {spec.name!r}"
        )

    num_phases = len(profile.phases)
    n = len(table)
    compute = np.empty((num_phases, n))
    memory = np.empty((num_phases, n))
    sync = np.empty((num_phases, n))
    overhead = np.empty((num_phases, n))
    busy = np.zeros(n)
    stall = np.zeros(n)
    for p, phase in enumerate(profile.phases):
        c, m, s, o, phase_busy, phase_stall = _phase_cost_arrays(
            table, profile, phase
        )
        compute[p] = c
        memory[p] = m
        sync[p] = s
        overhead[p] = o
        busy = busy + phase_busy
        stall = stall + phase_stall

    if obs.enabled():
        # One bump per batch pass: the "batch path taken" signal, plus the
        # config volume it covered (vs cost_model.evals{path="scalar"}).
        obs.counter("cost_model.evals", path="batch")
        obs.counter("cost_model.configs", n, path="batch")

    streaming_s = _streaming_cost(spec, profile)
    totals = np.maximum(compute, memory) + sync + overhead
    time_s = totals.sum(axis=0) + streaming_s

    denominator = busy + stall
    with np.errstate(divide="ignore", invalid="ignore"):
        utilization = np.where(denominator > 0, busy / denominator, 0.0)

    # Energy (mirrors evaluate_energy + active_core_fraction).
    if spec.is_gpu:
        active = np.minimum(1.0, table.threads / spec.max_threads)
    else:
        active = np.minimum(1.0, table.cores / spec.cores)
    dynamic_span = spec.tdp_watts - spec.idle_watts
    avg_power = spec.idle_watts + dynamic_span * active * (
        0.4 + 0.6 * utilization
    )
    energy_j = avg_power * time_s

    return BatchResult(
        table=table,
        phase_kinds=tuple(phase.kind.value for phase in profile.phases),
        compute_s=compute,
        memory_s=memory,
        sync_s=sync,
        overhead_s=overhead,
        streaming_s=streaming_s,
        time_s=time_s,
        busy_s=busy,
        stall_s=stall,
        utilization=utilization,
        avg_power_w=avg_power,
        energy_j=energy_j,
    )
