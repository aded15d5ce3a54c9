"""Golden vectors for the canonical 1e-9 prediction grid.

A stub learner returns fixed raw vectors (no training, no BLAS), so these
literals pin only the clip + round that :class:`LearnedPredictor` applies
and the decoders that consume its output.  Several raw values carry a 5
in the tenth decimal place, where a change in rounding (half-to-even vs
half-up, or a different scaling) would move them by one grid step; the
first row's M1 value 0.4999999996 rounds up to the 0.5 threshold and so
calls the multicore kind.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.encoding import (
    NUM_FEATURES,
    NUM_TARGETS,
    decode_config_batch,
    decode_config_for,
)
from repro.core.predictors import LearnedPredictor
from repro.machine.fleet import synthetic_fleet
from repro.machine.mvars import MachineConfig, OmpSchedule
from repro.machine.specs import DEFAULT_PAIR, get_accelerator

RAW = np.array(
    [
        [0.4999999996, 0.1234567895, 0.3333333335, 0.9999999996,
         0.6666666665, 0.2500000005, 0.7500000005, 0.2499999995,
         0.0, 0.0, 0.4444444445],
        [0.4999999994, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5,
         0.0000000005, 0.8765432105, 0.5],
        [1.0000000004, -2e-10, 0.0000000015, 0.1000000005,
         0.3141592655, 0.9999999995, 0.0000000025, 0.7499999995,
         0.6180339885, 0.1111111115, 0.0],
    ]
)

CANONICAL = [
    [0.5, 0.12345679, 0.333333334, 1.0, 0.666666666, 0.25, 0.75, 0.25,
     0.0, 0.0, 0.444444444],
    [0.499999999, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5,
     0.0, 0.87654321, 0.5],
    [1.0, 0.0, 2e-09, 0.1, 0.314159266, 1.0, 2e-09, 0.75,
     0.618033988, 0.111111112, 0.0],
]


class _FixedPredictor(LearnedPredictor):
    name = "fixed"

    def _fit(self, features, targets):
        pass

    def _predict(self, features):
        return RAW[: len(features)].copy()


def _multicore(name, cores, tpc, simd, blocktime, placement, affinity,
               schedule, chunk):
    return MachineConfig(
        accelerator=name,
        cores=cores,
        threads_per_core=tpc,
        simd_width=simd,
        blocktime_ms=blocktime,
        placement_core=placement,
        placement_thread=placement,
        placement_offset=placement,
        affinity=affinity,
        omp_schedule=schedule,
        omp_chunk=chunk,
    )


def _gpu(name, global_threads, local_threads):
    return MachineConfig(
        accelerator=name,
        gpu_global_threads=global_threads,
        gpu_local_threads=local_threads,
    )


#: ``decode_config_for`` of the canonical rows on each ``synthetic_fleet(4)``
#: device, in fleet order.
FLEET_CONFIGS = {
    "gtx750ti": [
        _gpu("gtx750ti", 1, 32),
        _gpu("gtx750ti", 1, 668),
        _gpu("gtx750ti", 6329, 47),
    ],
    "xeonphi7120p": [
        _multicore("xeonphi7120p", 8, 2, 16, 99.999999539483, 0.25, 0.75,
                   OmpSchedule.DYNAMIC, 102),
        _multicore("xeonphi7120p", 30, 2, 4, 31.622776601683793, 0.5, 0.5,
                   OmpSchedule.DYNAMIC, 128),
        _multicore("xeonphi7120p", 1, 1, 1, 8.759469363342431, 1.0, 2e-09,
                   OmpSchedule.GUIDED, 16),
    ],
    "gtx970": [
        _gpu("gtx970", 1, 32),
        _gpu("gtx970", 1, 668),
        _gpu("gtx970", 16455, 47),
    ],
    "cpu40core": [
        _multicore("cpu40core", 5, 1, 8, 99.999999539483, 0.25, 0.75,
                   OmpSchedule.DYNAMIC, 102),
        _multicore("cpu40core", 20, 2, 3, 31.622776601683793, 0.5, 0.5,
                   OmpSchedule.DYNAMIC, 128),
        _multicore("cpu40core", 1, 1, 1, 8.759469363342431, 1.0, 2e-09,
                   OmpSchedule.GUIDED, 16),
    ],
}


def _assert_config(config, expected):
    """Exact on every knob but ``blocktime_ms``, which comes from NumPy's
    ``power`` ufunc; its SIMD kernels may differ in the last bit between
    CPUs, while one grid step moves the knob by ~1e-9 relative."""
    assert config.blocktime_ms == pytest.approx(expected.blocktime_ms, rel=1e-12)
    fields = dict(vars(config), blocktime_ms=None)
    assert fields == dict(vars(expected), blocktime_ms=None)


@pytest.fixture(scope="module")
def predictor():
    fixed = _FixedPredictor()
    fixed.fit(np.zeros((1, NUM_FEATURES)), np.zeros((1, NUM_TARGETS)))
    return fixed


@pytest.fixture(scope="module")
def vectors(predictor):
    return predictor.predict_batch(np.zeros((len(RAW), NUM_FEATURES)))


class TestCanonicalGrid:
    def test_rounded_vectors(self, vectors):
        assert vectors.tolist() == CANONICAL

    def test_predict_vector_rounds_alike(self, predictor):
        single = predictor.predict_vector(np.zeros(NUM_FEATURES))
        assert single.tolist() == CANONICAL[0]

    def test_default_pair_decode(self, vectors):
        gpu, multicore = (get_accelerator(name) for name in DEFAULT_PAIR)
        decoded = decode_config_batch(vectors, gpu, multicore)
        # M1 0.4999999996 rounds to the 0.5 threshold: multicore.
        assert [spec.name for spec, _ in decoded] == [
            "xeonphi7120p",
            "gtx750ti",
            "xeonphi7120p",
        ]
        expected = [
            FLEET_CONFIGS["xeonphi7120p"][0],
            FLEET_CONFIGS["gtx750ti"][1],
            FLEET_CONFIGS["xeonphi7120p"][2],
        ]
        for (_, config), reference in zip(decoded, expected, strict=True):
            _assert_config(config, reference)

    def test_synthetic_fleet_decode(self, vectors):
        fleet = synthetic_fleet(4)
        assert [spec.name for spec in fleet.devices] == list(FLEET_CONFIGS)
        for spec in fleet.devices:
            configs = decode_config_for(vectors, spec)
            for config, reference in zip(
                configs, FLEET_CONFIGS[spec.name], strict=True
            ):
                _assert_config(config, reference)
