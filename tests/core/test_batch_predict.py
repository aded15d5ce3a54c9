"""Batch-vs-scalar equivalence for every registered predictor.

The batched serving path is only sound if ``predict_batch`` agrees with a
looped ``predict_vector`` bit for bit: the decision cache memoizes a
row's first prediction, so any batch-shape dependence would make a
decision depend on its batch mates.  Learned models' matrix passes round
BLAS sums a few ULP apart by batch shape, which their canonical 1e-9
grid absorbs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.decision_tree import decision_tree_predict
from repro.core.encoding import NUM_FEATURES, encode_config
from repro.core.predictors import (
    AnalyticalTreePredictor,
    LearnedPredictor,
    make_predictor,
    predictor_names,
)
from repro.core.training import build_training_database
from repro.errors import NotTrainedError
from repro.features.bvars import BVariables
from repro.features.ivars import IVariables
from repro.machine.specs import get_accelerator

GPU = get_accelerator("gtx750ti")
PHI = get_accelerator("xeonphi7120p")


@pytest.fixture(scope="module")
def database():
    return build_training_database(GPU, PHI, num_samples=40, seed=11)


@pytest.fixture(scope="module")
def feature_matrix():
    """A lattice-like feature batch with normalized phase columns."""
    rng = np.random.default_rng(29)
    features = np.round(rng.random((120, NUM_FEATURES)), 1)
    totals = features[:, :5].sum(axis=1)
    totals[totals == 0] = 1.0
    features[:, :5] /= totals[:, None]
    return features


def _ready_predictor(name, database):
    predictor = make_predictor(name, GPU, PHI, seed=0)
    if isinstance(predictor, LearnedPredictor):
        predictor.fit(*database.matrices())
    return predictor


class TestBatchScalarEquivalence:
    @pytest.mark.parametrize("name", predictor_names())
    def test_batch_matches_looped_scalar(self, name, database, feature_matrix):
        predictor = _ready_predictor(name, database)
        batch = predictor.predict_batch(feature_matrix)
        scalar = np.vstack(
            [predictor.predict_vector(row) for row in feature_matrix]
        )
        assert batch.shape == scalar.shape
        assert np.array_equal(batch, scalar)

    @pytest.mark.parametrize("name", predictor_names())
    def test_single_row_batch_matches_full_batch(
        self, name, database, feature_matrix
    ):
        """Row i of a big batch equals a batch of just row i."""
        predictor = _ready_predictor(name, database)
        batch = predictor.predict_batch(feature_matrix)
        for row in (0, 17, 63):
            single = predictor.predict_batch(feature_matrix[row : row + 1])[0]
            assert np.array_equal(single, batch[row])

    @pytest.mark.parametrize("name", predictor_names())
    def test_off_lattice_rows_bit_identical(self, name, database):
        """Unrounded rows expose BLAS GEMV-vs-GEMM drift: a batch still
        equals its rows predicted one at a time, bit for bit."""
        rng = np.random.default_rng(41)
        features = rng.random((64, NUM_FEATURES))
        features[:, :5] /= features[:, :5].sum(axis=1, keepdims=True)
        predictor = _ready_predictor(name, database)
        assert np.array_equal(
            predictor.predict_batch(features),
            np.vstack([predictor.predict_vector(row) for row in features]),
        )


class TestBatchValidation:
    def test_empty_batch(self, database):
        predictor = _ready_predictor("cart", database)
        result = predictor.predict_batch(
            np.empty((0, NUM_FEATURES), dtype=np.float64)
        )
        assert result.shape[0] == 0

    def test_wrong_width_rejected(self, database):
        predictor = _ready_predictor("linear", database)
        with pytest.raises(ValueError):
            predictor.predict_batch(np.zeros((4, NUM_FEATURES - 1)))

    def test_one_dimensional_rejected(self, database):
        predictor = _ready_predictor("deep16", database)
        with pytest.raises(ValueError):
            predictor.predict_batch(np.zeros(NUM_FEATURES))

    def test_untrained_learner_raises(self):
        predictor = make_predictor("deep32")
        with pytest.raises(NotTrainedError):
            predictor.predict_batch(np.zeros((2, NUM_FEATURES)))


class TestAnalyticalMaskedBranches:
    def test_matches_hand_built_model(self, feature_matrix):
        """The masked batch evaluation is differentially pinned against
        the Section IV scalar model (tree walk + encode_config): the
        accelerator decision must match exactly, the continuous knob
        encodings to ULP tolerance."""
        predictor = AnalyticalTreePredictor(GPU, PHI)
        batch = predictor.predict_batch(feature_matrix)
        for row, prediction in zip(feature_matrix, batch):
            values = [float(v) for v in row[:13]]
            total = sum(values[:5])
            if total > 0:
                values[:5] = [v / total for v in values[:5]]
            else:
                values[0] = 1.0
            bvars = BVariables(*values)
            ivars = IVariables(*[float(v) for v in row[13:17]])
            _, config, _ = decision_tree_predict(bvars, ivars, GPU, PHI)
            reference = encode_config(config, GPU, PHI)
            assert prediction[0] == reference[0]
            assert np.max(np.abs(prediction - reference)) < 1e-12
