"""Equality, hashing, pickling, copying and repr of the package's records (``Frozen``)."""

import copy
import pickle

import numpy as np
import pytest

from infodyn import AffineDynamics, GaussianDensity, KGModel, LinearMeasurement, RunConfig


def _model():
    return KGModel(n_modes=4, pixels=5, mu=1.0, beta=1.0, sigma_n2=0.01)


def _records():
    """Two equal, separately built instances of each record type, keyed by name."""
    return {
        "KGModel": (_model(), _model()),
        "RunConfig": (RunConfig(_model(), 1.0, 4, 0), RunConfig(_model(), 1.0, 4, 0)),
        "GaussianDensity": (
            GaussianDensity(np.zeros(2), np.eye(2)),
            GaussianDensity(np.zeros(2), np.eye(2)),
        ),
        "LinearMeasurement": (
            LinearMeasurement(np.ones((1, 2)), np.eye(1)),
            LinearMeasurement(np.ones((1, 2)), np.eye(1)),
        ),
        "AffineDynamics": (
            AffineDynamics(np.eye(2), 0.1),
            AffineDynamics(np.eye(2), 0.1),
        ),
    }


@pytest.mark.parametrize("name", sorted(_records()))
def test_equal_records_compare_equal_as_a_bool(name):
    first, second = _records()[name]
    assert first is not second
    assert (first == second) is True
    assert (first != second) is False


@pytest.mark.parametrize(
    "first, second",
    [
        (GaussianDensity(np.zeros(2), np.eye(2)), GaussianDensity(np.ones(2), np.eye(2))),
        (GaussianDensity(np.zeros(2), np.eye(2)), GaussianDensity(np.zeros(3), np.eye(3))),
        (
            LinearMeasurement(np.ones((1, 2)), np.eye(1)),
            LinearMeasurement(np.ones((1, 2)), 2.0 * np.eye(1)),
        ),
        (AffineDynamics(np.eye(2), 0.1), AffineDynamics(np.eye(2), 0.2)),
        (_model(), _model().replace(mu=2.0)),
    ],
    ids=["mean", "dimension", "noise", "dt", "mu"],
)
def test_records_that_differ_in_a_field_compare_unequal(first, second):
    assert (first == second) is False
    assert (first != second) is True


def test_a_record_is_unequal_to_another_type():
    assert _model() != "text"
    assert not (_model() == "text")
    assert GaussianDensity(np.zeros(2), np.eye(2)) != _model()


@pytest.mark.parametrize("name", sorted(_records()))
def test_a_record_compared_with_an_array_gives_a_bool(name):
    # numpy defers to the record instead of comparing it with each entry,
    # in either order, so Python falls back to identity.
    record, _ = _records()[name]
    array = np.zeros(2)
    assert (record == array) is False
    assert (array == record) is False
    assert (record != array) is True
    assert (array != record) is True


def test_equal_records_hash_alike():
    first, second = _records()["KGModel"]
    assert hash(first) == hash(second)
    first, second = _records()["RunConfig"]
    assert hash(first) == hash(second)


@pytest.mark.parametrize("name", ["GaussianDensity", "LinearMeasurement", "AffineDynamics"])
def test_a_record_holding_an_array_is_unhashable(name):
    record, _ = _records()[name]
    with pytest.raises(TypeError, match="unhashable type: 'numpy.ndarray'"):
        hash(record)


@pytest.mark.parametrize("name", ["KGModel", "RunConfig", "GaussianDensity"])
def test_pickle_and_deepcopy_round_trips_equal_the_original(name):
    record, _ = _records()[name]
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(twin) is type(record)
        assert twin is not record
        assert twin == record


def test_repr_names_the_fields():
    assert repr(_model()) == "KGModel(n_modes=4, pixels=5, mu=1.0, beta=1.0, sigma_n2=0.01)"
