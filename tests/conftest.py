"""Fixtures shared by the test modules."""

import numpy as np
import pytest

import ncgp.distance
import ncgp.sdp


@pytest.fixture
def no_fallback(monkeypatch):
    """Make any call of ratio_ascent, under either of its names, fail the test:
    the distance solver reports an unconverged solve as its own bracket."""
    def fail(*args, **kwargs):
        raise AssertionError("ratio_ascent called")

    monkeypatch.setattr(ncgp.distance, "ratio_ascent", fail)
    monkeypatch.setattr(ncgp.sdp, "ratio_ascent", fail)


@pytest.fixture
def generators(monkeypatch):
    """A function triple -> the reduced generators H_j (rank x h x h, complex,
    before any gauge) that DistanceSolver hands to NormBall."""
    def capture(triple):
        seen = []
        with monkeypatch.context() as m:
            m.setattr(ncgp.distance, "NormBall", seen.append)
            ncgp.distance.DistanceSolver(triple)
        return seen[0]
    return capture


def _np_block_diag(a, b):
    if a.ndim == 3:
        return np.stack([_np_block_diag(x, y) for x, y in zip(a, b)])
    return np.block([[a, np.zeros((len(a), len(b)))], [np.zeros((len(b), len(a))), b]])


@pytest.fixture
def np_block_diag():
    """The oracle for ncgp.linalg.block_diag: [[a, 0], [0, b]] by np.block,
    slice by slice along a leading axis; it shares no code with block_diag."""
    return _np_block_diag
