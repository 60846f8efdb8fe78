"""Fixtures shared by the test modules."""

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
