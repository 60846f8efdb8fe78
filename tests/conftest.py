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
