"""The benchmark's tracer wraps ncgp names by `owner.__dict__[attr]`; a rename
would break only traced benchmark runs, so check here that each one resolves."""

from perfbench.tracing import _targets


def test_traced_names_resolve():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in _targets() if attr not in owner.__dict__]
    assert not missing, f"names the tracer wraps are gone: {missing}"
