"""The benchmark's tracer wraps ncgp names by `owner.__dict__[attr]`; a rename
would break only traced benchmark runs, so check here that each one resolves,
and that each traced layer is still called on its path: a name that stays
importable but is no longer called would silently read 0."""

from ncgp import distance, triples, wasserstein
from ncgp.algebra import FiniteAlgebra, product_state, pure_states
from perfbench.tracing import Tracer, _targets


def test_traced_names_resolve():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in _targets() if attr not in owner.__dict__]
    assert not missing, f"names the tracer wraps are gone: {missing}"


def test_traced_layers_stay_on_their_paths():
    pt = triples.product(triples.two_point(2.0), triples.amplified_two_point(1.0))
    plus, minus = pure_states(FiniteAlgebra((1, 1)))
    phi, phi2 = product_state(plus, plus, pt.algebra), product_state(minus, plus, pt.algebra)
    seg = wasserstein.FiniteMetricSpace.segment()
    square = wasserstein.product_space(seg, seg)
    mu = wasserstein.product_measure(wasserstein.lambda_measure(seg, 0.3),
                                     wasserstein.lambda_measure(seg, 0.3), square)
    nu = wasserstein.product_measure(wasserstein.lambda_measure(seg, 0.0),
                                     wasserstein.lambda_measure(seg, 0.0), square)
    tracer = Tracer()
    with tracer.installed(0):
        solver = distance.DistanceSolver(pt)
        assert solver.distance(phi, phi2).status == "finite"
        wasserstein.w1(square, mu, nu)
    seen = {span[0] for span in tracer.spans}
    on_path = {"distance.setup", "algebra.basis", "sdp.ipm", "algebra.rebuild",
               "linalg.op_norm", "wasserstein.w1", "wasserstein.linprog"}
    assert on_path <= seen, f"traced layers no longer called: {sorted(on_path - seen)}"
    assert "sdp.fallback" not in seen
