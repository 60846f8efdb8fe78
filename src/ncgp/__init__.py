"""Finite-dimensional noncommutative geometry toolkit.

Spectral triples and their products, Connes' spectral distance with certified
brackets, Wasserstein-1 on finite metric spaces, and Chern-Connes index
pairings for the catalog of two-point geometries.
"""

from .algebra import (
    AlgebraElement,
    FiniteAlgebra,
    Representation,
    State,
    element_from_coordinates,
    hermitian_basis,
    product_state,
    pure_states,
    random_state,
    slice_map,
    tensor_element,
)
from .distance import (
    DistanceResult,
    DistanceSolver,
    distance_matrix,
    spectral_distance,
)
from .khomology import (
    FredholmModule,
    Projection,
    chern_pairing,
    direct_sum,
    fredholm_from_dirac,
    generator_module,
    module_f1,
    module_f2,
    module_f_minus,
    module_f_plus,
    pairing_vector,
    pullback_module,
)
from .linalg import commutator, op_norm, parity_split, tensor
from .triples import (
    SpectralTriple,
    amplified_two_point,
    amplify,
    lattice_line,
    product,
    triple_from_json,
    triple_to_json,
    two_point,
    two_sheeted_line,
)
from .wasserstein import (
    FiniteMetricSpace,
    Measure,
    W1Result,
    lambda_measure,
    product_measure,
    product_space,
    w1,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
