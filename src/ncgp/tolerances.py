"""Every threshold the package compares against, each named once.

Structural checks are absolute, on small integer or rational arrays; only
the invertibility of D is relative to ||D||, since sign(D) is scale free.  The
distance solver's thresholds are relative: it normalizes its data to unit
scale before it compares anything, so that d(sD) = d(D)/s at every scale s.
The W1 checks are relative to the largest distance, for the same reason.
"""

# Structure of the inputs (absolute, entrywise)

STRUCT_TOL = 1e-12          # hermiticity, involutions, unitarity, trace 1, multiplicativity
GRADING_TOL = 1e-10         # gamma^2 = 1, {gamma, D} = 0 and [gamma, pi(a)] = 0 of a triple
FAITHFUL_RANK_TOL = 1e-10   # singular-value cutoff for the rank of pi on the matrix units
INVERTIBLE_TOL = 1e-12      # |eigenvalue| of D at most this times ||D|| is zero (relative)

# Spectral distance (relative)

DEFAULT_TOL = 1e-6          # "finite": upper - lower <= DEFAULT_TOL * lower
KERNEL_SVD_TOL = 1e-12      # singular values up to this times the largest span the kernel
INFINITY_TOL = 1e-10        # kernel overlap above this times ||c|| proves d = +inf ...
ROUNDOFF_TOL = 1e-15        # ... once it also exceeds this times ||phi|| + ||phi'||, c's roundoff

# Interior-point method, on data normalized to ||c|| = 1, lambda_max(Gram) = 1

CENTERING_TOL = 0.2         # squared Newton decrement that ends centering at one mu: a solver
                            # setting, no result is compared against it
MIN_STEP = 1e-14            # line-search step below which centering stops
RIDGE_TOL = 1e-13           # shift of K's diagonal, relative to its mean diagonal entry
MIN_MU = 1e-13              # barrier parameter below which path following stops

# Experiments

CHECK_TOL = 1e-6            # closed-form reproductions
SWEEP_TOL = 1e-4            # randomized property sweeps (solver limited)

# K-homology

PAIRING_REAL_TOL = 1e-10    # imaginary part of an index pairing
PAIRING_INT_TOL = 1e-8      # distance of an index pairing from an integer

# Wasserstein-1 (relative to the largest distance)

TRIANGLE_TOL = 1e-12        # symmetry, zero diagonal, sign and triangle inequality of d
GAP_TOL = 1e-9              # LP duality gap and the potential's Lipschitz excess
MARGINAL_TOL = 1e-10        # transport plan against its prescribed marginals
