"""Exact computer algebra for trace identities and algebras with trace.

Subpackages:

* sparse     -- the sparse exact-arithmetic kernel shared by TracePoly and MPoly
* freetrace  -- the free algebra with trace: words, cyclic trace symbols,
  normal-form polynomials, rendering and parsing
* chident    -- characteristic coefficients, the degree-n trace identity,
  its multilinear forms and the characters of the symmetric groups
* genmat     -- evaluation on generic and rational matrices, identity
  checking, diagonal models and discriminant relations
* genrank    -- ranks of generic-element algebras over their trace field
* findim     -- structure-constant algebras with trace: kernels, trace
  degrees, weighted semisimple models
* pseudochar -- pseudocharacters of finite groups and their induced algebras
* characters -- brute-force character tables of small groups
* strata     -- stratum-type combinatorics of matrix-tuple quotients
* cli        -- the `tracealg` command
"""

from .freetrace import TracePoly, formal_trace, parse_trace_poly
from .chident import ch_multilinear, ch_poly, polarize, sigma, t_multilinear
from .genmat import (diagonal_model, discriminant_relation, evaluate,
                     generic_matrix, is_trace_identity, random_counterexample)
from .genrank import generic_algebra_rank
from .findim import (Subspace, TraceAlgebra, WeightedType, ch_degree,
                     make_algebra, radical_kernel, recover_weights,
                     rescale_trace, trace_kernel, weighted_semisimple)
from .pseudochar import (FiniteGroup, PseudoCharTable, check_pseudocharacter,
                         pseudochar_kernel)
from .strata import (StratumType, closure_leq, enumerate_types,
                     maximal_degenerations, stratification_poset, stratum_dims)

__all__ = [
    "TracePoly", "formal_trace", "parse_trace_poly",
    "ch_multilinear", "ch_poly", "polarize", "sigma", "t_multilinear",
    "diagonal_model", "discriminant_relation", "evaluate", "generic_matrix",
    "is_trace_identity", "random_counterexample", "generic_algebra_rank",
    "Subspace", "TraceAlgebra", "WeightedType", "ch_degree", "make_algebra",
    "radical_kernel", "recover_weights", "rescale_trace", "trace_kernel",
    "weighted_semisimple", "FiniteGroup", "PseudoCharTable",
    "check_pseudocharacter", "pseudochar_kernel", "StratumType", "closure_leq",
    "enumerate_types", "maximal_degenerations", "stratification_poset",
    "stratum_dims",
]
