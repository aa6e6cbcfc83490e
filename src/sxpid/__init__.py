"""Shared-exclusion pointwise partial information decomposition.

Decomposes the pointwise mutual information that a set of discrete
sources carries about a target into per-node atoms on the redundancy
lattice of antichains, split into informative and misinformative parts.
All quantities derive from probabilities of unions of coalition cylinder
events and are differentiable in the joint pmf on the simplex interior.
"""

from .builtins import (builtin_distribution, builtin_names, parity_distribution,
                       pwunq_distribution, rnd_distribution, rnderr_distribution,
                       xor_distribution, xorduplicate_distribution)
from .dist import (Alphabet, CylinderEvent, DistributionError,
                   DistributionFormatError, JointDistribution, Realization,
                   dump_csv, dump_json, event_probability, load_distribution,
                   marginal)
from .grad import (GradientRecord, SimplexPoint, central_difference,
                   fd_mismatch, grad_atom, grad_atom_via_closed_form,
                   grad_average, grad_i_sx_parts, interior_mix, optimize_atom,
                   optimize_atom_mechanism_fixed, random_interior)
from .lattice import (Antichain, BoundaryError, LatticeError, RedundancyLattice,
                      closed_form_atom, enumerate_lattice, leq, meet,
                      moebius_invert, normalize_antichain, parse_node_name)
from .measures import (AverageDecomposition, PointwiseDecomposition,
                       atom_via_closed_form, average_decomposition, axiom_suite,
                       check_lattice_monotonicity, child_meet_mass_identity_max_dev,
                       conditional_i_sx, decompose_support,
                       duplicate_invariance_check, entropy_decomposition,
                       form_equivalence_max_dev, i_sx, i_sx_minus, i_sx_plus,
                       local_mi, node_event_probabilities,
                       pointwise_decomposition, self_shared,
                       target_chain_terms, v_channel_xor)

__version__ = "0.1.0"

__all__ = [
    "Alphabet", "Antichain", "AverageDecomposition", "BoundaryError",
    "CylinderEvent", "DistributionError", "DistributionFormatError",
    "GradientRecord", "JointDistribution", "LatticeError",
    "PointwiseDecomposition", "Realization", "RedundancyLattice",
    "SimplexPoint", "atom_via_closed_form", "average_decomposition",
    "axiom_suite", "builtin_distribution", "builtin_names",
    "central_difference", "check_lattice_monotonicity",
    "child_meet_mass_identity_max_dev", "closed_form_atom",
    "conditional_i_sx", "decompose_support", "dump_csv", "dump_json",
    "duplicate_invariance_check", "entropy_decomposition",
    "enumerate_lattice", "event_probability", "fd_mismatch",
    "form_equivalence_max_dev", "grad_atom", "grad_atom_via_closed_form",
    "grad_average", "grad_i_sx_parts", "i_sx", "i_sx_minus", "i_sx_plus",
    "interior_mix", "leq", "load_distribution", "local_mi", "marginal", "meet",
    "moebius_invert", "node_event_probabilities", "normalize_antichain",
    "optimize_atom", "optimize_atom_mechanism_fixed", "parity_distribution",
    "parse_node_name", "pointwise_decomposition", "pwunq_distribution",
    "random_interior", "rnd_distribution", "rnderr_distribution",
    "self_shared", "target_chain_terms", "v_channel_xor", "xor_distribution",
    "xorduplicate_distribution",
]
