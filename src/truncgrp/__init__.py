"""Matrix groups over truncated local rings and p-power invariants
of their group algebras."""

__version__ = "1.0.0"

from .errors import (CapExceededError, ClosureMismatchError, MembershipError,
                     NonUnitError, ParseError, TruncgrpError)
from .ring import (POLY, WITT, Fq, Ring, field_make, parse_element, ring_make)
from .matrix import (GroupDesc, Mat, b_matrix, chu_sum, diagonal,
                     element_order, exponent_multiple, mat_coords,
                     mat_from_coords, p_exponent, parse_matrix,
                     sylow_p_elements, transvection, unitriangular_power)
from .groups import (ComparisonReport, ElementTable, KuelshammerProfile,
                     Partition, build_power_map, class_power_map,
                     compare_groups, conjugacy_classes, enumerate_group,
                     generators, kuelshammer_profile, load_cache,
                     partition_for, save_cache, proven_regime)
from .oracle import (AlgebraTable, Subspace, alg_mul, alg_pow,
                     commutator_space, kuelshammer_space, nullspace,
                     oracle_profile, perp)

__all__ = [
    "__version__",
    "TruncgrpError", "ParseError", "NonUnitError", "MembershipError",
    "CapExceededError", "ClosureMismatchError",
    "POLY", "WITT", "Fq", "Ring", "field_make", "ring_make", "parse_element",
    "Mat", "GroupDesc", "transvection", "diagonal", "parse_matrix",
    "mat_coords", "mat_from_coords", "element_order",
    "exponent_multiple", "chu_sum", "unitriangular_power", "b_matrix",
    "sylow_p_elements", "p_exponent",
    "ElementTable", "Partition", "KuelshammerProfile", "ComparisonReport",
    "generators", "enumerate_group", "conjugacy_classes", "build_power_map",
    "class_power_map", "kuelshammer_profile", "compare_groups",
    "proven_regime", "partition_for", "save_cache", "load_cache",
    "AlgebraTable", "Subspace", "alg_mul", "alg_pow", "commutator_space",
    "kuelshammer_space", "nullspace", "perp", "oracle_profile",
]
