"""Permutation codes from linear block codes.

Exact-arithmetic bounds on M(n, d), the largest permutation code in S_n at
Hamming distance d, plus a working construction: bucket the cosets of a
residue subgroup by parity-check syndrome and keep the largest bucket.

``import permcodes`` loads no submodule: each public name below loads its
home module on first use (PEP 562), so a program pays only for the modules
it touches.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it contributes to the package root
_EXPORTS = {
    "bounds": """AmdsBound BoundCell amds_lower amds_vs_old_threshold
        bound_report derangement_count envelope_new_old general_firstbound
        gv_lower hamming_ball_size mds_lower mds_plus1_lower old_prime_lower
        ratio_amds_old ratio_new_old singleton_like_upper sphere_packing_upper""",
    "combinat": "max_binary_code",
    "errors": "BudgetExceeded ParameterError ParseError PermcodesError VerificationFailed",
    "gf": "FieldSpec field_make is_prime is_prime_power next_prime next_prime_power",
    "linear": """LinearCode MatrixGF dual find_full_weight_dual_codeword in_dual
        min_distance normalize_first_row_ones parity_check
        parity_check_with_ones_row random_code_search read_code_file
        singleton_defect write_code_file""",
    "mds": "extended_rs reed_solomon",
    "perms": """ConstructionCertificate PermutationCode ResidueSubgroupSpec
        binary_lift compose construct construct_permutation_code identity_perm
        lift_code_into_K max_code_in_K perm_hamming subgroup_K syndrome_buckets
        write_permutation_code""",
    "verifier": "code_min_distance read_permutation_code",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
