"""multlab: Schur multipliers of finite p-groups at desk scale.

Five cooperating methods compute M(G) for groups given by power-commutator
presentations: central tails, which reaches every group, a Cayley-table
oracle by Hopf's formula on the Cayley graph, the Blackburn-Evens
construction for odd-p class-2 groups, the direct-product (Kunneth-style)
identity, and the abelian exterior square.  A bound-derivation ledger replays squeeze
arguments as cross-checks.  A bundled catalog covers the classification of p-groups whose
multiplier has corank t(G) = 6 against Green's bound.
"""

from .abelian import AbelianGroup, direct_sum, exterior_square, kunneth, snf, tensor
from .blackburn_evens import BePreconditionError, build_be_data, multiplier_via_be
from .bounds import (
    Fact,
    Ledger,
    Provenance,
    replay_script,
    rule_class_bound,
    rule_extraspecial,
    rule_green,
    rule_jones,
    rule_transgression_lower,
)
from .cayley import CayleyTable
from .compute import Computer, compute_t
from .entries import Catalog, CatalogEntry, load_group_dsl
from .oracle import H2Result, h2_trivial_coeffs, multiplier_via_oracle
from .pcgroup import (
    PcPresentation,
    Subgroup,
    abelianization,
    cayley_table,
    center,
    central_quotient,
    check_consistency,
    derived_subgroup,
    direct_product,
    iso_witness_check,
    multiplier_via_tails,
    structure_report,
)
from .report import emit_report, run_table24, verify_entry, verify_theorem
from .results import MultiplierResult

__all__ = [
    "AbelianGroup", "BePreconditionError", "Catalog", "CatalogEntry",
    "CayleyTable", "Computer", "Fact", "H2Result", "Ledger",
    "MultiplierResult", "PcPresentation", "Provenance",
    "Subgroup", "abelianization", "build_be_data", "cayley_table", "center",
    "central_quotient", "check_consistency", "compute_t", "derived_subgroup",
    "direct_product", "direct_sum", "emit_report", "exterior_square",
    "h2_trivial_coeffs", "iso_witness_check", "kunneth", "load_group_dsl",
    "multiplier_via_be", "multiplier_via_oracle", "multiplier_via_tails", "replay_script",
    "rule_class_bound", "rule_extraspecial", "rule_green", "rule_jones",
    "rule_transgression_lower", "run_table24", "structure_report",
    "tensor", "verify_entry", "verify_theorem",
    "snf",  # snf(matrix, p, k): the Smith form's p-adic valuations over Z_{p^k}
]
