"""Exact symbolic engine for Hecke R-matrix exchange algebras.

Verifies the quadratic Hecke identity, the braid relation, the Baxterised
parametrised Yang-Baxter identity and unitarity; reduces words in the
single-mode quantum exterior algebra and in the multi-mode exchange algebra
to normal form; and evaluates the Heisenberg shift-operator commutators on
the semi-infinite vacuum, all over Z[q, q^-1].
"""

from .coeff import LaurentPoly, PolyQZW, braided_int_scalar
from .tensor import (
    LaurentInversionError,
    SingularOperatorError,
    TensorOp,
    embed,
    invert,
    permutation_P,
)
from .rmatrix import (
    CheckResult,
    HeckeData,
    admissible_samples,
    braided_integer,
    braided_integer_bar,
    check_braid,
    check_hecke,
    check_pybe,
    check_unitarity,
    hecke_PR_inverse,
    interval_product,
    interval_product_bar,
    standard_sln_R,
)
from .wedge import (
    NonPBWInputError,
    SwapRuleTable,
    WedgeElement,
    braided_partial,
    degree_rank,
    derive_wedge_rules,
    top_form,
    wedge_normal_form,
)
from .modealg import (
    BudgetExceededError,
    ExchangeRules,
    ModeElement,
    check_modeanticom,
    check_modeind,
    check_moderel,
    gerv_normal_form,
    normal_form,
    normal_form_stats,
    r_anticommutator,
    standard_rules,
)
from .fock import (
    FockState,
    apply_b,
    commutator_on_vacuum,
    heisenberg_matches,
    lemma33_closed_form,
    lemma33_coefficient,
    lemma33_second_term,
    lemma33_second_term_expected,
    multiply_left,
    scalar_part,
    translate,
    vacuum,
)

__version__ = "0.1.0"
