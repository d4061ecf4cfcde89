"""Exact symbolic engine for Hecke R-matrix exchange algebras.

Verifies the quadratic Hecke identity, the braid relation, the Baxterised
parametrised Yang-Baxter identity and unitarity; reduces words in the
single-mode quantum exterior algebra and in the multi-mode exchange algebra
to normal form; and evaluates the Heisenberg shift-operator commutators on
the semi-infinite vacuum, all over Z[q, q^-1].

Each layer is imported on the first use of one of its names (PEP 562), which
then binds all of that layer's names here; so ``check_pybe`` never loads the
Fock engine.
"""

from importlib import import_module as _import_module

# layer -> the names it exports here
_LAYERS = {
    "coeff": ("LaurentPoly", "PolyQZW", "braided_int_scalar"),
    "tensor": ("LaurentInversionError", "SingularOperatorError", "TensorOp", "embed", "invert",
               "permutation_P"),
    "rmatrix": ("CheckResult", "HeckeData", "admissible_samples", "braided_integer",
                "braided_integer_bar", "check_braid", "check_hecke", "check_pybe",
                "check_unitarity", "hecke_PR_inverse", "interval_product", "interval_product_bar",
                "standard_sln_R"),
    "wedge": ("NonPBWInputError", "SwapRuleTable", "WedgeElement", "braided_partial",
              "degree_rank", "derive_wedge_rules", "top_form", "wedge_normal_form"),
    "modealg": ("BudgetExceededError", "ExchangeRules", "ModeElement", "check_modeanticom",
                "check_modeind", "check_moderel", "normal_form", "normal_form_stats",
                "r_anticommutator", "standard_rules"),
    "fock": ("FockState", "apply_b", "column_piece", "commutator_on_vacuum",
             "lemma33_closed_form", "lemma33_second_term_expected", "multiply_left",
             "scalar_part", "translate", "vacuum"),
}
# each name, and each layer module itself, -> its layer
_LAYER_OF = {name: layer for layer, names in _LAYERS.items() for name in (layer, *names)}
__all__ = list(_LAYER_OF)

__version__ = "0.1.0"


def __getattr__(name):
    # called only while ``name`` is unbound, so once per layer
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    module = _import_module("." + layer, __name__)
    globals().update((n, getattr(module, n)) for n in _LAYERS[layer])
    return globals()[name]


def __dir__():
    # what the eager package listed: its module dunders, __version__, the layers and their names
    own = {"__all__", "__getattr__", "__dir__"}
    return sorted({n for n in globals() if n[:2] == "__" and n not in own} | set(__all__))
