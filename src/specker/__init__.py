"""Exact computation in Specker algebras over totally ordered domains.

Finite boolean algebras, boolean powers in orthogonal and decreasing
step-function form, the unique lattice order, de Vries proximities and
their pointwise lift, proximity morphisms with star composition, and an
independent pointwise oracle for differential verification.

``import specker`` loads the Specker-algebra core: ``boolalg``,
``scalars``, ``orthogonal`` and ``steps``.  The de Vries layer
(``proximity``, ``morphisms``), the oracle (``pointwise``) and the term
front end (``terms``) load on first use of one of their names.
"""

import importlib as _importlib
from types import ModuleType as _ModuleType

from .boolalg import Algebra, BoolElem, make_algebra, make_free_algebra
from .orthogonal import (
    OrthElem,
    annihilator_idempotent,
    orth_add,
    orth_const,
    orth_embed,
    orth_is_nonneg,
    orth_join,
    orth_leq,
    orth_meet,
    orth_mul,
    orth_neg,
    orth_normalize,
    orth_scale,
    orth_sub,
    orth_unit,
    orth_zero,
)
from .scalars import Scalar, format_scalar, parse_scalar
from .steps import (
    CompatibleSteps,
    StepElem,
    compatible_decreasing,
    decreasing_decomposition,
    from_decomposition,
    random_steps,
    step_add,
    step_const,
    step_embed,
    step_join,
    step_leq,
    step_meet,
    step_mul,
    step_mul_nonneg,
    step_neg,
    step_one,
    step_scale,
    step_scale_pos,
    step_sub,
    step_zero,
    to_orth,
    to_steps,
)

# name -> submodule, for the names that load on first use; each access
# reads the submodule's attribute and is never cached here
_LAZY = {
    name: module
    for module, names in {
        "morphisms": (
            "DVMorphism",
            "ProxMorphism",
            "apply_prox_morphism",
            "check_dv_morphism",
            "enumerate_boolean_homs",
            "eta",
            "functor_id",
            "functor_sp",
            "identity_dv",
            "identity_prox",
            "lift_morphism",
            "naturality_check",
            "restrict_prox_morphism",
            "sample_morphism_axioms",
            "star_compose_dv",
            "star_compose_prox",
            "tau",
        ),
        "pointwise": (
            "PointFn",
            "atom_values",
            "oracle_diff",
            "orth_of_pointfn",
            "pointwise_apply",
            "random_pointfn",
            "steps_of_pointfn",
        ),
        "proximity": (
            "AxiomResult",
            "ProxRel",
            "ProxReport",
            "check_devries",
            "enumerate_devries",
            "interpolant",
            "leq_proximity",
            "lift_check",
            "restrict_lift",
            "sample_proximity_axioms",
            "sample_related_pair",
        ),
        "terms": ("ParseError", "Term", "default_binding", "normalize_term", "parse_term"),
    }.items()
    for name in names
}

__all__ = sorted(
    [
        name
        for name, value in globals().items()
        if not name.startswith("_") and not isinstance(value, _ModuleType)
    ]
    + list(_LAZY)
)


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
