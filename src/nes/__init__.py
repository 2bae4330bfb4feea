"""Nominal terms with an uninterpreted explicit substitution operator.

Core pieces: atoms with deterministic fresh-name generation, the
four-constructor term type with swapping and free-atom sets, a rule-based
alpha-equivalence decision cross-checked by a nameless normal form,
capture-avoiding substitution, a concrete-syntax parser and printer, and a
deterministic random checker for the calculus's laws.
"""

from .atoms import Atom, fresh, parse_atom
from .term import (
    Abs,
    App,
    ESub,
    Term,
    Var,
    all_atoms,
    fv_nom,
    render,
    size,
    swap,
    vswap,
)
from .alpha import (
    BVar,
    CApp,
    CLam,
    CSub,
    CanonicalTerm,
    aeq,
    canonicalize,
    render_canonical,
)
from .msubst import msubst
from .parser import Lit, Meta, MetaExpr, ParseError, eval_meta, parse
from .properties import (
    DEFAULT_POOL,
    PROPERTY_NAMES,
    GenConfig,
    PropertyReport,
    UnknownPropertyError,
    enumerate_terms,
    gen_term,
    run_property,
)

__all__ = [
    "Atom",
    "fresh",
    "parse_atom",
    "Term",
    "Var",
    "Abs",
    "App",
    "ESub",
    "size",
    "fv_nom",
    "all_atoms",
    "vswap",
    "swap",
    "render",
    "CanonicalTerm",
    "BVar",
    "CLam",
    "CApp",
    "CSub",
    "aeq",
    "canonicalize",
    "render_canonical",
    "msubst",
    "MetaExpr",
    "Lit",
    "Meta",
    "ParseError",
    "parse",
    "eval_meta",
    "GenConfig",
    "PropertyReport",
    "UnknownPropertyError",
    "DEFAULT_POOL",
    "PROPERTY_NAMES",
    "gen_term",
    "run_property",
    "enumerate_terms",
]

__version__ = "0.1.0"
