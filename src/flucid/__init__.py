"""Forensic Lucid: a case-specification language for digital investigations.

Evidence and witness accounts are encoded as hierarchical forensic
contexts; claims are intensional programs evaluated demand-by-demand; an
embedded finite-state reconstruction engine derives the explanations of a
claim together with Dempster-Shafer credibility scores.
"""

from .values import (
    BOD,
    EOD,
    PLUS_INF,
    MINUS_INF,
    ANY_PROPERTY,
    ContextSet,
    EvidentialStatement,
    FlucidError,
    Observation,
    ObservationSequence,
    Sentinel,
    SimpleContext,
    TagSet,
    ValidationError,
    lift,
    make_observation,
    no_observation,
    to_source,
    zero_observation,
)
from .era import (
    MPR,
    MSPR,
    ClaimResult,
    Property,
    ReconstructionError,
    StateMachine,
    WILDCARD,
    check_claim,
    comb,
    expand_generic,
    invert_transition,
    load_es,
    load_fsm,
    meaning_fixed_length,
    psi_inverse_set,
)

__version__ = "0.1.0"

__all__ = [
    "BOD",
    "EOD",
    "PLUS_INF",
    "MINUS_INF",
    "ANY_PROPERTY",
    "ContextSet",
    "EvidentialStatement",
    "FlucidError",
    "Observation",
    "ObservationSequence",
    "Sentinel",
    "SimpleContext",
    "TagSet",
    "ValidationError",
    "lift",
    "make_observation",
    "no_observation",
    "to_source",
    "zero_observation",
    "MPR",
    "MSPR",
    "ClaimResult",
    "Property",
    "ReconstructionError",
    "StateMachine",
    "WILDCARD",
    "check_claim",
    "comb",
    "expand_generic",
    "invert_transition",
    "load_es",
    "load_fsm",
    "meaning_fixed_length",
    "psi_inverse_set",
    "__version__",
]
