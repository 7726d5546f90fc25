"""promisekit: negotiate, explore and verify promise protocols.

The library has four layers: an algebra of task bodies (usage, negation,
incompatibility, exclusiveness), promise states with the introduce and
withdraw speech acts, an ACP-style term language with a small-step
semantics, and an exhaustive explorer over the resulting finite
transition systems. The ``dsl`` module gives everything a concrete
syntax, and ``promise`` (see ``cli``) wraps it all on the command line.
"""

from .task_algebra import (
    GAMMA,
    ExclusivenessRegistry,
    IncompatibilityRelation,
    NegationConflict,
    ReflexiveDeclaration,
    TaskAtom,
    TaskBody,
    TypeMismatch,
    TypeTag,
    build_incompatibility,
    incompatible,
    is_exclusive,
    is_positive,
    is_service,
    negate,
    type_of,
    usage,
)
from .promise_state import (
    Agent,
    EMPTY_STATE,
    GeneralizedPromise,
    NoCompliance,
    NotEnabled,
    NotPresent,
    ObligationWarning,
    Promise,
    PromiseModel,
    State,
    SubordinationOrder,
    introduce,
    introduce_generalized,
    obligation_warnings,
    pi_enabled,
    pw_enabled,
    withdraw,
)
from .process_algebra import (
    Act,
    Alt,
    Configuration,
    Deadlock,
    DEADLOCK,
    Done,
    DONE,
    Event,
    GeneralizedIntroduceEvent,
    Guard,
    IntroduceEvent,
    Par,
    ProcessTerm,
    Seq,
    WithdrawEvent,
    can_terminate,
    eval_condition,
    make_protocol,
    step,
)
from .explorer import (
    Accepted,
    LimitExceeded,
    Lts,
    Outcome,
    Rejected,
    Trace,
    build_lts,
    check_invariants,
    find_deadlocks,
    maximal_traces,
    transitions,
    verify_trace,
)
from .dsl import ParseError, Scenario, ValidationError, parse_scenario, parse_term, parse_trace, render

__version__ = "0.1.0"
