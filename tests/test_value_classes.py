"""The value classes, which ``task_algebra.value`` makes without generated
code, behave as ``@dataclass(frozen=True)`` classes of the same fields:
each is compared here with such a twin, made from its annotations."""

from __future__ import annotations

import dataclasses
import inspect
import pickle

import pytest

import promisekit
from promisekit import dsl, explorer, process_algebra, promise_state, task_algebra
from promisekit.dsl import Scenario, parse_scenario
from promisekit.explorer import Accepted, Outcome, Rejected, Violation
from promisekit.process_algebra import (
    DEADLOCK,
    DONE,
    FALSE,
    TRUE,
    Act,
    AgentVar,
    Alt,
    And,
    Configuration,
    Deadlock,
    Done,
    FalseConst,
    ForAllAgents,
    GeneralizedIntroduceEvent,
    Guard,
    HasPromise,
    Implies,
    IntroduceEvent,
    IsExclusive,
    Not,
    Or,
    Par,
    Seq,
    TrueConst,
    WithdrawEvent,
)
from promisekit.promise_state import (
    EMPTY_STATE,
    Agent,
    GeneralizedPromise,
    ObligationWarning,
    Promise,
    PromiseModel,
    State,
    SubordinationOrder,
)
from promisekit.task_algebra import (
    ExclusivenessRegistry,
    IncompatibilityRelation,
    StoredHash,
    TaskAtom,
    TaskBody,
    TypeTag,
    build_incompatibility,
    negate,
    usage,
)

MODULES = (task_algebra, promise_state, process_algebra, dsl, explorer)
TEXT = "agent a b c\nsubord b <= a\ntype t\ntask x : t\ntask y : t\nincompatible x # y\nexclusive ~x\nrun "
SCENARIO = parse_scenario(TEXT + "pi(a, x, b) . pw(a, x, b)\n")
MODEL = SCENARIO.model
A, B, C = map(MODEL.agent, "abc")
X, Y = MODEL.body("x"), MODEL.body("y")
V = AgentVar("v")
OFFER, TAKE = IntroduceEvent(A, X, B), WithdrawEvent(B, Y, A)
HELD = State([Promise(A, X, B)])
HAS = HasPromise(A, X, V)


# two values of each class, which differ unless the class has one value
SAMPLES = {
    TypeTag: [TypeTag("t"), TypeTag("u")],
    TaskAtom: [X.atom, TaskAtom("z", TypeTag("u"))],
    TaskBody: [X, negate(usage(Y))],
    IncompatibilityRelation: [MODEL.incompatibility, build_incompatibility(MODEL.atoms)],
    ExclusivenessRegistry: [MODEL.exclusiveness, ExclusivenessRegistry(frozenset())],
    Agent: [A, B],
    SubordinationOrder: [MODEL.order, SubordinationOrder.from_pairs([])],
    Promise: [Promise(A, X, B), Promise(B, Y, A)],
    GeneralizedPromise: [GeneralizedPromise(A, B, X, C, A), GeneralizedPromise(A, C, X, B, A)],
    State: [HELD, EMPTY_STATE],
    ObligationWarning: [ObligationWarning(B, A), ObligationWarning(A, B)],
    IntroduceEvent: [OFFER, IntroduceEvent(B, Y, A)],
    WithdrawEvent: [TAKE, WithdrawEvent(A, X, B)],
    GeneralizedIntroduceEvent: [GeneralizedIntroduceEvent(A, B, X, C, A), GeneralizedIntroduceEvent(A, C, X, B, A)],
    AgentVar: [V, AgentVar("w")],
    TrueConst: [TRUE, TrueConst()],
    FalseConst: [FALSE, FalseConst()],
    HasPromise: [HAS, HasPromise(B, Y, A)],
    IsExclusive: [IsExclusive(X), IsExclusive(Y)],
    Not: [Not(TRUE), Not(HAS)],
    And: [And(TRUE, HAS), And(HAS, TRUE)],
    Or: [Or(TRUE, FALSE), Or(FALSE, TRUE)],
    Implies: [Implies(IsExclusive(X), HAS), Implies(HAS, FALSE)],
    ForAllAgents: [ForAllAgents("v", A, Not(HAS)), ForAllAgents("v", B, HAS)],
    Done: [DONE, Done()],
    Deadlock: [DEADLOCK, Deadlock()],
    Act: [Act(OFFER), Act(TAKE)],
    Seq: [Seq(Act(OFFER), Act(TAKE)), Seq(Act(TAKE), DONE)],
    Alt: [Alt(Act(OFFER), DEADLOCK), Alt(DEADLOCK, Act(OFFER))],
    Par: [Par(Act(OFFER), Act(TAKE)), Par(Act(TAKE), Act(OFFER))],
    Guard: [Guard(ForAllAgents("v", A, Not(HAS)), Act(OFFER)), Guard(TRUE, DONE)],
    Scenario: [SCENARIO, parse_scenario(TEXT + "pi(a, x, b)\n")],
    Accepted: [Accepted(HELD, True, Outcome.SUCCESSFUL), Accepted(EMPTY_STATE, False, None)],
    Rejected: [Rejected(0, (OFFER, TAKE), EMPTY_STATE), Rejected(1, (), HELD)],
    Violation: [
        Violation("conflict", Configuration(DONE, HELD), "a:x->b and a:y->b"),
        Violation("exclusiveness", Configuration(Act(OFFER), EMPTY_STATE), "a:~x->b and a:~x->c"),
    ],
}
# the only defaults, which the twins are given
DEFAULTS = {TaskBody: {"usage": False, "negated": False}, State: {"promises": frozenset()}}


def _classes(predicate) -> set[type]:
    return {
        item
        for module in MODULES
        for item in vars(module).values()
        if isinstance(item, type) and item.__module__ == module.__name__ and predicate(item)
    }


def _fields(value) -> list:
    return [getattr(value, name) for name in type(value).__match_args__]


def _twin(cls: type) -> type:
    """A frozen dataclass of the class's annotated fields, with the same
    defaults and ``__post_init__``, and the same name."""
    defaults = DEFAULTS.get(cls, {})
    fields = [
        (name, annotation) if name not in defaults else (name, annotation, dataclasses.field(default=defaults[name]))
        for name, annotation in cls.__annotations__.items()
    ]
    namespace = {"__post_init__": cls.__post_init__} if "__post_init__" in vars(cls) else {}
    return dataclasses.make_dataclass(cls.__name__, fields, namespace=namespace, frozen=True)


def _error(call) -> tuple[type, str]:
    """The class and message of the exception a call raises."""
    with pytest.raises(Exception) as caught:
        call()
    return type(caught.value), str(caught.value)


def test_every_value_class_has_samples_and_only_the_model_is_a_dataclass():
    values = _classes(lambda cls: hasattr(cls, "__match_args__") and not issubclass(cls, tuple))
    assert values - {PromiseModel} == set(SAMPLES) and len(SAMPLES) == 35
    assert _classes(dataclasses.is_dataclass) == {PromiseModel}
    assert not any(dataclasses.is_dataclass(cls) for cls in SAMPLES)
    defaulted = {
        cls: {name: p.default for name, p in inspect.signature(cls).parameters.items() if p.default is not p.empty}
        for cls in SAMPLES
    }
    assert {cls: found for cls, found in defaulted.items() if found} == DEFAULTS
    assert promisekit.PromiseModel is PromiseModel


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)
class TestLikeADataclass:
    def test_repr_equality_and_hash(self, cls):
        twin = _twin(cls)
        first, second = SAMPLES[cls]
        for value in (first, second):
            copy, mirror = cls(*_fields(value)), twin(*_fields(value))
            assert type(value) is cls and copy is not value
            assert repr(copy) == repr(value) == repr(mirror)
            assert copy == value and not copy != value
            stored = (cls, *_fields(value)) if issubclass(cls, StoredHash) else mirror
            assert hash(copy) == hash(value) == hash(stored)
        assert (first == second) is (twin(*_fields(first)) == twin(*_fields(second)))
        assert (first != second) is (twin(*_fields(first)) != twin(*_fields(second)))
        for other in (object(), twin(*_fields(first)), SAMPLES[TypeTag if cls is not TypeTag else Agent][0]):
            assert first.__eq__(other) is NotImplemented
            assert first != other

    def test_construction(self, cls):
        twin = _twin(cls)
        value = SAMPLES[cls][0]
        names, values = cls.__match_args__, _fields(value)
        assert names == tuple(cls.__annotations__) == twin.__match_args__
        assert cls(**dict(zip(names, values))) == value
        required = {name: item for name, item in zip(names, values) if name not in DEFAULTS.get(cls, {})}
        assert _fields(cls(**required)) == _fields(twin(**required))
        calls = [lambda made: made(*values, None), lambda made: made(*values, unknown=None)]
        if required:
            calls.append(lambda made: made())
        for call in calls:
            error = _error(lambda: call(cls))
            assert error[0] is TypeError and error == _error(lambda: call(twin))

    def test_frozen_and_slotted(self, cls):
        value, mirror = SAMPLES[cls][0], _twin(cls)(*_fields(SAMPLES[cls][0]))
        assert not hasattr(value, "__dict__")
        for name in (*cls.__match_args__, "unknown"):
            error = _error(lambda: setattr(value, name, None))
            assert error[0] is dataclasses.FrozenInstanceError and error == _error(lambda: setattr(mirror, name, None))
            error = _error(lambda: delattr(value, name))
            assert error[0] is dataclasses.FrozenInstanceError and error == _error(lambda: delattr(mirror, name))
        assert _fields(value) == _fields(mirror)

    def test_pickle_round_trip(self, cls):
        for value in SAMPLES[cls]:
            copy = pickle.loads(pickle.dumps(value))
            assert type(copy) is cls and copy == value and hash(copy) == hash(value)
        if issubclass(cls, StoredHash):
            # a stored hash is not pickled: the constructor computes it again,
            # as a hash of the class must be in another process
            forged = cls(*_fields(value))
            object.__setattr__(forged, "_hash", hash(value) + 1)
            assert pickle.loads(pickle.dumps(forged))._hash == hash(value)


def test_the_class_maker_refuses_what_it_cannot_make():
    # five own fields at most, and a field with a default after every one without
    five = {name: int for name in "abcde"}
    made = task_algebra.value(type("Five", (), {"__annotations__": five, "e": 0}))
    assert made(1, 2, 3, 4) == made(1, 2, 3, 4, 0) and made.__match_args__ == tuple(five)
    for namespace in ({"__annotations__": {**five, "f": int}}, {"__annotations__": {"a": int, "b": int}, "a": 0}):
        with pytest.raises(TypeError, match="at most 5 fields, and its defaults come last"):
            task_algebra.value(type("Bad", (), namespace))
