"""Canonical task bodies and their algebraic laws.

A task body is an atomic task carrying two involutive modifiers:

* usage (``~``) -- the task of making use of something done by another agent;
  flips the service/usage polarity.
* negation (``!``) -- the task of *not* doing something; flips positivity.

Because both modifiers are involutive and commute, every task body has a
normal form (atom, usage parity, negation parity), giving exactly four
distinct bodies per atom. Incompatibility (``#``) relates bodies that a
single agent cannot realize at the same time; exclusiveness marks bodies
that cannot be promised by one agent to two counterparties at once.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from operator import attrgetter
from types import FunctionType
from typing import Iterable, Mapping

__all__ = [
    "TypeTag",
    "TaskAtom",
    "TaskBody",
    "IncompatibilityRelation",
    "ExclusivenessRegistry",
    "COMPLIANCE_TYPE",
    "GAMMA_ATOM",
    "GAMMA",
    "usage",
    "negate",
    "is_service",
    "is_positive",
    "type_of",
    "all_bodies",
    "body_form",
    "parse_body",
    "build_incompatibility",
    "incompatible",
    "is_exclusive",
    "algebra_law_violations",
    "incompatibility_law_violations",
    "IncompatibilityError",
    "TypeMismatch",
    "ReflexiveDeclaration",
    "NegationConflict",
    "ReservedAtomDeclaration",
    "UnknownAtom",
]


class StoredHash:
    """Base of the value classes (see ``value``) that are hashed far more
    often than built (task bodies, events, terms, conditions): the hash of
    the class and the fields is computed once, at construction."""

    __slots__ = ("_hash",)
    nests = False  # fields may hold instances of nesting classes, to any depth

    def __hash__(self) -> int:
        return self._hash

    def _nested_eq(self, other) -> bool:
        """Same class and equal fields, comparing the stored hashes first.
        Pairs of nested parts wait on a stack instead of recursing, so
        that no recursion limit bounds the depth of what is compared."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        pending = [(self, other)]
        while pending:
            a, b = pending.pop()
            if a._hash != b._hash:
                return False
            for x, y in zip(a._fields(a), b._fields(b)):
                if x is y:
                    continue
                if x.__class__ is not y.__class__:
                    return False
                if getattr(x, "nests", False):
                    pending.append((x, y))
                elif x != y:
                    return False
        return True


_put = object.__setattr__  # fills fields of classes that refuse assignment


def value(cls):
    """``cls`` as a frozen value class of its annotated fields, as
    ``@dataclass(frozen=True, slots=True)`` would make it, pickled through
    its constructor; a body's own ``__slots__`` are kept beside the fields.
    Its methods are closures and copies of templates (see ``_renamed``):
    no source is compiled, which each fresh process would pay for. Only
    the class's own annotations are fields, at most five, and fields with
    a default come last."""
    names, extra = tuple(cls.__dict__.get("__annotations__", ())), cls.__dict__.get("__slots__", ())
    layout = {*extra, "__slots__", "__dict__", "__weakref__"}  # the old class's, which the new one makes again
    body = {key: item for key, item in cls.__dict__.items() if key not in layout}
    given = [name in body for name in names]
    if len(names) > 5 or given != sorted(given):
        raise TypeError(f"{cls.__qualname__}: a value class has at most 5 fields, and its defaults come last")
    defaults, stored = tuple(body.pop(name) for name in names if name in body) or None, issubclass(cls, StoredHash)
    qualname, fields = cls.__qualname__, attrgetter("__class__", *names)
    post = (lambda self: _put(self, "_hash", hash(fields(self)))) if stored else body.get("__post_init__")
    a, b, c, d, e = names + (None,) * (5 - len(names))
    init = (  # each number of fields' __init__: ``_put`` gives None, so ``or`` goes on to the next
        lambda self: post and post(self),
        lambda self, _0: _put(self, a, _0) or post and post(self),
        lambda self, _0, _1: _put(self, a, _0) or _put(self, b, _1) or post and post(self),
        lambda self, _0, _1, _2: _put(self, a, _0) or _put(self, b, _1) or _put(self, c, _2) or post and post(self),
        lambda self, _0, _1, _2, _3: (
            _put(self, a, _0) or _put(self, b, _1) or _put(self, c, _2) or _put(self, d, _3) or post and post(self)
        ),
        lambda self, _0, _1, _2, _3, _4: (
            _put(self, a, _0) or _put(self, b, _1) or _put(self, c, _2) or _put(self, d, _3) or _put(self, e, _4)
            or post and post(self)
        ),
    )[len(names)]
    made = dict(
        __slots__=extra + names,
        __match_args__=names,
        __init__=_renamed(init, f"{qualname}.__init__", names, defaults),
        __hash__=StoredHash.__hash__ if stored else _renamed(_HASHES[len(names)], f"{qualname}.__hash__", names),
        __eq__=StoredHash._nested_eq if stored and cls.nests else (
            _renamed(_EQUALS[len(names)], f"{qualname}.__eq__", names)
        ),
        __repr__=lambda self: f"{qualname}({', '.join(f'{name}={getattr(self, name)!r}' for name in names)})",
        __setattr__=_refuse,
        __delattr__=_refuse,
        __reduce__=lambda self: (self.__class__, tuple(getattr(self, name) for name in names)),  # hashed again
        _fields=fields,
    )
    return type(cls)(cls.__name__, cls.__bases__, {**made, **body})


# each number of fields' __hash__ and __eq__, of the fields' tuples, as ``@dataclass`` writes them
_HASHES = (
    lambda self: hash(()),
    lambda self: hash((self._0,)),
    lambda self: hash((self._0, self._1)),
    lambda self: hash((self._0, self._1, self._2)),
    lambda self: hash((self._0, self._1, self._2, self._3)),
    lambda self: hash((self._0, self._1, self._2, self._3, self._4)),
)
_EQUALS = (
    lambda self, other: True if other.__class__ is self.__class__ else NotImplemented,
    lambda self, other: (self._0,) == (other._0,) if other.__class__ is self.__class__ else NotImplemented,
    lambda self, other: (
        (self._0, self._1) == (other._0, other._1) if other.__class__ is self.__class__ else NotImplemented
    ),
    lambda self, other: (
        (self._0, self._1, self._2) == (other._0, other._1, other._2)
        if other.__class__ is self.__class__ else NotImplemented
    ),
    lambda self, other: (
        (self._0, self._1, self._2, self._3) == (other._0, other._1, other._2, other._3)
        if other.__class__ is self.__class__ else NotImplemented
    ),
    lambda self, other: (
        (self._0, self._1, self._2, self._3, self._4) == (other._0, other._1, other._2, other._3, other._4)
        if other.__class__ is self.__class__ else NotImplemented
    ),
)


def _renamed(template, qualname: str, names: tuple[str, ...], defaults: tuple | None = None):
    """A copy of a template function, named ``qualname``, whose placeholders
    ``_0`` to ``_4``, as parameters and as attributes, are ``names``: a field
    is given by keyword, and read as directly as in a class's own code."""
    rename = dict(zip(("_0", "_1", "_2", "_3", "_4"), names)).get
    code = template.__code__.replace(
        co_names=tuple(rename(n, n) for n in template.__code__.co_names),
        co_varnames=tuple(rename(n, n) for n in template.__code__.co_varnames),
    )
    function = FunctionType(code, template.__globals__, qualname.rpartition(".")[2], defaults, template.__closure__)
    function.__qualname__ = qualname
    return function


def _refuse(self, name, *assigned):
    """Assignment and deletion, which a value class refuses."""
    raise FrozenInstanceError(f"cannot {'assign to' if assigned else 'delete'} field {name!r}")


@value
class TypeTag:
    """Type of a task body; only same-typed bodies may be incompatible."""

    name: str

    def __str__(self) -> str:
        return self.name


@value
class TaskAtom:
    """An atomic task. Atoms are positive services by construction."""

    name: str
    type: TypeTag

    def __str__(self) -> str:
        return self.name


@value
class TaskBody(StoredHash):
    """Normal form of a task body: atom plus usage and negation parities."""

    atom: TaskAtom
    usage: bool = False
    negated: bool = False

    def __str__(self) -> str:
        return ("!" if self.negated else "") + ("~" if self.usage else "") + self.atom.name


# The compliance task is predeclared in every model; promising it to an
# agent makes that agent's delegated promises binding on the promiser.
COMPLIANCE_TYPE = TypeTag("compliance")
GAMMA_ATOM = TaskAtom("gamma", COMPLIANCE_TYPE)
GAMMA = TaskBody(GAMMA_ATOM)


def usage(x: TaskBody) -> TaskBody:
    """Toggle the usage modifier (involutive)."""
    return TaskBody(x.atom, not x.usage, x.negated)


def negate(x: TaskBody) -> TaskBody:
    """Toggle the negation modifier (involutive)."""
    return TaskBody(x.atom, x.usage, not x.negated)


def is_service(x: TaskBody) -> bool:
    """True iff x is on the providing side (no usage modifier)."""
    return not x.usage


def is_positive(x: TaskBody) -> bool:
    """True iff x is not negated."""
    return not x.negated


def type_of(x: TaskBody) -> TypeTag:
    """Type of a body; invariant under usage and negation."""
    return x.atom.type


def all_bodies(atoms: Iterable[TaskAtom]) -> tuple[TaskBody, ...]:
    """The four forms of every atom, in a deterministic order."""
    return tuple(
        TaskBody(atom, u, n)
        for atom in atoms
        for n in (False, True)
        for u in (False, True)
    )


class UnknownAtom(ValueError):
    """A task-body expression names an atom that is not in the model."""


def body_form(text: str) -> tuple[str, bool, bool]:
    """Concrete task-body syntax as (atom name, usage, negated): optional
    ``!``/``~`` prefixes, then an atom name. Repeated prefixes self-cancel
    (``!!x`` is ``x``)."""
    s = text.strip()
    usage_flag = negated_flag = False
    i = 0
    while i < len(s) and s[i] in "!~":
        if s[i] == "!":
            negated_flag = not negated_flag
        else:
            usage_flag = not usage_flag
        i += 1
    return s[i:], usage_flag, negated_flag


def parse_body(text: str, atoms: Mapping[str, TaskAtom]) -> TaskBody:
    """Parse concrete task-body syntax (see ``body_form``)."""
    name, usage_flag, negated_flag = body_form(text)
    if name not in atoms:
        raise UnknownAtom(f"unknown task atom {name!r}")
    return TaskBody(atoms[name], usage_flag, negated_flag)


class IncompatibilityError(ValueError):
    """A declared incompatibility violates one of the relation's laws."""


class TypeMismatch(IncompatibilityError):
    """Declared pair relates bodies of different types."""


class ReflexiveDeclaration(IncompatibilityError):
    """Declared pair relates a body with itself."""


class NegationConflict(IncompatibilityError):
    """Closure would contain both (x, y) and (x, !y)."""


class ReservedAtomDeclaration(IncompatibilityError):
    """The compliance atom may not be declared incompatible with anything."""


@value
class IncompatibilityRelation:
    """Symmetric, irreflexive closure of declared pairs plus every (x, !x).

    Pairs are stored unordered (two-element frozensets), which makes
    symmetry structural. ``partners``, derived from the pairs at
    construction, maps each body to the bodies it is incompatible with.
    """

    pairs: frozenset[frozenset[TaskBody]]
    declared: frozenset[frozenset[TaskBody]]
    __slots__ = ("partners",)

    def __post_init__(self):
        partners: dict[TaskBody, list[TaskBody]] = {}
        for x, y in map(tuple, self.pairs):
            partners.setdefault(x, []).append(y)
            partners.setdefault(y, []).append(x)
        _put(self, "partners", {x: tuple(ys) for x, ys in partners.items()})


def build_incompatibility(
    atoms: Iterable[TaskAtom],
    declared: Iterable[tuple[TaskBody, TaskBody]] = (),
) -> IncompatibilityRelation:
    """Close the declared pairs under the incompatibility laws.

    The result always contains (x, !x) for every body x over the atoms.
    Raises TypeMismatch, ReflexiveDeclaration, NegationConflict or
    ReservedAtomDeclaration at the first declared pair that breaks a law.
    """
    atoms = tuple(atoms)
    known = set(atoms)
    written: dict[frozenset[TaskBody], tuple[TaskBody, TaskBody]] = {}  # each pair, as first given
    for x, y in declared:
        if x.atom not in known or y.atom not in known:
            raise UnknownAtom(f"incompatibility over unknown atom in ({x}, {y})")
        if GAMMA_ATOM in (x.atom, y.atom):
            raise ReservedAtomDeclaration(
                f"the compliance atom may not be declared incompatible: ({x}, {y})"
            )
        if x == y:
            raise ReflexiveDeclaration(f"a body cannot be incompatible with itself: {x}")
        if type_of(x) != type_of(y):
            raise TypeMismatch(
                f"incompatible bodies must share a type: "
                f"{x} is {type_of(x)}, {y} is {type_of(y)}"
            )
        written.setdefault(frozenset((x, y)), (x, y))

    # an axiom pair {z, !z} equals {u, !v} only when u = v, which is
    # reflexive, so only the declared pairs can break the negation law
    for x, y in written.values():
        for u, v in ((x, y), (y, x)):
            if frozenset((u, negate(v))) in written:
                raise NegationConflict(f"({u}, {v}) and ({u}, {negate(v)}) cannot both be incompatible")
    axioms = [frozenset((TaskBody(atom, u), TaskBody(atom, u, True))) for atom in atoms for u in (False, True)]
    return IncompatibilityRelation(pairs=frozenset((*axioms, *written)), declared=frozenset(written))


def incompatible(rel: IncompatibilityRelation, x: TaskBody, y: TaskBody) -> bool:
    """True iff x and y cannot both be realized by the same agent."""
    return y in rel.partners.get(x, ())


@value
class ExclusivenessRegistry:
    """Bodies that cannot be promised to two different counterparties at
    the same time. Each of an atom's four forms is registered separately."""

    exclusive: frozenset[TaskBody]


def is_exclusive(reg: ExclusivenessRegistry, x: TaskBody) -> bool:
    return x in reg.exclusive


def algebra_law_violations(atoms: Iterable[TaskAtom]) -> list[str]:
    """Brute-force check of the modifier laws over every body of the atoms.

    Covers both involutions, modifier commutation, the service/positivity
    interaction laws, and type invariance. Returns human-readable
    descriptions of any failures (expected: none).
    """
    out: list[str] = []
    for x in all_bodies(atoms):
        checks = [
            (usage(usage(x)) == x, f"~~{x} != {x}"),
            (negate(negate(x)) == x, f"!!{x} != {x}"),
            (usage(negate(x)) == negate(usage(x)), f"~!{x} != !~{x}"),
            (is_service(negate(x)) == is_service(x), f"s(!{x}) != s({x})"),
            (is_service(usage(x)) == (not is_service(x)), f"s(~{x}) == s({x})"),
            (is_positive(usage(x)) == is_positive(x), f"p(~{x}) != p({x})"),
            (is_positive(negate(x)) == (not is_positive(x)), f"p(!{x}) == p({x})"),
            (type_of(usage(x)) == type_of(x), f"t(~{x}) != t({x})"),
            (type_of(negate(x)) == type_of(x), f"t(!{x}) != t({x})"),
        ]
        out.extend(msg for ok, msg in checks if not ok)
    for atom in atoms:
        base = TaskBody(atom)
        if not (is_service(base) and is_positive(base)):
            out.append(f"atom {atom} is not a positive service")
    return out


def incompatibility_law_violations(
    atoms: Iterable[TaskAtom], rel: IncompatibilityRelation
) -> list[str]:
    """Exhaustive pairwise check of the closure's laws: the (x, !x) axiom,
    symmetry, irreflexivity, type homogeneity and the negation rule."""
    out: list[str] = []
    bodies = all_bodies(atoms)
    for x in bodies:
        if not incompatible(rel, x, negate(x)):
            out.append(f"missing axiom pair ({x}, {negate(x)})")
        if incompatible(rel, x, x):
            out.append(f"reflexive pair ({x}, {x})")
    for x in bodies:
        for y in bodies:
            if incompatible(rel, x, y) != incompatible(rel, y, x):
                out.append(f"asymmetric pair ({x}, {y})")
            if incompatible(rel, x, y):
                if type_of(x) != type_of(y):
                    out.append(f"cross-type pair ({x}, {y})")
                if incompatible(rel, x, negate(y)):
                    out.append(f"negation conflict ({x}, {y}) and ({x}, {negate(y)})")
    return out
