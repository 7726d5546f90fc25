"""Laws of the task-body algebra and the incompatibility closure."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from promisekit.promise_state import PromiseModel
from promisekit.task_algebra import (
    GAMMA,
    GAMMA_ATOM,
    NegationConflict,
    ReflexiveDeclaration,
    ReservedAtomDeclaration,
    TaskBody,
    TypeMismatch,
    UnknownAtom,
    algebra_law_violations,
    all_bodies,
    build_incompatibility,
    incompatible,
    incompatibility_law_violations,
    is_exclusive,
    is_positive,
    is_service,
    negate,
    parse_body,
    type_of,
    usage,
)

MODEL = PromiseModel.create(
    agents=("a", "b"),
    types=("travel", "food"),
    atoms={"train": "travel", "car": "travel", "pizza": "food"},
    incompatible_pairs=[("train", "car")],
)
ATOMS = {atom.name: atom for atom in MODEL.atoms}
BODIES = all_bodies(MODEL.atoms)
bodies = st.sampled_from(BODIES)


class TestModifierLaws:
    @given(bodies)
    def test_usage_is_involutive(self, x):
        assert usage(usage(x)) == x

    @given(bodies)
    def test_negation_is_involutive(self, x):
        assert negate(negate(x)) == x

    @given(bodies)
    def test_modifiers_commute(self, x):
        assert usage(negate(x)) == negate(usage(x))

    @given(bodies)
    def test_negation_preserves_service(self, x):
        assert is_service(negate(x)) == is_service(x)

    @given(bodies)
    def test_usage_flips_service(self, x):
        assert is_service(usage(x)) != is_service(x)

    @given(bodies)
    def test_usage_preserves_positivity(self, x):
        assert is_positive(usage(x)) == is_positive(x)

    @given(bodies)
    def test_negation_flips_positivity(self, x):
        assert is_positive(negate(x)) != is_positive(x)

    @given(bodies)
    def test_type_is_invariant(self, x):
        assert type_of(usage(x)) == type_of(x) == type_of(negate(x))

    def test_compliance_task_is_positive_service(self):
        assert is_service(GAMMA) and is_positive(GAMMA)
        # negation keeps the service side
        assert is_service(negate(GAMMA))

    def test_atoms_are_positive_services(self):
        train = MODEL.body("train")
        assert is_service(train) and is_positive(train)
        assert not is_service(MODEL.body("~train"))
        assert not is_service(MODEL.body("!~train"))
        assert not is_positive(MODEL.body("!train"))
        assert is_positive(MODEL.body("~train"))

    def test_no_law_violations_brute_force(self):
        assert algebra_law_violations(MODEL.atoms) == []


class TestBodySyntax:
    def test_prefixes(self):
        atoms = ATOMS
        assert parse_body("train", atoms) == TaskBody(atoms["train"])
        assert parse_body("~train", atoms) == TaskBody(atoms["train"], usage=True)
        assert parse_body("!train", atoms) == TaskBody(atoms["train"], negated=True)
        assert parse_body("!~train", atoms) == TaskBody(atoms["train"], True, True)

    def test_prefixes_self_cancel(self):
        atoms = ATOMS
        assert parse_body("!!train", atoms) == parse_body("train", atoms)
        assert parse_body("~~train", atoms) == parse_body("train", atoms)
        assert parse_body("!~!~train", atoms) == parse_body("train", atoms)
        # order of distinct prefixes is irrelevant in the normal form
        assert parse_body("~!train", atoms) == parse_body("!~train", atoms)

    def test_rendering_is_canonical(self):
        assert str(MODEL.body("!~train")) == "!~train"
        assert str(MODEL.body("~!train")) == "!~train"

    def test_unknown_atom(self):
        with pytest.raises(UnknownAtom):
            parse_body("bus", ATOMS)


class TestIncompatibility:
    def test_axiom_only_closure_size(self):
        # one declared atom plus the built-in compliance atom: two axiom
        # pairs each, as unordered pairs
        model = PromiseModel.create(agents=("a",), types=("t",), atoms={"x": "t"})
        assert len(model.incompatibility.pairs) == 4
        assert model.incompatibility.declared == frozenset()

    @given(bodies)
    def test_axiom_pair_present(self, x):
        assert incompatible(MODEL.incompatibility, x, negate(x))

    @given(bodies)
    def test_irreflexive(self, x):
        assert not incompatible(MODEL.incompatibility, x, x)

    @given(bodies, bodies)
    def test_symmetric(self, x, y):
        rel = MODEL.incompatibility
        assert incompatible(rel, x, y) == incompatible(rel, y, x)

    def test_declared_pair_is_symmetric(self):
        rel = MODEL.incompatibility
        assert incompatible(rel, MODEL.body("car"), MODEL.body("train"))
        assert incompatible(rel, MODEL.body("train"), MODEL.body("car"))

    def test_negation_rule_on_declared_pair(self):
        # train # car, hence car is compatible with !train
        rel = MODEL.incompatibility
        assert not incompatible(rel, MODEL.body("car"), MODEL.body("!train"))
        assert not incompatible(rel, MODEL.body("!car"), MODEL.body("train"))

    def test_closure_satisfies_all_laws(self):
        assert incompatibility_law_violations(MODEL.atoms, MODEL.incompatibility) == []

    def test_closure_is_order_insensitive(self):
        atoms = ATOMS
        pairs = [
            (parse_body("train", atoms), parse_body("car", atoms)),
            (parse_body("~train", atoms), parse_body("~car", atoms)),
        ]
        forward = build_incompatibility(MODEL.atoms, pairs)
        backward = build_incompatibility(MODEL.atoms, [(y, x) for x, y in reversed(pairs)])
        assert forward.pairs == backward.pairs

    def test_redundant_axiom_declaration_is_absorbed(self):
        atoms = ATOMS
        x = parse_body("train", atoms)
        rel = build_incompatibility(MODEL.atoms, [(x, negate(x))])
        assert incompatibility_law_violations(MODEL.atoms, rel) == []

    def test_type_mismatch(self):
        atoms = ATOMS
        with pytest.raises(TypeMismatch):
            build_incompatibility(
                MODEL.atoms, [(parse_body("train", atoms), parse_body("pizza", atoms))]
            )

    def test_reflexive_declaration(self):
        atoms = ATOMS
        x = parse_body("train", atoms)
        with pytest.raises(ReflexiveDeclaration):
            build_incompatibility(MODEL.atoms, [(x, x)])

    def test_negation_conflict(self):
        atoms = ATOMS
        x, y = parse_body("train", atoms), parse_body("car", atoms)
        with pytest.raises(NegationConflict, match=r"^\(train, car\) and \(train, !car\)"):
            build_incompatibility(MODEL.atoms, [(x, y), (x, negate(y))])

    def test_negation_conflict_names_the_first_declared_pair(self):
        atoms = ATOMS
        x, y = parse_body("train", atoms), parse_body("car", atoms)
        with pytest.raises(NegationConflict, match=r"^\(car, !train\) and \(car, train\)"):
            build_incompatibility(MODEL.atoms, [(y, negate(x)), (x, y)])

    def test_compliance_atom_cannot_be_declared(self):
        with pytest.raises(ReservedAtomDeclaration):
            build_incompatibility(MODEL.atoms, [(GAMMA, usage(GAMMA))])

    def test_usage_forms_may_be_declared(self):
        atoms = ATOMS
        rel = build_incompatibility(
            MODEL.atoms, [(parse_body("~train", atoms), parse_body("~car", atoms))]
        )
        assert incompatible(rel, parse_body("~car", atoms), parse_body("~train", atoms))
        assert incompatibility_law_violations(MODEL.atoms, rel) == []


class TestExclusiveness:
    def test_default_is_false(self):
        assert not is_exclusive(MODEL.exclusiveness, MODEL.body("train"))
        assert not is_exclusive(MODEL.exclusiveness, GAMMA)

    def test_forms_are_independent(self):
        model = PromiseModel.create(
            agents=("a",), types=("t",), atoms={"x": "t"}, exclusive=("~x",)
        )
        assert is_exclusive(model.exclusiveness, model.body("~x"))
        assert not is_exclusive(model.exclusiveness, model.body("x"))
        assert not is_exclusive(model.exclusiveness, model.body("!~x"))
