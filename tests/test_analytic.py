import pytest

from twosquares.analytic import (
    IMPORT_OFF,
    IMPORT_ON,
    decide_analytic_validity,
    enumerate_analytic_models,
    eval_analytic,
)
from twosquares.errors import BoundError, SemanticsError
from twosquares.formula import parse
from twosquares.search import Counterexample, Model, Valid


def model(domain, **ext):
    bit = {x: 1 << i for i, x in enumerate(domain)}
    return Model(tuple(domain), tuple(sorted((t, sum(bit[x] for x in m)) for t, m in ext.items())), False)


def members(m, term):
    """The names of the individuals in the extent of `term`."""
    return frozenset(x for i, x in enumerate(m.universe) if m.extent(term) >> i & 1)


# Independent oracle: each form by direct set comprehension over the
# extents, apart from the region table the package evaluates with.  With
# existential import, `a` also needs a nonempty subject and `o` holds of
# an empty one; `e` and `i` are import-free.
def oracle_a(s, p, existential_import):
    if existential_import:
        return len(s) > 0 and s <= p
    return s <= p


def oracle_e(s, p, existential_import):
    return {x for x in s if x in p} == set()


def oracle_i(s, p, existential_import):
    return {x for x in s if x in p} != set()


def oracle_o(s, p, existential_import):
    return {x for x in s if x not in p} != set() or (existential_import and not s)


def test_eval_matches_the_set_oracle_on_every_small_model():
    oracles = {"a": oracle_a, "e": oracle_e, "i": oracle_i, "o": oracle_o}
    for existential_import in (IMPORT_ON, IMPORT_OFF):
        for m in enumerate_analytic_models(("P", "S"), 3):
            for s in ("P", "S"):
                for p in ("P", "S"):
                    for copula, oracle in oracles.items():
                        expected = oracle(members(m, s), members(m, p), existential_import)
                        assert eval_analytic(m, parse(f"{s} {copula} {p}"), existential_import) == expected


def test_atom_truth_subset():
    m = model("123", S="1", P="12")
    assert eval_analytic(m, parse("S a P"), IMPORT_ON) is True


def test_empty_subject_flips_with_import():
    m = model("123", S="", P="12")
    s, p = frozenset(), frozenset("12")
    assert oracle_a(s, p, True) is False and oracle_a(s, p, False) is True
    assert eval_analytic(m, parse("S a P"), IMPORT_ON) is False
    assert eval_analytic(m, parse("S a P"), IMPORT_OFF) is True


def test_disjoint_extents():
    m = model("123", S="1", P="2")
    assert eval_analytic(m, parse("S e P")) is True
    assert eval_analytic(m, parse("S i P")) is False


def test_rejects_synthetic_copula_and_unknown_term():
    m = model("1", S="1", P="1")
    with pytest.raises(SemanticsError):
        eval_analytic(m, parse("S sa P"))
    with pytest.raises(SemanticsError, match="^term 'Q' has no extent in this model$"):
        eval_analytic(m, parse("S a Q"))


def test_rejects_a_synthetic_model():
    # a synthetic model would read the unknown Q as empty and make the atom false
    synthetic = Model(("u",), (("S", 1),), True)
    for text in ("S a P", "S a Q"):
        with pytest.raises(SemanticsError, match="^analytic semantics expects an analytic model$"):
            eval_analytic(synthetic, parse(text))


def test_enumeration_counts():
    # sum over domain sizes d of 2^(d * terms)
    assert len(list(enumerate_analytic_models(("S",), 1))) == 3
    assert len(list(enumerate_analytic_models(("P", "S"), 2))) == 21
    assert list(enumerate_analytic_models((), 0)) == [Model((), (), False)]


def test_enumeration_bound_guard():
    with pytest.raises(BoundError):
        list(enumerate_analytic_models(("S",), 7))


def test_enumeration_is_monotone_in_bound():
    small = list(enumerate_analytic_models(("P", "S"), 1))
    large = list(enumerate_analytic_models(("P", "S"), 2))
    assert large[: len(small)] == small


def test_subalternation_valid_with_import():
    verdict = decide_analytic_validity(parse("S a P -> S i P"), 3, IMPORT_ON)
    assert verdict == Valid(3)


def test_subalternation_fails_without_import():
    verdict = decide_analytic_validity(parse("S a P -> S i P"), 3, IMPORT_OFF)
    assert isinstance(verdict, Counterexample)
    assert verdict.model.extent("S") == 0
    # the countermodel really falsifies the formula
    assert eval_analytic(verdict.model, parse("S a P -> S i P"), IMPORT_OFF) is False


def test_propositional_tautology_valid_any_bound():
    # The last case has four terms at bound 5: 6 885 type-sets.
    for text, bound in (
        ("S a P | ~(S a P)", 0),
        ("S a P | ~(S a P)", 1),
        ("S a P | ~(S a P)", 2),
        ("(S a P -> M i Q) | (M i Q -> S a P)", 5),
    ):
        assert decide_analytic_validity(parse(text), bound) == Valid(bound)


def test_decision_rejects_a_synthetic_copula():
    # The left disjunct is valid, but the search reads every atom.
    with pytest.raises(SemanticsError):
        decide_analytic_validity(parse("(S a P | ~(S a P)) | S sa P"), 2)


def test_duality_on_every_model():
    a, e, i, o = (parse(f"S {c} P") for c in "aeio")
    for existential_import in (IMPORT_ON, IMPORT_OFF):
        for m in enumerate_analytic_models(("P", "S"), 3):
            assert eval_analytic(m, o, existential_import) == (not eval_analytic(m, a, existential_import))
            assert eval_analytic(m, i, existential_import) == (not eval_analytic(m, e, existential_import))


def test_conventional_square_profile_up_to_four():
    a, e, i, o = (parse(f"S {c} P") for c in "aeio")
    both_false_ae = both_true_io = False
    for m in enumerate_analytic_models(("P", "S"), 4):
        va, ve = eval_analytic(m, a), eval_analytic(m, e)
        vi, vo = eval_analytic(m, i), eval_analytic(m, o)
        assert not (va and ve)           # a,e never both true
        assert vi or vo                  # i,o never both false
        assert va != vo and ve != vi     # contradictories
        assert (not va) or vi            # a => i
        assert (not ve) or vo            # e => o
        both_false_ae = both_false_ae or (not va and not ve)
        both_true_io = both_true_io or (vi and vo)
    assert both_false_ae and both_true_io


def test_model_json_round_trip():
    m = model("12", S="1", P="12")
    data = m.to_dict()
    assert data == {"domain": ["1", "2"], "ext": {"P": ["1", "2"], "S": ["1"]}}
    assert Model.from_dict(data, False) == m


def test_model_from_dict_rejects_stray_members():
    with pytest.raises(SemanticsError):
        Model.from_dict({"domain": ["1"], "ext": {"S": ["9"]}}, False)
