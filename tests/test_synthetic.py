import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from twosquares import copula, synthetic
from twosquares.copula import (
    CopulaStructure,
    build_structure,
    derived_copula,
    enumerate_copula_structures,
    induced_model,
)
from twosquares.errors import BoundError, SemanticsError
from twosquares.formula import parse
from twosquares.opposition import synthetic_square, verify_square
from twosquares.search import Counterexample, Model, Valid
from twosquares.synthetic import (
    DIRECT_EMPTY_OK,
    DIRECT_NONEMPTY,
    Reading,
    SyntheticOptions,
    decide_synthetic_validity,
    enumerate_synthetic_models,
    eval_synthetic,
)

from oracles import derived_image, derived_scan, facts, induced_models, structure_walk

DERIVED = SyntheticOptions(Reading.DERIVED_LITERAL)
CHARITABLE = SyntheticOptions(Reading.DERIVED_CHARITABLE)


def model(universe, **terms):
    bit = {x: 1 << i for i, x in enumerate(universe)}
    extents = sorted((t, sum(bit[x] for x in members)) for t, members in terms.items() if members)
    return Model(tuple(universe), tuple(extents), True)


def holds(m, x, t):
    """Whether the individual `x` of `m` is `t`."""
    return dict(m.extents).get(t, 0) >> m.universe.index(x) & 1 == 1


# Independent oracle: the unexpanded quantifier forms.  The a- and i-forms
# are transcribed directly; o and e are taken as the negations of a and i
# (their unexpanded shape), so comparing against the implementation's
# expanded forms is a genuine dual-route check.
def oracle_sa(m, s, p):
    return any(holds(m, a, s) for a in m.universe) or all(
        holds(m, a, p) and holds(m, a, s) for a in m.universe
    )


def oracle_si(m, s, p):
    return all(holds(m, a, p) and not holds(m, a, s) for a in m.universe)


def oracle_so(m, s, p):
    return not oracle_sa(m, s, p)


def oracle_se(m, s, p):
    return not oracle_si(m, s, p)


def test_single_individual_p_only():
    m = model("u", P="u")
    assert eval_synthetic(m, parse("S si P")) is True
    assert eval_synthetic(m, parse("S sa P")) is False
    assert eval_synthetic(m, parse("S so P")) is True
    assert eval_synthetic(m, parse("S se P")) is False


def test_empty_universe_makes_both_universals_true():
    m = model("")
    assert eval_synthetic(m, parse("S si P"), DIRECT_EMPTY_OK) is True
    assert eval_synthetic(m, parse("S sa P"), DIRECT_EMPTY_OK) is True


def test_empty_universe_rejected_when_disallowed():
    with pytest.raises(SemanticsError):
        eval_synthetic(model(""), parse("S sa P"), DIRECT_NONEMPTY)


def test_bare_existence_disjunct_suffices_for_a_form():
    m = model("u", S="u")
    assert eval_synthetic(m, parse("S sa P")) is True


def test_rejects_analytic_copula_and_model_mismatch():
    m = model("u", S="u")
    with pytest.raises(SemanticsError):
        eval_synthetic(m, parse("S a P"))
    with pytest.raises(SemanticsError):
        eval_synthetic(m, parse("S sa P"), DERIVED)
    analytic = Model(("u",), (("P", 0), ("S", 1)), False)
    for other in (structure("u", set(), S="u", P="u"), analytic):
        with pytest.raises(SemanticsError, match="^synthetic semantics expects a synthetic model$"):
            eval_synthetic(other, parse("S sa P"))


def test_unknown_terms_read_as_empty():
    # the analytic family would refuse Q; here `S sa Q` holds by its first disjunct
    m = model("u", S="u")
    assert eval_synthetic(m, parse("S sa Q")) is True
    assert eval_synthetic(m, parse("Q sa S")) is False


def test_expanded_forms_match_unexpanded_oracle_everywhere():
    # The direct models up to size 2, and the models that the derived
    # images induce: bit m of a derived space's atom vector, which is read
    # off the type-set keys, is the atom's truth on the m-th of them.
    oracles = {"sa": oracle_sa, "si": oracle_si, "so": oracle_so, "se": oracle_se}
    direct = list(enumerate_synthetic_models(("P", "S"), 2, DIRECT_EMPTY_OK))
    inputs = [(("P", "S"), direct, None)]
    for opts in (DERIVED, CHARITABLE):
        for terms in (("P", "S"), ("M", "P", "S")):
            image = derived_image(terms, 3, opts)
            induced = [induced_model(c, opts is CHARITABLE) for c in image]
            inputs.append((terms, induced, opts.space(terms, 3)))
    for terms, models, space in inputs:
        for s in terms:
            for p in terms:
                for copula, oracle in oracles.items():
                    atom = parse(f"{s} {copula} {p}")
                    for m, model in enumerate(models):
                        truth = oracle(model, s, p)
                        assert eval_synthetic(model, atom, DIRECT_EMPTY_OK) == truth
                        assert space is None or bool(space.vector(atom) >> m & 1) == truth


def test_definitional_negations_hold_bit_for_bit_direct():
    sa, si, so, se = (parse(f"S {c} P") for c in ("sa", "si", "so", "se"))
    for m in enumerate_synthetic_models(("P", "S"), 3, DIRECT_EMPTY_OK):
        assert eval_synthetic(m, so, DIRECT_EMPTY_OK) == (
            not eval_synthetic(m, sa, DIRECT_EMPTY_OK)
        )
        assert eval_synthetic(m, se, DIRECT_EMPTY_OK) == (
            not eval_synthetic(m, si, DIRECT_EMPTY_OK)
        )


def test_definitional_negations_hold_in_derived_readings():
    sa, si, so, se = (parse(f"S {c} P") for c in ("sa", "si", "so", "se"))
    for opts in (DERIVED, CHARITABLE):
        for c in enumerate_copula_structures(("P", "S"), 2, opts):
            assert eval_synthetic(c, so, opts) == (not eval_synthetic(c, sa, opts))
            assert eval_synthetic(c, se, opts) == (not eval_synthetic(c, si, opts))


def test_nonempty_synthetic_square_profile():
    sa, si, so, se = (parse(f"S {c} P") for c in ("sa", "si", "so", "se"))
    for m in enumerate_synthetic_models(("P", "S"), 3, DIRECT_NONEMPTY):
        va, vi = eval_synthetic(m, sa), eval_synthetic(m, si)
        ve, vo = eval_synthetic(m, se), eval_synthetic(m, so)
        assert not (va and vi)          # contrary top edge
        assert ve or vo                 # subcontrary bottom edge
        assert va != vo and ve != vi    # diagonals
        assert (not va) or ve           # a => e
        assert (not vi) or vo           # i => o


def test_empty_universe_breaks_contrariety():
    m = model("")
    sa, si = parse("S sa P"), parse("S si P")
    assert eval_synthetic(m, sa, DIRECT_EMPTY_OK) and eval_synthetic(m, si, DIRECT_EMPTY_OK)


# --- the composite copula ----------------------------------------------------

def structure(universe, prim, **denote):
    return CopulaStructure(tuple(universe), frozenset(prim), dict(denote))


def test_derived_copula_needs_reflexive_witness():
    c = structure("cab", {("c", "a"), ("c", "b")})
    # uniqueness clause instantiated at C = D = c requires c prim c
    assert derived_copula(c, "a", "b", charitable=False) is False
    assert derived_copula(c, "a", "b", charitable=True) is False


def test_derived_copula_charitable_vs_literal():
    c = structure("cab", {("c", "a"), ("c", "b"), ("c", "c")})
    assert derived_copula(c, "a", "b", charitable=True) is True
    # the literal third conjunct demands every individual witness both sides
    assert derived_copula(c, "a", "b", charitable=False) is False


def test_derived_copula_empty_relation():
    c = structure("cab", set())
    assert derived_copula(c, "a", "b", charitable=False) is False
    assert derived_copula(c, "a", "b", charitable=True) is False


def test_derived_copula_unknown_individual():
    c = structure("ab", set())
    with pytest.raises(SemanticsError):
        derived_copula(c, "a", "z", charitable=True)


def test_build_structure_reads_the_mask_as_the_columns_do():
    # bit size*y + x of the mask is set iff y is primitively related to x
    assert build_structure(("P", "S"), 2, 0b0110, (1, 0)).to_dict() == {
        "universe": ["u", "v"], "isPrim": [["u", "v"], ["v", "u"]], "denote": {"P": "v", "S": "u"},
    }


@pytest.mark.parametrize("terms", [("P", "S"), ("M", "P", "S")])
def test_induced_model_matches_derived_copula(terms):
    for charitable in (False, True):
        # "x is b" depends on the relation, not the denotations, so each
        # relation's composite copula is computed once for all of them.
        is_b = {}
        for c, m in zip(structure_walk(terms), induced_models(terms, charitable)):
            relation = c.universe, c.is_prim
            if relation not in is_b:
                is_b[relation] = {
                    (x, b) for x in c.universe for b in c.universe
                    if derived_copula(c, x, b, charitable)
                }
            expected = {
                (x, t) for t in terms for x in c.universe if (x, c.denote[t]) in is_b[relation]
            }
            assert facts(m) == expected, c


# --- the derived image -------------------------------------------------------

@pytest.mark.parametrize("empty", [False, True], ids=["nonempty", "empty-allowed"])
@pytest.mark.parametrize("reading", [Reading.DERIVED_LITERAL, Reading.DERIVED_CHARITABLE], ids=str)
@pytest.mark.parametrize(
    "terms", [(), ("S",), ("P", "S"), ("M", "P", "S"), ("M", "P", "Q", "S")], ids=len
)
def test_derived_image_matches_the_structure_scan(terms, reading, empty):
    opts = SyntheticOptions(reading, empty)
    with pytest.raises(BoundError):  # no structure has an empty universe
        derived_image(terms, 0, opts)
    # the oracle walks four terms up to bound 2 only
    for bound in range(1, 3 if len(terms) > 3 else 4):
        image = [c.to_dict() for c in derived_image(terms, bound, opts)]
        assert image == [c.to_dict() for c in derived_scan(terms, bound, opts)], bound


def test_derived_decisions_do_not_enumerate_structures(monkeypatch):
    def refuse(*args):
        raise AssertionError("a derived decision enumerated every structure")

    monkeypatch.setattr(copula, "enumerate_copula_structures", refuse)
    clear_derived_caches()
    try:
        for opts in (DERIVED, CHARITABLE):
            assert derived_image(("M", "P", "S"), 3, opts)
            decide_synthetic_validity(parse("(M sa P & S se M) -> S se P"), 3, opts)
            assert verify_square(synthetic_square(), opts, 3).pairs
    finally:
        clear_derived_caches()


def clear_derived_caches():
    copula.derived_shape.cache_clear()
    copula._relations.cache_clear()


@pytest.mark.parametrize("opts", [DERIVED, CHARITABLE], ids=lambda o: o.reading.value)
def test_one_relation_pass_per_universe_size(opts):
    clear_derived_caches()
    try:
        verify_square(synthetic_square(), opts, 3)
        decide_synthetic_validity(parse("(M sa P & S se M) -> S se P"), 3, opts)
        decide_synthetic_validity(parse("S sa P"), 2, opts)
        # two term counts at bound 3 and one at bound 2 share the passes of sizes 1-3
        assert copula._relations.cache_info().misses == 3
        assert copula.derived_shape.cache_info().misses == 3
    finally:
        clear_derived_caches()


@pytest.mark.parametrize("reading", [Reading.DERIVED_LITERAL, Reading.DERIVED_CHARITABLE], ids=str)
def test_allowing_the_empty_universe_shares_the_derived_scan(reading):
    f = parse("S sa P -> S si P")
    clear_derived_caches()
    try:
        verdicts = [
            decide_synthetic_validity(f, 3, SyntheticOptions(reading, empty)) for empty in (False, True)
        ]
        assert verdicts[0] == verdicts[1]
        # the second decision reuses the first one's shape
        assert copula.derived_shape.cache_info()[:2] == (1, 1)
    finally:
        clear_derived_caches()
    # the flag still shows in the label
    label = SyntheticOptions(reading, True).label()
    assert label == f"synthetic({reading.value}, empty-allowed)"


# --- enumeration --------------------------------------------------------------

def test_model_counts():
    assert len(list(enumerate_synthetic_models(("P", "S"), 1, DIRECT_EMPTY_OK))) == 5
    assert len(list(enumerate_synthetic_models(("P", "S"), 2, DIRECT_NONEMPTY))) == 20
    assert len(list(enumerate_synthetic_models(("M", "P", "S"), 2, DIRECT_NONEMPTY))) == 2**3 + 2**6
    assert len(list(enumerate_synthetic_models(("M", "P", "S"), 2, DIRECT_EMPTY_OK))) == 2**3 + 2**6 + 1


def test_enumeration_bound_guards():
    with pytest.raises(BoundError):
        list(enumerate_synthetic_models(("S",), 5, DIRECT_NONEMPTY))
    with pytest.raises(BoundError):
        list(enumerate_synthetic_models(("S",), 4, DERIVED))
    with pytest.raises(BoundError):
        list(enumerate_copula_structures(("S",), 4, DERIVED))


def test_enumeration_monotone_and_deterministic():
    small = list(enumerate_synthetic_models(("P", "S"), 1, DIRECT_NONEMPTY))
    large = list(enumerate_synthetic_models(("P", "S"), 2, DIRECT_NONEMPTY))
    assert large[: len(small)] == small


# --- validity -----------------------------------------------------------------

def test_axiom5_instance_valid():
    assert decide_synthetic_validity(parse("S sa P -> S se P"), 3) == Valid(3)


def test_axiom6_instance_has_size_one_countermodel():
    verdict = decide_synthetic_validity(parse("S so P -> P so S"), 3)
    assert isinstance(verdict, Counterexample)
    expected = model("u", P="u")
    assert verdict.model == expected
    assert verdict.describe() == "counterexample (U={u}; P={u})"
    # oracle confirmation by quantifier expansion on the witness
    assert oracle_so(expected, "S", "P") and not oracle_so(expected, "P", "S")


def test_axiom8_instance_has_size_two_countermodel():
    f = parse("(M sa P & S se M) -> S se P")
    verdict = decide_synthetic_validity(f, 3)
    assert isinstance(verdict, Counterexample)
    expected = model("uv", M="u", P="uv")
    assert verdict.model == expected
    # oracle confirmation: antecedent true, consequent false
    assert oracle_sa(expected, "M", "P")
    assert oracle_se(expected, "S", "M")
    assert not oracle_se(expected, "S", "P")


def test_decision_rejects_an_analytic_copula():
    # The left disjunct is valid, but the search reads every atom.
    for opts in (DIRECT_NONEMPTY, DERIVED):
        with pytest.raises(SemanticsError):
            decide_synthetic_validity(parse("(S sa P | ~(S sa P)) | S a P"), 2, opts)


def test_counterexample_reevaluates_false():
    f = parse("S so P -> P so S")
    verdict = decide_synthetic_validity(f, 3)
    assert eval_synthetic(verdict.model, f) is False
    assert dict(verdict.atom_trace) == {"S so P": True, "P so S": False}


def test_model_json_round_trip():
    m = model("uv", P="uv", M="u")
    data = m.to_dict()
    assert data == {"universe": ["u", "v"], "is": {"u": ["M", "P"], "v": ["P"]}}
    assert Model.from_dict(data, True) == m


def test_structure_json_round_trip():
    c = structure("ab", {("a", "b")}, S="a", P="b")
    data = c.to_dict()
    assert data == {
        "universe": ["a", "b"],
        "isPrim": [["a", "b"]],
        "denote": {"P": "b", "S": "a"},
    }
    assert CopulaStructure.from_dict(data) == c


# --- the derived readings load at their first use -------------------------------

_STEPS = """
import json, sys
from twosquares.formula import parse
from twosquares.synthetic import Reading, SyntheticOptions, decide_synthetic_validity, eval_synthetic

def decide(reading):
    out = []
    for text in ("(M sa P & S se M) -> S se P", "S sa P -> S si P", "S so P -> P so S"):
        v = decide_synthetic_validity(parse(text), 3, SyntheticOptions(Reading(reading)))
        out.append([v.describe(), list(getattr(v, "atom_trace", ()))])
    return out

def evaluate():
    from twosquares.copula import CopulaStructure

    c = CopulaStructure(("c", "a", "b"), frozenset({("c", "a"), ("c", "b"), ("c", "c")}),
                        {"S": "a", "P": "b"})
    return [eval_synthetic(c, parse(text), SyntheticOptions(Reading(reading)))
            for text in ("S sa P", "S si P", "S so P | S se P")
            for reading in ("derived", "derived-charitable")]

steps = {"direct": lambda: decide("direct"), "derived": lambda: decide("derived"),
         "charitable": lambda: decide("derived-charitable"), "eval": evaluate}
print(json.dumps([[steps[s](), "twosquares.copula" in sys.modules] for s in sys.argv[1:]]))
"""


def _run_steps(*steps):
    """Each step's results, in one fresh process, and whether the derived
    readings were loaded after it."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run([sys.executable, "-S", "-c", _STEPS, *steps], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stderr) == (0, "")
    return json.loads(done.stdout)


@pytest.mark.parametrize(
    "steps",
    [("direct", "derived"), ("derived", "direct"), ("charitable", "direct", "derived"), ("direct", "eval")],
    ids="-".join,
)
def test_mixed_readings_in_one_process_decide_as_fresh_ones(steps):
    mixed = _run_steps(*steps)
    assert [results for results, _ in mixed] == [_run_steps(step)[0][0] for step in steps]
    # a direct step before any derived one leaves the derived readings unloaded
    assert [loaded for _, loaded in mixed] == [
        any(s != "direct" for s in steps[: i + 1]) for i in range(len(steps))
    ]


def test_moved_names_resolve_where_they_were_read():
    """The package holds only `__version__`, and `synthetic` resolves
    only the two names of `copula` that the benchmark's tracer reads there."""
    script = (
        "import sys, twosquares\n"
        "assert [m for m in sys.modules if m.split('.')[0] == 'twosquares'] == ['twosquares']\n"
        "assert [name for name in vars(twosquares) if not name.startswith('_')] == []\n"
        "from twosquares import synthetic\n"
        "assert 'twosquares.copula' not in sys.modules\n"
        "from twosquares import copula\n"
        "assert synthetic.derived_copula is copula.derived_copula\n"
        "assert synthetic.enumerate_copula_structures is copula.enumerate_copula_structures\n"
        "for module, name in ((twosquares, 'CopulaStructure'), (synthetic, 'CopulaStructure'),\n"
        "                     (synthetic, 'induced_model'), (twosquares, 'no_such_name'),\n"
        "                     (synthetic, 'no_such_name')):\n"
        "    try:\n"
        "        getattr(module, name)\n"
        "    except AttributeError as error:\n"
        "        assert str(error) == f\"module {module.__name__!r} has no attribute {name!r}\"\n"
        "    else:\n"
        "        raise AssertionError((module, name))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
