import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twosquares import formula
from twosquares.errors import InstantiationError, ParseError
from twosquares.formula import (
    RESERVED_TOKENS,
    And,
    Atom,
    Copula,
    Implies,
    Not,
    Or,
    Schema,
    atoms,
    instantiate,
    is_term_name,
    parse,
    render,
    schema_of,
    term_names,
)
from twosquares.opposition import catalog_entries

from oracles import reference_parse


def test_parse_single_atom():
    assert parse("S a P") == Atom("S", Copula.A, "P")


def test_parse_negated_conjunction():
    got = parse("~(S sa P & S si P)")
    assert got == Not(And(Atom("S", Copula.SA, "P"), Atom("S", Copula.SI, "P")))


def test_parse_axiom5_shape():
    got = parse("S sa P -> S se P")
    assert got == Implies(Atom("S", Copula.SA, "P"), Atom("S", Copula.SE, "P"))


def test_parse_precedence_and_associativity():
    # ~ > & > | > ->, with -> right-associative and & , | left-associative
    f = parse("~A a B & C e D | E i F -> G o H -> I a J")
    a, c, e, g, i = (
        Atom("A", Copula.A, "B"),
        Atom("C", Copula.E, "D"),
        Atom("E", Copula.I, "F"),
        Atom("G", Copula.O, "H"),
        Atom("I", Copula.A, "J"),
    )
    assert f == Implies(Or(And(Not(a), c), e), Implies(g, i))


def test_parse_error_carries_position_and_expectations():
    with pytest.raises(ParseError) as exc:
        parse("S a ")
    assert exc.value.position == 4
    assert "term" in exc.value.expected


def test_parse_error_on_bad_copula():
    with pytest.raises(ParseError) as exc:
        parse("S q P")
    assert "sa" in exc.value.expected


def test_parse_rejects_trailing_input():
    with pytest.raises(ParseError):
        parse("S a P )")


def test_parse_rejects_reserved_term():
    # copula keywords cannot serve as term names
    with pytest.raises(ParseError):
        parse("sa a P")


def test_render_atom_and_negation():
    assert render(Atom("S", Copula.A, "P")) == "S a P"
    assert render(Not(Atom("S", Copula.SI, "P"))) == "~S si P"


def test_render_minimal_parentheses():
    a = Atom("A", Copula.A, "B")
    b = Atom("C", Copula.E, "D")
    c = Atom("E", Copula.I, "F")
    # | binds tighter than ->, so the antecedent needs no parentheses
    assert render(Implies(Or(a, b), c)) == "A a B | C e D -> E i F"
    assert render(Not(And(a, b))) == "~(A a B & C e D)"
    assert render(Implies(Implies(a, b), c)) == "(A a B -> C e D) -> E i F"
    assert render(Or(a, Or(b, c))) == "A a B | (C e D | E i F)"


def test_analytic_and_synthetic_copulas_never_conflate():
    assert parse("S a P") != parse("S sa P")
    assert Copula.A.analytic and not Copula.A.synthetic
    assert Copula.SA.synthetic and not Copula.SA.analytic


def test_atoms_and_term_names():
    f = parse("S sa P -> ~(S sa P & M se P)")
    assert atoms(f) == (Atom("S", Copula.SA, "P"), Atom("M", Copula.SE, "P"))
    assert term_names(f) == ("M", "P", "S")


def test_instantiate_transitivity_schema():
    schema = Schema(parse("(M sa P & S sa M) -> S sa P"), ("M", "P", "S"))
    got = instantiate(schema, {"M": "M", "P": "P", "S": "S"})
    assert got == parse("(M sa P & S sa M) -> S sa P")


def test_instantiate_renames_conversion_schema():
    schema = Schema(parse("S so P -> P so S"), ("S", "P"))
    assert instantiate(schema, {"S": "X", "P": "Y"}) == parse("X so Y -> Y so X")


def test_instantiate_identity_is_noop():
    schema = schema_of("S si P")
    assert instantiate(schema, {"S": "S", "P": "P"}) == schema.formula


def test_instantiate_missing_binding():
    schema = schema_of("S si P")
    with pytest.raises(InstantiationError):
        instantiate(schema, {"S": "X"})


def test_instantiate_reserved_target():
    schema = schema_of("S si P")
    with pytest.raises(InstantiationError):
        instantiate(schema, {"S": "sa", "P": "Y"})


def test_schema_requires_metavars_to_occur():
    with pytest.raises(ValueError):
        Schema(parse("S a P"), ("S", "P", "Q"))


def test_schema_rejects_a_duplicate_metavariable():
    with pytest.raises(ValueError, match="^duplicate metavariable$"):
        Schema(parse("S a P"), ("S", "S"))


def test_parse_error_offsets_count_characters():
    # two no-break spaces are two characters but four bytes in UTF-8
    text = "\xa0\xa0S x P"
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.position == 4 == text.index("x")
    assert text.encode().index(b"x") == 6


def _outcome(parser, text):
    """The tree `parser` reads from `text`, or its error's every detail."""
    try:
        return parser(text)
    except ParseError as exc:
        return type(exc), str(exc), exc.position, exc.expected


def _same_as_oracle(text):
    got = _outcome(parse, text)
    assert got == _outcome(reference_parse, text)
    return got


# Lexer boundaries: no whitespace between words, a misspelled or missing
# copula, a reserved term, a parenthesis inside an atom, and an error raised
# at a well-formed atom; and a character no token starts with, reported
# before a parse or nesting error ahead of it.
_UNEXPECTED_CHARACTER = {") S a P $": 8, "S a P & $": 8, "S a P Q a P $": 12, "~" * 201 + "S a P $": 207}


@pytest.mark.parametrize(
    "text",
    ["Sa P", "S aP", "S ab P", "a a P", "S a a", "S a(P)", "S a P&S a P", "S\ta\nP", "S sa", "(S a P Q a P)",
     *_UNEXPECTED_CHARACTER],
)
def test_lexer_boundaries_match_oracle(text):
    _same_as_oracle(text)


# Non-ASCII identifier characters, a leading `_` or digit, and a long s and
# a Kelvin sign, which a case-folding match would read as `s` and `K`
_NEAR_TERMS = ["_S", "1S", "S_1", "\u017f", "\u212a", "\xe9", "S\u0661"]


# every blank `str.split` splits on, which the oracle's `\s` must skip alike
_BLANKS = [chr(c) for c in range(0x110000) if chr(c).isspace()]


@pytest.mark.parametrize("blank", _BLANKS, ids=lambda c: f"U+{ord(c):04X}")
def test_every_blank_separates_words_as_in_the_oracle(blank):
    assert _same_as_oracle(f"{blank}S{blank}a{blank}P{blank}") == Atom("S", Copula.A, "P")
    _same_as_oracle(f"{blank}~{blank}({blank}S a P{blank}){blank}->{blank}M{blank}sa{blank}P{blank}")
    _same_as_oracle(f"S{blank}a{blank}P{blank}${blank}")


@pytest.mark.parametrize(
    "text",
    [*(f"{name} a P" for name in _NEAR_TERMS), *(f"S a P{char}" for char in _NEAR_TERMS),
     *(f"S{char}P a M" for char in ("\u017f", "\u212a", "\xe9", "\u0661")),
     "-", ">", "-->", "->>", "S a P -", "S a P >", "S a P --> M a P", "S a P ->> M a P", "S a P$", "S a P-",
     "~-", ")>"],
)
def test_words_the_word_test_refuses_match_oracle(text):
    _same_as_oracle(text)


def test_lexer_boundary_messages():
    copulas = "(expected: a, e, i, o, sa, se, si, so)"
    assert _same_as_oracle("S aP")[1] == f"unexpected token 'aP' at offset 2 {copulas}"
    assert _same_as_oracle("S a(P)")[1] == "unexpected token '(' at offset 3 (expected: term)"
    # the atom token `Q a P` is reported by its subject word
    assert _same_as_oracle("(S a P Q a P)")[1] == "unexpected token 'Q' at offset 7 (expected: ))"
    assert _same_as_oracle("S\ta\nP") == Atom("S", Copula.A, "P")
    for text, offset in _UNEXPECTED_CHARACTER.items():
        message = f"unexpected character '$' at offset {offset} (expected: term, ~, ()"
        assert _same_as_oracle(text)[1:3] == (message, offset)


_NESTINGS = {
    "parentheses": lambda n: "(" * n + "S a P" + ")" * n,
    "negations": lambda n: "~" * n + "S a P",
    "conjunctions": lambda n: " & ".join(["S a P"] * (n + 1)),
    "implications": lambda n: " -> ".join(["S a P"] * (n + 1)),
    "disjunctions": lambda n: " | ".join(["S a P"] * (n + 1)),
    "disjunct-conjunctions": lambda n: "S a P | " + " & ".join(["S a P"] * n),
    "negated-conjuncts": lambda n: " & ".join(["~S a P"] * n),
    "parenthesized-conjunctions": lambda n: "(" + " & ".join(["S a P"] * n) + ")",
    "negated-parenthesized-conjunctions": lambda n: "~(" + " & ".join(["S a P"] * (n - 1)) + ")",
}


@pytest.mark.parametrize("levels", [199, 200, 201])
@pytest.mark.parametrize("shape", sorted(_NESTINGS))
def test_nesting_limit_matches_oracle(shape, levels):
    got = _same_as_oracle(_NESTINGS[shape](levels))
    assert isinstance(got, tuple) == (levels > 200)


# nestings in an operand, each reaching the limit through two kinds of level,
# where the depth an operand is read at and the levels it returns part
_OPERAND_NESTINGS = {
    "negated-parentheses": lambda n: "~" * (n // 2) + "(" * (n - n // 2) + "S a P" + ")" * (n - n // 2),
    "disjunct-negations": lambda n: "S a P | " + "~" * n + "S a P",
    "conjunct-parentheses": lambda n: "S a P & " + "(" * n + "S a P" + ")" * n,
    "consequent-negations": lambda n: "S a P -> " + "~" * n + "S a P",
}


@pytest.mark.parametrize("levels", [199, 200, 201])
@pytest.mark.parametrize("shape", sorted(_OPERAND_NESTINGS))
def test_nesting_in_an_operand_matches_oracle(shape, levels):
    _same_as_oracle(_OPERAND_NESTINGS[shape](levels))


def test_trailing_whitespace_is_scanned_once():
    # a scan retrying a failed match at each trailing position is quadratic:
    # seconds at this length
    start = time.perf_counter()
    with pytest.raises(ParseError, match="offset 100003"):
        parse("S a" + " " * 100_000)
    assert time.perf_counter() - start < 1.0


def test_is_term_name():
    assert is_term_name("S_1")
    assert not is_term_name("se")
    assert not is_term_name("1x")
    assert not is_term_name("")


def test_is_term_name_is_the_word_pattern():
    names = [chr(c) for c in range(0x250)] + _NEAR_TERMS
    names += ["S" + name for name in names] + [name + "S" for name in names]
    for name in names:
        expected = bool(re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", name)) and name not in RESERVED_TOKENS
        assert is_term_name(name) == expected, name


# --- property tests ---------------------------------------------------------

_terms = st.sampled_from(["S", "P", "M", "X", "Y2", "long_name"])
_atoms = st.builds(Atom, _terms, st.sampled_from(list(Copula)), _terms)


def _formulas(max_depth: int = 6):
    kids = st.recursive(
        _atoms,
        lambda kids: st.one_of(
            kids.map(Not),
            st.builds(And, kids, kids),
            st.builds(Or, kids, kids),
            st.builds(Implies, kids, kids),
        ),
        max_leaves=2 ** max_depth,
    )
    # alone, `st.recursive` puts `->` at the top or on the right of `->` in a
    # few draws in a hundred; here about two in three and one in three do
    return st.one_of(kids, st.builds(Implies, kids, kids), st.builds(Implies, kids, st.builds(Implies, kids, kids)))


def _paren_pairs(text):
    """The offsets of each matching pair of parentheses in `text`."""
    opened, pairs = [], []
    for i, char in enumerate(text):
        if char == "(":
            opened.append(i)
        elif char == ")":
            pairs.append((opened.pop(), i))
    return pairs


def _check_round_trip(f):
    """`render(f)` reads back as `f`, and without any one of its pairs of
    parentheses it fails to parse or reads as another formula."""
    text = render(f)
    assert parse(text) == f
    for i, j in _paren_pairs(text):
        try:
            assert parse(text[:i] + text[i + 1:j] + text[j + 1:]) != f
        except ParseError:
            pass


@given(_formulas())
def test_parse_render_round_trip(f):
    _check_round_trip(f)


def test_every_parent_and_child_renders_minimally():
    # a pair of parentheses is needed or not by its node and the node
    # above, so every formula of depth 2 tries each case; random formulas
    # rarely nest an implication on the right
    shallow = [Atom("S", Copula.A, "P")]
    shallow += [Not(shallow[0])] + [node(shallow[0], shallow[0]) for node in (And, Or, Implies)]
    for f in shallow:
        _check_round_trip(f)
        _check_round_trip(Not(f))
        for g in shallow:
            for node in (And, Or, Implies):
                _check_round_trip(node(f, g))


@given(st.text(max_size=60))
def test_parser_total_on_arbitrary_text(text):
    try:
        parse(text)
    except ParseError as exc:
        assert 0 <= exc.position <= len(text)


def _check_instantiate_distributes(f, fresh):
    """Instantiating `f` equals instantiating each of its atoms in place."""
    metavars = term_names(f)
    binding = dict(zip(metavars, fresh))
    schema = Schema(f, metavars)

    def push(g):
        if isinstance(g, Atom):
            return instantiate(Schema(g, tuple(m for m in metavars if m in (g.subject, g.predicate))), binding)
        if isinstance(g, Not):
            return Not(push(g.operand))
        if isinstance(g, And):
            return And(push(g.left), push(g.right))
        if isinstance(g, Or):
            return Or(push(g.left), push(g.right))
        return Implies(push(g.left), push(g.right))

    assert instantiate(schema, binding) == push(f)

    def leaves(g):
        """The atoms of `g`, left to right, each as often as it occurs."""
        if isinstance(g, Atom):
            return [g]
        if isinstance(g, Not):
            return leaves(g.operand)
        return leaves(g.left) + leaves(g.right)

    found = leaves(f)
    assert atoms(f) == tuple(a for i, a in enumerate(found) if a not in found[:i])
    assert term_names(f) == tuple(sorted({t for a in found for t in (a.subject, a.predicate)}))


@given(_formulas(max_depth=4), st.permutations(["A", "B", "C", "D", "E", "F"]))
@settings(max_examples=50)
def test_instantiate_distributes_over_connectives(f, fresh):
    _check_instantiate_distributes(f, fresh)


def test_instantiate_distributes_over_every_depth_two_formula():
    # random formulas can miss a shape, so each connective is tried over
    # each depth-1 child; the two atoms share one term and differ in the
    # others, so substitution shows in both operands
    a, b = Atom("S", Copula.A, "P"), Atom("M", Copula.I, "S")
    shallow = [a, b, Not(b)] + [node(a, b) for node in (And, Or, Implies)]
    for f in shallow:
        _check_instantiate_distributes(Not(f), "XYZ")
        for g in shallow:
            for node in (And, Or, Implies):
                _check_instantiate_distributes(node(f, g), "XYZ")


# --- the parser against the per-word oracle ---------------------------------


def _depth_two_texts():
    """Every formula of depth 2 or less over `S a P` and `M sa P`, each in three
    spellings: as `render` prints it, and with every blank around a connective
    removed and doubled."""
    leaves = [Atom("S", Copula.A, "P"), Atom("M", Copula.SA, "P")]
    nodes = (And, Or, Implies)
    shallow = leaves + [Not(a) for a in leaves] + [node(a, b) for node in nodes for a in leaves for b in leaves]
    deep = leaves + [Not(f) for f in shallow] + [node(f, g) for node in nodes for f in shallow for g in shallow]
    for f in deep:
        text = render(f)
        yield f, text
        for symbol in ("&", "|", "->"):
            text = text.replace(f" {symbol} ", symbol)
        yield f, text
        yield f, text.replace("&", "  &  ").replace("|", "  |  ").replace("->", "  ->  ")


def test_every_depth_two_formula_parses_as_the_oracle():
    texts = list(_depth_two_texts())
    assert len(texts) == 3 * (2 + 16 + 3 * 16 * 16)
    for f, text in texts:
        assert _same_as_oracle(text) == f, text


def test_a_well_formed_parse_never_reaches_the_error_path(monkeypatch):
    def error(*args):
        raise AssertionError(f"error path reached: {args}")

    monkeypatch.setattr(formula, "_error", error)
    for f, text in _depth_two_texts():
        assert parse(text) == f
    # the cached catalog was parsed once, perhaps before the patch: parse it again
    assert catalog_entries.__wrapped__() == catalog_entries()


_SPACES = st.sampled_from([" ", "  ", "\t", "\n", "\xa0", "\u2003"])
_GAPS = st.one_of(st.just(""), _SPACES)
_COPULAS = st.sampled_from([c.value for c in Copula])
_TERMS = st.sampled_from(["S", "P", "M", "x", "Y2", "long_name"])
_ATOM_TEXTS = st.builds(lambda *parts: "".join(parts), _TERMS, _SPACES, _COPULAS, _SPACES, _TERMS)


def _compound_texts(kids):
    return st.one_of(
        st.builds(lambda s, k: "~" + s + k, _GAPS, kids),
        st.builds(lambda s, k, t: "(" + s + k + t + ")", _GAPS, kids, _GAPS),
        *(
            st.builds(lambda left, s, right, t, op=op: left + s + op + t + right, kids, _GAPS, kids, _GAPS)
            for op in ("&", "|", "->")
        ),
    )


# well formed, with any whitespace or none around connectives and parentheses
_FORMULA_TEXTS = st.builds(
    lambda s, f, t: s + f + t, _GAPS, st.recursive(_ATOM_TEXTS, _compound_texts, max_leaves=12), _GAPS
)


@st.composite
def _mutations(draw):
    """A generated formula with one character deleted, replaced or inserted."""
    text = draw(_FORMULA_TEXTS)
    i = draw(st.integers(0, len(text)))
    char = draw(st.sampled_from(list("SPax_1~&|()->#é \t\n\xa0\u2003")))
    kind = draw(st.sampled_from(["delete", "replace", "insert"]))
    if kind == "insert" or i == len(text):
        return text[:i] + char + text[i:]
    return text[:i] + ("" if kind == "delete" else char) + text[i + 1:]


@st.composite
def _token_soups(draw):
    symbols = st.sampled_from(["~", "&", "|", "->", "(", ")", "-", ">", "1", "_", "Sa", "aP"])
    tokens = draw(st.lists(st.one_of(_TERMS, _COPULAS, symbols), max_size=12))
    return draw(_GAPS) + "".join(t + draw(_GAPS) for t in tokens)


@given(st.one_of(_FORMULA_TEXTS, _mutations(), _token_soups()))
@settings(max_examples=300)
def test_parse_matches_oracle(text):
    _same_as_oracle(text)
