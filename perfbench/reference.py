"""Reference evaluators, written from the definitions and independent of
the program under test.

Both the analytic semantics and the direct synthetic semantics are
monadic: a formula's truth in a model depends only on which term-types
(Venn regions) the individuals realize.  A type is a bitmask over the
formula's sorted terms; a type-set is a collection of types.  A model
with n individuals realizes at most n types, and every type-set of size
n is realized by a model with n individuals, so

    some model with <= b individuals falsifies f
        iff  some type-set of size <= b falsifies f,

and the smallest countermodel has exactly as many individuals as the
smallest falsifying type-set.  The analytic semantics admits the empty
domain (the empty type-set); the direct synthetic semantics used here
does not.

The derived readings route "x is t" through the composite copula over a
primitive relation; `derived_types` turns such a structure into the
type of each individual, after which the synthetic clauses apply
unchanged.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product


def _analytic_atom(cop: str, sb: int, pb: int):
    def a(ts):
        return any(t & sb for t in ts) and all(t & pb for t in ts if t & sb)

    if cop == "a":
        return a
    if cop == "o":
        return lambda ts: not a(ts)
    if cop == "e":
        return lambda ts: not any(t & sb and t & pb for t in ts)
    return lambda ts: any(t & sb and t & pb for t in ts)  # i


def _synthetic_atom(cop: str, sb: int, pb: int):
    if cop == "sa":
        return lambda ts: any(t & sb for t in ts) or all(t & pb and t & sb for t in ts)
    if cop == "si":
        return lambda ts: all(t & pb and not t & sb for t in ts)
    if cop == "so":
        return lambda ts: all(not t & sb for t in ts) and any(
            not t & pb or not t & sb for t in ts
        )
    return lambda ts: any(not t & pb or t & sb for t in ts)  # se


def compile_formula(f, terms: tuple[str, ...]):
    """Return a predicate over type-sets (iterables of type bitmasks)."""
    bit = {t: 1 << i for i, t in enumerate(terms)}
    tag = f[0]
    if tag == "atom":
        _, s, cop, p = f
        make = _synthetic_atom if len(cop) == 2 else _analytic_atom
        return make(cop, bit[s], bit[p])
    if tag == "not":
        inner = compile_formula(f[1], terms)
        return lambda ts: not inner(ts)
    left = compile_formula(f[1], terms)
    right = compile_formula(f[2], terms)
    if tag == "and":
        return lambda ts: left(ts) and right(ts)
    if tag == "or":
        return lambda ts: left(ts) or right(ts)
    return lambda ts: (not left(ts)) or right(ts)


@lru_cache(maxsize=None)
def typesets(term_count: int, bound: int, allow_empty: bool) -> tuple[tuple[int, ...], ...]:
    """Every set of distinct types with at most `bound` members, smallest first."""
    types = range(1 << term_count)
    lo = 0 if allow_empty else 1
    return tuple(
        ts for n in range(lo, min(bound, 1 << term_count) + 1) for ts in combinations(types, n)
    )


def min_falsifier(pred, term_count: int, bound: int, allow_empty: bool) -> int | None:
    """Size of the smallest falsifying type-set within the bound, or None."""
    for ts in typesets(term_count, bound, allow_empty):
        if not pred(ts):
            return len(ts)
    return None


CATEGORIES = ("both_true", "both_false", "first_only", "second_only")


def category(p: bool, q: bool) -> str:
    if p and q:
        return "both_true"
    if p:
        return "first_only"
    if q:
        return "second_only"
    return "both_false"


def relation_kind(sizes: dict) -> str:
    """The opposition relation named by which truth-pair categories occur."""
    bt, bf = sizes["both_true"] is not None, sizes["both_false"] is not None
    fo, so = sizes["first_only"] is not None, sizes["second_only"] is not None
    if not bt and not bf:
        return "contradictory"
    if not bt:
        return "contrary"
    if not bf:
        return "subcontrary"
    if not fo and so:
        return "subalternation-forward"
    if not so and fo:
        return "subalternation-backward"
    return "independent"


def pair_profile(p1, p2, sized_typesets) -> dict:
    """Smallest size realizing each truth-pair category, or None.

    `sized_typesets` yields (type-set, size) pairs."""
    sizes = dict.fromkeys(CATEGORIES)
    for ts, n in sized_typesets:
        c = category(p1(ts), p2(ts))
        if sizes[c] is None or n < sizes[c]:
            sizes[c] = n
    return sizes


def model_types(model: dict, terms: tuple[str, ...]) -> list[int]:
    """Type of each individual of an analytic or direct synthetic model,
    given in the program's model-file shape."""
    bit = {t: 1 << i for i, t in enumerate(terms)}
    if "domain" in model:
        return [
            sum(bit[t] for t in terms if x in model["ext"].get(t, ()))
            for x in model["domain"]
        ]
    return [
        sum(bit[t] for t in model["is"].get(x, ()) if t in bit) for x in model["universe"]
    ]


# --- the composite copula ---------------------------------------------------

def derived_is(universe, prim: set, a, b, charitable: bool) -> bool:
    """"a is b" by the composite copula definition over `prim`."""
    above_a = [c for c in universe if (c, a) in prim]
    if not above_a:
        return False
    if not all((c, d) in prim for c in above_a for d in above_a):
        return False
    if charitable:
        return all((c, b) in prim for c in above_a)
    return all((c, a) in prim and (c, b) in prim for c in universe)


def derived_types(structure: dict, terms: tuple[str, ...], charitable: bool) -> list[int]:
    """Type of each individual when "x is t" is the composite copula
    towards t's denotation; `structure` has the program's model-file shape."""
    universe = structure["universe"]
    prim = {tuple(pair) for pair in structure["isPrim"]}
    denote = structure["denote"]
    return [
        sum(
            1 << i
            for i, t in enumerate(terms)
            if derived_is(universe, prim, x, denote[t], charitable)
        )
        for x in universe
    ]


_INDIVIDUALS = ("u", "v", "w")


def derived_images(terms: tuple[str, ...], bound: int, charitable: bool) -> dict:
    """Every type-set some copula structure with 1..bound individuals
    induces, mapped to the fewest individuals that induce it."""
    images: dict[frozenset, int] = {}
    for size in range(1, bound + 1):
        universe = _INDIVIDUALS[:size]
        pairs = [(a, b) for a in universe for b in universe]
        for mask in range(1 << len(pairs)):
            prim = [pair for k, pair in enumerate(pairs) if mask >> k & 1]
            for choice in product(range(size), repeat=len(terms)):
                structure = {
                    "universe": universe,
                    "isPrim": prim,
                    "denote": {t: universe[c] for t, c in zip(terms, choice)},
                }
                image = frozenset(derived_types(structure, terms, charitable))
                images.setdefault(image, size)
    return images

