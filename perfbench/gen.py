"""Seeded inputs for the benchmark workloads.

Formulas are built as plain tuples and rendered to text here, so the
reference evaluators never depend on the program's own parser:

    ("atom", subject, copula, predicate)
    ("not", f)   ("and", f, g)   ("or", f, g)   ("imp", f, g)

Every compound operand is parenthesized, so the rendering is unambiguous
under any precedence rules.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import sys
from collections import Counter

import reference

ANALYTIC_COPULAS = ("a", "e", "i", "o")
SYNTHETIC_COPULAS = ("sa", "se", "si", "so")

# Twelve names, none a copula keyword; queries draw 2-4 of them.
TERM_POOL = (
    "Man", "Mortal", "Greek", "Sage", "Poet", "Cat",
    "Dog", "Bird", "Fish", "Tree", "Stone", "Star",
)

FAMILIES = ("analytic", "synthetic")
QUERY_BOUND = {2: 4, 3: 4, 4: 3}  # term count -> model bound
CLASSIFY_SLOTS = (9, 18)  # of every 20 queries: one in ten, one per family
# Whether each block of six queries takes valid formulas, in a cycle of
# eight blocks: three in eight (37.5%), the valid share the workload is
# defined with.  Unconstrained draws are valid less often (see `main`), so
# validity is fixed; the smallest countermodel of an invalid formula is
# left as drawn.
VALID_BLOCKS = (True, False, False, True, False, True, False, False)


def render(f) -> str:
    if f[0] == "atom":
        return f"{f[1]} {f[2]} {f[3]}"
    if f[0] == "not":
        return "~" + _operand(f[1])
    op = {"and": " & ", "or": " | ", "imp": " -> "}[f[0]]
    return _operand(f[1]) + op + _operand(f[2])


def _operand(f) -> str:
    return render(f) if f[0] == "atom" else f"({render(f)})"


def atoms(f) -> list:
    if f[0] == "atom":
        return [f]
    return [a for sub in f[1:] for a in atoms(sub)]


def terms(f) -> tuple[str, ...]:
    return tuple(sorted({t for a in atoms(f) for t in (a[1], a[3])}))


def _atom(rng: random.Random, names, copulas):
    s, p = rng.sample(names, 2) if len(names) > 1 else (names[0], names[0])
    return ("atom", s, rng.choice(copulas), p)


def _maybe_not(rng: random.Random, f, share: float = 0.25):
    return ("not", f) if rng.random() < share else f


def random_formula(rng: random.Random, names, copulas):
    """A 2-4 atom formula mentioning every name in `names`.

    Half are syllogism-shaped (premises -> conclusion); the rest are
    random connective trees.  Atoms are drawn until every name occurs.
    """
    want = max(2, len(names) - 1) + rng.randrange(2)
    while True:
        leaves = [_atom(rng, names, copulas) for _ in range(want)]
        used = {t for a in leaves for t in (a[1], a[3])}
        if used == set(names):
            break
    if rng.random() < 0.5:
        premises = leaves[0]
        for leaf in leaves[1:-1]:
            premises = ("and", premises, _maybe_not(rng, leaf))
        return ("imp", premises, _maybe_not(rng, leaves[-1]))
    f = _maybe_not(rng, leaves[0])
    for leaf in leaves[1:]:
        f = (rng.choice(("and", "or", "imp", "or")), f, _maybe_not(rng, leaf))
    return _maybe_not(rng, f, 0.15)


def _draw(rng: random.Random, family: str, k: int):
    """An unconstrained k-term formula of `family` and the size of its
    smallest countermodel within the query bound (None if valid)."""
    copulas = ANALYTIC_COPULAS if family == "analytic" else SYNTHETIC_COPULAS
    f = random_formula(rng, rng.sample(TERM_POOL, k), copulas)
    pred = reference.compile_formula(f, terms(f))
    return f, reference.min_falsifier(pred, k, QUERY_BOUND[k], family == "analytic")


def size_mix(sizes) -> dict[str, float]:
    """Shares of smallest-countermodel sizes; "valid" for None."""
    counts = Counter("valid" if s is None else str(s) for s in sizes)
    total = sum(counts.values())
    return {key: counts[key] / total for key in sorted(counts, key=lambda k: (k == "valid", k))}


def query_stream(seed: int):
    """Endless seeded stream of query dicts on a fixed schedule.

    Families alternate (analytic with import on, synthetic direct over
    nonempty models) and term counts cycle 2, 3, 4.  One query in ten
    classifies a 2-term schema pair at bound 4 instead of deciding one
    formula, as often under each family.

    A decided formula's cost depends on its verdict: a valid one scans
    every model, an invalid one stops at its first countermodel, after
    every smaller model.  So the schedule fixes which queries are valid
    (VALID_BLOCKS), and formulas are drawn by rejection against the
    reference evaluator until one fits its slot.  Every seed's stream
    then has the same valid share and the same mix of family, term count
    and bound, repeating every 240 queries; the sizes of the
    countermodels fall as drawn.  Each decide query carries the
    reference's smallest falsifier size, None when valid within the
    bound.
    """
    rng = random.Random(f"queries:{seed}")
    for index in itertools.count():
        family = FAMILIES[index % 2]
        if index % 20 in CLASSIFY_SLOTS:
            copulas = ANALYTIC_COPULAS if family == "analytic" else SYNTHETIC_COPULAS
            names = rng.sample(TERM_POOL, 2)
            pair = (random_formula(rng, names, copulas), random_formula(rng, names, copulas))
            yield {"kind": "classify", "family": family, "formulas": pair,
                   "texts": tuple(map(render, pair)), "terms": 2, "bound": 4}
            continue
        k = 2 + (index // 2) % 3
        bound = QUERY_BOUND[k]
        valid = VALID_BLOCKS[(index // 6) % 8]
        while True:
            f, size = _draw(rng, family, k)
            if (size is None) == valid:
                break
        yield {"kind": "decide", "family": family, "formulas": (f,),
               "texts": (render(f),), "terms": k, "bound": bound, "min_falsifier": size}


# --- workload inputs ---------------------------------------------------------

PAPER_BOUNDS = ((3, 2), (4, 3))  # (--bound, --atoms): defaults, then maxima
READINGS = ("derived", "derived-charitable")
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected_derived.json")


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def paper_args(op: int) -> list[str]:
    """Operations alternate the default bounds with the maximum ones."""
    bound, atoms = PAPER_BOUNDS[op % 2]
    return ["verify-paper", "--json", "--bound", str(bound), "--atoms", str(atoms)]


def rename(f, mapping: dict):
    if f[0] == "atom":
        return ("atom", mapping[f[1]], f[2], mapping[f[3]])
    return (f[0],) + tuple(rename(sub, mapping) for sub in f[1:])


def derived_inputs(expected: dict, seed: int, op: int) -> tuple[str, list[tuple]]:
    """The reading and the formulas of one derived operation, each with
    the expected size of its smallest counter-structure (None if valid).

    Readings alternate.  Operation `op` takes one pool formula per (term
    count, validity under its reading) class, the same ones for every
    seed; the seed permutes each formula's terms.  A renaming maps the
    structures onto themselves, so it keeps validity, the smallest
    counter-structure and the cost of a full scan, while the texts and
    witnesses change with the seed."""
    reading = READINGS[op % 2]
    choose = random.Random(f"derived-op:{op}")
    rng = random.Random(f"derived:{seed}:{op}")
    picked = []
    for term_count in (2, 3):
        for valid in (True, False):
            rows = [
                row for row in expected["pool"]
                if len(terms(row["formula"])) == term_count and (row[reading] is None) == valid
            ]
            row = choose.choice(rows)
            names = terms(row["formula"])
            mapping = dict(zip(names, rng.sample(names, len(names))))
            picked.append((rename(row["formula"], mapping), row[reading]))
    return reading, picked


def first_input(workload: str, seed: int):
    """What a workload builds before its first operation."""
    if workload == "paper":
        return paper_args(0)
    if workload == "derived":
        return derived_inputs(load_expected(), seed, 0)
    return next(query_stream(seed))


def main(argv: list[str]) -> int:
    """Print the smallest-countermodel size mix of unconstrained draws,
    per family and term count: `python3 perfbench/gen.py [DRAWS]`."""
    draws = int(argv[0]) if argv else 2000
    rng = random.Random("size-mix")
    for family in FAMILIES:
        for k in sorted(QUERY_BOUND):
            mix = size_mix(_draw(rng, family, k)[1] for _ in range(draws))
            print(json.dumps({"family": family, "terms": k, "bound": QUERY_BOUND[k],
                              "draws": draws, "mix": {s: round(v, 3) for s, v in mix.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
