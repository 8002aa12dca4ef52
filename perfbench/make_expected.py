"""Regenerate expected_derived.json from the reference evaluator alone.

    python3 perfbench/make_expected.py

The file holds, for both derived readings at bound 3, the verdict the
composite-copula definition gives for the synthetic square, the 24
catalog entries and a fixed pool of 2- and 3-term formulas, together
with the number of distinct type-set images each reading induces.  It
imports nothing from the program under test.
"""

from __future__ import annotations

import json
import random

import gen
import reference

BOUND = 3
READINGS = {"derived": False, "derived-charitable": True}
TERM_SETS = (("P", "S"), ("M", "P", "S"))
POOL_PER_TERM_COUNT = 32


def _atom(s, cop, p):
    return ("atom", s, cop, p)


def _imp(f, g):
    return ("imp", f, g)


def _not(f):
    return ("not", f)


SA, SE, SI, SO = (_atom("S", c, "P") for c in gen.SYNTHETIC_COPULAS)

# The paper's claim catalog: theorems T01-T20 and axioms A5-A8.
CATALOG = {
    "T01": _imp(SA, _not(SO)), "T02": _imp(_not(SO), SA),
    "T03": _imp(SI, _not(SE)), "T04": _imp(_not(SE), SI),
    "T05": _imp(SE, _not(SI)), "T06": _imp(_not(SI), SE),
    "T07": _imp(SO, _not(SA)), "T08": _imp(_not(SA), SO),
    "T09": _imp(SA, _not(SI)), "T10": _imp(SI, _not(SA)),
    "T11": _imp(_not(SE), SO), "T12": _imp(_not(SO), SE),
    "T13": _imp(SA, SE), "T14": _imp(SI, SO),
    "T15": ("or", SE, SI), "T16": _not(("and", SE, SI)),
    "T17": ("or", SA, SO), "T18": _not(("and", SA, SO)),
    "T19": _not(("and", SA, SI)), "T20": ("or", SE, SO),
    "A5": _imp(SA, SE),
    "A6": _imp(SO, _atom("P", "so", "S")),
    "A7": _imp(("and", _atom("M", "sa", "P"), _atom("S", "sa", "M")), SA),
    "A8": _imp(("and", _atom("M", "sa", "P"), _atom("S", "se", "M")), SE),
}

# Corners and pairs of the synthetic square, as labelled by the program.
SQUARE_CORNERS = {"a": SA, "e": SE, "i": SI, "o": SO}
SQUARE_PAIRS = (("a", "i"), ("e", "o"), ("a", "o"), ("e", "i"), ("a", "e"), ("i", "o"))


def pool() -> list:
    """The fixed formula pool the derived workload draws from."""
    rng = random.Random("derived-pool")
    return [
        gen.random_formula(rng, list(names), gen.SYNTHETIC_COPULAS)
        for names in TERM_SETS
        for _ in range(POOL_PER_TERM_COUNT)
    ]


def min_falsifier(f, images: dict) -> int | None:
    pred = reference.compile_formula(f, gen.terms(f))
    sizes = [n for image, n in images.items() if not pred(image)]
    return min(sizes) if sizes else None


def build() -> dict:
    formulas = pool()
    out: dict = {"bound": BOUND, "images": {}, "catalog": {}, "square": {}, "pool": []}
    verdicts = {}
    for reading, charitable in READINGS.items():
        images = {
            names: reference.derived_images(names, BOUND, charitable) for names in TERM_SETS
        }
        out["images"][reading] = {",".join(n): len(images[n]) for n in TERM_SETS}
        out["catalog"][reading] = {
            cid: min_falsifier(f, images[gen.terms(f)]) for cid, f in CATALOG.items()
        }
        square = {}
        for first, second in SQUARE_PAIRS:
            terms = ("P", "S")
            p1 = reference.compile_formula(SQUARE_CORNERS[first], terms)
            p2 = reference.compile_formula(SQUARE_CORNERS[second], terms)
            sizes = reference.pair_profile(p1, p2, images[terms].items())
            square[f"{first}-{second}"] = {"kind": reference.relation_kind(sizes), "sizes": sizes}
        out["square"][reading] = square
        verdicts[reading] = [min_falsifier(f, images[gen.terms(f)]) for f in formulas]
    for k, f in enumerate(formulas):
        row = {"formula": f, "text": gen.render(f)}
        row.update({reading: verdicts[reading][k] for reading in READINGS})
        out["pool"].append(row)
    return out


if __name__ == "__main__":
    with open(gen.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(build(), handle, indent=1, sort_keys=True)
        handle.write("\n")
