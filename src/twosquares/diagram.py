"""DOT and JSON renderings of verified (or failed) squares of opposition."""

from __future__ import annotations

from .opposition import PairVerdict, RelationKind, SquareReport

_EDGE_STYLE = {
    RelationKind.CONTRARY: 'dir=none, style=dashed',
    RelationKind.SUBCONTRARY: 'dir=none, style=dotted',
    RelationKind.CONTRADICTORY: 'dir=both, style=bold',
    RelationKind.SUBALTERNATION_FORWARD: 'dir=forward, style=solid',
    RelationKind.SUBALTERNATION_BACKWARD: 'dir=back, style=solid',
    RelationKind.INDEPENDENT: 'dir=none, style=solid',
}


def _edge(pair: PairVerdict) -> str:
    label = pair.relation.kind.value
    style = _EDGE_STYLE[pair.relation.kind]
    color = ""
    if not pair.ok:
        witness = ""
        for name, model in pair.relation.witnesses().items():
            witness = f"; witness {name}: {model.summary()}"
            break
        label = f"expected {pair.expected.value}, got {pair.relation.kind.value}{witness}"
        color = ', color=red'
    return f'  {pair.first} -> {pair.second} [label="{label}", {style}{color}];'


def emit_diagram(square: SquareReport) -> str:
    """Byte-stable DOT digraph: four corner nodes, six labeled edges whose
    style is fixed by the relation kind; failing edges turn red and carry
    their witness."""
    lines = [f"digraph {square.name}_square {{"]
    lines.append(f'  label="{square.name} square of opposition ({square.semantics_label}, bound {square.bound})";')
    lines.append("  node [shape=plaintext];")
    for corner in ("a", "i", "e", "o"):
        lines.append(f'  {corner} [label="{square.corner_text[corner]}"];')
    for pair in square.pairs:
        lines.append(_edge(pair))
    lines.append("}")
    return "\n".join(lines) + "\n"


def square_dict(report: SquareReport) -> dict:
    """The square as JSON data, as `square --json` and the report give it."""
    pairs = []
    for pv in report.pairs:
        row = {
            "corners": f"{pv.first}-{pv.second}",
            "expected": pv.expected.value,
            "actual": pv.relation.kind.value,
            "ok": pv.ok,
            "witnesses": {
                name: model.to_dict() for name, model in pv.relation.witnesses().items()
            },
        }
        pairs.append(row)
    return {
        "name": report.name,
        "semantics": report.semantics_label,
        "bound": report.bound,
        "corners": dict(report.corner_text),
        "pairs": pairs,
        "pass": report.passed,
    }
