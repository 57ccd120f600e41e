"""Graphviz DOT rendering of diagram fragments.

Edge legend (documented, not figure-exact): contradictories dashed,
contraries solid, subcontraries dotted, implications solid with an arrow
from the stronger to the weaker form.  Unconnected pairs draw no edge.
Output is deterministic: nodes in fragment order, edges by index pair.
``diagram_to_dot`` renders crisp and fuzzy diagrams alike; a fuzzy edge's
label ends in its (mu,nu) annotation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .diagram import Diagram, RelationKind

if TYPE_CHECKING:
    from .fuzzydiagram import FuzzyAristotelianDiagram

_EDGE_STYLE = {
    RelationKind.CD: "style=dashed, dir=none",
    RelationKind.C: "style=solid, dir=none",
    RelationKind.SC: "style=dotted, dir=none",
    RelationKind.LI: "style=solid",
    RelationKind.RI: "style=solid",
}


def _quote(text: str) -> str:
    return '"%s"' % text.replace("\\", "\\\\").replace('"', '\\"')


def diagram_to_dot(d: Diagram | FuzzyAristotelianDiagram) -> str:
    """DOT text of ``d``'s kind table, crisp or fuzzy."""
    annotations = None
    if not isinstance(d, Diagram):
        from .fuzzydiagram import fuzzy_relation_table

        annotations = fuzzy_relation_table(d)
    lines = ["digraph aristotelian {", "  rankdir=TB;", "  node [shape=box];"]
    for i, label in enumerate(d.labels):
        lines.append(f"  n{i} [label={_quote(label)}];")
    for i, row in enumerate(d.kind_table):
        for j in range(i + 1, len(row)):
            kind = row[j]
            if kind not in _EDGE_STYLE:
                continue
            tail, head, name = (j, i, "LI") if kind == RelationKind.RI else (i, j, kind.value)
            if annotations is not None:
                name += " ({0.mu},{0.nu})".format(annotations[i][j].annotation)
            lines.append(f"  n{tail} -> n{head} [{_EDGE_STYLE[kind]}, label={_quote(name)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


fuzzy_diagram_to_dot = diagram_to_dot
