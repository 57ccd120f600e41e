"""Graphviz DOT rendering of diagram fragments.

Edge legend (documented, not figure-exact): contradictories dashed,
contraries solid, subcontraries dotted, implications solid with an arrow
from the stronger to the weaker form.  Unconnected pairs draw no edge.
Output is deterministic: nodes in fragment order, edges by index pair.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

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


def _render(d: Diagram | FuzzyAristotelianDiagram, suffix: Callable[[int, int], str]) -> str:
    """DOT text of ``d``'s kind table; ``suffix(i, j)`` ends the edge label of (i, j)."""
    lines = ["digraph aristotelian {", "  rankdir=TB;", "  node [shape=box];"]
    for i, label in enumerate(d.labels):
        lines.append(f"  n{i} [label={_quote(label)}];")
    for i, row in enumerate(d.kind_table):
        for j in range(i + 1, len(row)):
            kind = row[j]
            if kind not in _EDGE_STYLE:
                continue
            tail, head, name = (j, i, "LI") if kind == RelationKind.RI else (i, j, kind.value)
            label = _quote(name + suffix(i, j))
            lines.append(f"  n{tail} -> n{head} [{_EDGE_STYLE[kind]}, label={label}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def diagram_to_dot(d: Diagram) -> str:
    return _render(d, lambda i, j: "")


def fuzzy_diagram_to_dot(d: FuzzyAristotelianDiagram) -> str:
    from .fuzzydiagram import fuzzy_relation_table

    table = fuzzy_relation_table(d)
    return _render(d, lambda i, j: " ({0.mu},{0.nu})".format(table[i][j].annotation))
