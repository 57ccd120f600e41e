"""Layer tracing from outside the library.

``Tracer.install`` wraps the public functions of every ``squareop`` layer
module (plus ``IFRelation.__post_init__`` and ``IFLattice.__post_init__``)
by replacing the module attribute and every name other ``squareop``
modules bound to the same object.  ``uninstall`` restores them.

A spanned call records (id, name, layer, start, end, parent id, op id,
self seconds); self time is the call's wall time minus the time of the wrapped
calls it made.  Very hot leaf calls (``LEAF``) are timed and counted the
same way but leave no span, which keeps the span list small.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("algebra", "diagram", "degrees", "jsonio", "ifrel", "iflattice",
          "fuzzydiagram", "sampling", "dot", "cli")
METHODS = {"ifrel": ("IFRelation",), "iflattice": ("IFLattice",)}
LEAF = frozenset({
    "degrees.degree", "diagram.classify", "diagram.informativity_leq",
    "fuzzydiagram.classify_fuzzy", "algebra.element_label",
})


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # open calls: [nearest span id, child seconds]
        self.active: Counter = Counter()  # open spans by name and by layer
        self.next_id = 0
        self.op = -1
        self.paused = False  # set while the benchmark checks an output
        self._undo: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        """Start a new tally of counts and times; spans are kept."""
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)  # layer -> seconds
        self.total_s: defaultdict = defaultdict(float)  # spanned name -> seconds

    # ------------------------------------------------------------------
    # installing

    def install(self) -> None:
        mods = {n: m for n, m in list(sys.modules.items())
                if m is not None and (n == "squareop" or n.startswith("squareop."))}
        for layer in LAYERS:
            mod = mods.get(f"squareop.{layer}")
            if mod is None:
                continue
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or isinstance(fn, type) or not callable(fn)
                        or getattr(fn, "__module__", None) != mod.__name__):
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", layer, fn)
                for other in mods.values():
                    for name, value in list(vars(other).items()):
                        if value is fn:
                            self._set(other, name, fn, wrapped)
            for cls_name in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                fn = cls.__dict__["__post_init__"]
                self._set(cls, "__post_init__", fn,
                          self._wrap(f"{layer}.{cls_name}.__post_init__", layer, fn))

    def _set(self, owner, name: str, original, wrapped) -> None:
        setattr(owner, name, wrapped)
        self._undo.append((owner, name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------
    # wrappers

    def _wrap(self, name: str, layer: str, fn):
        if name in LEAF:
            return self._leaf(name, layer, fn)
        return self._span(name, layer, fn, _HOOKS.get(name))

    def _leaf(self, name: str, layer: str, fn):
        tr = self

        def leaf(*args, **kwargs):
            if tr.paused:
                return fn(*args, **kwargs)
            stack = tr.stack
            frame = [stack[-1][0] if stack else -1, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                tr.self_s[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                tr.counts[name] += 1

        return leaf

    def _span(self, name: str, layer: str, fn, hook):
        tr = self

        def span(*args, **kwargs):
            if tr.paused:
                return fn(*args, **kwargs)
            sid = tr.next_id
            tr.next_id += 1
            stack, active = tr.stack, tr.active
            parent = stack[-1][0] if stack else -1
            state = hook[0](tr) if hook else None
            frame = [sid, 0.0]
            active[name] += 1
            active[layer] += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                active[name] -= 1
                active[layer] -= 1
                dur = t1 - t0
                own = dur - frame[1]
                tr.self_s[layer] += own
                tr.total_s[name] += dur
                if stack:
                    stack[-1][1] += dur
                tr.counts[name] += 1
                tr.spans.append((sid, name, layer, t0, t1, parent, tr.op, own))
            if hook:
                hook[1](tr, state, result)
            return result

        return span

    # ------------------------------------------------------------------
    # output

    def merge(self, other: dict) -> None:
        """Fold in a child process's tally (``dump()``) under the current op."""
        self.counts.update(other["counts"])
        for layer, s in other["self_s"].items():
            self.self_s[layer] += s
        for name, s in other["total_s"].items():
            self.total_s[name] += s
        base = self.next_id
        for sid, name, layer, t0, t1, parent, _, own in other["spans"]:
            self.spans.append((sid + base, name, layer, t0, t1,
                               parent + base if parent >= 0 else -1, self.op, own))
        self.next_id += other["next_id"]

    def dump(self) -> dict:
        return {"counts": dict(self.counts), "self_s": dict(self.self_s),
                "total_s": dict(self.total_s), "spans": self.spans, "next_id": self.next_id}


# Counters that need more than a call count: (on entry -> state, on exit).

def _inside(key):
    return lambda tr: tr.active[key] > 0


def _count_if(counter):
    def on_exit(tr, inside, result):
        if inside:
            tr.counts[counter] += 1
    return on_exit


def _accepts(tr, inside, result):
    if inside:
        tr.counts["sampling.accept_base"] += 1
        tr.counts["sampling.accepted"] += bool(result)


def _isos_found(tr, state, result):
    tr.counts["diagram.isos_found"] += len(result)


def _law_checks(tr, state, result):
    tr.counts["algebra.law_checks"] += sum(c.checked for c in result.checks)


def _partial_order_checks(tr, before, result):
    # certify runs the three order checks itself; each is_partial_order call
    # below it (from IFLattice.__post_init__) runs them again
    if result.partial_order:
        tr.counts["iflattice.certified_partial_orders"] += 1
        tr.counts["iflattice.partial_order_checks"] += (
            1 + tr.counts["ifrel.is_partial_order"] - before)


_NONE = lambda tr: None  # noqa: E731
_HOOKS = {
    "ifrel.compose": (_inside("ifrel.transitive_closure"), _count_if("ifrel.closure_rounds")),
    "fuzzydiagram.check_fuzzy_infomorphism": (_inside("sampling"), _accepts),
    "diagram.find_isos": (_NONE, _isos_found),
    "algebra.verify_axioms": (_NONE, _law_checks),
    "iflattice.certify": (lambda tr: tr.counts["ifrel.is_partial_order"], _partial_order_checks),
    # only the outermost parse is a document
    **{f"jsonio.{kind}_from_json": (lambda tr: tr.active["jsonio"] == 0,
                                    _count_if("jsonio.docs_parsed"))
       for kind in ("algebra", "element", "diagram", "relation", "fuzzy_set", "fuzzy_diagram")},
}


def layer_metrics(counts, self_s, total_s) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    po_docs = counts["iflattice.certified_partial_orders"]
    base = counts["sampling.accept_base"]
    out = {
        "ifrel.relations_built": (counts["ifrel.IFRelation.__post_init__"], "count"),
        "ifrel.compose_calls": (counts["ifrel.compose"], "count"),
        "ifrel.closure_rounds": (counts["ifrel.closure_rounds"], "count"),
        "degrees.degree_calls": (counts["degrees.degree"], "count"),
        "jsonio.docs_parsed": (counts["jsonio.docs_parsed"], "count"),
        "iflattice.lattices_built": (counts["iflattice.IFLattice.__post_init__"], "count"),
        "iflattice.partial_order_checks": (
            counts["iflattice.partial_order_checks"] / po_docs if po_docs else 0.0, "per_doc"),
        "iflattice.certify_ms": (total_s["iflattice.certify"] * 1e3, "ms"),
        "fuzzydiagram.pairs_classified": (counts["fuzzydiagram.classify_fuzzy"], "count"),
        "fuzzydiagram.maps_checked": (counts["fuzzydiagram.check_fuzzy_infomorphism"], "count"),
        "fuzzydiagram.category_laws_ms": (total_s["fuzzydiagram.verify_category_laws"] * 1e3, "ms"),
        "sampling.accept_ratio": (counts["sampling.accepted"] / base if base else 0.0, "ratio"),
        "sampling.accept_base": (base, "count"),
        "diagram.pairs_classified": (counts["diagram.classify"], "count"),
        "diagram.isos_found": (counts["diagram.isos_found"], "count"),
        "diagram.iso_search_ms": (total_s["diagram.find_isos"] * 1e3, "ms"),
        "algebra.law_checks": (counts["algebra.law_checks"], "count"),
    }
    for layer in ("ifrel", "degrees", "jsonio", "iflattice", "fuzzydiagram", "sampling",
                  "diagram", "algebra", "dot"):
        out[f"{layer}.self_ms"] = (self_s[layer] * 1e3, "ms")
    return out
