"""Command-line interface.

Exit codes: 0 on success, 1 when a requested property fails (input not a
partial order, map not an infomorphism, ...), 2 on malformed input, with a
diagnostic naming the offending line or field.  Output is deterministic for
identical inputs and seeds.  Set SQUAREOP_ASCII for plain-ASCII check marks.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import __version__
from .degrees import IMPLICATIONS, NEGATIONS, OperatorChoice, contradiction_degree
from .diagram import DiagramMap, canonical_square, check_infomorphism, check_iso, find_isos, relation_table
from .dot import diagram_to_dot, fuzzy_diagram_to_dot
from .fuzzydiagram import fuzzy_bi_implication, fuzzy_relation_table, verify_category_laws
from .ifrel import is_perfectly_antisymmetric, is_reflexive, is_transitive
from .iflattice import certify
from .jsonio import (
    InputFormatError,
    algebra_from_json,
    certification_to_json,
    diagram_from_json,
    diagram_to_json,
    fuzzy_diagram_from_json,
    fuzzy_set_from_json,
    kind_table_to_json,
    relation_from_json,
)
from .sampling import composable_infomorphism_triples

OK_EXIT, PROPERTY_FAILED, BAD_INPUT = 0, 1, 2


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _marks() -> tuple[str, str]:
    if os.environ.get("SQUAREOP_ASCII"):
        return "yes", "no"
    return "✓", "✗"


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise CliError(f"cannot read {path}: no such file", BAD_INPUT)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}", BAD_INPUT)
    except UnicodeDecodeError:
        raise CliError(f"{path}: not UTF-8 text", BAD_INPUT)
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}", BAD_INPUT)
    except RecursionError:
        raise CliError(f"{path}: JSON nested too deeply", BAD_INPUT)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _table_text(labels, kinds) -> str:
    rendered = [[str(k) for k in row] for row in kinds]
    width = max(len(x) for x in labels)
    cell = max([width] + [len(v) for row in rendered for v in row])
    header = " " * (width + 2) + "  ".join(k.ljust(cell) for k in labels)
    lines = [header.rstrip()]
    for label, row in zip(labels, rendered):
        cells = "  ".join(v.ljust(cell) for v in row)
        lines.append(f"{label.ljust(width)}  {cells}".rstrip())
    return "\n".join(lines)


def _parse_map(text: str, size: int) -> tuple[int, ...]:
    try:
        mapping = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise CliError(f"--map must be comma-separated indices, got {text!r}", BAD_INPUT)
    if len(mapping) != size:
        raise CliError(f"--map must list {size} indices, got {len(mapping)}", BAD_INPUT)
    return mapping


# ---------------------------------------------------------------------------
# subcommands

def cmd_validate(args) -> int:
    obj = _load(args.file)
    kind = args.kind
    if kind == "auto":
        if isinstance(obj, dict) and "lattice" in obj:
            kind = "fuzzy-diagram"
        elif isinstance(obj, dict) and "fragment" in obj:
            kind = "diagram"
        elif isinstance(obj, dict) and ("set" in obj or "carrier" in obj):
            kind = "relation"
        elif isinstance(obj, dict) and "atoms" in obj:
            kind = "algebra"
        elif isinstance(obj, dict):
            kind = "fuzzy-set"
        else:
            raise CliError("cannot detect a documented schema in the input", BAD_INPUT)
    try:
        if kind == "algebra":
            value = algebra_from_json(obj)
            summary = f"{value.atom_count} atoms"
        elif kind == "diagram":
            value = diagram_from_json(obj)
            summary = f"{len(value.fragment)} fragment elements over {value.algebra.atom_count} atoms"
        elif kind == "relation":
            value = relation_from_json(obj)
            summary = f"square relation on {len(value.source)} points"
        elif kind == "fuzzy-set":
            value = fuzzy_set_from_json(obj)
            summary = f"{len(value.domain)} points"
        else:
            value = fuzzy_diagram_from_json(obj)
            summary = (
                f"{len(value.fragment)} fragment elements over a "
                f"{len(value.lattice.carrier)}-element carrier"
            )
    except InputFormatError:
        raise
    except ValueError as exc:
        # structurally valid JSON whose content fails a semantic property
        raise CliError(str(exc), PROPERTY_FAILED)
    print(f"OK: {kind} ({summary})")
    return OK_EXIT


def _classify_output(d, fmt: str) -> None:
    kinds = relation_table(d)
    if fmt == "json":
        _emit_json(kind_table_to_json(d.labels, kinds))
    elif fmt == "dot":
        print(diagram_to_dot(d), end="")
    else:
        print(_table_text(d.labels, kinds))


def cmd_classify(args) -> int:
    d = diagram_from_json(_load(args.file))
    _classify_output(d, args.format)
    return OK_EXIT


def cmd_canonical_square(args) -> int:
    square = canonical_square()
    if args.format == "json":
        payload = diagram_to_json(square)
        payload["relations"] = kind_table_to_json(square.labels, relation_table(square))["kinds"]
        _emit_json(payload)
    else:
        _classify_output(square, args.format)
    return OK_EXIT


def cmd_iso(args) -> int:
    d1 = diagram_from_json(_load(args.file1))
    d2 = diagram_from_json(_load(args.file2))
    if args.map is not None:
        mapping = _parse_map(args.map, len(d1.fragment))
        m = DiagramMap(d1, d2, mapping)
        if not m.is_bijection:
            raise CliError("--map is not a bijection", BAD_INPUT)
        ok = check_iso(m)
        if args.format == "json":
            _emit_json({"isomorphism": ok})
        else:
            print(f"isomorphism: {'yes' if ok else 'no'}")
        return OK_EXIT if ok else PROPERTY_FAILED
    isos = find_isos(d1, d2)
    if args.format == "json":
        _emit_json({"count": len(isos), "isomorphisms": [list(m.mapping) for m in isos]})
    else:
        print(f"isomorphisms found: {len(isos)}")
        for m in isos:
            arrows = ", ".join(
                f"{d1.labels[i]} -> {d2.labels[j]}" for i, j in enumerate(m.mapping)
            )
            print(f"  {arrows}")
    return OK_EXIT if isos else PROPERTY_FAILED


def cmd_info(args) -> int:
    d1 = diagram_from_json(_load(args.file1))
    d2 = diagram_from_json(_load(args.file2))
    mapping = _parse_map(args.map, len(d1.fragment))
    ok = check_infomorphism(DiagramMap(d1, d2, mapping))
    if args.format == "json":
        _emit_json({"infomorphism": ok})
    else:
        print(f"infomorphism: {'yes' if ok else 'no'}")
    return OK_EXIT if ok else PROPERTY_FAILED


def cmd_ifrel_check(args) -> int:
    relation = relation_from_json(_load(args.file))
    flags = {
        "reflexive": is_reflexive(relation),
        "perfectly antisymmetric": is_perfectly_antisymmetric(relation),
        "transitive": is_transitive(relation),
    }
    flags["partial order"] = all(flags.values())
    if args.format == "json":
        _emit_json({k.replace(" ", "_"): v for k, v in flags.items()})
    else:
        ok, fail = _marks()
        for name, value in flags.items():
            print(f"{name:<24} {ok if value else fail}")
    return OK_EXIT if flags["partial order"] else PROPERTY_FAILED


def cmd_lattice_check(args) -> int:
    relation = relation_from_json(_load(args.file))
    cert = certify(relation)
    if args.format == "json":
        _emit_json(certification_to_json(cert))
    else:
        ok, fail = _marks()

        def mark(value) -> str:
            if value is None:
                return "-"
            return ok if value else fail

        print(f"{'reflexive':<24} {mark(cert.reflexive)}")
        print(f"{'perfectly antisymmetric':<24} {mark(cert.perfectly_antisymmetric)}")
        print(f"{'transitive':<24} {mark(cert.transitive)}")
        print(f"{'partial order':<24} {mark(cert.partial_order)}")
        print(f"{'lattice':<24} {mark(cert.lattice)}")
        print(f"{'distributive':<24} {mark(cert.distributive)}")
        print(f"{'complemented':<24} {mark(cert.complemented)}")
        print(f"{'De Morgan laws':<24} {cert.de_morgan}")
        print(f"{'IF Boolean algebra':<24} {mark(cert.if_boolean_algebra)}")
    return OK_EXIT if cert.if_boolean_algebra else PROPERTY_FAILED


def cmd_contradiction(args) -> int:
    first = fuzzy_set_from_json(_load(args.file_a))
    second = fuzzy_set_from_json(_load(args.file_b)) if args.file_b else first
    ops = OperatorChoice(args.negation, args.implication)
    try:
        result = contradiction_degree(first, second, ops)
    except ValueError as exc:
        raise CliError(str(exc), PROPERTY_FAILED)
    if args.format == "json":
        _emit_json(
            {
                "implication": args.implication,
                "negation": args.negation,
                "pointwise": {x: str(v) for x, v in result.pointwise.items()},
                "scalar": str(result.scalar),
            }
        )
    else:
        print(f"operators: implication={args.implication}, negation={args.negation}")
        print("pointwise:")
        for x, v in result.pointwise.items():
            print(f"  {x}: {v}")
        print(f"scalar (min): {result.scalar}")
    return OK_EXIT


def cmd_fuzzy_classify(args) -> int:
    obj = _load(args.file)
    if args.tolerance is not None:
        if not isinstance(obj, dict):
            raise CliError("fuzzy diagram file must hold a JSON object", BAD_INPUT)
        obj = dict(obj, tolerance=args.tolerance)
    try:
        d = fuzzy_diagram_from_json(obj)
    except InputFormatError:
        raise
    except ValueError as exc:
        raise CliError(str(exc), PROPERTY_FAILED)
    table = fuzzy_relation_table(d)
    bi_pairs = [
        (d.fragment[i], d.fragment[j])
        for i in range(len(d.fragment))
        for j in range(i + 1, len(d.fragment))
        if fuzzy_bi_implication(d, d.fragment[i], d.fragment[j])
    ]
    if args.format == "json":
        _emit_json(
            {
                "tolerance": str(d.tolerance),
                "labels": list(d.labels),
                "kinds": [[cell.kind.value for cell in row] for row in table],
                "annotations": [
                    [{"mu": str(cell.annotation.mu), "nu": str(cell.annotation.nu)} for cell in row]
                    for row in table
                ],
                "bi_implication_within_tolerance": [list(p) for p in bi_pairs],
            }
        )
    else:
        print(f"tolerance: {d.tolerance}")
        rendered = tuple(
            tuple(f"{cell.kind.value}({cell.annotation.mu},{cell.annotation.nu})" for cell in row)
            for row in table
        )
        print(_table_text(d.labels, rendered))
        if bi_pairs:
            print("fuzzy bi-implication within tolerance:")
            for x, y in bi_pairs:
                print(f"  {x} ~ {y}")
        else:
            print("fuzzy bi-implication within tolerance: none")
    return OK_EXIT


def cmd_category_check(args) -> int:
    rng = random.Random(args.seed)
    triples = composable_infomorphism_triples(rng, args.triples)
    maps = [m for triple in triples for m in triple]
    report = verify_category_laws(maps)
    if args.format == "json":
        _emit_json(
            {
                "seed": args.seed,
                "triples": args.triples,
                "laws": [
                    {"law": r.law, "holds": r.holds, "checked": r.checked} for r in report.laws
                ],
                "excluded_maps": list(report.excluded),
                "all_pass": report.all_pass,
            }
        )
    else:
        ok, fail = _marks()
        print(f"seed: {args.seed}, composable triples: {args.triples}")
        for r in report.laws:
            print(f"{r.law:<24} {ok if r.holds else fail}  ({r.checked} checks)")
        if report.excluded:
            print(f"maps excluded (not infomorphisms): {list(report.excluded)}")
    return OK_EXIT if report.all_pass else PROPERTY_FAILED


def cmd_dot(args) -> int:
    obj = _load(args.file)
    if isinstance(obj, dict) and "lattice" in obj:
        try:
            print(fuzzy_diagram_to_dot(fuzzy_diagram_from_json(obj)), end="")
        except InputFormatError:
            raise
        except ValueError as exc:
            raise CliError(str(exc), PROPERTY_FAILED)
    else:
        print(diagram_to_dot(diagram_from_json(obj)), end="")
    return OK_EXIT


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squareop",
        description="Squares of opposition and Aristotelian diagrams, crisp and fuzzy.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, choices=("text", "json")) -> None:
        p.add_argument("--format", choices=choices, default="text")

    p = sub.add_parser("validate", help="check a JSON input against its schema")
    p.add_argument("file")
    p.add_argument(
        "--kind",
        choices=("auto", "algebra", "diagram", "relation", "fuzzy-set", "fuzzy-diagram"),
        default="auto",
    )
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("classify", help="relation table of a diagram")
    p.add_argument("file")
    add_format(p, ("text", "json", "dot"))
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("canonical-square", help="emit the built-in traditional square")
    add_format(p, ("text", "json", "dot"))
    p.set_defaults(fn=cmd_canonical_square)

    p = sub.add_parser("iso", help="find or check Aristotelian isomorphisms")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--map", help="comma-separated target indices to check instead of searching")
    add_format(p)
    p.set_defaults(fn=cmd_iso)

    p = sub.add_parser("info", help="check an infomorphism between two diagrams")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--map", required=True, help="comma-separated target indices")
    add_format(p)
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("ifrel-check", help="order properties of a fuzzy relation")
    p.add_argument("file")
    add_format(p)
    p.set_defaults(fn=cmd_ifrel_check)

    p = sub.add_parser("lattice-check", help="certify a fuzzy order as lattice/Boolean algebra")
    p.add_argument("file")
    add_format(p)
    p.set_defaults(fn=cmd_lattice_check)

    p = sub.add_parser("contradiction", help="degree of contradiction of fuzzy sets")
    p.add_argument("file_a")
    p.add_argument("file_b", nargs="?", help="omit to measure self-contradiction")
    p.add_argument("--implication", choices=sorted(IMPLICATIONS), default="kleene-dienes")
    p.add_argument("--negation", choices=sorted(NEGATIONS), default="standard")
    add_format(p)
    p.set_defaults(fn=cmd_contradiction)

    p = sub.add_parser("fuzzy-classify", help="classify a fuzzy diagram's fragment")
    p.add_argument("file")
    p.add_argument("--tolerance", help="bi-implication tolerance, e.g. 1/100")
    add_format(p)
    p.set_defaults(fn=cmd_fuzzy_classify)

    p = sub.add_parser("category-check", help="category laws on seeded fuzzy infomorphisms")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--triples", type=_positive_int, default=20)
    add_format(p)
    p.set_defaults(fn=cmd_category_check)

    p = sub.add_parser("dot", help="render a (fuzzy) diagram as a DOT graph")
    p.add_argument("file")
    p.set_defaults(fn=cmd_dot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
