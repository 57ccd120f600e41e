"""Command-line interface.

Exit codes: 0 on success; 1 when a requested property fails (input not a
partial order, map not an infomorphism, ...) or well-formed input is
refused; 2 on malformed input (``InputFormatError``), naming its line, field,
file or flag.  Output is deterministic for identical inputs and seeds.  Set
SQUAREOP_ASCII for plain-ASCII check marks.

Stdout is written once, after the result is complete, so an error never
follows partial output.  A reader that closes the pipe early leaves the
verdict's exit code and nothing on stderr.  A stdout that cannot encode the
output gets none of it: exit 1 with one ``error:`` line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice

from . import __version__
from .degrees import IMPLICATIONS, NEGATIONS, OperatorChoice, contradiction_degree, degree
from .diagram import (
    Diagram,
    DiagramMap,
    canonical_square,
    check_infomorphism,
    check_iso,
    count_isos,
    iter_isos,
)
from .jsonio import (
    InputFormatError,
    _checked,
    algebra_from_json,
    any_diagram_from_json,
    certification_to_json,
    diagram_from_json,
    diagram_to_json,
    fuzzy_diagram_from_json,
    fuzzy_set_from_json,
    ifpair_to_json,
    kind_table_to_json,
    relation_from_json,
)

OK_EXIT, PROPERTY_FAILED, BAD_INPUT = 0, 1, 2

#: ``iso`` lists at most this many maps, with the exact count and a
#: ``listed N of M`` line when there are more.
ISO_LISTING_CAP = 1000

#: The largest text table printed, in characters, computed from the row
#: count and the column widths before any line is rendered: every cell is
#: padded to the widest label, so the text grows as n² times that width.
#: The 1 024-element fragment limit with 16-atom default labels fits.
MAX_TABLE_CHARS = 2**26

#: The largest input file, in bytes.  A file is refused from its size before
#: it is read; a pipe reports no size, so it is refused after one byte more is
#: read.  The count limits admit no larger document with degree strings of at
#: most 100 characters: a dense 200-element relation of them is about 8.3 MB.
MAX_FILE_BYTES = 2**24

#: The largest ``category-check --triples``: the category laws chain maps
#: through every sampled diagram, so their work grows faster than the count.
MAX_TRIPLES = 250


def _marks() -> tuple[str, str]:
    if os.environ.get("SQUAREOP_ASCII"):
        return "yes", "no"
    return "✓", "✗"


def _object(pairs: list, path: str) -> dict:
    """A JSON object, refusing a repeated key, which ``json`` drops silently."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        key = json.dumps(next(k for k, _ in pairs if k in seen or seen.add(k)), ensure_ascii=False)
        raise InputFormatError(f"repeated key {key} in a JSON object", path)
    return obj


def _int(digits: str, path: str) -> int:
    """A JSON integer.  No schema reads one; one of more than 4 300 digits is
    refused before ``int``, which is quadratic where Python sets no limit."""
    if len(digits) - digits.startswith("-") > 4300:
        raise InputFormatError("integer literal of more than 4300 digits refused", path)
    return int(digits)


def _load(path: str):
    try:
        with open(path, "rb") as fh:
            # a file is refused from its size, unread; a pipe reports no size
            if (os.fstat(fh.fileno()).st_size > MAX_FILE_BYTES
                    or len(data := fh.read(MAX_FILE_BYTES + 1)) > MAX_FILE_BYTES):
                raise ValueError(f"{path}: file larger than {MAX_FILE_BYTES} bytes refused")
        # universal newlines, as a text-mode read gives them, keep the line
        # and column of a JSON error
        text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        return json.loads(text, object_pairs_hook=lambda pairs: _object(pairs, path),
                          parse_int=lambda digits: _int(digits, path))
    except FileNotFoundError:
        raise InputFormatError(f"cannot read {path}: no such file", path=None)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc.strerror or exc}", path=None)
    except UnicodeDecodeError:
        raise InputFormatError("not UTF-8 text", path)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}", path)
    except RecursionError:
        raise InputFormatError("JSON nested too deeply", path)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


_FLAG_NAMES = {"de_morgan": "De Morgan laws", "if_boolean_algebra": "IF Boolean algebra"}


def _flags(flags: dict, fmt: str):
    """Verdicts as one JSON object, or one text row each ("-": not reached)."""
    if fmt == "json":
        return flags
    ok, fail = _marks()
    rows = []
    for key, value in flags.items():
        if isinstance(value, bool):
            value = ok if value else fail
        elif value is None:
            value = "-"
        rows.append(f"{_FLAG_NAMES.get(key, key.replace('_', ' ')):<24} {value}")
    return rows


def _verdict(name: str, holds: bool, fmt: str):
    """One yes/no verdict and its exit code."""
    output = {name: holds} if fmt == "json" else [f"{name}: {'yes' if holds else 'no'}"]
    return (OK_EXIT if holds else PROPERTY_FAILED), output


def _table_lines(labels, kinds) -> list[str]:
    rendered = [[str(k) for k in row] for row in kinds]
    width = max(len(x) for x in labels)
    cell = max([width] + [len(v) for row in rendered for v in row])
    n = len(labels)
    # a header and n rows, each at most the label column, n padded cells and
    # a newline
    if (n + 1) * (width + 1 + n * (cell + 2)) > MAX_TABLE_CHARS:
        raise ValueError(
            f"text table larger than {MAX_TABLE_CHARS} characters refused: use --format json"
        )
    header = " " * (width + 2) + "  ".join(k.ljust(cell) for k in labels)
    lines = [header.rstrip()]
    for label, row in zip(labels, rendered):
        cells = "  ".join(v.ljust(cell) for v in row)
        lines.append(f"{label.ljust(width)}  {cells}".rstrip())
    return lines


def _parse_map(text: str, source, target) -> DiagramMap:
    try:
        mapping = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InputFormatError(f"--map must be comma-separated indices, got {text!r}", path=None)
    return _checked("--map", DiagramMap, source, target, mapping)


# ---------------------------------------------------------------------------
# subcommands: each returns (exit code, output) and writes nothing; the
# output is a JSON object, a list of text lines, or one DOT string

#: each schema ``validate`` names: its reader, and a summary of the value read
_SCHEMAS = {
    "algebra": (algebra_from_json, lambda v: f"{v.atom_count} atoms"),
    "diagram": (diagram_from_json, lambda v: (
        f"{len(v.fragment)} fragment elements over {v.algebra.atom_count} atoms")),
    "relation": (relation_from_json, lambda v: f"square relation on {len(v.source)} points"),
    "fuzzy-set": (fuzzy_set_from_json, lambda v: f"{len(v.domain)} points"),
    "fuzzy-diagram": (fuzzy_diagram_from_json, lambda v: (
        f"{len(v.fragment)} fragment elements over a {len(v.lattice.carrier)}-element carrier")),
}


def cmd_validate(args):
    obj = _load(args.file)
    kind, value = args.kind, None
    if kind == "auto":
        if not isinstance(obj, dict):
            raise InputFormatError("cannot detect a documented schema in the input", path=None)
        if obj.keys() & {"fragment", "lattice"}:
            value = any_diagram_from_json(obj)
            kind = "diagram" if isinstance(value, Diagram) else "fuzzy-diagram"
        elif "set" in obj or "carrier" in obj:
            kind = "relation"
        else:
            kind = "algebra" if "atoms" in obj else "fuzzy-set"
    if value is None:  # an explicit kind, or one detected without reading
        value = _SCHEMAS[kind][0](obj)
    return OK_EXIT, [f"OK: {kind} ({_SCHEMAS[kind][1](value)})"]


def _classify_output(d, fmt: str):
    if fmt == "json":
        return kind_table_to_json(d.labels, d.kind_table)
    if fmt == "dot":
        from .dot import diagram_to_dot

        return diagram_to_dot(d)
    return _table_lines(d.labels, d.kind_table)


def cmd_classify(args):
    return OK_EXIT, _classify_output(any_diagram_from_json(_load(args.file)), args.format)


def cmd_canonical_square(args):
    square = canonical_square()
    if args.format == "json":
        relations = kind_table_to_json(square.labels, square.kind_table)["kinds"]
        return OK_EXIT, dict(diagram_to_json(square), relations=relations)
    return OK_EXIT, _classify_output(square, args.format)


def cmd_iso(args):
    d1 = any_diagram_from_json(_load(args.file1))
    d2 = any_diagram_from_json(_load(args.file2))
    if args.map is not None:
        m = _parse_map(args.map, d1, d2)
        if not m.is_bijection:
            raise InputFormatError("--map is not a bijection", path=None)
        return _verdict("isomorphism", check_iso(m), args.format)
    count = count_isos(d1, d2)
    isos = list(islice(iter_isos(d1, d2), ISO_LISTING_CAP))
    code = OK_EXIT if count else PROPERTY_FAILED
    if args.format == "json":
        payload = {"count": count, "isomorphisms": [list(m.mapping) for m in isos]}
        if count > len(isos):
            payload["listed"] = len(isos)
        return code, payload
    lines = [f"isomorphisms found: {count}"]
    for m in isos:
        lines.append("  " + ", ".join(
            f"{d1.labels[i]} -> {d2.labels[j]}" for i, j in enumerate(m.mapping)
        ))
    if count > len(isos):
        lines.append(f"listed {len(isos)} of {count}")
    return code, lines


def cmd_info(args):
    d1 = any_diagram_from_json(_load(args.file1))
    d2 = any_diagram_from_json(_load(args.file2))
    return _verdict("infomorphism", check_infomorphism(_parse_map(args.map, d1, d2)), args.format)


def cmd_ifrel_check(args):
    from .ifrel import is_partial_order, is_perfectly_antisymmetric, is_reflexive, is_transitive

    relation = relation_from_json(_load(args.file))
    flags = {
        "reflexive": is_reflexive(relation),
        "perfectly_antisymmetric": is_perfectly_antisymmetric(relation),
        "transitive": is_transitive(relation),
        "partial_order": is_partial_order(relation),
    }
    return (OK_EXIT if flags["partial_order"] else PROPERTY_FAILED), _flags(flags, args.format)


def cmd_lattice_check(args):
    from .iflattice import certify

    relation = relation_from_json(_load(args.file))
    cert = certify(relation)
    code = OK_EXIT if cert.if_boolean_algebra else PROPERTY_FAILED
    return code, _flags(certification_to_json(cert), args.format)


def cmd_contradiction(args):
    first = fuzzy_set_from_json(_load(args.file_a))
    second = fuzzy_set_from_json(_load(args.file_b)) if args.file_b else first
    ops = OperatorChoice(args.negation, args.implication)
    result = contradiction_degree(first, second, ops)
    if args.format == "json":
        return OK_EXIT, {
            "implication": args.implication,
            "negation": args.negation,
            "pointwise": {x: str(v) for x, v in result.pointwise.items()},
            "scalar": str(result.scalar),
        }
    return OK_EXIT, [
        f"operators: implication={args.implication}, negation={args.negation}",
        "pointwise:",
        *(f"  {x}: {v}" for x, v in result.pointwise.items()),
        f"scalar (min): {result.scalar}",
    ]


def cmd_fuzzy_classify(args):
    from .fuzzydiagram import FuzzyAristotelianDiagram, fuzzy_bi_implication, fuzzy_relation_table

    # a malformed flag is named before the file is read, as a malformed field is
    # before any property failure; a well-formed one overrides the file's tolerance
    tolerance = None if args.tolerance is None else _checked("--tolerance", degree, args.tolerance)
    d = fuzzy_diagram_from_json(_load(args.file))
    if tolerance is not None:
        d = FuzzyAristotelianDiagram(d.lattice, d.fragment, d.labels, tolerance)
    table = fuzzy_relation_table(d)
    bi_pairs = [
        (d.fragment[i], d.fragment[j])
        for i in range(len(d.fragment))
        for j in range(i + 1, len(d.fragment))
        if fuzzy_bi_implication(d, d.fragment[i], d.fragment[j])
    ]
    if args.format == "json":
        return OK_EXIT, {
            "tolerance": str(d.tolerance),
            **kind_table_to_json(d.labels, d.kind_table),
            "annotations": [[ifpair_to_json(cell.annotation) for cell in row] for row in table],
            "bi_implication_within_tolerance": [list(p) for p in bi_pairs],
        }
    rendered = [
        [f"{cell.kind.value}({cell.annotation.mu},{cell.annotation.nu})" for cell in row]
        for row in table
    ]
    lines = [f"tolerance: {d.tolerance}", *_table_lines(d.labels, rendered)]
    lines.append("fuzzy bi-implication within tolerance:" + ("" if bi_pairs else " none"))
    lines += (f"  {x} ~ {y}" for x, y in bi_pairs)
    return OK_EXIT, lines


def cmd_category_check(args):
    if args.triples > MAX_TRIPLES:
        raise ValueError(
            f"more than {MAX_TRIPLES} triples refused: the law checks are super-linear"
        )
    import random

    from .fuzzydiagram import verify_category_laws
    from .sampling import composable_infomorphism_triples

    rng = random.Random(args.seed)
    triples = composable_infomorphism_triples(rng, args.triples)
    maps = [m for triple in triples for m in triple]
    report = verify_category_laws(maps)
    code = OK_EXIT if report.all_pass else PROPERTY_FAILED
    if args.format == "json":
        return code, {
            "seed": args.seed,
            "triples": args.triples,
            "laws": [{"law": r.law, "holds": r.holds, "checked": r.checked} for r in report.laws],
            "excluded_maps": list(report.excluded),
            "all_pass": report.all_pass,
        }
    ok, fail = _marks()
    lines = [f"seed: {args.seed}, composable triples: {args.triples}"]
    lines += (f"{r.law:<24} {ok if r.holds else fail}  ({r.checked} checks)" for r in report.laws)
    if report.excluded:
        lines.append(f"maps excluded (not infomorphisms): {list(report.excluded)}")
    return code, lines


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
    p.add_argument("--kind", choices=("auto", *_SCHEMAS), default="auto")
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
    p.set_defaults(fn=cmd_classify, format="dot")

    return parser


def _render(output) -> str:
    """The text of a command's output: JSON, one line per row, or DOT as is."""
    if isinstance(output, dict):
        return json.dumps(output, indent=2) + "\n"
    if isinstance(output, str):
        return output
    return "".join(line + "\n" for line in output)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, output = args.fn(args)
        sys.stdout.write(_render(output))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early: keep the verdict, and send what is still
        # buffered to nowhere so that the exit-time flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except ValueError as exc:
        # the type alone decides: malformed input (InputFormatError) exits
        # 2; any other refusal of well-formed input (not an order, over a
        # size limit, mismatched domains, a stdout that cannot encode the
        # output) exits 1
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT if isinstance(exc, InputFormatError) else PROPERTY_FAILED
    return code

if __name__ == "__main__":
    raise SystemExit(main())
