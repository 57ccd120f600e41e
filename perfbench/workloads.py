"""The four workloads: set-up (inputs, import, warm-up) and their operations.

Each workload's ``setup(seed)`` generates its inputs as text, imports the
library from the checkout's ``src`` and warms up, then returns one pass of
operations.  An operation's ``run`` is the timed call into the library;
its ``check`` compares the output with the generator's expected answer.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import checks
import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
LIBRARY = ("algebra", "degrees", "diagram", "fuzzydiagram", "ifrel", "iflattice",
           "jsonio", "sampling")


@dataclass
class Op:
    kind: str  # warm-up runs one op of each kind
    name: str  # known defects are listed by name
    run: Callable[[], object]
    check: Callable[[object], str | None]
    group: str = ""
    size: int = 0


def import_library() -> SimpleNamespace:
    """Import ``squareop`` afresh from the checkout, so each set-up pays it."""
    for name in [n for n in sys.modules if n == "squareop" or n.startswith("squareop.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = SimpleNamespace(**{m: importlib.import_module(f"squareop.{m}") for m in LIBRARY})
    if Path(lib.ifrel.__file__).resolve().parent != SRC / "squareop":
        raise RuntimeError(f"squareop imported from {lib.ifrel.__file__}, not from {SRC}")
    return lib


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


class AnonPeak:
    """Peak anonymous resident memory of this process, sampled on demand.

    File-backed pages (the interpreter, shared libraries) are left out: how
    many of them a process maps depends on what the host's page cache holds,
    so the total can differ by megabytes between runs of the same inputs.
    Samples are taken after each set-up and after each operation, outside
    the timed call."""

    PAGE = os.sysconf("SC_PAGE_SIZE")

    def __init__(self) -> None:
        self.fd = os.open("/proc/self/statm", os.O_RDONLY)
        self.peak = 0

    def sample(self) -> None:
        _, resident, shared = os.pread(self.fd, 256, 0).split()[:3]
        self.peak = max(self.peak, int(resident) - int(shared))

    def mb(self) -> float:
        return self.peak * self.PAGE / 2**20

    def close(self) -> None:
        os.close(self.fd)


class Workload:
    name = ""
    whole_passes = False  # stop only at the end of a pass
    trace_pass: int | None = None  # ops in one traced pass; None is the whole pass
    memory: AnonPeak | None = None

    def setup(self, seed: int) -> list[Op]:
        if self.memory is None:
            self.memory = AnonPeak()
        ops = self.build(seed)
        for op in self.warmup(ops):
            op.check(op.run())
        self.memory.sample()
        return ops

    def warmup(self, ops: list[Op]) -> list[Op]:
        """The smallest op of each kind: fills caches at a cost that does
        not depend on the seed."""
        smallest: dict[str, Op] = {}
        for op in ops:
            if op.kind not in smallest or op.size < smallest[op.kind].size:
                smallest[op.kind] = op
        return list(smallest.values())

    def build(self, seed: int) -> list[Op]:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return self.memory.mb()

    @contextmanager
    def tracing(self, tracer):
        tracer.install()
        try:
            yield
        finally:
            tracer.uninstall()

    def close(self) -> None:
        if self.memory is not None:
            self.memory.close()
            self.memory = None


# ---------------------------------------------------------------------------

class FuzzyCategory(Workload):
    """``category-check`` without the CLI: sample composable fuzzy
    infomorphism triples from one seed, then check the category laws."""

    name = "fuzzy-category"
    trace_pass = 48
    # One chain per op: near 30 ms, so a run holds ~800 ops.  The seed-to-seed
    # spread of p50 and throughput shrinks with the number of distinct
    # sampler seeds a run draws; with 6 chains per op it exceeded 0.2.
    TRIPLES = 1
    OPS = 4000

    def build(self, seed):
        self.lib = import_library()
        return [Op("category", f"category-{s}", partial(self._op, s), checks.category)
                for s in gen.fuzzy_category_inputs(seed, self.OPS)]

    def warmup(self, ops):
        # a fixed sampler seed: the warm-up cost does not depend on the seed
        return [Op("category", "warm-up", partial(self._op, 0), checks.category)]

    def _op(self, sampler_seed):
        lib = self.lib
        triples = lib.sampling.composable_infomorphism_triples(
            random.Random(sampler_seed), self.TRIPLES)
        return lib.fuzzydiagram.verify_category_laws([m for t in triples for m in t])


class LatticeCertify(Workload):
    """One JSON document from text to verdict through ``jsonio``."""

    name = "lattice-certify"

    def build(self, seed):
        lib = import_library()
        ops = []
        for kind, size, large, text, expected in gen.lattice_certify_inputs(seed):
            run = partial(getattr(self, "_" + kind.replace("-", "_")), lib, text)
            label = f"{kind}-{size}-{'large' if large else 'small'}"
            ops.append(Op(kind, label, run, partial(checks.equal, expected, what=kind), size=size))
        return ops

    @staticmethod
    def _certify(lib, text):
        relation = lib.jsonio.relation_from_json(json.loads(text))
        return lib.jsonio.certification_to_json(lib.iflattice.certify(relation))

    @staticmethod
    def _fuzzy_diagram(lib, text):
        d = lib.jsonio.fuzzy_diagram_from_json(json.loads(text))
        table = lib.fuzzydiagram.fuzzy_relation_table(d)
        bi = tuple(lib.fuzzydiagram.fuzzy_bi_implication(d, x, y)
                   for x in d.fragment for y in d.fragment)
        cells = tuple(tuple((c.kind.value, c.annotation.mu, c.annotation.nu) for c in row)
                      for row in table)
        return cells, bi

    @staticmethod
    def _contradiction(lib, texts):
        a, b = (lib.jsonio.fuzzy_set_from_json(json.loads(t)) for t in texts)
        out = {}
        for name in gen.IMPLICATIONS:
            result = lib.degrees.contradiction_degree(
                a, b, lib.degrees.OperatorChoice("standard", name))
            out[name] = (result.scalar, tuple(result.pointwise.values()))
        return out


class CrispDiagrams(Workload):
    """Crisp classification, isomorphism search, infomorphisms and axioms."""

    name = "crisp-diagrams"

    def build(self, seed):
        lib = import_library()
        ops = []
        for kind, size, payload, expected in gen.crisp_diagram_inputs(seed):
            if kind == "relation-table":
                run, check = partial(self._table, lib, payload), partial(
                    checks.equal, expected, what="relation table")
            elif kind.startswith("iso"):
                run, check = partial(self._isos, lib, *payload), partial(
                    self._check_isos, lib, expected)
            elif kind == "infomorphism":
                run, check = partial(self._infomorphism, lib, *payload), partial(
                    checks.equal, expected, what="infomorphism")
            else:
                run, check = partial(self._axioms, lib, payload), partial(checks.axioms, expected)
            ops.append(Op(kind, f"{kind}-{size}", run, check, size=size))
        return ops

    @staticmethod
    def _parse(lib, text):
        return lib.jsonio.diagram_from_json(json.loads(text))

    def _table(self, lib, text):
        table = lib.diagram.relation_table(self._parse(lib, text))
        return tuple(tuple(k.value for k in row) for row in table)

    def _isos(self, lib, text1, text2):
        d1, d2 = self._parse(lib, text1), self._parse(lib, text2)
        return d1, d2, lib.diagram.find_isos(d1, d2)

    @staticmethod
    def _check_isos(lib, expected, output):
        d1, d2, found = output
        reason = checks.isos(expected, [m.mapping for m in found])
        if reason is None and not lib.diagram.check_iso(lib.diagram.DiagramMap(d1, d2, expected[0])):
            reason = "check_iso rejects the known isomorphism"
        return reason

    def _infomorphism(self, lib, text1, text2, mapping):
        m = lib.diagram.DiagramMap(self._parse(lib, text1), self._parse(lib, text2), mapping)
        return lib.diagram.check_infomorphism(m)

    @staticmethod
    def _axioms(lib, text):
        return lib.algebra.verify_axioms(lib.jsonio.algebra_from_json(json.loads(text)))


class CliSuite(Workload):
    """One ``squareop`` subprocess per operation, over seeded fixture files."""

    name = "cli-suite"
    whole_passes = True  # so the known-defect share is exact

    def __init__(self) -> None:
        self.dir: str | None = None
        self.tracer = None
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8")
        self.env.pop("SQUAREOP_ASCII", None)

    def warmup(self, ops):
        return [op for op in ops if op.name == "canonical-square"]

    def build(self, seed):
        self.remove_dir()
        OUT.mkdir(exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="cli-", dir=OUT)
        files, specs = gen.cli_fixtures(seed)
        for name, payload in files.items():
            Path(self.dir, name).write_bytes(payload)
        readme = readme_square()
        ops = []
        for name, argv, code in specs:
            reference = readme if argv == ["canonical-square"] else None
            check = partial(self._check, name, code, reference, {})
            ops.append(Op("cli", name, partial(self.call, argv), check, group=argv[0]))
        return ops

    def command(self, argv, trace_file=None):
        if trace_file is None:
            return [sys.executable, "-m", "squareop.cli", *argv]
        return [sys.executable, str(BENCH / "tracewrap.py"), trace_file, *argv]

    def call(self, argv):
        trace_file = None
        if self.tracer is not None:
            trace_file = os.path.join(self.dir, "trace.json")
        proc = subprocess.run(self.command(argv, trace_file), cwd=self.dir, env=self.env,
                              stdin=subprocess.DEVNULL, capture_output=True, timeout=120)
        if trace_file is not None:
            with open(trace_file) as fh:
                self.tracer.merge(json.load(fh))
            os.remove(trace_file)
        return proc.returncode, proc.stdout.decode("utf-8", "replace"), \
            proc.stderr.decode("utf-8", "replace")

    @staticmethod
    def _check(name, code, reference, seen, output):
        got_code, stdout, stderr = output
        reason = checks.cli(code, got_code, stdout, stderr, seen.get(name), reference)
        seen.setdefault(name, stdout)
        return reason

    def peak_rss_mb(self):
        return _rss_mb(resource.RUSAGE_CHILDREN)

    @contextmanager
    def tracing(self, tracer):
        self.tracer = tracer
        try:
            yield
        finally:
            self.tracer = None

    def remove_dir(self):
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None

    def close(self):
        super().close()
        self.remove_dir()


def readme_square() -> str:
    """The canonical-square table as the README documents it."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("$ squareop canonical-square") + 1
    end = lines.index("", start)
    return "\n".join(lines[start:end])


WORKLOADS = {w.name: w for w in (FuzzyCategory, LatticeCertify, CrispDiagrams, CliSuite)}
