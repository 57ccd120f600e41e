"""Benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

One caller, one thread, one operation at a time (a closed loop).  Set-up
runs ``SETUPS`` times and reports the median.  With ``--trace 0`` the run
measures for ``--seconds`` and reports the end-to-end metrics; with
``--trace 1`` it alternates an untraced and a traced pass over the same
operations and reports the per-layer metrics.  Human-readable lines come
first; the last line of stdout is one JSON object.

``peak_rss_mb`` is the peak anonymous resident memory of the benchmark
process (see ``workloads.AnonPeak``); for ``cli-suite`` it is the peak
resident memory of its largest child.  The process and its children run
without transparent huge pages, so resident memory grows in 4 KiB pages
on every host.

``--workload all`` runs every workload both ways in child processes,
prints every metric with its unit and sample count, and exits 1 when a
workload's failure share exceeds the baseline in ``workloads.json`` or an
operation outside its known defects fails.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

from tracer import Tracer, layer_metrics
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
SETUPS = 5
MIN_OPS = 100  # p90 then has at least ten samples beyond it
SUBCOMMANDS = ("canonical-square", "validate", "classify", "iso", "info", "ifrel-check",
               "lattice-check", "contradiction", "fuzzy-classify", "category-check", "dot")


class Tally:
    """Per-operation wall times and failures of one loop."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.times: list[float] = []
        self.self_s: list[float] = []  # traced: summed layer self time per op
        self.groups: list[str] = []
        self.failures: list[tuple[str, str]] = []  # (op name, reason)

    def run(self, op) -> float:
        tr = self.tracer
        before = sum(tr.self_s.values()) if tr else 0.0
        t0 = perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # an unexpected raise is a failed operation
            dt = perf_counter() - t0
            reason = f"raised {type(exc).__name__}: {str(exc)[:200]}"
        else:
            dt = perf_counter() - t0
            if tr:
                tr.paused = True  # the check's own library calls are not the op's
            try:
                reason = op.check(out)
            finally:
                if tr:
                    tr.paused = False
        if tr:
            self.self_s.append(sum(tr.self_s.values()) - before)
        self.times.append(dt)
        self.groups.append(op.group)
        if reason is not None:
            self.failures.append((op.name, reason))
        return dt


def closed_loop(ops, seconds: float, whole_passes: bool = False, min_ops: int = MIN_OPS,
                after_op=None) -> Tally:
    """Run ops in order, cycling, until ``seconds`` passed and ``min_ops`` ran
    (and, with ``whole_passes``, a pass ended).  ``after_op`` runs untimed
    after each op."""
    tally = Tally()
    deadline = perf_counter() + seconds
    i = 0
    while (perf_counter() < deadline or i < min_ops or (whole_passes and i % len(ops))):
        tally.run(ops[i % len(ops)])
        if after_op is not None:
            after_op()
        i += 1
    return tally


def end_to_end(workload, ops, setups, seconds):
    tally = closed_loop(ops, seconds, workload.whole_passes, after_op=workload.memory.sample)
    t, n = tally.times, len(tally.times)
    metrics = {
        "setup_s": (median(setups), "s", len(setups)),
        "throughput_ops_s": (n / sum(t), "1/s", n),
        "op_p50_ms": (median(t) * 1e3, "ms", n),
        "op_p90_ms": (quantiles(t, n=10)[8] * 1e3, "ms", n),
        "ok_frac": ((n - len(tally.failures)) / n, "frac", n),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB", 1),
    }
    return metrics, [tally]


def traced(workload, ops, seconds, seed):
    """Alternate untraced and traced passes over the same ops while another
    pair still fits in ``seconds``.  Counts come from the first traced pass
    (they repeat exactly); times are medians over the traced passes."""
    ops = ops[:workload.trace_pass]
    extra = cli_startup(workload) if workload.name == "cli-suite" else {}
    tracer = Tracer()
    untraced_t, traced_t, passes, tallies = 0.0, 0.0, [], []
    deadline = perf_counter() + seconds
    last = 0.0  # duration of the latest pair of passes
    while not passes or perf_counter() + last <= deadline:
        started = perf_counter()
        plain = Tally()
        for op in ops:
            untraced_t += plain.run(op)
        tracer.reset()
        done = Tally(tracer)
        with workload.tracing(tracer):
            for op in ops:
                tracer.op += 1
                traced_t += done.run(op)
        passes.append(layer_metrics(tracer.counts, tracer.self_s, tracer.total_s))
        tallies += [plain, done]
        last = perf_counter() - started
    metrics = {}
    for name, (value, unit) in passes[0].items():
        if unit == "ms":
            value = median(p[name][0] for p in passes)
        metrics[name] = (value, unit, len(passes) if unit == "ms" else 1)
    plain_all = [x for t in tallies[::2] for x in zip(t.groups, t.times)]
    for sub in SUBCOMMANDS:
        times = [dt for g, dt in plain_all if g == sub]
        metrics[f"cli.{sub}.p50_ms"] = (median(times) * 1e3 if times else 0.0, "ms", len(times))
    metrics["cli.interpreter_ms"] = extra.get("interpreter_ms", (0.0, "ms", 0))
    metrics["cli.import_ms"] = extra.get("import_ms", (0.0, "ms", 0))
    metrics["trace.overhead_frac"] = (traced_t / untraced_t - 1, "frac", len(passes))
    write_spans(workload.name, seed, tracer.spans)
    return metrics, tallies


def cli_startup(workload, repeats: int = 7):
    """Median wall time of a bare interpreter, and what importing the CLI adds."""
    def timed(code):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=workload.env, check=True,
                       stdin=subprocess.DEVNULL, capture_output=True, timeout=60)
        return perf_counter() - t0

    bare = median(timed("pass") for _ in range(repeats))
    cli = median(timed("import squareop.cli") for _ in range(repeats))
    return {"interpreter_ms": (bare * 1e3, "ms", repeats),
            "import_ms": ((cli - bare) * 1e3, "ms", repeats)}


def write_spans(workload: str, seed: int, spans) -> None:
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    with open(out / f"spans-{workload}-{seed}.json", "w") as fh:
        json.dump({"fields": ["id", "name", "layer", "start", "end", "parent", "op", "self_s"],
                   "spans": spans}, fh)


def no_huge_pages() -> None:
    """PR_SET_THP_DISABLE for this process; children inherit it."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(41, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def load_record() -> dict:
    with open(BENCH / "workloads.json") as fh:
        return json.load(fh)


def run_one(args) -> int:
    known = set(load_record()[args.workload]["baseline"]["known_defects"])
    workload = WORKLOADS[args.workload]()
    try:
        setups = []
        for _ in range(SETUPS):
            t0 = perf_counter()
            ops = workload.setup(args.seed)
            setups.append(perf_counter() - t0)
        if args.trace:
            metrics, tallies = traced(workload, ops, args.seconds, args.seed)
        else:
            metrics, tallies = end_to_end(workload, ops, setups, args.seconds)
    finally:
        workload.close()
    attempted = sum(len(t.times) for t in tallies)
    failures = [f for t in tallies for f in t.failures]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {unit:<6} n={n}")
    print(f"  failed_frac = {len(failures)}/{attempted} = {len(failures) / attempted:.6g}")
    for name, reason in sorted(set(failures)):
        print(f"  FAILED {name}{' (known defect)' if name in known else ''}: {reason}")
    print(json.dumps({
        "correct": all(name in known for name, _ in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    record = load_record()
    worse = []
    for name in record:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                return 2
            result = json.loads(lines[-1])
            share = result["failed"] / result["attempted"]
            allowed = record[name]["baseline"]["failed_frac"]
            if share > allowed + 1e-9:
                worse.append(f"{name} (trace {trace}): failed_frac {share:.4g} > baseline {allowed:.4g}")
            if not result["correct"]:
                worse.append(f"{name} (trace {trace}): an operation outside the known defects failed")
    print("\n".join(worse) if worse else "every failure share is within its baseline")
    return 1 if worse else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (BENCH.parent / "src" / "squareop" / "__init__.py").is_file():
        print("error: no squareop sources under src/ next to perfbench/", file=sys.stderr)
        return 2
    no_huge_pages()
    if args.workload == "all":
        return run_all(args)
    if args.workload not in load_record():
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
