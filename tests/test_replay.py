"""Byte-identity replay of the benchmark's CLI operations.

Runs the 36 ``cli-suite`` operations of ``perfbench/gen.py`` on seeds 1-3,
and ``category-check --triples 100`` and ``--triples 250`` in text and
JSON, in-process through ``cli.main``, and compares one SHA-256 per run of
(exit code, stdout, stderr) with ``tests/golden/replay.json``.  A change
that alters any of these 112 outputs by design reruns

    PYTHONPATH=src python tests/golden/update_replay.py

and names each changed run.  The digests were made under Python 3.11.  Every
stderr text is the library's own except two: ``validate-garbage`` quotes the
standard ``json`` decoder and ``dir-input`` the operating system.  Should a
Python version word one of them differently, pin that run's exit code and
stdout instead.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from squareop import cli

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).parent / "golden" / "replay.json"
SEEDS = (1, 2, 3)
CATEGORY_RUNS = {
    f"category-check-{n}{suffix}": ["category-check", "--triples", str(n), *fmt]
    for n in (100, 250)
    for suffix, fmt in (("", []), ("-json", ["--format", "json"]))
}


def _gen():
    # the benchmark's generator imports nothing of squareop
    spec = importlib.util.spec_from_file_location("_perfbench_gen", ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def digest(result: tuple[int, str, str]) -> str:
    return hashlib.sha256(json.dumps(result).encode()).hexdigest()


def runs(directory: Path):
    """Yield (key, argv, exit code, stdout, stderr) for every replayed run,
    with the fixture files written to ``directory``, the working directory."""
    gen = _gen()
    for seed in SEEDS:
        files, ops = gen.cli_fixtures(seed)
        for name, payload in files.items():
            (directory / name).write_bytes(payload)
        for name, argv, _ in ops:
            yield (f"{seed}/{name}", argv, *run(argv))
    for name, argv in CATEGORY_RUNS.items():
        yield (name, argv, *run(argv))


@pytest.fixture
def replay_dir(tmp_path, monkeypatch):
    monkeypatch.delenv("SQUAREOP_ASCII", raising=False)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_outputs_match_the_digests(replay_dir):
    expected = json.loads(DIGESTS.read_text())
    seen = []
    for key, argv, code, out, err in runs(replay_dir):
        seen.append(key)
        assert key in expected, f"{key} has no digest; rerun tests/golden/update_replay.py"
        assert digest((code, out, err)) == expected[key], (
            f"{key} (seed, op) changed its output: argv {argv}, exit {code}\n"
            f"stdout starts {out[:300]!r}\nstderr starts {err[:300]!r}"
        )
    assert sorted(seen) == sorted(expected) and len(seen) == 36 * len(SEEDS) + 4


def _update_script():
    spec = importlib.util.spec_from_file_location(
        "_update_replay", Path(__file__).parent / "golden" / "update_replay.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_mode_names_changed_runs_and_writes_nothing(tmp_path, monkeypatch, capsys):
    script = _update_script()
    results = {"1/same": (0, "ok\n", ""), "1/changed": (1, "✗\n", ""), "2/new": (2, "", "e\n")}
    monkeypatch.setattr(script, "runs", lambda directory: (
        (key, [], *result) for key, result in results.items()))
    digests = tmp_path / "replay.json"
    monkeypatch.setattr(script, "DIGESTS", digests)
    text = json.dumps({"1/same": digest(results["1/same"]),
                       "1/changed": digest((1, "✓\n", "")), "3/gone": "0" * 64})
    digests.write_text(text)
    assert script.main(["--check"]) == 1
    assert capsys.readouterr().out.split("\n") == [
        "changed: 1/changed", "changed: 2/new", "changed: 3/gone", ""]
    assert digests.read_text() == text
    del results["1/changed"], results["2/new"]
    digests.write_text(json.dumps({"1/same": digest(results["1/same"])}))
    assert script.main(["--check"]) == 0
    assert capsys.readouterr().out == "1 digests unchanged\n"
