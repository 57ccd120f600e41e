"""Each kind of wrong output is caught and counted in failed_frac."""

import dataclasses

import pytest

import run
from workloads import CliSuite, CrispDiagrams, LatticeCertify


def _failed_frac(ops):
    tally = run.closed_loop(ops, 0, min_ops=len(ops))
    return len(tally.failures), len(tally.times), tally


def _first(ops, kind):
    return next(op for op in ops if op.kind == kind)


@pytest.fixture(scope="module")
def lattice_ops():
    return LatticeCertify().build(1)


@pytest.fixture(scope="module")
def crisp_ops():
    return CrispDiagrams().build(1)


@pytest.fixture
def cli_ops():
    workload = CliSuite()
    try:
        yield workload.build(1)
    finally:
        workload.close()


def test_correct_outputs_pass(lattice_ops, crisp_ops):
    ops = [_first(lattice_ops, "certify"), _first(crisp_ops, "iso-high")]
    assert _failed_frac(ops)[0] == 0


def test_each_fault_is_counted(lattice_ops, crisp_ops, cli_ops):
    certify = _first(lattice_ops, "certify")
    verdict = dict(certify.run())
    verdict["transitive"] = not verdict["transitive"]
    wrong_verdict = dataclasses.replace(certify, run=lambda: verdict)

    iso = _first(crisp_ops, "iso-high")
    d1, d2, found = iso.run()
    known = iso.check.args[-1][0]
    found = [m for m in found if m.mapping != known]
    missing_iso = dataclasses.replace(iso, run=lambda: (d1, d2, found))

    ok = next(op for op in cli_ops if op.name == "validate-diagram")
    wrong_code = dataclasses.replace(ok, run=lambda: (1, "OK\n", ""))
    traceback = dataclasses.replace(
        ok, run=lambda: (0, "OK\n", "Traceback (most recent call last):\nValueError: x\n"))

    good = [_first(lattice_ops, "contradiction"), _first(crisp_ops, "axioms")]
    failed, attempted, tally = _failed_frac(
        good + [wrong_verdict, missing_iso, wrong_code, traceback])
    assert (failed, attempted) == (4, 6)
    reasons = " | ".join(reason for _, reason in tally.failures)
    for needle in ("certify", "missing", "exit 1", "traceback"):
        assert needle in reasons


def test_unexpected_raise_is_a_failure(lattice_ops):
    def boom():
        raise RuntimeError("boom")

    op = dataclasses.replace(_first(lattice_ops, "certify"), run=boom)
    assert _failed_frac([op])[0] == 1


def test_changed_stdout_between_repeats_fails(cli_ops):
    op = next(op for op in cli_ops if op.name == "validate-diagram")
    outputs = iter([(0, "OK: one\n", ""), (0, "OK: two\n", "")])
    flaky = dataclasses.replace(op, run=lambda: next(outputs))
    assert _failed_frac([flaky, flaky])[0] == 1
