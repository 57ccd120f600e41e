"""Traced runs: counts repeat exactly, self times fit in each op's wall time,
and the library is left unpatched afterwards."""

import pytest

import run
from workloads import CrispDiagrams, FuzzyCategory, LatticeCertify

COUNT_UNITS = ("count", "per_doc", "ratio")


def _traced(make, ops_in_pass):
    workload = make()
    workload.trace_pass = ops_in_pass
    ops = workload.setup(2)
    metrics, tallies = run.traced(workload, ops, 0, seed=2)
    assert all(not t.failures for t in tallies)
    traced_pass = tallies[1]
    return workload, metrics, list(zip(traced_pass.times, traced_pass.self_s))


@pytest.mark.parametrize("make, ops_in_pass", [
    (FuzzyCategory, 2), (LatticeCertify, 12), (CrispDiagrams, 12)])
def test_counts_repeat_and_self_time_fits(make, ops_in_pass):
    _, first, per_op = _traced(make, ops_in_pass)
    _, second, _ = _traced(make, ops_in_pass)
    counts = {k: v for k, (v, unit, _) in first.items() if unit in COUNT_UNITS}
    assert counts == {k: v for k, (v, unit, _) in second.items() if unit in COUNT_UNITS}
    assert any(counts.values())
    assert len(per_op) == ops_in_pass
    for wall, self_s in per_op:
        assert 0 < self_s <= wall


def test_partial_order_checks_per_certified_document():
    _, metrics, _ = _traced(LatticeCertify, 40)
    assert metrics["iflattice.partial_order_checks"][0] == 2.0


def test_uninstall_restores_the_library():
    workload, _, _ = _traced(LatticeCertify, 3)
    import squareop.iflattice as iflattice
    import squareop.ifrel as ifrel

    assert iflattice.certify.__qualname__ == "certify"
    assert iflattice.is_partial_order is ifrel.is_partial_order
    assert ifrel.is_partial_order.__qualname__ == "is_partial_order"
    assert ifrel.IFRelation.__post_init__.__qualname__ == "IFRelation.__post_init__"
