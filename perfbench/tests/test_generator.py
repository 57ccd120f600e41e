"""One seed gives byte-identical inputs twice; two seeds give different inputs."""

import json

import pytest

import gen


def _text(inputs) -> bytes:
    return json.dumps(inputs, default=repr, sort_keys=True).encode()


GENERATORS = {
    "fuzzy-category": lambda seed: gen.fuzzy_category_inputs(seed, 50),
    "lattice-certify": gen.lattice_certify_inputs,
    "crisp-diagrams": gen.crisp_diagram_inputs,
    "cli-suite": gen.cli_fixtures,
}


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_same_seed_same_bytes(workload):
    make = GENERATORS[workload]
    assert _text(make(7)) == _text(make(7))


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_other_seed_other_bytes(workload):
    make = GENERATORS[workload]
    assert _text(make(7)) != _text(make(8))


def test_cli_fixture_files_are_bytes_and_stable():
    files_a, _ = gen.cli_fixtures(3)
    files_b, _ = gen.cli_fixtures(3)
    assert files_a == files_b
    assert all(isinstance(v, bytes) for v in files_a.values())
