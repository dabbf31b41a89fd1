"""Golden cycle-bound reports for the Table I suite across all designs.

``table1_bounds.json`` pins, for every distinct Table I program x design:
the dependence/resource lower bounds (every component), the bottleneck
attribution, and the fast model's achieved cycles.  Any change to codegen, the schedulers, or the bound math shows up
as a bit-exact golden diff instead of silently different paper numbers.
"""

import json
import pathlib

import pytest

from repro.analysis.bounds import bound_program, cross_check_bounds
from repro.engine.designs import DESIGNS
from repro.workloads.codegen import CodegenOptions, build_gemm_kernel
from repro.workloads.suites import get_suite

GOLDEN = pathlib.Path(__file__).parent / "data" / "table1_bounds.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def distinct(golden):
    return get_suite("table1", scale=golden["scale"]).distinct()


def test_golden_covers_every_distinct_program(golden, distinct):
    assert [tuple(p["dims"]) for p in golden["programs"]] == [
        entry.shape.dims for entry in distinct
    ]
    assert all(set(p["designs"]) == set(DESIGNS) for p in golden["programs"])


def test_static_bounds_match_golden_bit_exactly(golden, distinct):
    for entry, pinned in zip(distinct, golden["programs"]):
        program = build_gemm_kernel(entry.shape, CodegenOptions()).program
        for key, expected in pinned["designs"].items():
            report = bound_program(program, key)
            assert report.lower_bound == expected["lower_bound"], (entry.shape, key)
            assert report.binding == expected["binding"], (entry.shape, key)
            assert {
                b.resource: b.cycles for b in report.components
            } == expected["components"], (entry.shape, key)


def test_golden_programs_pass_the_cycle_oracle(golden, distinct):
    for entry, pinned in zip(distinct, golden["programs"]):
        for check in cross_check_bounds(entry.shape):
            assert check.ok, (entry.shape, check.violations)
            expected = pinned["designs"][check.design_key]
            assert check.fast_cycles == expected["fast_cycles"], \
                (entry.shape, check.design_key)
