"""Golden verifier/hazard reports for the Table I suite across all designs.

The JSON under ``tests/analysis/data/`` pins what the verifier derives from
every distinct Table I program: static counters, hazard structure, and the
per-design weight-load/bypass projection.  A codegen or verifier change that
shifts any of these shows up as a golden diff, not as silently different
paper numbers.
"""

import json
import pathlib

import pytest

from repro.analysis.verifier import lint_shape
from repro.engine.designs import DESIGNS, get_design
from repro.workloads.suites import get_suite

GOLDEN = pathlib.Path(__file__).parent / "data" / "table1_verifier.json"


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


def test_counters_and_hazards_match_golden(golden, distinct):
    for entry, pinned in zip(distinct, golden["programs"]):
        report = lint_shape(entry.shape)
        assert report.ok, (entry.shape, report.diagnostics)
        c, h = report.counters, report.hazards
        assert {
            "instructions": c.instructions,
            "mm_count": c.mm_count,
            "tile_loads": c.tile_loads,
            "tile_stores": c.tile_stores,
            "scalars": c.scalars,
            "weight_reuses": c.weight_reuses,
        } == pinned["counters"], entry.shape
        assert {
            "raw": h.raw,
            "war": h.war,
            "waw": h.waw,
            "longest_raw_chain": h.longest_raw_chain,
            "max_live": h.max_live,
            "pressure": list(h.pressure),
        } == pinned["hazards"], entry.shape


def test_per_design_projection_matches_golden(golden, distinct):
    for entry, pinned in zip(distinct, golden["programs"]):
        counters = lint_shape(entry.shape).counters
        for key, expected in pinned["designs"].items():
            policy = counters.for_policy(
                get_design(key).config.control.bypasses_on_reuse
            )
            assert policy.weight_loads == expected["weight_loads"], (entry.shape, key)
            assert policy.bypass_count == expected["bypass_count"], (entry.shape, key)
