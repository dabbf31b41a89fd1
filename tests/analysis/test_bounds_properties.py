"""Property tests for the static cycle bounds.

The lower bound and the fast model's achieved cycles are both monotone
non-decreasing in every GEMM dimension: growing ``m``, ``n``, or ``k`` can
only add work (more tiles, more weight loads, more drains), never remove
it.  Equality is allowed — dims inside the same tile pad onto the
identical program.  This is the contract that makes the lower bound safe
for Pareto-frontier pruning: a design rejected on a small shape's LB can
never win on a larger one.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.analysis.bounds import bound_shape
from repro.engine.designs import DESIGNS
from repro.runtime import SweepJob, run_job
from repro.workloads.gemm import GemmShape

# Small dims keep the static walks fast; tile edges (16/32) sit inside the
# range so padding boundaries get exercised.
dims = st.integers(min_value=1, max_value=80)
deltas = st.integers(min_value=1, max_value=40)
designs = st.sampled_from(sorted(DESIGNS))
axes = st.sampled_from(["m", "n", "k"])


def _bounds(m: int, n: int, k: int, design: str):
    """(static lower bound, achieved ``fast`` cycles) for one GEMM."""
    shape = GemmShape(m, n, k)
    report = bound_shape(shape, design_key=design)
    return report.lower_bound, run_job(SweepJob(design, shape)).cycles


@settings(max_examples=60, deadline=None)
@given(m=dims, n=dims, k=dims, delta=deltas, axis=axes, design=designs)
def test_bounds_are_monotone_in_every_dim(m, n, k, delta, axis, design):
    grown = {"m": m, "n": n, "k": k}
    grown[axis] += delta
    lb, cycles = _bounds(m, n, k, design)
    lb_grown, cycles_grown = _bounds(grown["m"], grown["n"], grown["k"], design)
    assert lb_grown >= lb, (m, n, k, axis, delta, design)
    assert cycles_grown >= cycles, (m, n, k, axis, delta, design)


@settings(max_examples=60, deadline=None)
@given(m=dims, n=dims, k=dims, design=designs)
def test_bounds_sandwich_is_internally_consistent(m, n, k, design):
    lb, cycles = _bounds(m, n, k, design)
    assert 0 < lb <= cycles, (m, n, k, design)
