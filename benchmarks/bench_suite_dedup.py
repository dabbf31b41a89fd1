"""Suite dedup: distinct-shape execution vs brute-force per-layer sweeps.

BERT-base is the stress case: 72 encoder GEMMs but only 3 distinct
(m, n, k) points — 48 identical q/k/v/attn-out projections alone.  This
bench measures the dedup-aware plan path (a suite
:class:`repro.runtime.SweepPlan` through :class:`repro.runtime.Session`)
against a brute-force per-layer sweep over the same multiset, and asserts
the weighted end-to-end totals are bit-identical, so the 24x simulation
saving is pure profit.
"""

from __future__ import annotations

from repro.runtime import Session, SweepPlan, resolve_backend
from repro.utils.tables import format_table
from repro.workloads.codegen import generate_gemm_program
from repro.workloads.suites import get_suite

DESIGN_KEYS = ("baseline", "rasa-dmdb-wls")


def test_suite_dedup(benchmark, emit, settings):
    session = Session(workers=1)  # cache-free: honest simulation counts
    suite = get_suite("bert-base", scale=settings.scale * 2)
    distinct = suite.distinct()
    plan = SweepPlan(
        designs=DESIGN_KEYS,
        suites=("bert-base",),  # builds the same multiset as ``suite``
        scale=settings.scale * 2,
        core=settings.core,
        codegen=settings.codegen,
    )

    def run_deduped():
        return session.run(plan).suite_totals()["bert-base"]

    totals = run_deduped()

    # Brute force, as an *independent* oracle: every layer lowers and
    # simulates directly, bypassing both the dedup layer and the program
    # memo, so a key conflation in either could not corrupt both sides.
    rows = []
    for key in DESIGN_KEYS:
        backend = resolve_backend(key, core=settings.core)
        brute_cycles = sum(
            backend.simulate(generate_gemm_program(shape, settings.codegen)).cycles
            for _, shape in suite.gemms
        )
        assert totals[key].cycles == brute_cycles, key  # bit-identical totals
        rows.append(
            (
                key,
                totals[key].gemm_count,
                totals[key].simulations,
                f"{totals[key].dedup_factor:.0f}x",
                totals[key].cycles,
            )
        )
    assert all(t.simulations == len(distinct) for t in totals.values())

    benchmark(run_deduped)
    emit(
        "Suite dedup — BERT-base: distinct-shape execution vs per-layer",
        format_table(
            ["design", "GEMMs", "simulated", "dedup", "end-to-end cycles"], rows
        ),
    )
