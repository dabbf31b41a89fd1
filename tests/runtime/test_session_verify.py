"""Session(verify=True): opt-in static lint of every distinct lowered program."""

from __future__ import annotations

import pytest

from repro.analysis import verifier
from repro.errors import VerificationError
from repro.runtime import Session, SweepPlan
from repro.workloads.gemm import GemmShape

SMALL = GemmShape(64, 64, 64, name="small")
SUBTILE = GemmShape(60, 64, 64, name="subtile")  # pads onto SMALL's program
TALL = GemmShape(128, 32, 64, name="tall")


def plan(**overrides) -> SweepPlan:
    kwargs = dict(
        designs=("baseline", "rasa-dmdb-wls"),
        workloads=(("small", SMALL), ("subtile", SUBTILE), ("tall", TALL)),
        fidelity="analytic",
    )
    kwargs.update(overrides)
    return SweepPlan(**kwargs)


def test_verified_run_equals_unverified_run():
    assert Session(workers=1, verify=True).run(plan()).results == \
        Session(workers=1).run(plan()).results


def test_lints_once_per_distinct_program(monkeypatch):
    calls = []
    real = verifier.lint_shape

    def counting(shape, codegen):
        calls.append(shape.tile_padded().dims)
        return real(shape, codegen)

    monkeypatch.setattr(verifier, "lint_shape", counting)
    session = Session(workers=1, verify=True)
    session.run(plan())
    # SMALL and SUBTILE share one padded program; designs never multiply lints.
    assert sorted(calls) == sorted([SMALL.dims, TALL.dims])
    session.run(plan())
    assert len(calls) == 2  # memoized across runs of the same session


def test_verify_off_never_lints(monkeypatch):
    def boom(shape, codegen):  # pragma: no cover - fails the test if reached
        raise AssertionError("lint_shape called with verify=False")

    monkeypatch.setattr(verifier, "lint_shape", boom)
    Session(workers=1).run(plan())


def test_diagnostics_fail_the_run(monkeypatch):
    bad = verifier.Diagnostic("oob-access", 3, "rasa_tl", ("treg0",), "seeded")
    real = verifier.lint_shape

    def tainted(shape, codegen):
        report = real(shape, codegen)
        return verifier.VerifierReport(
            name=report.name,
            diagnostics=(bad,),
            counters=report.counters,
            hazards=report.hazards,
        )

    monkeypatch.setattr(verifier, "lint_shape", tainted)
    with pytest.raises(VerificationError, match="oob-access"):
        Session(workers=1, verify=True).run(plan())

