"""Backend protocol + registry resolution tests."""

from __future__ import annotations

import pytest

from repro.cpu.config import CoreConfig
from repro.cpu.fast import FastCoreModel
from repro.engine.designs import get_design
from repro.errors import ConfigError, SimError
from repro.runtime import (
    AnalyticBackend,
    EngineBackend,
    FastCoreBackend,
    OoOCoreBackend,
    ShapeBackend,
    SimBackend,
    resolve_backend,
)
from repro.runtime.registry import FIDELITIES
from repro.workloads.codegen import generate_gemm_program
from repro.workloads.gemm import GemmShape

SHAPE = GemmShape(m=64, n=64, k=64, name="backend-test")


@pytest.fixture(scope="module")
def program():
    return generate_gemm_program(SHAPE)


class TestRegistry:
    def test_default_resolution_is_fast(self):
        backend = resolve_backend("rasa-dmdb-wls")
        assert isinstance(backend, FastCoreBackend)
        assert backend.fidelity == "fast"

    def test_every_fidelity_resolves(self):
        assert isinstance(resolve_backend("baseline", fidelity="fast"), FastCoreBackend)
        assert isinstance(resolve_backend("baseline", fidelity="ooo"), OoOCoreBackend)
        assert isinstance(resolve_backend("baseline", fidelity="engine"), EngineBackend)

    def test_resolved_backends_satisfy_protocol(self):
        for fidelity in FIDELITIES:
            assert isinstance(resolve_backend("baseline", fidelity=fidelity), SimBackend)

    def test_unknown_fidelity(self):
        with pytest.raises(ConfigError, match="unknown fidelity"):
            resolve_backend("baseline", fidelity="spice")

    def test_unknown_design(self):
        with pytest.raises(ConfigError, match="unknown design"):
            resolve_backend("bogus-design")

    def test_engine_config_comes_from_design(self):
        backend = resolve_backend("rasa-dmdb-wls")
        assert backend.engine == get_design("rasa-dmdb-wls").config


class TestExecution:
    def test_run_before_prepare_raises(self):
        with pytest.raises(SimError, match="before prepare"):
            resolve_backend("baseline").run()

    def test_prepare_run_equals_simulate(self, program):
        backend = resolve_backend("rasa-wlbp")
        assert backend.prepare(program).run() == backend.simulate(program)

    def test_fast_backend_matches_direct_model(self, program, design_key):
        """The adapter is a pure wrapper: bit-identical to hand-wiring."""
        backend = resolve_backend(design_key)
        direct = FastCoreModel(
            core=CoreConfig(), engine=get_design(design_key).config
        ).run(program)
        assert backend.simulate(program) == direct

    def test_engine_backend_agrees_on_engine_stats(self, program):
        fast = resolve_backend("rasa-wlbp").simulate(program)
        engine = resolve_backend("rasa-wlbp", fidelity="engine").simulate(program)
        assert engine.mm_count == fast.mm_count
        assert engine.bypass_count == fast.bypass_count
        assert engine.weight_loads == fast.weight_loads
        # Engine-bound is an optimistic lower bound on end-to-end time.
        assert 0 < engine.cycles <= fast.cycles

    def test_engine_backend_repeatable(self, program):
        """prepare() resets engine state, so reruns are independent."""
        backend = resolve_backend("rasa-wlbp", fidelity="engine")
        assert backend.simulate(program) == backend.simulate(program)

    def test_ooo_backend_close_to_fast(self, program):
        fast = resolve_backend("rasa-dmdb-wls").simulate(program)
        ooo = resolve_backend("rasa-dmdb-wls", fidelity="ooo").simulate(program)
        assert ooo.mm_count == fast.mm_count
        assert ooo.cycles == pytest.approx(fast.cycles, rel=0.05)


class TestAnalyticBackend:
    """The shape-level fidelity: no program ever exists."""

    def test_resolves_and_satisfies_shape_protocol(self):
        backend = resolve_backend("rasa-dmdb-wls", fidelity="analytic")
        assert isinstance(backend, AnalyticBackend)
        assert isinstance(backend, ShapeBackend)
        assert backend.fidelity == "analytic"
        assert backend.engine == get_design("rasa-dmdb-wls").config

    def test_program_phases_raise(self, program):
        backend = resolve_backend("baseline", fidelity="analytic")
        with pytest.raises(SimError, match="shape-level"):
            backend.prepare(program)
        with pytest.raises(SimError, match="shape-level"):
            backend.run()
        with pytest.raises(SimError, match="shape-level"):
            backend.simulate(program)

    def test_run_shape_matches_fast_backend(self, program, design_key):
        analytic = resolve_backend(design_key, fidelity="analytic")
        fast = resolve_backend(design_key, fidelity="fast")
        assert analytic.run_shape(SHAPE) == fast.simulate(program)
