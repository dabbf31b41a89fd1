"""Top-level public API tests: the README quickstart must actually work."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro
from repro.utils.lazy import DeferredExports

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.ispkg
)


def test_version():
    assert repro.__version__


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    """Every ``__all__`` name resolves, deferred ones to their defining
    module's object, and an unknown name is still an ``AttributeError``."""
    module = importlib.import_module(package)
    for name in module.__all__:
        assert hasattr(module, name), name
    deferred = vars(module).get("__getattr__")
    if deferred is not None:
        assert isinstance(deferred, DeferredExports)
        assert set(deferred.owners) <= set(module.__all__)
        for name, owner in deferred.owners.items():
            assert getattr(module, name) is getattr(importlib.import_module(owner), name)
    with pytest.raises(AttributeError, match="no_such_export"):
        getattr(module, "no_such_export")


def test_quickstart_snippet():
    """The snippet from the package docstring / README, verbatim in spirit."""
    from repro import DESIGNS, FastCoreModel, GemmShape, generate_gemm_program, get_design

    shape = GemmShape(m=256, n=256, k=256, name="demo")
    program = generate_gemm_program(shape)
    baseline = FastCoreModel(engine=get_design("baseline").config).run(program)
    rasa = FastCoreModel(engine=get_design("rasa-dmdb-wls").config).run(program)
    ratio = rasa.cycles / baseline.cycles
    assert 0.15 < ratio < 0.25  # "~0.17-0.2: the paper's headline"
    assert len(DESIGNS) == 8


def test_errors_are_catchable_under_one_base():
    from repro.errors import ConfigError, IsaError, ReproError, TileError

    for exc in (ConfigError, IsaError, TileError):
        assert issubclass(exc, ReproError)
    with pytest.raises(ReproError):
        repro.get_design("nope")
