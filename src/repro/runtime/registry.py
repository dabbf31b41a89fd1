"""Backend registry: (design key x fidelity) -> ready :class:`SimBackend`.

Call sites never hand-wire ``FastCoreModel``/``MatrixEngine``/``OoOCore``
constructors anymore; they ask the registry::

    backend = resolve_backend("rasa-dmdb-wls")                  # fast model
    backend = resolve_backend("baseline", fidelity="ooo")       # cycle-accurate

A fidelity names one factory, ``(engine, core) -> backend``; each built-in
backend class is its own.  Every backend is timing-only: numerics come from
:class:`repro.engine.engine.MatrixEngine`, called directly.  New fidelities
register a factory under a unique name::

    @register_backend("my-fidelity")
    def _make(engine, core):
        return MyBackend(engine, core)
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.cpu.config import CoreConfig
from repro.engine.config import EngineConfig
from repro.engine.designs import get_design
from repro.errors import ConfigError
from repro.runtime.backend import (
    AnalyticBackend,
    EngineBackend,
    FastCoreBackend,
    FastRefBackend,
    OoOCoreBackend,
    SimBackend,
)

#: Factory signature: (engine config, core config) -> backend.
BackendFactory = Callable[[EngineConfig, CoreConfig], SimBackend]

#: The registered fidelities, by name.
FIDELITIES: Dict[str, BackendFactory] = {
    "analytic": AnalyticBackend,
    "fast": FastCoreBackend,
    "fast-ref": FastRefBackend,
    "ooo": OoOCoreBackend,
    "engine": EngineBackend,
}


def register_backend(name: str) -> Callable[[BackendFactory], BackendFactory]:
    """Decorator registering a backend factory under ``name``."""

    def _register(factory: BackendFactory) -> BackendFactory:
        if name in FIDELITIES:
            raise ConfigError(f"backend fidelity {name!r} is already registered")
        FIDELITIES[name] = factory
        return factory

    return _register


def resolve_backend(
    design_key: str,
    fidelity: str = "fast",
    core: Optional[CoreConfig] = None,
) -> SimBackend:
    """One registry lookup: design key + fidelity -> a ready backend.

    Args:
        design_key: a key from :data:`repro.engine.designs.DESIGNS`.
        fidelity: a key of :data:`FIDELITIES` — ``"analytic"``,
            ``"fast"`` (default), ``"fast-ref"``, ``"ooo"``, ``"engine"``,
            or any fidelity added via :func:`register_backend`.
        core: CPU core configuration (default :class:`CoreConfig`).
    """
    try:
        factory = FIDELITIES[fidelity]
    except KeyError:
        raise ConfigError(
            f"unknown fidelity {fidelity!r}; registered: {', '.join(FIDELITIES)}"
        ) from None
    design = get_design(design_key)
    return factory(design.config, core if core is not None else CoreConfig())
