"""Backend registry: (design key x fidelity) -> ready :class:`SimBackend`.

Call sites never hand-wire ``FastCoreModel``/``MatrixEngine``/``OoOCore``
constructors anymore; they ask the registry::

    backend = resolve_backend("rasa-dmdb-wls")                  # fast model
    backend = resolve_backend("baseline", fidelity="ooo")       # cycle-accurate

A fidelity names one factory, ``(engine, core) -> backend``; each built-in
backend class is its own.  Every backend is timing-only: numerics come from
:class:`repro.engine.engine.MatrixEngine`, called directly.  A new fidelity
is one more entry in :data:`FIDELITIES`.
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


def resolve_backend(
    design_key: str,
    fidelity: str = "fast",
    core: Optional[CoreConfig] = None,
) -> SimBackend:
    """One registry lookup: design key + fidelity -> a ready backend.

    Args:
        design_key: a key from :data:`repro.engine.designs.DESIGNS`.
        fidelity: a key of :data:`FIDELITIES` — ``"analytic"``,
            ``"fast"`` (default), ``"fast-ref"``, ``"ooo"`` or ``"engine"``.
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
