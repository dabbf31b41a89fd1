"""The design points evaluated in the paper (Sec. V, Fig. 5 / Fig. 6).

The paper evaluates the serialized baseline plus seven RASA designs, named
by the optimizations they apply.  Five are named explicitly in the text
(RASA-PIPE, RASA-WLBP, RASA-DB-WLS, RASA-DM-WLBP, RASA-DMDB-WLS) and
RASA-DM-PIPE appears as the naming example; we complete the set of seven
with RASA-DMDB-WLBP, the remaining sensible control/data combination.  All
designs keep the multiplier count constant: 32x16 baseline-PE arrays versus
16x16 double-multiplier arrays (512 multipliers either way).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from repro.engine.config import ControlPolicy, EngineConfig
from repro.errors import ConfigError
from repro.systolic.pe import BASELINE_PE, DB_PE, DM_PE, DMDB_PE, PESpec


@dataclasses.dataclass(frozen=True)
class DesignPoint:
    """A named engine design: label, config, and plotting metadata."""

    key: str
    label: str
    config: EngineConfig

    @property
    def is_baseline(self) -> bool:
        return self.key == "baseline"


def _design(key: str, label: str, pe: PESpec, control: ControlPolicy) -> DesignPoint:
    return DesignPoint(key=key, label=label, config=EngineConfig(pe=pe, control=control))


BASELINE_DESIGN = _design("baseline", "Baseline", BASELINE_PE, ControlPolicy.BASE)

#: All design points, in the order Fig. 5 presents them.
DESIGNS: Dict[str, DesignPoint] = {
    d.key: d
    for d in (
        BASELINE_DESIGN,
        _design("rasa-pipe", "RASA-PIPE", BASELINE_PE, ControlPolicy.PIPE),
        _design("rasa-wlbp", "RASA-WLBP", BASELINE_PE, ControlPolicy.WLBP),
        _design("rasa-dm-pipe", "RASA-DM-PIPE", DM_PE, ControlPolicy.PIPE),
        _design("rasa-dm-wlbp", "RASA-DM-WLBP", DM_PE, ControlPolicy.WLBP),
        _design("rasa-db-wls", "RASA-DB-WLS", DB_PE, ControlPolicy.WLS),
        _design("rasa-dmdb-wlbp", "RASA-DMDB-WLBP", DMDB_PE, ControlPolicy.WLBP),
        _design("rasa-dmdb-wls", "RASA-DMDB-WLS", DMDB_PE, ControlPolicy.WLS),
    )
}

#: The seven RASA designs compared against the baseline in Fig. 5.
FIG5_DESIGNS: List[str] = [key for key in DESIGNS if key != "baseline"]

#: The best control optimization per data optimization, compared in Fig. 6.
FIG6_DESIGNS: List[str] = ["rasa-db-wls", "rasa-dm-wlbp", "rasa-dmdb-wls"]


def get_design(key: str) -> DesignPoint:
    """Look up a design by key; raises ConfigError with the known keys."""
    try:
        return DESIGNS[key]
    except (KeyError, TypeError):  # TypeError: an unhashable key, say a list
        raise ConfigError(
            f"unknown design {key!r}; known designs: {', '.join(DESIGNS)}"
        ) from None
