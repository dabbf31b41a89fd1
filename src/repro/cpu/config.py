"""CPU core configuration (Sec. V: Skylake-like MacSim parameters)."""

from __future__ import annotations

import dataclasses
import math

from repro.errors import ConfigError
from repro.tile.layout import ROW_BYTES, TILE_BYTES
from repro.utils.validation import check_positive


@dataclasses.dataclass(frozen=True)
class CoreConfig:
    """Out-of-order core parameters.

    Defaults match the paper's evaluation configuration: CPU at 2 GHz,
    16 pipeline stages, ROB size 97, fetch/issue/retire width 4 (Intel
    Skylake-like), with an ideal memory system — tile loads always hit at a
    fixed L1 latency and transfer one 64 B row per cycle per port.
    """

    clock_mhz: int = 2000
    pipeline_stages: int = 16
    rob_size: int = 97
    fetch_width: int = 4
    issue_width: int = 4
    retire_width: int = 4
    alu_ports: int = 4
    load_ports: int = 2
    store_ports: int = 1
    scheduler_size: int = 60
    l1_latency: int = 4
    row_bytes_per_cycle: int = ROW_BYTES

    def __post_init__(self) -> None:
        for name in (
            "clock_mhz",
            "pipeline_stages",
            "rob_size",
            "fetch_width",
            "issue_width",
            "retire_width",
            "alu_ports",
            "load_ports",
            "store_ports",
            "scheduler_size",
            "l1_latency",
            "row_bytes_per_cycle",
        ):
            check_positive(name, getattr(self, name))

    @property
    def frontend_latency(self) -> int:
        """Fetch-to-dispatch depth: the front half of the 16-stage pipeline."""
        return self.pipeline_stages // 2

    @property
    def tile_transfer_cycles(self) -> int:
        """Port occupancy of one tile load/store: 1 KB at 64 B per cycle = 16."""
        return -(-TILE_BYTES // self.row_bytes_per_cycle)

    @property
    def tile_load_latency(self) -> int:
        """Dispatch-to-data latency of a tile load (L1 hit + transfer)."""
        return self.l1_latency + self.tile_transfer_cycles

    @property
    def ticks_per_cycle(self) -> int:
        """L = lcm(fetch_width, retire_width): the fast models' ticks per cycle.

        A dispatch is ``L / fetch_width`` ticks, a retire ``L / retire_width``
        and a one-cycle op ``L``, so every timestamp is an integer at every
        width; ticks round up to cycles only at the engine clock,
        ``⌈t / (ratio·L)⌉``, and at the cycle count, ``⌈t / L⌉``.
        """
        return math.lcm(self.fetch_width, self.retire_width)

    def engine_clock_ratio(self, engine_mhz: int) -> int:
        """Core cycles per engine cycle (must divide evenly: 2 GHz / 500 MHz = 4)."""
        check_positive("engine_mhz", engine_mhz)
        if self.clock_mhz % engine_mhz:
            raise ConfigError(
                f"core clock {self.clock_mhz} MHz must be an integer multiple "
                f"of the engine clock {engine_mhz} MHz"
            )
        return self.clock_mhz // engine_mhz
