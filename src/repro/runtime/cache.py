"""Persistent memoization of :class:`SimResult`s.

Simulations here are deterministic: the same (design, workload shape, core
config, codegen options, simulator version) always produces the same
:class:`SimResult`.  :class:`ResultCache` exploits that with an on-disk store
keyed by :func:`cache_key` — a SHA-256 over a canonical JSON rendering of the
full simulation input plus :data:`CODE_VERSION`.

Bump :data:`CODE_VERSION` whenever a change alters *timing semantics*
(scheduler, core models, codegen ordering) or the key schema itself: every
existing key is thereby invalidated without touching the store.

Keys are **label-independent**: dataclass fields declared with
``metadata={"cache_key": False}`` (display labels such as
:attr:`repro.workloads.gemm.GemmShape.name`) are skipped by the canonical
rendering, so two simulations that differ only in how a layer is *named*
share one key.  Full-model suites rely on this — BERT-base's 48
identically-shaped q/k/v/attn-out projections collapse to a single cached
entry.

The store is an append-only log, ``simresults.jsonl`` under
``$REPRO_CACHE_DIR`` or ``~/.cache/repro``: each :meth:`ResultCache.put`
appends one ``[key, result]`` JSON line with a single ``os.write`` on an
``O_APPEND`` descriptor, so the result is on disk before ``put`` returns
and a killed sweep keeps every finished point.  Nothing is ever rewritten
or merged: processes sharing one store on a local filesystem each append
whole lines and keep every one, and a key written twice loads its last
line.  Loading skips a last line without its newline (a write in
progress), a line whose fields no longer build a :class:`SimResult`
(stale), and warns once per load with the count of lines that are not a
JSON ``[key, object]`` pair (damaged) — sweep-service workers sharing one
store must degrade to re-simulating, never crash.  The pre-log
``simresults.json`` store is not read; one cold run refills the log.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import warnings
from pathlib import Path
from typing import Any, Dict, Optional

from repro.cpu.result import SimResult

#: Bump on any change to timing semantics or the key schema; invalidates
#: every cached result.  History: 1 = initial schema; 2 = display labels
#: (``cache_key: False`` fields) excluded from keys; 3 = shapes keyed by
#: their tile-padded dimensions (sub-tile shapes lower to identical
#: streams, so e.g. batches 1..16 of an FC layer share one entry).
CODE_VERSION = 3

_CACHE_FILENAME = "simresults.jsonl"


def _canonical(value: Any) -> Any:
    """Render configs/shapes as JSON-stable primitives (order-independent).

    Dataclass fields marked ``metadata={"cache_key": False}`` are display
    labels, not simulation inputs, and are excluded from the rendering.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.metadata.get("cache_key", True)
        }
        return {"__type__": type(value).__name__, **fields}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(f"cannot canonicalize {type(value).__name__!r} for cache keys")


def cache_key(
    design_key: str,
    shape: Any,
    core: Any,
    codegen: Any,
    fidelity: str = "fast",
    version: int = CODE_VERSION,
) -> str:
    """Stable hash of one simulation's full input.

    ``shape``/``core``/``codegen`` are the (frozen) dataclasses the runner
    uses; any *semantic* field change — including nested enums like the mm
    ordering — produces a different key, as does a :data:`CODE_VERSION`
    bump.  Display labels (``cache_key: False`` fields, e.g. the shape's
    ``name``) do not participate: identically-dimensioned GEMMs hit the
    same entry regardless of what their layers are called.

    Shapes that expose ``tile_padded()`` (:class:`~repro.workloads.gemm.
    GemmShape`) are keyed by their tile-*padded* dimensions: codegen pads
    up to whole rasa_mm tiles before lowering, so sub-tile variants issue
    the same stream and share one entry — batch-axis sweeps lean on this
    to collapse batches 1..16 of an FC layer onto a single simulation.
    """
    tile_padded = getattr(shape, "tile_padded", None)
    if tile_padded is not None:
        shape = tile_padded()
    payload = {
        "design": design_key,
        "shape": _canonical(shape),
        "core": _canonical(core),
        "codegen": _canonical(codegen),
        "fidelity": fidelity,
        "version": version,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


class ResultCache:
    """A dict-like store of :class:`SimResult` by cache key, backed by a log.

    Usage::

        cache = ResultCache()               # default location
        result = cache.get(key)             # None on miss
        cache.put(key, result)              # appended to the log on disk
        cache.flush()                       # closes the log

    ``hits``/``misses`` count ``get`` outcomes since construction.
    """

    def __init__(self, directory: Optional[Path] = None) -> None:
        self.directory = Path(directory) if directory is not None else default_cache_dir()
        self.path = self.directory / _CACHE_FILENAME
        self._entries: Dict[str, SimResult] = {}
        self._fd: Optional[int] = None
        self.hits = 0
        self.misses = 0
        try:
            log = self.path.read_bytes()
        except OSError:
            return  # no store yet: the normal cold start
        *lines, _in_progress = log.split(b"\n")
        damaged = 0
        for line in lines:
            try:
                key, fields = json.loads(line)
            except (TypeError, ValueError):  # not JSON, or not a pair
                key = fields = None
            if not isinstance(key, str) or not isinstance(fields, dict):
                damaged += 1
                continue
            try:
                self._entries[key] = SimResult(**fields)
            except TypeError:
                pass  # field set drifted without a version bump: stale
        if damaged:
            warnings.warn(
                f"result cache {self.path}: skipped {damaged} damaged line(s)",
                RuntimeWarning,
                stacklevel=2,
            )

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> Optional[SimResult]:
        result = self._entries.get(key)
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def put(self, key: str, result: SimResult) -> None:
        """Record ``result`` and append its line to the log before returning."""
        self._entries[key] = result
        if self._fd is None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        line = json.dumps([key, dataclasses.asdict(result)], separators=(",", ":"))
        os.write(self._fd, (line + "\n").encode("utf-8"))

    def flush(self) -> None:
        """Close the log; every ``put`` is already on disk."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
