"""The runtime's one JSON codec, and persistent memoization of :class:`SimResult`.

Cache keys, plan and report JSON and result-log lines share one codec
over a ``{name: (declared type, keyed)}`` table per dataclass:
:func:`encode` (display labels kept, so plans round-trip), :func:`decode`
(which refuses an ``int``/``str`` field of any other JSON type) and the
memoized :func:`key_fragment` of each config's and shape's key form.

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
:attr:`repro.workloads.gemm.GemmShape.name`) are skipped by the key form,
so two simulations that differ only in how a layer is *named* share one
key.  Full-model suites rely on this — BERT-base's 48 identically-shaped
q/k/v/attn-out projections collapse to a single cached entry.

The store is an append-only log, ``simresults.jsonl`` under
``$REPRO_CACHE_DIR`` or ``~/.cache/repro``: each :meth:`ResultCache.put`
appends one ``[key, result]`` JSON line with a single ``os.write`` on an
``O_APPEND`` descriptor, so the result is on disk before ``put`` returns
and a killed sweep keeps every finished point.  Nothing is ever rewritten
or merged: processes sharing one store on a local filesystem each append
whole lines and keep every one, and a key written twice loads its last
line.  Loading skips a last line without its newline (a write in
progress) and a line whose field set is not :class:`SimResult`'s (stale),
and warns once per load with the count of damaged lines: not a JSON
``[key, object]`` pair, or values not of the declared types — sweep-service
workers sharing one store must degrade to re-simulating, never crash or
print a mistyped number.  The pre-log ``simresults.json`` store is not
read; one cold run refills the log.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import os
import typing
import warnings
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

from repro.cpu.result import SimResult

#: Bump on any change to timing semantics or the key schema; invalidates
#: every cached result.  History: 1 = initial schema; 2 = display labels
#: (``cache_key: False`` fields) excluded from keys; 3 = shapes keyed by
#: their tile-padded dimensions (sub-tile shapes lower to identical
#: streams, so e.g. batches 1..16 of an FC layer share one entry).
CODE_VERSION = 3

_CACHE_FILENAME = "simresults.jsonl"


@functools.lru_cache(maxsize=None)
def _fields(cls: type) -> Dict[str, Tuple[Any, bool]]:
    """``{name: (declared type, keyed)}`` in field order; labels are unkeyed."""
    hints = typing.get_type_hints(cls)
    return {
        field.name: (hints[field.name], field.metadata.get("cache_key", True))
        for field in dataclasses.fields(cls)
    }


def encode(value: Any, key: bool = False) -> Any:
    """``value`` as JSON primitives: dataclasses as objects in field order,
    enums by value, tuples as arrays.  ``key=True`` is the cache-key form:
    objects carry a ``"__type__"`` tag and display labels are left out.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out: Dict[str, Any] = {"__type__": type(value).__name__} if key else {}
        for name, (kind, keyed) in _fields(type(value)).items():
            if keyed or not key:
                item = getattr(value, name)
                out[name] = item if kind is int or kind is str else encode(item, key)
        return out
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [encode(item, key) for item in value]
    if isinstance(value, dict):
        return {str(k): encode(v, key) for k, v in value.items()}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(f"cannot canonicalize {type(value).__name__!r} as JSON")


def decode(kind: Any, raw: Any) -> Any:
    """Rebuild a value of the declared type ``kind`` from its JSON form.

    Handles the types plan and result fields declare — dataclasses,
    ``Tuple[...]``, ``Optional[...]``, enums, and ``int`` (booleans
    excluded) and ``str``, which must arrive as that JSON type; other
    scalars pass through to the constructors' own validation.  Raises
    ``TypeError``/``ValueError`` on a mismatch.
    """
    if dataclasses.is_dataclass(kind):
        if not isinstance(raw, dict):
            raise TypeError(f"{kind.__name__} must be a JSON object, got {raw!r}")
        table = _fields(kind)
        if not raw.keys() <= table.keys():
            unknown = ", ".join(sorted(raw.keys() - table.keys()))
            raise ValueError(f"unknown {kind.__name__} field(s): {unknown}")
        values: Dict[str, Any] = {}
        for name, item in raw.items():
            field_kind, _ = table[name]
            if type(item) is not field_kind:  # an int/str of its type is taken as is
                item = decode(field_kind, item)
            values[name] = item
        return kind(**values)
    origin = typing.get_origin(kind)
    if origin is typing.Union:  # Optional[X]
        if raw is None:
            return None
        (kind,) = [arg for arg in typing.get_args(kind) if arg is not type(None)]
        return decode(kind, raw)
    if origin is tuple:
        if not isinstance(raw, list):
            raise TypeError(f"expected a JSON array, got {raw!r}")
        args = typing.get_args(kind)
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(decode(args[0], item) for item in raw)
        if len(args) != len(raw):
            raise ValueError(f"expected {len(args)} items, got {raw!r}")
        return tuple(decode(arg, item) for arg, item in zip(args, raw))
    if isinstance(kind, type) and issubclass(kind, enum.Enum):
        return kind(raw)
    if kind is int and type(raw) is not int:
        raise TypeError(f"expected a JSON integer, got {raw!r}")
    if kind is str and type(raw) is not str:
        raise TypeError(f"expected a JSON string, got {raw!r}")
    return raw


@functools.lru_cache(maxsize=4096)  # a sweep's padded shapes, core and codegen
def key_fragment(value: Any) -> str:
    """The compact, sorted JSON of ``value``'s cache-key form, memoized.

    The memo answers any value *equal* to one it has rendered, so equal
    values must render equally: every config field validates its type
    (a ``2.0`` would equal ``2`` and render differently).
    """
    return json.dumps(encode(value, key=True), sort_keys=True, separators=(",", ":"))


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
    return key_hasher(core, codegen, fidelity, version)(design_key, key_fragment(shape))


def key_hasher(
    core: Any, codegen: Any, fidelity: str = "fast", version: int = CODE_VERSION
) -> Callable[[str, str], str]:
    """:func:`cache_key` for every point sharing one core, codegen and fidelity.

    Returns ``hasher(design_key, shape_fragment)``, where ``shape_fragment``
    is :func:`key_fragment` of the point's keyed (tile-padded) shape.  The
    shared members render once, and each design's JSON once per hasher, so
    a plan pays only the SHA-256 per distinct point.
    """
    # The six members in sorted order, as json.dumps(sort_keys=True) writes them.
    head = f'{{"codegen":{key_fragment(codegen)},"core":{key_fragment(core)},"design":'
    middle = f',"fidelity":{json.dumps(fidelity)},"shape":'
    tail = f',"version":{json.dumps(version)}}}'
    prefixes: Dict[str, str] = {}

    def hasher(design_key: str, shape_fragment: str) -> str:
        prefix = prefixes.get(design_key)
        if prefix is None:
            prefix = prefixes[design_key] = head + json.dumps(design_key) + middle
        blob = prefix + shape_fragment + tail
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    return hasher


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
                key, fields = json.loads(line.decode())  # str parses faster
            except (TypeError, ValueError):  # not UTF-8 or JSON, or not a pair
                key = fields = None
            if not isinstance(key, str) or not isinstance(fields, dict):
                damaged += 1
                continue
            try:
                self._entries[key] = decode(SimResult, fields)
            except (TypeError, ValueError):  # mistyped values, or a stale field set
                if fields.keys() == _fields(SimResult).keys():
                    damaged += 1
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
        line = json.dumps([key, encode(result)], separators=(",", ":"))
        os.write(self._fd, (line + "\n").encode("utf-8"))

    def flush(self) -> None:
        """Close the log; every ``put`` is already on disk."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
