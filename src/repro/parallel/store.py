"""Resumable, content-addressed experiment store.

Every sweep cell in the package is (by construction of the seeded
estimators) a pure function of its *spec* — game, dynamics, estimator
parameters and master seed.  :class:`ExperimentStore` caches cell results
on disk under a canonical hash of that spec, which buys two things:

* **skip-on-re-run** — re-running a sweep whose cells are all stored
  performs zero ensemble steps (the sweeps check the store before building
  the game or touching the engine);
* **resume-after-kill** — each cell is written the moment it completes
  (atomically: payload first, manifest last), so a sweep killed mid-grid
  resumes from its last completed cell on the next run.

Record layout: ``<key>.json`` holds the spec and the JSON-encoded result;
array payloads (samples, curves) live in a ``<key>.npz`` sidecar that the
manifest references by name — the "JSON/NPZ" record format.  A corrupted
or partially written record (truncated JSON, missing/unreadable NPZ,
wrong format version) is treated as a *miss*, never an error: the cell is
recomputed and the record rewritten.

Keys are content addresses: :func:`canonical_key` serialises the spec to
canonical JSON (sorted keys, normalised scalars, ndarray/SeedSequence/
callable descriptors from :func:`describe`) and hashes it with SHA-256,
so the same experiment hashes identically across processes, Python
versions and ``PYTHONHASHSEED`` values.  Callables are described by their
``module.qualname`` — lambdas and local closures have no stable name and
are rejected.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
import zipfile
from pathlib import Path
from typing import Callable

import numpy as np

from ..obs import as_tracer

__all__ = [
    "ExperimentStore",
    "as_store",
    "canonical_json",
    "canonical_key",
    "describe",
]

#: Bump when the record encoding changes; mismatching records read as misses.
FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# Canonical spec description and hashing
# ---------------------------------------------------------------------------


#: Arrays larger than this are described by a SHA-256 content digest
#: instead of inline values — same content addressing, bounded manifests.
ARRAY_DIGEST_THRESHOLD = 64


def describe(obj) -> object:
    """Canonical, JSON-able description of one spec component.

    Parameters
    ----------
    obj:
        A spec component: ``None``/bool/int/float/str pass through
        (NaN/inf to tagged strings); sequences and dicts recurse;
        ``numpy`` scalars and arrays, ``SeedSequence`` objects,
        ``functools.partial`` and named callables get tagged descriptor
        dicts; arrays beyond ``ARRAY_DIGEST_THRESHOLD`` elements are
        content-digested (dtype + shape + bytes) rather than inlined.
        Objects exposing ``store_spec()`` — the games do — are described
        by that spec, recursively; any other object falls back to its
        class name and ``repr``, which is a *weak* identity (reprs are
        cosmetic) — prefer ``store_spec()`` or the sweep's ``store_tag=``.

    Returns
    -------
    object
        A composition of dicts/lists/scalars whose canonical JSON (and
        hence :func:`canonical_key`) is stable across runs.

    Raises
    ------
    ValueError
        For callables without a stable name (lambdas, locally defined
        functions): their description would change between runs, silently
        splitting the cache.  Pass a module-level function instead.
    """
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if np.isnan(v):
            return {"__float__": "nan"}
        if np.isinf(v):
            return {"__float__": "inf" if v > 0 else "-inf"}
        return v
    if isinstance(obj, np.ndarray):
        if obj.size > ARRAY_DIGEST_THRESHOLD:
            payload = np.ascontiguousarray(obj)
            digest = hashlib.sha256()
            digest.update(str(payload.dtype).encode("utf-8"))
            digest.update(str(payload.shape).encode("utf-8"))
            digest.update(payload.tobytes())
            return {
                "__ndarray_digest__": digest.hexdigest(),
                "dtype": str(payload.dtype),
                "shape": list(payload.shape),
            }
        return {"__ndarray__": obj.tolist(), "dtype": str(obj.dtype)}
    if isinstance(obj, np.random.SeedSequence):
        return {
            "__seedseq__": {
                "entropy": int(obj.entropy) if obj.entropy is not None else None,
                "spawn_key": [int(k) for k in obj.spawn_key],
            }
        }
    if isinstance(obj, dict):
        described = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                raise ValueError(f"spec dict keys must be strings, got {key!r}")
            described[key] = describe(value)
        return described
    if isinstance(obj, (list, tuple)):
        return [describe(v) for v in obj]
    if isinstance(obj, functools.partial):
        return {
            "__partial__": describe(obj.func),
            "args": describe(list(obj.args)),
            "keywords": describe(dict(obj.keywords)),
        }
    store_spec = getattr(obj, "store_spec", None)
    if callable(store_spec):
        return {"__spec__": describe(store_spec())}
    if callable(obj):
        qualname = getattr(obj, "__qualname__", None) or getattr(obj, "__name__", None)
        module = getattr(obj, "__module__", None)
        if not qualname or not module or "<" in qualname:
            raise ValueError(
                f"cannot build a stable store key for {obj!r}: lambdas and "
                f"locally defined callables have no run-to-run-stable name; "
                f"pass a module-level function/class"
            )
        return {"__callable__": f"{module}.{qualname}"}
    return {"__object__": type(obj).__qualname__, "repr": repr(obj)}


def canonical_json(spec) -> str:
    """Canonical JSON of a spec: described, sorted keys, minimal separators."""
    return json.dumps(describe(spec), sort_keys=True, separators=(",", ":"))


def canonical_key(spec) -> str:
    """SHA-256 content address of a spec's canonical JSON (hex digest)."""
    return hashlib.sha256(canonical_json(spec).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Result encoding (JSON manifest + NPZ array sidecar)
# ---------------------------------------------------------------------------


def _encode(value, arrays: dict[str, np.ndarray]):
    """JSON-able encoding of a result; arrays are hoisted into ``arrays``."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if np.isnan(v):
            return {"__float__": "nan"}
        if np.isinf(v):
            return {"__float__": "inf" if v > 0 else "-inf"}
        return v
    if isinstance(value, np.ndarray):
        name = f"arr_{len(arrays)}"
        arrays[name] = value
        return {"__npz__": name}
    if isinstance(value, dict):
        return {str(k): _encode(v, arrays) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v, arrays) for v in value]
    raise TypeError(
        f"cannot store values of type {type(value).__qualname__}; supported: "
        f"scalars, strings, dicts, lists, numpy arrays"
    )


def _decode(value, arrays):
    """Inverse of :func:`_encode`; ``arrays`` is the loaded NPZ (or None)."""
    if isinstance(value, list):
        return [_decode(v, arrays) for v in value]
    if isinstance(value, dict):
        if "__float__" in value:
            return float(value["__float__"])
        if "__npz__" in value:
            if arrays is None:
                raise KeyError("record references an NPZ payload that is missing")
            return np.asarray(arrays[value["__npz__"]])
        return {k: _decode(v, arrays) for k, v in value.items()}
    return value


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


class ExperimentStore:
    """Content-addressed on-disk cache of experiment-cell results.

    Parameters
    ----------
    root:
        Directory the records live in (created if missing).  One record is
        a ``<key>.json`` manifest plus, when the result carries arrays, a
        ``<key>.npz`` sidecar; ``key = canonical_key(spec)``.

    The store is safe to share between a sweep and its re-runs: writes are
    atomic (temp file + ``os.replace``, payload before manifest), reads
    treat any malformed record as a miss, and keys depend only on the
    spec's content — never on dict ordering, ``PYTHONHASHSEED`` or the
    process that computed them.

    ``tracer`` (:mod:`repro.obs`) makes cache traffic observable: every
    :meth:`get` counts ``store.get.hit`` / ``store.get.miss`` (hits also
    count ``store.bytes_read``), every :meth:`put` counts ``store.put``
    and ``store.bytes_written``.  The default is the no-op tracer.
    """

    def __init__(self, root: str | os.PathLike, tracer=None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.tracer = as_tracer(tracer)

    # -- paths -------------------------------------------------------------

    def _manifest_path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def _payload_path(self, key: str) -> Path:
        return self.root / f"{key}.npz"

    # -- core API ----------------------------------------------------------

    def get(self, spec) -> object | None:
        """The stored result for ``spec``, or ``None`` on miss.

        Corrupted or partial records (unparsable JSON, missing or
        unreadable NPZ payload, format-version mismatch) read as misses —
        the caller recomputes and :meth:`put` overwrites the record.
        """
        key = canonical_key(spec)
        manifest_path = self._manifest_path(key)
        try:
            with open(manifest_path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
            if manifest.get("format_version") != FORMAT_VERSION:
                self._count_miss(key)
                return None
            arrays = None
            bytes_read = manifest_path.stat().st_size
            if manifest.get("has_arrays"):
                payload_path = self._payload_path(key)
                with np.load(payload_path, allow_pickle=False) as npz:
                    arrays = {name: np.asarray(npz[name]) for name in npz.files}
                bytes_read += payload_path.stat().st_size
            result = _decode(manifest["result"], arrays)
        except (
            OSError,
            ValueError,
            KeyError,
            TypeError,
            json.JSONDecodeError,
            zipfile.BadZipFile,
        ):
            self._count_miss(key)
            return None
        if self.tracer.enabled:
            self.tracer.count("store.get.hit", 1)
            self.tracer.count("store.bytes_read", int(bytes_read))
        return result

    def _count_miss(self, key: str) -> None:
        if self.tracer.enabled:
            self.tracer.count("store.get.miss", 1)

    def put(self, spec, result) -> str:
        """Store ``result`` under ``spec``'s content address; returns the key.

        The NPZ payload (if any) is written and atomically renamed first,
        the JSON manifest last — a record is visible only once complete,
        so a kill mid-write can leave at worst an orphan payload, never a
        half-readable record.
        """
        key = canonical_key(spec)
        arrays: dict[str, np.ndarray] = {}
        encoded = _encode(result, arrays)
        manifest = {
            "format_version": FORMAT_VERSION,
            "key": key,
            "spec": describe(spec),
            "has_arrays": bool(arrays),
            "result": encoded,
        }
        if arrays:
            self._atomic_write(
                self._payload_path(key),
                lambda fh: np.savez(fh, **arrays),
                binary=True,
            )
        self._atomic_write(
            self._manifest_path(key),
            lambda fh: fh.write(json.dumps(manifest, sort_keys=True, indent=1)),
            binary=False,
        )
        if self.tracer.enabled:
            bytes_written = self._manifest_path(key).stat().st_size
            if arrays:
                bytes_written += self._payload_path(key).stat().st_size
            self.tracer.count("store.put", 1)
            self.tracer.count("store.bytes_written", int(bytes_written))
        return key

    def get_or_compute(self, spec, compute: Callable[[], object]) -> tuple[object, bool]:
        """``(result, was_cached)`` — load on hit, else compute and store."""
        cached = self.get(spec)
        if cached is not None:
            return cached, True
        result = compute()
        self.put(spec, result)
        return result, False

    def __contains__(self, spec) -> bool:
        return self.get(spec) is not None

    def keys(self) -> list[str]:
        """Content-address keys of every (complete) record in the store."""
        return sorted(p.stem for p in self.root.glob("*.json"))

    def _atomic_write(self, path: Path, write, binary: bool) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".tmp-", suffix=path.suffix)
        try:
            with os.fdopen(fd, "wb" if binary else "w") as fh:
                write(fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ExperimentStore({str(self.root)!r}, records={len(self.keys())})"


def as_store(store, tracer=None) -> ExperimentStore | None:
    """Normalise the ``store=`` knob: ``None``, a path, or a live store.

    ``tracer`` is attached only when this call *constructs* the store
    from a path; a caller-supplied :class:`ExperimentStore` instance is
    returned untouched (its tracer belongs to the caller).
    """
    if store is None or isinstance(store, ExperimentStore):
        return store
    if isinstance(store, (str, os.PathLike)):
        return ExperimentStore(store, tracer=tracer)
    raise ValueError(
        f"unknown store {store!r}; pass None, a directory path, or an "
        f"ExperimentStore instance"
    )
