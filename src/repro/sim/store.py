"""Persistent, content-addressed simulation-result store.

Every paper figure is a grid of (application x design) simulations, and
the same points recur across figures, pytest workers, CLI invocations and
benchmark re-runs.  The in-process memo inside
:class:`repro.experiments.base.Runner` only helps within one process;
this module adds the cross-process layer: a content-addressed on-disk
cache keyed by the *inputs* of a simulation.

Key derivation
--------------
:func:`sim_cache_key` hashes the full frozen configuration triple —
:class:`~repro.workloads.profile.AppProfile`,
:class:`~repro.core.designs.DesignSpec` and
:class:`~repro.sim.config.SimConfig` (including the nested
:class:`~repro.sim.config.GPUConfig`) — plus the cache schema version
into one SHA-256 hex digest.  All three are frozen dataclasses, so
``dataclasses.fields`` enumerates every field; the JSON serialization is
canonical (sorted keys, no whitespace), which makes the key stable across
processes and platforms.  Any changed field changes the key; unknown
field types fail loudly rather than hash ambiguously.  Callers that key
many points over shared component objects pass a per-caller ``memo``
so each object is canonicalized once (see :func:`sim_cache_key`).

The one deliberate exception: fields a class names in its
``FINGERPRINT_NEUTRAL_FIELDS`` class variable (e.g.
``SimConfig.watchdog``, ``AppProfile.suite``) are *excluded* from the
key.  These are observation-only knobs proven never to change a result
bit, so keying them would only fragment the shared cache — the same
simulation stored twice.  The declaration is machine-checked from both
sides by SimPure (``repro purity``): statically, that the sim core
cannot read an input that is not keyed (SP401), and dynamically
(``--confirm``), that mutating a neutral field leaves the result
fingerprint bit-identical while mutating any keyed field changes the
key.  :func:`cache_key_manifest` exports the declared domain for the
analyzer.

Layout and versioning
---------------------
``<root>/v<SCHEMA>/<key[:2]>/<key>.json`` — one JSON document per result,
fanned out over 256 subdirectories.  ``SCHEMA`` is
:data:`CACHE_SCHEMA_VERSION`; it participates in both the key and the
directory path, so bumping it orphans every old entry at once (stale
trees can simply be deleted).  Bump it whenever the simulator's observable
behaviour changes (new :class:`~repro.sim.results.SimResult` fields,
model fixes, config-field semantics).

Robustness
----------
Writes are atomic (temp file + ``os.replace``) so concurrent processes
never observe a half-written entry.  Reads treat *any* failure —
missing, truncated, corrupted, schema-mismatched or stale-field files —
as a cache miss, never an error; the entry is re-simulated and
overwritten.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.core.designs import DesignSpec
from repro.sim.config import GPUConfig, SimConfig
from repro.sim.results import SimResult
from repro.workloads.profile import AppProfile

#: Version of the (key, payload) schema.  Part of every key and of the
#: on-disk path; bump to invalidate all previously cached results.
#: v2: fingerprint-neutral fields (SimConfig sanitize/watchdog knobs,
#: AppProfile.suite) left the key domain and the dead ``SimConfig.seed``
#: field was removed, so v1 keys no longer correspond to v2 keys.
CACHE_SCHEMA_VERSION = 2

#: Environment variable naming the default cache directory.  Unset (or
#: empty) means the persistent cache is off unless a directory is passed
#: explicitly.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


#: Per-class canonicalization plan: a dataclass's field names minus its
#: ``FINGERPRINT_NEUTRAL_FIELDS``, in declaration order, built once per
#: class by :func:`_field_plan`.  The only module-level key state: a plan
#: is a pure function of the class, so every process builds identical
#: entries, and it never holds instances (fragment memos are per caller).
_FIELD_PLANS: Dict[type, Tuple[str, ...]] = {}

#: Exact types :func:`_canonical` passes through unchanged.  Subclasses
#: (``IntEnum`` and friends) take the slower ``isinstance`` paths.
_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})


def _field_plan(cls: type) -> Tuple[str, ...]:
    """The keyed field names of dataclass ``cls`` (cached per class)."""
    plan = _FIELD_PLANS.get(cls)
    if plan is None:
        neutral = getattr(cls, "FINGERPRINT_NEUTRAL_FIELDS", frozenset())
        plan = tuple(
            f.name for f in dataclasses.fields(cls) if f.name not in neutral
        )
        _FIELD_PLANS[cls] = plan
    return plan


def _canonical(obj: object) -> object:
    """Recursively reduce dataclasses/enums/containers to JSON-safe data,
    dropping declared fingerprint-neutral fields (see module docstring)."""
    cls = type(obj)
    if cls in _JSON_SCALARS:
        return obj
    plan = _FIELD_PLANS.get(cls)
    if plan is None and dataclasses.is_dataclass(cls):
        plan = _field_plan(cls)
    if plan is not None:
        return {name: _canonical(getattr(obj, name)) for name in plan}
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot canonicalize {cls.__name__!r} for cache keying")


def _fragment(obj: object) -> str:
    """Canonical JSON of one key component: the exact bytes
    ``json.dumps(payload, sort_keys=True)`` would emit for it nested
    inside the key payload."""
    return json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"))


#: Identity-keyed fragment memo: ``id(obj) -> (obj, fragment)``.  The
#: entry holds ``obj`` itself, so its id cannot be reused while the
#: entry lives.  Never keyed by equality: ``AppProfile(compute_gap=2)``
#: equals ``AppProfile(compute_gap=2.0)`` but canonicalizes differently.
KeyMemo = Dict[int, Tuple[object, str]]


def _memo_fragment(obj: object, memo: Optional[KeyMemo]) -> str:
    """:func:`_fragment`, served from ``memo`` for frozen dataclass
    instances already seen (anything else is canonicalized every time)."""
    if memo is None:
        return _fragment(obj)
    entry = memo.get(id(obj))
    if entry is None:
        entry = (obj, _fragment(obj))
        params = getattr(type(obj), "__dataclass_params__", None)
        if params is not None and params.frozen:
            memo[id(obj)] = entry
    return entry[1]


def _digest(blob: str) -> str:
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: The dataclasses whose fields make up the cache-key domain, in payload
#: order.  SimPure reads this through :func:`cache_key_manifest`.
_KEYED_CLASSES: Tuple[Tuple[str, type], ...] = (
    ("profile", AppProfile),
    ("design", DesignSpec),
    ("config", SimConfig),
    ("gpu", GPUConfig),
)


def cache_key_manifest() -> Dict[str, Dict[str, object]]:
    """Declared cache-key domain, derived from the keyed dataclasses.

    Returns one entry per keyed class::

        {"config": {"class": "SimConfig",
                    "keyed": ("gpu", "scale", ...),
                    "neutral": ("sanitize", "watchdog", ...)}, ...}

    ``keyed`` fields flow into :func:`sim_cache_key`; ``neutral`` fields
    are the class's declared ``FINGERPRINT_NEUTRAL_FIELDS`` (excluded
    from the key, proven fingerprint-invariant by
    ``repro purity --confirm``).  SimPure's SP401/SP402 diff this
    manifest against what the simulator core actually reads.
    """
    manifest: Dict[str, Dict[str, object]] = {}
    for role, cls in _KEYED_CLASSES:
        neutral = getattr(cls, "FINGERPRINT_NEUTRAL_FIELDS", frozenset())
        manifest[role] = {
            "class": cls.__name__,
            "keyed": _field_plan(cls),
            "neutral": tuple(sorted(neutral)),
        }
    return manifest


def sim_cache_key(
    profile: AppProfile,
    spec: DesignSpec,
    cfg: SimConfig,
    memo: Optional[KeyMemo] = None,
) -> str:
    """Stable content-addressed key for one simulation point.

    Same logical (profile, spec, config) -> same hex key in every
    process; any changed field -> a different key.

    The hashed blob is ``json.dumps({"config": ..., "design": ...,
    "profile": ..., "schema": N}, sort_keys=True)``, assembled from one
    canonical fragment per component.  ``memo`` (a dict the caller owns,
    e.g. one per :class:`~repro.experiments.base.Runner`) caches those
    fragments by object identity, so a grid that reuses the same frozen
    component objects canonicalizes each once; the key is byte-identical
    with or without it.
    """
    return _digest(
        f'{{"config":{_memo_fragment(cfg, memo)},'
        f'"design":{_memo_fragment(spec, memo)},'
        f'"profile":{_memo_fragment(profile, memo)},'
        f'"schema":{CACHE_SCHEMA_VERSION}}}'
    )


def profile_cache_key(profile: AppProfile) -> str:
    """Content-addressed key of the *profile component* of
    :func:`sim_cache_key` alone.

    Two grid points share this key exactly when they would generate the
    same workload at the same scale — the sharing SimFleet's per-worker
    stream cache exploits to materialize access streams once per worker
    instead of once per point.  Canonicalization matches the full key
    (fingerprint-neutral fields like ``AppProfile.suite`` are excluded),
    so two profiles differing only in neutral fields share streams.
    """
    return _digest(
        f'{{"profile":{_fragment(profile)},"schema":{CACHE_SCHEMA_VERSION}}}'
    )


class DiskResultCache:
    """Content-addressed on-disk :class:`SimResult` cache.

    ``get`` returns ``None`` on any miss *or* unreadable entry; ``put``
    writes atomically so concurrent writers are safe (last writer wins
    with identical content, since keys are content-addressed).
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    @property
    def version_dir(self) -> Path:
        return self.root / f"v{CACHE_SCHEMA_VERSION}"

    def path_for(self, key: str) -> Path:
        return self.version_dir / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[SimResult]:
        """Load a cached result, or ``None`` (corrupt entries are misses)."""
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            if doc.get("schema") != CACHE_SCHEMA_VERSION or doc.get("key") != key:
                raise ValueError("cache entry schema/key mismatch")
            result = SimResult.from_jsonable(doc["result"])
        except (OSError, ValueError, KeyError, TypeError):
            # Missing, truncated, corrupted or written by an incompatible
            # schema: behave exactly like a cold miss.
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: SimResult) -> None:
        """Atomically persist one result under ``key``."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "result": result.to_jsonable(),
        }
        fd, tmp = tempfile.mkstemp(
            prefix=f".{key[:8]}-", suffix=".tmp", dir=str(path.parent)
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, separators=(",", ":"))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def clear(self) -> None:
        """Drop every entry of the *current* schema version."""
        shutil.rmtree(self.version_dir, ignore_errors=True)

    def __len__(self) -> int:
        if not self.version_dir.is_dir():
            return 0
        return sum(1 for _ in self.version_dir.glob("*/*.json"))

    def __repr__(self) -> str:
        return (
            f"DiskResultCache({str(self.root)!r}, entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )


def cache_from_env() -> Optional[DiskResultCache]:
    """Cache named by ``REPRO_CACHE_DIR``, or ``None`` when unset/empty."""
    root = os.environ.get(CACHE_DIR_ENV, "").strip()
    return DiskResultCache(root) if root else None
