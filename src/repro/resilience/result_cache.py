"""Persistent content-addressed replication result cache.

The one store of finished replications: a warm rerun reads it, and so
does a resume — rerunning an interrupted run with the same
``cache_dir`` executes only the replications it lacks.  Each finished
replication the store rules below admit is written to an on-disk JSON
file keyed by the blake2b digest of its full identity:

* the canonical spec JSON (``SystemSpec.to_dict()``, sorted keys),
* the enablement engine name,
* the root seed and the replication index,
* whether extra probes were collected,
* the decision-guard policy and chaos plan (``None`` when absent),

with the **code fingerprint** — a digest over every ``.py`` file of the
``repro`` package — as a directory level above the entries.  Because a
replication is a pure function of exactly those inputs (the determinism
contract the differential suites assert), a hit can be trusted without
re-running anything; and because any code change moves the fingerprint
directory, stale results can never leak across versions — invalidation
is free and total.

Store rules (enforced by the executor, documented here):

* every outcome with a sample is stored, at whatever attempt it
  resolved, with its failure records and degraded flag — except one
  carrying a timeout or worker-crash record, which depends on the wall
  clock and the host and is recomputed;
* permanently failed replications are not stored (and an ``ok: false``
  entry reads as a miss);
* an entry resolved at an attempt past the reading run's ``retries`` is
  a miss, so a hit is always what a fresh run with that budget would
  compute;
* specs whose ``to_dict`` does not round-trip to JSON are never cached
  (a ``repr`` fallback could embed memory addresses and collide across
  processes);
* writes are atomic (temp file + ``os.replace``), so a killed process
  leaves no torn entries; a corrupt, unreadable or malformed entry
  reads as a miss, never as an error.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from typing import Any, Callable, Dict, Optional

#: Directory-name prefix length for the two fan-out levels.
_FINGERPRINT_CHARS = 12
_SHARD_CHARS = 2

_code_fingerprint: Optional[str] = None


def code_fingerprint() -> str:
    """Digest of every ``.py`` file in the ``repro`` package.

    Computed once per process (the package does not change under a
    running interpreter) and used as a cache-directory level: any code
    change — engine, scheduler, metrics — silently retires every cached
    result from the previous version.
    """
    global _code_fingerprint
    if _code_fingerprint is None:
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        digest = hashlib.blake2b(digest_size=16)
        for dirpath, dirnames, filenames in os.walk(package_root):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                relative = os.path.relpath(path, package_root)
                digest.update(relative.encode("utf-8"))
                digest.update(b"\0")
                with open(path, "rb") as handle:
                    digest.update(handle.read())
                digest.update(b"\0")
        _code_fingerprint = digest.hexdigest()
    return _code_fingerprint


def cacheable_spec_payload(spec: Any) -> Optional[Any]:
    """The spec's canonical JSON identity, or None if it has none.

    A spec that does not serialize (live ``Distribution`` instances,
    user subclasses) would fall back to ``repr``, which may embed
    memory addresses — deterministic within a process but colliding
    *across* processes.  Such specs simply cannot be cached.
    """
    try:
        payload = spec.to_dict()
        json.dumps(payload, sort_keys=True)
    except Exception:  # noqa: BLE001 — any serialization trouble = no cache
        return None
    return payload


class ResultCache:
    """On-disk content-addressed store of replication results.

    Args:
        root: cache directory; created lazily on the first write.
            Entries live at ``root/<code_fp>/<shard>/<key>.json``.

    Example:
        >>> import tempfile
        >>> cache = ResultCache(tempfile.mkdtemp())
        >>> key = cache.key({"scheduler": "rrs"}, "compiled", 0, 3)
        >>> cache.load(key) is None
        True
    """

    def __init__(self, root: str) -> None:
        self.root = str(root)
        self.fingerprint = code_fingerprint()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        # A shared handle (see :func:`shared_cache`) is read and written
        # from many service jobs at once; the store itself is safe under
        # concurrency (atomic writes, equal values), the counters need
        # the lock to stay exact.
        self._lock = threading.Lock()

    def key(
        self,
        spec_payload: Any,
        engine: str,
        root_seed: int,
        replication: int,
        extra_probes: bool = False,
        *,
        guard: Optional[Dict[str, Any]] = None,
        chaos: Optional[Dict[str, Any]] = None,
    ) -> str:
        """The content digest of one replication's full identity.

        ``guard`` and ``chaos`` are the policy and plan dicts
        (``to_dict()``) of a guarded or chaos run.
        """
        text = json.dumps(
            {
                "spec": spec_payload,
                "engine": engine,
                "root_seed": root_seed,
                "replication": replication,
                "extra_probes": extra_probes,
                "guard": guard,
                "chaos": chaos,
            },
            sort_keys=True,
        )
        return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(
            self.root,
            self.fingerprint[:_FINGERPRINT_CHARS],
            key[:_SHARD_CHARS],
            f"{key}.json",
        )

    def load(
        self, key: str, parse: Optional[Callable[[Dict[str, Any]], Any]] = None
    ) -> Optional[Any]:
        """The stored result payload, or ``parse(payload)``; None on a miss.

        A miss is an absent or unreadable entry, one that is not an
        ``ok`` dict, or one ``parse`` rejects by raising ``KeyError``,
        ``TypeError`` or ``ValueError``.
        """
        try:
            with open(self._path(key), "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if not isinstance(payload, dict) or not payload.get("ok"):
                raise ValueError("not an ok result")
            if parse is not None:
                payload = parse(payload)
        except (OSError, KeyError, TypeError, ValueError):
            with self._lock:
                self.misses += 1
            return None
        with self._lock:
            self.hits += 1
        return payload

    def store(self, key: str, payload: Dict[str, Any]) -> None:
        """Atomically persist one result (last writer wins, all equal)."""
        path = self._path(key)
        temp = f"{path}.tmp.{os.getpid()}"
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(temp, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(temp, path)
        except OSError:
            # A full or read-only disk degrades to "no cache", never an error.
            try:
                os.remove(temp)
            except OSError:
                pass
            return
        with self._lock:
            self.writes += 1

    def stats(self) -> Dict[str, Any]:
        """This handle's traffic counters (hit ratio for dashboards)."""
        with self._lock:
            hits, misses, writes = self.hits, self.misses, self.writes
        looked = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "writes": writes,
            "hit_ratio": (hits / looked) if looked else 0.0,
        }


# -- shared multi-tenant handles ------------------------------------------
#
# Many concurrent service jobs — typically different tenants submitting
# overlapping experiments — read and write the same content-addressed
# store.  The *store* needs no coordination (keys are pure content
# digests, writes are atomic, and every writer of a key writes the same
# bytes), but sharing one handle per root directory makes the traffic
# counters aggregate across jobs, which is what a server reports as its
# cache-hit ratio.

_SHARED: Dict[str, ResultCache] = {}
_SHARED_LOCK = threading.Lock()


def shared_cache(root: str) -> ResultCache:
    """The process-wide :class:`ResultCache` handle for ``root``.

    Repeated calls with the same directory return the same instance, so
    counters accumulate across every experiment bound to it.
    """
    key = os.path.abspath(str(root))
    with _SHARED_LOCK:
        cache = _SHARED.get(key)
        if cache is None:
            cache = _SHARED[key] = ResultCache(key)
        return cache
