"""Streaming JSONL checkpoints for experiment runs.

Every resolved replication is appended to the checkpoint as one JSON
line the moment it finishes, so an interrupted ``run_experiment`` or
``run_sweep`` loses at most the replication in flight.  On resume, the
store replays completed replications and the executor recomputes only
what is missing — producing byte-identical result tables to an
uninterrupted run.

File format (one JSON object per line):

* ``{"kind": "scope", "scope": ..., "fingerprint": ...}`` — opens a
  namespace (one per experiment; sweeps use one scope per point) and
  pins the experiment fingerprint (code + spec + seed + protocol), so a
  stale checkpoint cannot silently contaminate a different experiment,
  and a checkpoint written before any edit to the package cannot mix
  two model versions into one run;
* ``{"kind": "replication", "scope": ..., "replication": ..., ...}`` —
  one resolved replication: its metrics (or permanent failure), the
  attempt that succeeded, failure records, and the degraded flag.

A truncated final line (the process died mid-write) is tolerated and
dropped; corruption anywhere else raises
:class:`~repro.errors.CheckpointError`.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Optional, Set, Tuple

from ..errors import CheckpointError


def fingerprint(payload: Any) -> str:
    """Stable hex digest of an arbitrary JSON-able payload.

    Falls back to ``repr`` for objects that do not serialize (e.g. a
    spec holding live :class:`Distribution` instances), which is still
    deterministic within one code version.
    """
    try:
        text = json.dumps(payload, sort_keys=True, default=repr)
    except (TypeError, ValueError):
        text = repr(payload)
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


class CheckpointStore:
    """Append-only JSONL store of resolved replications.

    A sweep opens its scopes between :meth:`hold` and :meth:`settle`:
    a resume that fails there leaves the file as it was, and one that
    succeeds drops the scopes no point opened (such as a pre-sweep
    ``experiment`` scope), so dead records do not pile up.

    Args:
        path: checkpoint file; created (with parent directories) on the
            first write.
        resume: load existing records instead of starting fresh.  When
            False an existing file is truncated — a deliberate new run
            overwrites stale state.
    """

    def __init__(self, path: str, resume: bool = False) -> None:
        self.path = str(path)
        self._scopes: Dict[str, str] = {}
        self._records: Dict[Tuple[str, int], Dict[str, Any]] = {}
        self._opened: Set[str] = set()
        self._held: Optional[List[Dict[str, Any]]] = None
        if resume and os.path.exists(self.path):
            self._load()
        elif not resume and os.path.exists(self.path):
            os.remove(self.path)
        self._handle = None

    # -- reading ------------------------------------------------------------

    def _load(self) -> None:
        with open(self.path, "rb") as handle:
            raw = handle.read()
        lines = raw.decode("utf-8").splitlines()
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if number == len(lines):
                    # Torn final write from a killed process: drop the
                    # fragment from the file too, so records appended by
                    # this resumed run start on a clean line instead of
                    # gluing onto it (which would corrupt the file for
                    # every *future* resume).
                    os.truncate(self.path, len(raw) - len(line.encode("utf-8")))
                    break
                raise CheckpointError(
                    f"{self.path}:{number}: corrupt checkpoint line: {exc}"
                ) from exc
            kind = record.get("kind")
            if kind == "scope":
                self._scopes[record["scope"]] = record["fingerprint"]
            elif kind == "replication":
                key = (record["scope"], int(record["replication"]))
                self._records[key] = record
            else:
                raise CheckpointError(
                    f"{self.path}:{number}: unknown record kind {kind!r}"
                )

    def begin_scope(self, scope: str, scope_fingerprint: str) -> None:
        """Open (or re-validate) one experiment namespace.

        Raises:
            CheckpointError: the scope exists with a different
                fingerprint — this checkpoint belongs to a different
                experiment, or to another version of the code, and must
                not be resumed against.
        """
        existing = self._scopes.get(scope)
        self._opened.add(scope)
        if existing is not None:
            if existing != scope_fingerprint:
                raise CheckpointError(
                    f"checkpoint scope {scope!r} was written by a different "
                    "experiment or by a different version of the code "
                    f"(fingerprint {existing[:12]}… != "
                    f"{scope_fingerprint[:12]}…); refusing to resume: "
                    "start a fresh checkpoint"
                )
            return
        self._scopes[scope] = scope_fingerprint
        self._append({"kind": "scope", "scope": scope, "fingerprint": scope_fingerprint})

    def get(self, scope: str, replication: int) -> Optional[Dict[str, Any]]:
        """The stored record for one replication, or None."""
        return self._records.get((scope, replication))

    def replications(self, scope: str) -> Dict[int, Dict[str, Any]]:
        """All stored records of one scope, keyed by replication index."""
        return {
            rep: record
            for (record_scope, rep), record in self._records.items()
            if record_scope == scope
        }

    # -- writing ------------------------------------------------------------

    def record(self, scope: str, replication: int, payload: Dict[str, Any]) -> None:
        """Persist one resolved replication (idempotent per key)."""
        if scope not in self._scopes:
            raise CheckpointError(
                f"scope {scope!r} was never opened with begin_scope()"
            )
        key = (scope, int(replication))
        if key in self._records:
            return
        record = {"kind": "replication", "scope": scope, "replication": int(replication)}
        record.update(payload)
        self._records[key] = record
        self._append(record)

    def hold(self) -> None:
        """Buffer every write until :meth:`settle`; :meth:`close` drops them."""
        self._held = []

    def settle(self) -> None:
        """Write the held records, or rewrite the file without dead scopes."""
        held, self._held = self._held, None
        if set(self._scopes) <= self._opened:
            for record in held or ():
                self._append(record)
            return
        self.close()
        live = [
            {"kind": "scope", "scope": scope, "fingerprint": digest}
            for scope, digest in self._scopes.items()
            if scope in self._opened
        ]
        live += [r for (scope, _), r in self._records.items() if scope in self._opened]
        temporary = self.path + ".tmp"
        with open(temporary, "w", encoding="utf-8") as handle:
            for record in live:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        os.replace(temporary, self.path)

    def _append(self, record: Dict[str, Any]) -> None:
        if self._held is not None:
            self._held.append(record)
            return
        if self._handle is None:
            parent = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(parent, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        self._held = None
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CheckpointStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
