"""Shard-level checkpoint persistence for resumable runs.

A :class:`CheckpointStore` holds one checkpoint file per key (one key
per shard) under a root directory.  The payload wraps an engine
checkpoint (``AsyncJoinEngine.checkpoint()``) with the result-schema
version and a *fingerprint* — a string derived from the spec and shard
coordinates — so a stale file from a different run can never be resumed
into this one: on any mismatch :meth:`load` returns ``None`` and the
shard replays from tick 0, which is always correct, just slower.

Writes are atomic (temp file + ``os.replace``) so a worker killed
mid-save leaves the previous checkpoint intact.  Payloads are pickled:
join keys are arbitrary hashable objects and RNG states are numpy
structures — JSON would need a parallel encoding for no benefit, and
checkpoints are private scratch, not an interchange format.

A file is :data:`MAGIC`, the SHA-256 digest of the pickle, then the
pickle.  :meth:`CheckpointStore.load` checks the digest before
unpickling, so damaged bytes never reach the unpickler — which can do
more than fail on them: one flipped opcode byte can make it grow its
memo table to gigabytes before it notices anything is wrong.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import re
import tempfile
import time
from pathlib import Path
from typing import Optional

from ..core.results import SCHEMA_VERSION
from ..obs import telemetry as _telemetry

__all__ = ["CheckpointStore", "MAGIC", "RESUME_KEYS"]

#: Leading bytes of a checkpoint file (format tag; the digest follows).
MAGIC = b"REPROCK1"
_DIGEST_SIZE = hashlib.sha256().digest_size

_KEY_RE = re.compile(r"[^A-Za-z0-9._-]+")

#: The keys of an engine checkpoint (``AsyncJoinEngine.checkpoint()``)
#: that resuming reads; a state without all of them is unusable.
RESUME_KEYS = (
    "tick",
    "output",
    "total_output",
    "arrivals",
    "sequence",
    "kernel",
    "policies",
    "metrics",
)


class CheckpointStore:
    """Atomic save/load/clear of checkpoint payloads under one directory."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        safe = _KEY_RE.sub("_", key)
        return self.root / f"{safe}.ckpt"

    def save(self, key: str, state: dict, *, fingerprint: str) -> Path:
        """Atomically persist ``state`` for ``key``.

        Under an armed telemetry context (see
        :mod:`repro.obs.telemetry`) the save and its wall-clock cost are
        recorded as a ``checkpoint_save`` span.
        """
        started = time.perf_counter()
        payload = {
            "schema_version": SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "state": state,
        }
        path = self.path_for(key)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.root), prefix=path.name, suffix=".tmp"
        )
        try:
            body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            with os.fdopen(fd, "wb") as handle:
                handle.write(MAGIC + hashlib.sha256(body).digest() + body)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        _telemetry.checkpoint_saved(
            time.perf_counter() - started, tick=state.get("tick"), key=key
        )
        return path

    def load(self, key: str, *, fingerprint: str) -> Optional[dict]:
        """The saved state for ``key``, or ``None`` when absent/unusable.

        Unreadable files, a wrong header or digest, any exception while
        unpickling, schema and fingerprint mismatches, and states
        missing any of :data:`RESUME_KEYS` all collapse to ``None`` —
        resuming from nothing is always safe.
        """
        try:
            data = self.path_for(key).read_bytes()
        except OSError:
            return None
        start = len(MAGIC) + _DIGEST_SIZE
        body = data[start:]
        if (
            data[: len(MAGIC)] != MAGIC
            or data[len(MAGIC):start] != hashlib.sha256(body).digest()
        ):
            return None
        try:
            payload = pickle.loads(body)
        except Exception:
            # An intact file can still fail to unpickle (a class that
            # moved or vanished since it was written, ...); damaged
            # pickles raise MemoryError, ValueError, OverflowError,
            # UnicodeDecodeError, TypeError and more.  Any of them
            # means "unusable".
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("schema_version") != SCHEMA_VERSION:
            return None
        if payload.get("fingerprint") != fingerprint:
            return None
        state = payload.get("state")
        if not isinstance(state, dict) or not all(k in state for k in RESUME_KEYS):
            return None
        _telemetry.checkpoint_restored(tick=state.get("tick"), key=key)
        return state

    def clear(self, key: str) -> None:
        """Drop ``key``'s checkpoint (after a successful run)."""
        try:
            self.path_for(key).unlink()
        except FileNotFoundError:
            pass
