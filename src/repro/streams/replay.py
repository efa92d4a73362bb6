"""Persisting and replaying recorded stream pairs.

Experiments are reproducible from seeds alone, but saving the concrete
streams makes runs auditable and lets users replay external datasets
(e.g. the real weather data, if they obtain it) through the engine.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Union

from .tuples import StreamPair

_HEADER = ("time", "r_key", "s_key")

#: Format tag and version of the JSONL recording format.  The first
#: line of a recording is a header object ``{"format": ..., "version":
#: ..., "name": ..., "length": ...}``; each following line is one tick,
#: ``{"t": <tick>, "r": [keys...], "s": [keys...]}``.  Unlike the CSV
#: format (exactly one arrival per side per tick), JSONL ticks carry
#: arrival *batches*, so bursty recorded traffic replays faithfully
#: through ``repro serve``.
JSONL_FORMAT = "repro.streams"
JSONL_VERSION = 1


def save_pair(pair: StreamPair, path: Union[str, Path]) -> None:
    """Write a stream pair to CSV with columns ``time, r_key, s_key``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_HEADER)
        for t, (r_key, s_key) in enumerate(zip(pair.r, pair.s)):
            writer.writerow((t, r_key, s_key))


def load_pair(path: Union[str, Path], *, key_type=int, name: str = "") -> StreamPair:
    """Read a stream pair previously written by :func:`save_pair`.

    Parameters
    ----------
    key_type:
        Constructor applied to each key column (``int`` by default; pass
        ``str`` for non-numeric join attributes).

    Raises
    ------
    ValueError
        On a malformed header or non-contiguous time column, which would
        silently corrupt window semantics if accepted.
    """
    path = Path(path)
    r_keys = []
    s_keys = []
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) != _HEADER:
            raise ValueError(f"{path}: expected header {_HEADER}, got {header}")
        for expected_time, row in enumerate(reader):
            if len(row) != 3:
                raise ValueError(f"{path}: malformed row {row!r}")
            if int(row[0]) != expected_time:
                raise ValueError(
                    f"{path}: time column must be contiguous from 0, "
                    f"got {row[0]} at position {expected_time}"
                )
            r_keys.append(key_type(row[1]))
            s_keys.append(key_type(row[2]))
    return StreamPair(r=r_keys, s=s_keys, name=name or path.stem)


def _jsonl_record(path: Path, lineno: int, line: str) -> dict:
    """Parse line ``lineno`` (1-based) of a JSONL recording.

    A truncated or corrupt record raises ``ValueError`` naming the file
    and the line, instead of a bare decoder message.
    """
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: line {lineno}: malformed JSON record ({exc.msg}, "
            f"column {exc.colno}); is the file truncated?"
        ) from exc
    if not isinstance(record, dict):
        raise ValueError(
            f"{path}: line {lineno}: expected a JSON object, "
            f"got {type(record).__name__}"
        )
    return record


def _jsonl_header(path: Path, first: str) -> dict:
    """Validate a JSONL recording's first line (format and version)."""
    if not first:
        raise ValueError(f"{path}: empty replay file")
    header = _jsonl_record(path, 1, first)
    if header.get("format") != JSONL_FORMAT:
        raise ValueError(
            f"{path}: expected format {JSONL_FORMAT!r}, got {header.get('format')!r}"
        )
    if header.get("version") != JSONL_VERSION:
        raise ValueError(
            f"{path}: unsupported replay version {header.get('version')!r} "
            f"(supported: {JSONL_VERSION})"
        )
    return header


def save_pair_jsonl(pair: StreamPair, path: Union[str, Path]) -> None:
    """Write a stream pair to the versioned JSONL recording format.

    Round-trips with :func:`load_pair_jsonl`; the output also replays
    incrementally through :class:`repro.streams.sources.ReplaySource`
    without being materialized.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "format": JSONL_FORMAT,
        "version": JSONL_VERSION,
        "name": pair.name,
        "length": len(pair),
    }
    with path.open("w") as handle:
        handle.write(json.dumps(header) + "\n")
        for t, (r_key, s_key) in enumerate(zip(pair.r, pair.s)):
            handle.write(json.dumps({"t": t, "r": [r_key], "s": [s_key]}) + "\n")


def load_pair_jsonl(
    path: Union[str, Path], *, key_type=int, name: str = ""
) -> StreamPair:
    """Read a stream pair previously written by :func:`save_pair_jsonl`.

    Raises
    ------
    ValueError
        On a missing/foreign header, an unsupported version, a
        truncated or corrupt record (the message names the file and the
        1-based line), a non-contiguous tick column, or ticks carrying
        anything other than one arrival per side (pairs are synchronous
        by definition; bursty recordings replay through
        ``ReplaySource`` instead).
    """
    path = Path(path)
    r_keys = []
    s_keys = []
    with path.open() as handle:
        header = _jsonl_header(path, handle.readline())
        for expected_tick, line in enumerate(handle):
            if not line.strip():
                continue
            event = _jsonl_record(path, expected_tick + 2, line)
            if event.get("t") != expected_tick:
                raise ValueError(
                    f"{path}: tick column must be contiguous from 0, "
                    f"got {event.get('t')} at position {expected_tick}"
                )
            r_batch = event.get("r", ())
            s_batch = event.get("s", ())
            if len(r_batch) != 1 or len(s_batch) != 1:
                raise ValueError(
                    f"{path}: tick {expected_tick} carries {len(r_batch)}/"
                    f"{len(s_batch)} arrivals; a StreamPair needs exactly one "
                    f"per side — replay bursty recordings via ReplaySource"
                )
            r_keys.append(key_type(r_batch[0]))
            s_keys.append(key_type(s_batch[0]))
    declared = header.get("length")
    if declared is not None and declared != len(r_keys):
        raise ValueError(
            f"{path}: header declares length {declared} but file has "
            f"{len(r_keys)} ticks"
        )
    return StreamPair(r=r_keys, s=s_keys, name=name or str(header.get("name") or path.stem))
