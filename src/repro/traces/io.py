"""Trace (de)serialization: a compact dumpi-like text format.

One JSON object per line; the first line is a header record.  The format
round-trips everything the analyses consume, so traces can be generated
once and replayed many times (or produced by an external tool -- e.g. an
actual dumpi converter -- and fed to this package's analyzers).

Event records::

    {"k": "h", "app": ..., "ranks": N, "meta": {...}}     header
    {"k": "s", "t": time, "r": rank, "d": dst, "g": tag,
     "c": comm, "b": nbytes}                              send
    {"k": "p", "t": time, "r": rank, "s": src, "g": tag,
     "c": comm}                                           recv post
    {"k": "b", "t": time, "r": rank}                      barrier
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator

from .events import COLUMNS, KIND_BARRIER, KIND_POST, KIND_SEND, Trace

__all__ = ["save_trace", "load_trace", "dumps", "loads"]

_FORMAT_VERSION = 1

_REQUIRED = object()

#: the integer columns, in the order a row carries them after ``kind``
_INT_COLUMNS = tuple(COLUMNS)[1:-1]

#: record kind -> (kind code, per integer column the record's key and
#: the value when the key is absent; key ``None`` = not recorded)
_RECORDS = {
    "s": (KIND_SEND, (("r", _REQUIRED), ("d", _REQUIRED), ("g", _REQUIRED),
                      ("c", 0), ("b", 8))),
    "p": (KIND_POST, (("r", _REQUIRED), ("s", _REQUIRED), ("g", _REQUIRED),
                      ("c", 0), (None, 0))),
    "b": (KIND_BARRIER, (("r", _REQUIRED), (None, 0), (None, 0), (None, 0),
                         (None, 0))),
}
_KIND_RECORDS = {code: (k, fields) for k, (code, fields) in _RECORDS.items()}


def _records(trace: Trace) -> Iterator[dict]:
    yield {"k": "h", "v": _FORMAT_VERSION, "app": trace.app,
           "ranks": trace.n_ranks, "meta": trace.meta}
    for kind, *ints, time in trace.events:
        k, fields = _KIND_RECORDS[kind]
        rec = {"k": k, "t": time}
        rec.update((key, value) for (key, _), value in zip(fields, ints)
                   if key is not None)
        yield rec


def _field(rec: dict, key: str, lineno: int, default=_REQUIRED,
           types: tuple = (int,)):
    """``rec[key]`` (or ``default``), which must be one of ``types``."""
    value = rec.get(key, default)
    if value is _REQUIRED:
        raise ValueError(f"line {lineno}: missing field {key!r}")
    if type(value) not in types:
        raise ValueError(f"line {lineno}: field {key!r} must be "
                         f"{' or '.join(t.__name__ for t in types)}, "
                         f"got {value!r}")
    return value


def _parse(lines: Iterable[str]) -> Trace:
    header: dict | None = None
    cols: dict[str, list] = {name: [] for name in COLUMNS}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: invalid JSON: {exc}") from None
        if not isinstance(rec, dict):
            raise ValueError(f"line {lineno}: record is not a JSON object")
        kind = rec.get("k")
        if kind == "h":
            if header is not None:
                raise ValueError(f"line {lineno}: duplicate header")
            if rec.get("v") != _FORMAT_VERSION:
                raise ValueError(
                    f"unsupported trace format version {rec.get('v')!r}")
            header = {"app": _field(rec, "app", lineno, types=(str,)),
                      "n_ranks": _field(rec, "ranks", lineno),
                      "meta": rec.get("meta")}
        elif header is None:
            raise ValueError(f"line {lineno}: event before header")
        elif kind in _RECORDS:
            code, fields = _RECORDS[kind]
            cols["kind"].append(code)
            cols["time"].append(_field(rec, "t", lineno, types=(int, float)))
            for name, (key, default) in zip(_INT_COLUMNS, fields):
                cols[name].append(default if key is None
                                  else _field(rec, key, lineno, default))
        else:
            raise ValueError(f"line {lineno}: unknown record kind {kind!r}")
    if header is None:
        raise ValueError("empty trace file (no header)")
    return Trace(columns=cols, **header)


def dumps(trace: Trace) -> str:
    """Serialize a trace to a JSONL string."""
    return "\n".join(json.dumps(rec, separators=(",", ":"))
                     for rec in _records(trace)) + "\n"


def loads(text: str) -> Trace:
    """Parse a trace from a JSONL string."""
    return _parse(text.splitlines())


def save_trace(trace: Trace, path: str | Path) -> Path:
    """Write a trace to ``path`` (JSONL); returns the path."""
    path = Path(path)
    with path.open("w") as fh:
        for rec in _records(trace):
            fh.write(json.dumps(rec, separators=(",", ":")))
            fh.write("\n")
    return path


def load_trace(path: str | Path) -> Trace:
    """Read a trace written by :func:`save_trace`."""
    with Path(path).open() as fh:
        return _parse(fh)
