"""Delimited-text and key:value file helpers with atomic writes.

All numeric output uses '.' decimals, comma separators, LF line ends,
and repr-round-trip float formatting, so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np


def atomic_write_text(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            # mkstemp creates the file 0600 and os.replace keeps that mode;
            # give it the mode a plain open() would have
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _column_text(col) -> list[str]:
    """One column's values as text, by dtype: bools as true/false, floats
    by their shortest round-trip repr, everything else by ``str``."""
    col = np.asarray(col)
    values = col.tolist()
    if col.dtype.kind == "b":
        return ["true" if v else "false" for v in values]
    if col.dtype.kind in "iu":
        return list(map(str, values))
    if col.dtype.kind == "f":
        return list(map(float.__repr__, values))
    return list(map(str, values))


def _table_text(columns) -> list[str]:
    """The lines of a table given by its columns, which must all be as long."""
    formatted = [_column_text(c) for c in columns]
    if len({len(c) for c in formatted}) > 1:
        raise ValueError(f"columns differ in length: {[len(c) for c in formatted]}")
    return list(map(",".join, zip(*formatted)))


def write_csv(path: str, header, columns) -> None:
    """A header line, then one line per row of ``columns`` (one array per header name)."""
    header, columns = list(header), list(columns)
    if len(header) != len(columns):
        raise ValueError(f"{len(header)} header names for {len(columns)} columns")
    atomic_write_text(path, "\n".join([",".join(header), *_table_text(columns)]) + "\n")


def write_matrix(path: str, A: np.ndarray) -> None:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    atomic_write_text(path, "\n".join(_table_text(A.T)) + "\n")


def read_table(path: str) -> tuple[list[str] | None, np.ndarray]:
    """A numeric CSV as (header, body); the header is None when the first line is numeric."""
    with open(path) as fh:
        rows = [ln.strip().split(",") for ln in fh if ln.strip()]
    header = None
    if rows and not all(map(_is_float, rows[0])):
        header, rows = [h.strip() for h in rows[0]], rows[1:]
    return header, np.array([[float(v) for v in r] for r in rows])


def read_matrix(path: str) -> np.ndarray:
    return read_table(path)[1]


def _is_float(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def write_kv(path: str, mapping: dict) -> None:
    lines = [f"{k}: {_column_text([v])[0]}" for k, v in mapping.items()]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_kv(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for ln in fh:
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            k, _, v = ln.partition(":")
            out[k.strip()] = v.strip()
    return out


def read_config(path: str) -> dict:
    """Flat ``key = value`` config with '#' comments; keys may use dots."""
    out = {}
    with open(path) as fh:
        for lineno, ln in enumerate(fh, 1):
            ln = ln.split("#", 1)[0].strip()
            if not ln:
                continue
            if "=" not in ln:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            k, _, v = ln.partition("=")
            k = k.strip()
            if not k:
                raise ValueError(f"{path}:{lineno}: empty key")
            if k in out:
                raise ValueError(f"{path}:{lineno}: duplicate key {k!r}")
            out[k] = v.strip()
    return out
