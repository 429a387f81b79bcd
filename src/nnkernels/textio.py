"""Delimited-text and key:value file helpers with atomic writes.

All numeric output uses '.' decimals, comma separators, LF line ends,
and repr-round-trip float formatting, so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


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


def write_csv(path: str, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_matrix(path: str, A: np.ndarray) -> None:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    lines = [",".join(_fmt(v) for v in row) for row in A]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_matrix(path: str, header: bool = False) -> np.ndarray:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if header:
        lines = lines[1:]
    return np.array([[float(v) for v in ln.split(",")] for ln in lines])


def write_kv(path: str, mapping: dict) -> None:
    lines = [f"{k}: {_fmt(v)}" for k, v in mapping.items()]
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
