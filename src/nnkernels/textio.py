"""Delimited-text and key:value file helpers with atomic writes.

All numeric output uses '.' decimals, comma separators, LF line ends,
and repr-round-trip float formatting, so identical runs produce
byte-identical files.

Tables (``write_csv``, ``write_matrix``) are streamed into the temporary
file ``BLOCK_ROWS`` rows at a time, so a table is never held as one
string; the rename that ends the write keeps it atomic, and a write that
fails leaves neither the file nor its temporary behind.  A float64 table
whose columns form a bitwise-symmetric square (every kernel matrix) has
only its upper triangle formatted; each line's lower part is mirrored
from the rows above it, with the same bytes.
"""

from __future__ import annotations

import itertools
import os
import tempfile

import numpy as np


#: rows formatted and written per block by the table writer
BLOCK_ROWS = 4096


def atomic_write_text(path: str, text) -> None:
    """Write ``text``, a string or an iterable of strings, to a temporary
    file beside ``path`` and rename it over ``path``; on any error the
    temporary file is removed and ``path`` is left as it was."""
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
            fh.writelines([text] if isinstance(text, str) else text)
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


def _symmetric_square(columns) -> np.ndarray | None:
    """The table as an (n, n) float64 matrix when its columns form one that
    is bitwise symmetric, else None.  Bits, not values: 0.0 == -0.0 but the
    two print differently, and NaN never equals itself."""
    if not columns or len(columns) != len(columns[0]) or any(c.dtype != np.float64 for c in columns):
        return None
    A = np.column_stack(columns)
    bits = A.view(np.uint64)
    return A if np.array_equal(bits, bits.T) else None


def _table_lines(columns):
    """The table's text, given its equally long columns, in LF-ended blocks
    of ``BLOCK_ROWS`` lines; a bitwise-symmetric float64 square comes one
    line at a time, each value of its upper triangle formatted once."""
    A = _symmetric_square(columns)
    if A is not None:
        upper = []  # upper[j]: row j's text from column j on
        for i in range(len(A)):
            upper.append(_column_text(A[i, i:]))
            yield ",".join([u[i - j] for j, u in enumerate(upper[:i])] + upper[i]) + "\n"
        return
    for start in range(0, len(columns[0]) if columns else 0, BLOCK_ROWS):
        cells = [_column_text(c[start : start + BLOCK_ROWS]) for c in columns]
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def _write_table(path: str, head: list[str], columns) -> None:
    """``head`` lines, then the table's rows, streamed into an atomic write."""
    columns = [np.asarray(c) for c in columns]
    if len({len(c) for c in columns}) > 1:
        raise ValueError(f"columns differ in length: {[len(c) for c in columns]}")
    atomic_write_text(path, itertools.chain(head, _table_lines(columns)))


def write_csv(path: str, header, columns) -> None:
    """A header line, then one line per row of ``columns`` (one array per header name)."""
    header, columns = list(header), list(columns)
    if len(header) != len(columns):
        raise ValueError(f"{len(header)} header names for {len(columns)} columns")
    _write_table(path, [",".join(header) + "\n"], columns)


def write_matrix(path: str, A: np.ndarray) -> None:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    _write_table(path, [], A.T)


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
