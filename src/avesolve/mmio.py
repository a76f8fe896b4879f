"""Matrix Market and plain-text readers and writers.

Sparse matrices travel as Matrix Market coordinate files, dense matrices as
Matrix Market array files (column-major entry order), vectors as one entry
per line.  Values are written with 17 significant digits so float64 data
round-trips exactly.  All parse failures raise :class:`FileFormatError`
naming the file and 1-based line number.
"""

from __future__ import annotations

import os

import numpy as np
import scipy.sparse as sp

from .linalg import is_sparse

__all__ = [
    "FileFormatError",
    "write_matrix_market",
    "read_matrix_market",
    "write_vector",
    "read_vector",
]

_FMT = "%.17g"


class FileFormatError(Exception):
    """A file could not be parsed; the message names file and line."""


def _fail(path, lineno: int, message: str) -> None:
    raise FileFormatError(f"{os.fspath(path)}:{lineno}: {message}")


def write_matrix_market(A, path) -> None:
    """Write ``A`` to ``path`` in Matrix Market format.

    CSR input becomes a coordinate file, dense input an array file.  Other
    sparse formats are converted to CSR first.
    """
    if is_sparse(A):
        M = sp.csr_matrix(A)
        M.sum_duplicates()
        M.sort_indices()
        coo = M.tocoo()
        with open(path, "w") as f:
            f.write("%%MatrixMarket matrix coordinate real general\n")
            f.write(f"{M.shape[0]} {M.shape[1]} {coo.nnz}\n")
            for i, j, v in zip(coo.row, coo.col, coo.data):
                f.write(f"{i + 1} {j + 1} {_FMT % v}\n")
    else:
        d = np.asarray(A, dtype=np.float64)
        if d.ndim != 2:
            raise ValueError("write_matrix_market: expected a 2-D matrix")
        with open(path, "w") as f:
            f.write("%%MatrixMarket matrix array real general\n")
            f.write(f"{d.shape[0]} {d.shape[1]}\n")
            for j in range(d.shape[1]):
                for i in range(d.shape[0]):
                    f.write(f"{_FMT % d[i, j]}\n")


def read_matrix_market(path):
    """Read a Matrix Market file; coordinate files load as CSR, array files
    as column-major dense arrays.  A symmetric file holds the lower triangle:
    an array file its n (n + 1) / 2 entries column by column."""
    with open(path) as f:
        lines = f.readlines()
    if not lines:
        _fail(path, 1, "empty file, expected a MatrixMarket header")

    header = lines[0].strip().split()
    if len(header) != 5 or header[0] != "%%MatrixMarket":
        _fail(path, 1, f"malformed MatrixMarket header: {lines[0].strip()!r}")
    _, obj, fmt, field, symmetry = (t.lower() for t in header)
    if obj != "matrix":
        _fail(path, 1, f"unsupported object {obj!r}, expected 'matrix'")
    if fmt not in ("coordinate", "array"):
        _fail(path, 1, f"unsupported format {fmt!r}")
    if field not in ("real", "integer"):
        _fail(path, 1, f"unsupported field {field!r}, expected real or integer")
    if symmetry not in ("general", "symmetric"):
        _fail(path, 1, f"unsupported symmetry {symmetry!r}")

    # Skip comment lines between header and size line.
    k = 1
    while k < len(lines) and lines[k].lstrip().startswith("%"):
        k += 1
    if k >= len(lines):
        _fail(path, len(lines), "missing size line")
    size_line = lines[k].split()
    sizeno = k + 1

    if fmt == "coordinate":
        if len(size_line) != 3:
            _fail(path, sizeno, f"coordinate size line needs 'rows cols nnz', got {lines[k].strip()!r}")
        try:
            m, n, nnz = (int(t) for t in size_line)
        except ValueError:
            _fail(path, sizeno, f"non-integer size line: {lines[k].strip()!r}")
        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        vals = np.empty(nnz, dtype=np.float64)
        count = 0
        for lineno in range(sizeno + 1, len(lines) + 1):
            raw = lines[lineno - 1].strip()
            if not raw or raw.startswith("%"):
                continue
            if count >= nnz:
                _fail(path, lineno, f"more than the declared {nnz} entries")
            parts = raw.split()
            if len(parts) != 3:
                _fail(path, lineno, f"expected 'row col value', got {raw!r}")
            try:
                i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                _fail(path, lineno, f"could not parse entry {raw!r}")
            if not (1 <= i <= m and 1 <= j <= n):
                _fail(path, lineno, f"index ({i}, {j}) outside {m} x {n}")
            rows[count], cols[count], vals[count] = i - 1, j - 1, v
            count += 1
        if count != nnz:
            _fail(path, len(lines), f"declared {nnz} entries but found {count}")
        if symmetry == "symmetric":
            off = rows != cols
            mirror_r, mirror_c, mirror_v = cols[off], rows[off], vals[off]
            rows = np.concatenate([rows, mirror_r])
            cols = np.concatenate([cols, mirror_c])
            vals = np.concatenate([vals, mirror_v])
        M = sp.csr_matrix((vals, (rows, cols)), shape=(m, n))
        M.sum_duplicates()
        M.sort_indices()
        return M

    if len(size_line) != 2:
        _fail(path, sizeno, f"array size line needs 'rows cols', got {lines[k].strip()!r}")
    try:
        m, n = (int(t) for t in size_line)
    except ValueError:
        _fail(path, sizeno, f"non-integer size line: {lines[k].strip()!r}")
    symmetric = symmetry == "symmetric"
    if symmetric and m != n:
        _fail(path, sizeno, f"symmetric array must be square, got {m} x {n}")
    count = m * (m + 1) // 2 if symmetric else m * n
    vals = []
    for lineno in range(sizeno + 1, len(lines) + 1):
        raw = lines[lineno - 1].strip()
        if not raw or raw.startswith("%"):
            continue
        if len(vals) >= count:
            _fail(path, lineno, f"more than the declared {count} entries")
        try:
            vals.append(float(raw))
        except ValueError:
            _fail(path, lineno, f"could not parse entry {raw!r}")
    if len(vals) != count:
        _fail(path, len(lines), f"declared {count} entries but found {len(vals)}")
    if not symmetric:
        return np.asfortranarray(np.array(vals, dtype=np.float64).reshape((n, m)).T)
    d = np.empty((n, n), order="F")
    j, i = np.triu_indices(n)  # (i, j) walks the lower triangle column by column
    d[i, j] = d[j, i] = vals
    return d


def write_vector(x: np.ndarray, path) -> None:
    """Write a vector one entry per line at 17 significant digits."""
    v = np.asarray(x, dtype=np.float64).reshape(-1)
    with open(path, "w") as f:
        for entry in v:
            f.write(f"{_FMT % entry}\n")


def read_vector(path) -> np.ndarray:
    """Read a one-entry-per-line vector; '#' lines and blanks are skipped."""
    vals = []
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            s = raw.strip()
            if not s or s.startswith("#"):
                continue
            try:
                vals.append(float(s))
            except ValueError:
                _fail(path, lineno, f"could not parse vector entry {s!r}")
    return np.array(vals, dtype=np.float64)

