"""Matrix Market and plain-text readers and writers.

Sparse matrices travel as Matrix Market coordinate files, dense matrices as
Matrix Market array files (column-major entry order), vectors as one entry
per line.  SciPy's writer (``scipy.io.mmwrite``) formats the matrix entries
in the shortest form that round-trips, e.g. ``3.451248509317211E2``, and its
reader (``scipy.io.mmread``) parses coordinate entries; array and vector
entries are parsed by NumPy's text parser, which keeps the sign of -0.0
(not that of a NaN).  avesolve checks the banner, the size line and the
grammar of every entry line itself, each file with one regular-expression
search rather than a match per line, and every parse failure raises
:class:`FileFormatError` naming the file and 1-based line.
"""

from __future__ import annotations

import io
import itertools
import os
import re

import numpy as np
import scipy.io
import scipy.sparse as sp

from .linalg import is_sparse

__all__ = [
    "FileFormatError",
    "write_matrix_market",
    "read_matrix_market",
    "write_vector",
    "read_vector",
]


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
        M = sp.csr_matrix(A, dtype=np.float64)
        M.sum_duplicates()  # also sorts the indices
    else:
        M = np.asarray(A, dtype=np.float64)
        if M.ndim != 2:
            raise ValueError("write_matrix_market: expected a 2-D matrix")
    # An open file, as mmwrite appends ".mtx" to other paths; "general", as
    # its default writes a symmetric dense matrix as a symmetric file.
    with open(path, "wb") as f:
        scipy.io.mmwrite(f, M, symmetry="general")


# What the banner may declare after "%%MatrixMarket", in order.
_SUPPORTED = (("matrix",), ("coordinate", "array"), ("real", "integer"), ("general", "symmetric"))

# One pattern per (format, field) that finds the first body line holding
# neither one entry nor only blanks.  SciPy's reader takes the longest number
# at the start of a field and ignores what follows ("1.0abc" reads as 1.0,
# "1.5" in an integer file as 1, a fourth field is dropped), so every body
# is held to this grammar before any value is read.
_VALUES = {"real": rb"-?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|(?i:inf(?:inity)?|nan))",
           "integer": rb"-?\d+"}
_BAD_LINE = {
    (fmt, field): re.compile(rb"\n(?![ \t]*(?:%s%s[ \t]*)?\r?(?:\n|\Z))([^\n]*)" % (indices, value))
    for fmt, indices in (("coordinate", rb"\d+[ \t]+\d+[ \t]+"), ("array", b""))
    for field, value in _VALUES.items()
}

# Find a vector file's first line that is neither blank, a comment nor one
# entry: the first line if the first pattern matches at 0, else the line the
# second finds.  One pattern led by "\A|" would lose the search's fast scan
# for "\n" and take twice as long.
_BAD_VECTOR_LINE = tuple(
    re.compile(rb"%s(?![ \t]*(?:#[^\n]*|%s[ \t]*)?\r?(?:\n|\Z))([^\n]*)" % (start, _VALUES["real"]))
    for start in (b"", b"\n")
)


def _check_header(path, f):
    """Check the banner, comments and size line of the binary stream ``f``;
    return ``(fmt, field, symmetric, m, n, count, sizeno)``, where ``count``
    is the number of entries the body must hold.  SciPy trusts the header:
    given a symmetric header on a non-square size, it reads out of bounds."""
    banner = f.readline().decode(errors="replace")
    header = banner.split()
    if len(header) != 5 or header[0] != "%%MatrixMarket":
        _fail(path, 1, f"malformed MatrixMarket header: {banner.strip()!r}")
    _, obj, fmt, field, symmetry = (t.lower() for t in header)
    for value, allowed in zip((obj, fmt, field, symmetry), _SUPPORTED):
        if value not in allowed:
            _fail(path, 1, f"unsupported {value!r}, expected {' or '.join(allowed)}")

    sizeno, line = 2, f.readline()
    while line.lstrip().startswith(b"%"):
        sizeno, line = sizeno + 1, f.readline()
    if not line:
        _fail(path, sizeno - 1, "missing size line")
    line = line.decode(errors="replace")
    fields = "rows cols nnz" if fmt == "coordinate" else "rows cols"
    sizes = line.split()
    if len(sizes) != len(fields.split()) or not all(t.isdecimal() for t in sizes):
        _fail(path, sizeno, f"{fmt} size line needs non-negative integers "
                            f"'{fields}', got {line.strip()!r}")
    m, n, *nnz = map(int, sizes)
    symmetric = symmetry == "symmetric"
    if symmetric and m != n:
        _fail(path, sizeno, f"symmetric matrix must be square, got {m} x {n}")
    count = nnz[0] if nnz else n * (n + 1) // 2 if symmetric else m * n
    return fmt, field, symmetric, m, n, count, sizeno


def read_matrix_market(path):
    """Read a Matrix Market file; coordinate files load as canonical CSR,
    array files as column-major dense arrays, both float64.  A symmetric
    file holds the lower triangle: an array file its n (n + 1) / 2 entries
    column by column."""
    with open(path, "rb") as f:
        data = f.read()
    stream = io.BytesIO(data)
    fmt, field, symmetric, m, n, count, sizeno = _check_header(path, stream)
    start = stream.tell()
    if bad := _BAD_LINE[fmt, field].search(data, start - 1):  # from the size line's newline
        _fail(path, data.count(b"\n", 0, bad.start(1)) + 1,
              f"not a {field} {fmt} entry: {bad[1].decode(errors='replace').strip()!r}")

    if fmt == "array":
        # The grammar check leaves only numbers and whitespace in the body,
        # so NumPy's text parser reads it without a Python object per entry;
        # it reads a body of whitespace alone as [-1.0], hence the search.
        if re.compile(rb"\S").search(data, start):
            vals = np.fromstring(data[start:], dtype=np.float64, sep=" ")
        else:
            vals = np.empty(0)
        if len(vals) > count:
            extra = next(itertools.islice(re.compile(rb"\S+").finditer(data, start), count, None))
            _fail(path, data.count(b"\n", 0, extra.start()) + 1,
                  f"more than the declared {count} entries")
        if len(vals) < count:
            _fail(path, sizeno, f"declared {count} entries but found {len(vals)}")
        if not symmetric:
            return vals.reshape((n, m)).T
        d = np.empty((n, n), order="F")
        j, i = np.triu_indices(n)  # (i, j) walks the lower triangle column by column
        d[i, j] = d[j, i] = vals
        return d

    stream.seek(0)
    try:
        M = scipy.io.mmread(stream)
    except (ValueError, OverflowError) as exc:
        message = str(exc)
        if at := re.match(r"Line (\d+): (.*)", message):
            too_many = at[2].startswith("Too many")
            _fail(path, int(at[1]), f"more than the declared {count} entries" if too_many else at[2])
        if short := re.match(r"Truncated file\. Expected another (\d+) lines", message):
            _fail(path, sizeno, f"declared {count} entries but found {count - int(short[1])}")
        raise FileFormatError(f"{os.fspath(path)}: {message}")
    return M.tocsr().astype(np.float64, copy=False)


def write_vector(x: np.ndarray, path) -> None:
    """Write a vector one entry per line at 17 significant digits."""
    np.savetxt(path, np.asarray(x, dtype=np.float64).reshape(-1), fmt="%.17g")


def read_vector(path) -> np.ndarray:
    """Read a one-entry-per-line vector of ``real`` entries; '#' lines and
    blanks are skipped.  Beside the result, the read holds the file's bytes
    and, when it has comments, one copy of them without the comments."""
    with open(path, "rb") as f:
        data = f.read()
    # Every line must be blank, a comment or one entry, so '#' starts a comment.
    first, rest = _BAD_VECTOR_LINE
    if bad := first.match(data) or rest.search(data):
        _fail(path, data.count(b"\n", 0, bad.start(1)) + 1,
              f"could not parse vector entry {bad[1].strip().decode(errors='replace')!r}")
    if b"#" in data:
        data = re.sub(rb"#[^\n]*", b"", data)
    # As in read_matrix_market's array path: only numbers and whitespace are
    # left, and NumPy reads whitespace alone as [-1.0].
    if not re.search(rb"\S", data):
        return np.empty(0)
    return np.fromstring(data, dtype=np.float64, sep=" ")
