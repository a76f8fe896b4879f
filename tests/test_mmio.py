import re
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
import scipy.io
import scipy.sparse as sp

from avesolve.generators import gen_tridiag8
from avesolve.mmio import (
    FileFormatError,
    read_matrix_market,
    read_vector,
    write_matrix_market,
    write_vector,
)

AWKWARD = np.array([1.0 / 3.0, -2.5e17, 1e-300, 0.1 + 0.2, -0.0])


class TestMatrixRoundTrip:
    def test_sparse_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        A = sp.random(30, 30, density=0.15, random_state=rng, format="csr")
        A.data[: min(5, A.nnz)] = AWKWARD[: min(5, A.nnz)]
        path = tmp_path / "A.mtx"
        write_matrix_market(A, path)
        B = read_matrix_market(path)
        assert sp.issparse(B) and B.format == "csr"
        npt.assert_array_equal(B.indptr, A.indptr)
        npt.assert_array_equal(B.indices, A.indices)
        npt.assert_array_equal(B.data, A.data)

    def test_dense_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((7, 7))
        A[0, 0] = 1.0 / 3.0
        path = tmp_path / "A.mtx"
        write_matrix_market(A, path)
        B = read_matrix_market(path)
        assert isinstance(B, np.ndarray)
        npt.assert_array_equal(B, A)

    def test_dense_awkward_exact(self, tmp_path):
        A = np.column_stack([AWKWARD, [np.inf, -np.inf, np.nan, 5e-324, -1.0]])
        path = tmp_path / "A.mtx"
        write_matrix_market(A, path)
        assert read_matrix_market(path).tobytes(order="F") == A.tobytes(order="F")

    def test_header_declares_kind(self, tmp_path):
        path = tmp_path / "A.mtx"
        write_matrix_market(sp.eye(3, format="csr"), path)
        head = path.read_text().splitlines()[0]
        assert head.startswith("%%MatrixMarket matrix coordinate real")

    def test_symmetric_storage_expands(self, tmp_path):
        path = tmp_path / "sym.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 3\n1 1 4.0\n2 1 -1.0\n2 2 5.0\n"
        )
        B = read_matrix_market(path)
        npt.assert_array_equal(B.toarray(), [[4.0, -1.0], [-1.0, 5.0]])

    def test_symmetric_array_from_scipy_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        R = rng.standard_normal((5, 5))
        R[1, 0] = 1.0 / 3.0
        for name, A in [("tridiag8", gen_tridiag8(6).A.toarray()), ("random", R + R.T)]:
            path = tmp_path / f"{name}.mtx"
            scipy.io.mmwrite(path, A)
            assert "array real symmetric" in path.read_text().splitlines()[0]
            B = read_matrix_market(path)
            assert isinstance(B, np.ndarray) and B.flags.f_contiguous
            npt.assert_array_equal(B, A)

    def test_dense_shapes(self, tmp_path):
        path = tmp_path / "A.mtx"
        for shape in [(2, 5), (0, 3), (3, 0), (0, 0)]:
            A = np.arange(np.prod(shape), dtype=np.float64).reshape(shape)
            write_matrix_market(A, path)
            B = read_matrix_market(path)
            assert B.shape == shape and B.flags.f_contiguous
            npt.assert_array_equal(B, A)

    def test_writes_to_the_given_path(self, tmp_path):
        path = tmp_path / "A.txt"
        write_matrix_market(np.eye(2), path)
        assert [p.name for p in tmp_path.iterdir()] == ["A.txt"]

    def test_duplicate_entries_summed(self, tmp_path):
        path = tmp_path / "dup.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 3\n1 1 1.5\n1 1 2.5\n2 2 1.0\n"
        )
        B = read_matrix_market(path)
        npt.assert_array_equal(B.toarray(), [[4.0, 0.0], [0.0, 1.0]])


class TestMatrixErrors:
    def test_bad_banner(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%NotMatrixMarket nonsense\n1 1 1\n1 1 2.0\n")
        with pytest.raises(FileFormatError, match=r"bad\.mtx:1"):
            read_matrix_market(path)

    def test_bad_entry_line_number(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n1 1 1.0\n1 oops 2.0\n"
        )
        with pytest.raises(FileFormatError, match=r"bad\.mtx:4"):
            read_matrix_market(path)

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "short.mtx"
        for text, match in [
            ("%%MatrixMarket matrix coordinate real general\n3 3 5\n1 1 1.0\n", "5"),
            ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n2 2 1.0\n",
             r"short\.mtx:4: more than the declared 1"),
            # 4 of the 6 lower-triangle entries of a 3 x 3 symmetric matrix
            ("%%MatrixMarket matrix array real symmetric\n3 3\n" + "1.0\n" * 4,
             r"short\.mtx:2: declared 6 entries but found 4"),
            ("%%MatrixMarket matrix array real general\n2 1\n\n \t\n",
             r"short\.mtx:2: declared 2 entries but found 0"),
        ]:
            path.write_text(text)
            with pytest.raises(FileFormatError, match=match):
                read_matrix_market(path)

    def test_index_out_of_range(self, tmp_path):
        path = tmp_path / "oob.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n"
        )
        with pytest.raises(FileFormatError, match=r"oob\.mtx:3"):
            read_matrix_market(path)

    def test_symmetric_array_not_square(self, tmp_path):
        path = tmp_path / "rect.mtx"
        path.write_text("%%MatrixMarket matrix array real symmetric\n2 3\n" + "1.0\n" * 5)
        with pytest.raises(FileFormatError, match=r"rect\.mtx:2: .*square"):
            read_matrix_market(path)

    def test_symmetric_coordinate_not_square(self, tmp_path):
        path = tmp_path / "rect.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n3 2 1\n3 1 1.0\n")
        with pytest.raises(FileFormatError, match=r"rect\.mtx:2: .*square"):
            read_matrix_market(path)

    def test_symmetric_array_with_full_entries(self, tmp_path):
        # All 9 entries of a 3 x 3 matrix where the lower triangle's 6 belong;
        # the 7th entry, on line 9, is one too many.
        path = tmp_path / "full.mtx"
        path.write_text("%%MatrixMarket matrix array real symmetric\n3 3\n" + "1.0\n" * 9)
        with pytest.raises(FileFormatError, match=r"full\.mtx:9: more than the declared 6"):
            read_matrix_market(path)

    @pytest.mark.parametrize("fmt, body", [
        ("coordinate", "2 2 2\n1 1 1.0\n% note\n2 2 1.0\n"),
        ("array", "2 1\n1.0\n% note\n2.0\n"),
    ])
    def test_comment_among_entries(self, tmp_path, fmt, body):
        # The format allows comments only before the size line.
        path = tmp_path / "mid.mtx"
        path.write_text(f"%%MatrixMarket matrix {fmt} real general\n" + body)
        with pytest.raises(FileFormatError, match=r"mid\.mtx:4: "):
            read_matrix_market(path)

    def test_blank_line_among_entries_skipped(self, tmp_path):
        path = tmp_path / "blank.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n\n2 2 3.0\n")
        npt.assert_array_equal(read_matrix_market(path).toarray(), [[1.0, 0.0], [0.0, 3.0]])

    @pytest.mark.parametrize("header, body, line", [
        ("array real", "2 1\n1.0abc\n2.0\n", "1.0abc"),
        ("array real", "2 1\n1.0\n1,5\n", "1,5"),
        ("array real", "2 1\n0x1p3\n2.0\n", "0x1p3"),
        ("array real", "2 1\n1.0 2.0\n", "1.0 2.0"),
        ("coordinate real", "2 2 2\n1 1 1.0abc\n2 2 1.0\n", "1 1 1.0abc"),
        ("coordinate real", "2 2 2\n1 1 1.0\n2 2 1.0 7\n", "2 2 1.0 7"),
        ("coordinate real", "2 2 2\n1 1 +1.0\n2 2 1.0\n", "1 1 +1.0"),
        ("coordinate integer", "2 2 2\n1 1 1.5\n2 2 1\n", "1 1 1.5"),
        ("array integer", "2 1\n3\n1.5\n", "1.5"),
    ], ids=["suffix", "comma", "hex", "two-values", "coordinate-suffix", "extra-field",
            "plus-sign", "integer-fraction", "array-integer-fraction"])
    def test_malformed_value(self, tmp_path, header, body, line):
        # SciPy's reader alone would read each of these as some number.
        path = tmp_path / "val.mtx"
        path.write_text(f"%%MatrixMarket matrix {header} general\n" + body)
        lineno = 2 + body.splitlines().index(line)
        with pytest.raises(FileFormatError, match=rf"val\.mtx:{lineno}: .*{re.escape(repr(line))}"):
            read_matrix_market(path)

    def test_number_forms(self, tmp_path):
        path = tmp_path / "num.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n3 2\n"
                        "  .5\n5.\r\n-1E+02\t\n\nInfinity\n-inf\nnan")
        B = read_matrix_market(path)
        npt.assert_array_equal(B, [[0.5, np.inf], [5.0, -np.inf], [-100.0, np.nan]])

    def test_empty_array_with_blank_body(self, tmp_path):
        path = tmp_path / "none.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n0 0\n\n  \n")
        assert read_matrix_market(path).shape == (0, 0)

    def test_missing_size_line(self, tmp_path):
        path = tmp_path / "empty.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n")
        with pytest.raises(FileFormatError):
            read_matrix_market(path)


class TestEarlierLayout:
    """Files as the earlier writer laid them out: ``%.17g`` values, no
    comment line after the banner.  Bundles written then must still load
    bit for bit."""

    def test_coordinate(self, tmp_path):
        path = tmp_path / "A.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n5 5 5\n"
            + "".join(f"{k + 1} {5 - k} {v:.17g}\n" for k, v in enumerate(AWKWARD))
        )
        B = read_matrix_market(path)
        assert B.format == "csr" and B.has_sorted_indices
        npt.assert_array_equal(B.indices, [4, 3, 2, 1, 0])
        assert B.data.tobytes() == AWKWARD.tobytes()  # the sign of -0.0 included

    def test_array(self, tmp_path):
        A = np.column_stack([AWKWARD, AWKWARD[::-1]])
        path = tmp_path / "A.mtx"
        path.write_text(
            "%%MatrixMarket matrix array real general\n5 2\n"
            + "".join(f"{v:.17g}\n" for v in A.ravel(order="F"))
        )
        B = read_matrix_market(path)
        assert B.flags.f_contiguous and B.dtype == np.float64
        assert B.tobytes(order="F") == A.tobytes(order="F")  # the sign of -0.0 included


class TestVectorRoundTrip:
    def test_exact(self, tmp_path):
        path = tmp_path / "b.txt"
        write_vector(AWKWARD, path)
        npt.assert_array_equal(read_vector(path), AWKWARD)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("# header\n\n1.5\n# mid\n-2.0\n")
        npt.assert_array_equal(read_vector(path), [1.5, -2.0])

    def test_bad_entry(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("1.0\nnope\n")
        with pytest.raises(FileFormatError, match=r"b\.txt:2"):
            read_vector(path)

    def test_crlf_indented_comment_and_no_final_newline(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_bytes(b"  # header\r\n\t\r\n1.5 \r\n-2.0")
        npt.assert_array_equal(read_vector(path), [1.5, -2.0])

    def test_specials_exact(self, tmp_path):
        x = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, -1.7976931348623157e308])
        path = tmp_path / "b.txt"
        write_vector(x, path)
        assert read_vector(path).tobytes() == x.tobytes()

    def test_bad_first_and_last_line(self, tmp_path):
        path = tmp_path / "b.txt"
        for body, line in ((b"1.0 2.0\n3.0\n", 1), (b"1.0\n\n3.0\n4.0 x", 4)):
            path.write_bytes(body)
            with pytest.raises(FileFormatError, match=rf"b\.txt:{line}: could not parse"):
                read_vector(path)

    def test_traced_peak_per_entry(self, tmp_path):
        # The file's bytes (about 20 per entry here) and the result's 8 are
        # held; a regular-expression match over the whole file held about
        # 1 KB per entry.
        n = 100_000
        x = np.random.default_rng(5).standard_normal(n)
        path = tmp_path / "b.txt"
        write_vector(x, path)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            y = read_vector(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert y.tobytes() == x.tobytes()
        assert (peak - base) / n <= 50

    @pytest.mark.parametrize("entry", ["1_000", "\u0661\u0662", "+1.5", "0x10", "1.5 2", "1e", "infinit"])
    def test_entry_outside_the_real_grammar(self, tmp_path, entry):
        # Python's float() reads the first three as 1000.0, 12.0 and 1.5.
        path = tmp_path / "b.txt"
        path.write_text(f"1.0\n{entry}\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match=r"b\.txt:2: could not parse"):
            read_vector(path)
