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
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n3 3 5\n1 1 1.0\n"
        )
        with pytest.raises(FileFormatError, match="5"):
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

    def test_symmetric_array_with_full_entries(self, tmp_path):
        # All 9 entries of a 3 x 3 matrix where the lower triangle's 6 belong;
        # the 7th entry, on line 9, is one too many.
        path = tmp_path / "full.mtx"
        path.write_text("%%MatrixMarket matrix array real symmetric\n3 3\n" + "1.0\n" * 9)
        with pytest.raises(FileFormatError, match=r"full\.mtx:9: more than the declared 6"):
            read_matrix_market(path)

    def test_missing_size_line(self, tmp_path):
        path = tmp_path / "empty.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n")
        with pytest.raises(FileFormatError):
            read_matrix_market(path)


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

