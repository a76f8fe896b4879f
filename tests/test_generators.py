import json

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from avesolve import generators
from avesolve.core import residual
from avesolve.generators import (
    GeneratorFailure,
    GeneratorSpec,
    achieved_density,
    build_manifest,
    gen_no_solution_1d,
    gen_random_sparse,
    gen_tridiag8,
    gen_x0,
    generate,
    load_problem,
    read_manifest,
    save_problem,
)
from avesolve.linalg import norm2, sigma_min_estimate
from avesolve.mmio import FileFormatError


class TestSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            GeneratorSpec(family="hilbert", n=4)

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            GeneratorSpec(family="random", n=0)
        with pytest.raises(ValueError):
            GeneratorSpec(family="random", n=10, density=0.0)
        with pytest.raises(ValueError):
            GeneratorSpec(family="random", n=10, density=1.5)
        with pytest.raises(ValueError):
            GeneratorSpec(family="random", n=10, sigma_min_target=0.0)
        with pytest.raises(ValueError):
            GeneratorSpec(family="random", n=10, margin=-0.1)


class TestTridiag8:
    def test_structure_frozen(self):
        p = gen_tridiag8(6)
        expected = np.array(
            [
                [8.0, -1.0, 0.0, 0.0, 0.0, 0.0],
                [-1.0, 8.0, -1.0, 0.0, 0.0, 0.0],
                [0.0, -1.0, 8.0, -1.0, 0.0, 0.0],
                [0.0, 0.0, -1.0, 8.0, -1.0, 0.0],
                [0.0, 0.0, 0.0, -1.0, 8.0, -1.0],
                [0.0, 0.0, 0.0, 0.0, -1.0, 8.0],
            ]
        )
        npt.assert_array_equal(p.A.toarray(), expected)

    def test_known_solution_alternating_and_consistent(self):
        p = gen_tridiag8(10)
        npt.assert_array_equal(p.known_solution, np.tile([-1.0, 1.0], 5))
        assert norm2(residual(p, p.known_solution)) == 0.0

    def test_rhs_matches_definition(self):
        p = gen_tridiag8(8)
        npt.assert_array_equal(p.b, p.A @ p.known_solution - np.abs(p.known_solution))

    def test_odd_or_tiny_rejected(self):
        with pytest.raises(ValueError):
            gen_tridiag8(7)
        with pytest.raises(ValueError):
            gen_tridiag8(0)


class TestRandomSparse:
    def test_deterministic_for_seed(self):
        spec = GeneratorSpec(family="random", n=60, seed=123)
        p1, p2 = gen_random_sparse(spec), gen_random_sparse(spec)
        npt.assert_array_equal(p1.A.indptr, p2.A.indptr)
        npt.assert_array_equal(p1.A.indices, p2.A.indices)
        npt.assert_array_equal(p1.A.data, p2.A.data)
        npt.assert_array_equal(p1.b, p2.b)
        npt.assert_array_equal(p1.known_solution, p2.known_solution)

    def test_seed_changes_instance(self):
        a = gen_random_sparse(GeneratorSpec(family="random", n=40, seed=1))
        b = gen_random_sparse(GeneratorSpec(family="random", n=40, seed=2))
        assert not np.array_equal(a.b, b.b)

    def test_sigma_min_lands_on_target(self):
        spec = GeneratorSpec(family="random", n=80, sigma_min_target=1.05, margin=0.05, seed=7)
        p = gen_random_sparse(spec)
        achieved = sigma_min_estimate(p.A, tol=1e-8)
        assert achieved == pytest.approx(1.05 * 1.05, rel=0.02)

    def test_density_near_request(self):
        spec = GeneratorSpec(family="random", n=150, density=0.1, seed=3)
        p = gen_random_sparse(spec)
        assert achieved_density(p.A) == pytest.approx(0.1, rel=0.2)

    def test_known_solution_certified(self):
        p = gen_random_sparse(GeneratorSpec(family="random", n=50, seed=11))
        assert norm2(residual(p, p.known_solution)) <= 1e-10 * (1.0 + norm2(p.b))

    def test_redraw_exhaustion_raises(self, monkeypatch):
        def always_singular(*args, **kwargs):
            return 0.0

        monkeypatch.setattr(generators, "sigma_min_estimate", always_singular)
        with pytest.raises(GeneratorFailure, match="11 draws"):
            gen_random_sparse(GeneratorSpec(family="random", n=20, seed=5))


class TestNoSolution1d:
    def test_frozen_instance(self):
        p = gen_no_solution_1d()
        npt.assert_array_equal(p.A.toarray() if sp.issparse(p.A) else p.A, [[1.0]])
        npt.assert_array_equal(p.b, [1.0])
        assert p.known_solution is None


class TestGenerate:
    def test_dispatch(self):
        p = generate(GeneratorSpec(family="tridiag8", n=12))
        assert p.n == 12
        p = generate(GeneratorSpec(family="nosol1d", n=1))
        assert p.n == 1
        p = generate(GeneratorSpec(family="random", n=30, seed=2))
        assert p.n == 30


class TestStartingPoints:
    def test_deterministic_and_bounded(self):
        x1 = gen_x0(50, seed=9)
        x2 = gen_x0(50, seed=9)
        npt.assert_array_equal(x1, x2)
        assert x1.shape == (50,)
        for s in range(100):
            x = gen_x0(20, seed=s)
            assert np.all(x > -100.0) and np.all(x < 100.0)

    def test_independent_of_problem_stream(self):
        # Same seed drives problem and start through distinct substreams.
        spec = GeneratorSpec(family="random", n=30, seed=4)
        p = gen_random_sparse(spec)
        x0 = gen_x0(30, seed=4)
        assert not np.array_equal(x0, p.b)


class TestBundleIo:
    def test_sparse_roundtrip_exact(self, tmp_path):
        spec = GeneratorSpec(family="random", n=40, seed=21)
        p = gen_random_sparse(spec)
        save_problem(p, tmp_path / "bundle", manifest=build_manifest(p, spec))
        q = load_problem(tmp_path / "bundle")
        assert sp.issparse(q.A)
        npt.assert_array_equal(q.A.toarray(), p.A.toarray())
        npt.assert_array_equal(q.b, p.b)
        npt.assert_array_equal(q.known_solution, p.known_solution)

    def test_manifest_contents(self, tmp_path):
        spec = GeneratorSpec(family="random", n=30, sigma_min_target=1.4, seed=8)
        p = gen_random_sparse(spec)
        save_problem(p, tmp_path / "bundle", manifest=build_manifest(p, spec))
        m = read_manifest(tmp_path / "bundle")
        assert m["family"] == "random"
        assert m["n"] == 30
        assert m["seed"] == 8
        assert m["sigma_min_target"] == 1.4
        assert m["has_known_solution"] is True
        assert m["sigma_min_achieved"] == pytest.approx(1.4 * 1.05, rel=0.02)

    def test_dense_problem_stays_dense(self, tmp_path):
        from avesolve.core import AveProblem

        A = np.array([[3.0, 0.5], [0.2, 4.0]])
        p = AveProblem(A, np.array([1.0, 2.0]))
        save_problem(p, tmp_path / "bundle")
        q = load_problem(tmp_path / "bundle")
        assert isinstance(q.A, np.ndarray)
        npt.assert_array_equal(q.A, A)
        assert q.known_solution is None

    def test_default_manifest_written(self, tmp_path):
        p = gen_tridiag8(8)
        save_problem(p, tmp_path / "bundle")
        m = read_manifest(tmp_path / "bundle")
        assert m["n"] == 8

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "bundle").mkdir()
        with pytest.raises((FileFormatError, FileNotFoundError)):
            load_problem(tmp_path / "bundle")

    def test_corrupt_manifest(self, tmp_path):
        d = tmp_path / "bundle"
        d.mkdir()
        (d / generators.MANIFEST_NAME).write_text("{not json")
        with pytest.raises(FileFormatError):
            read_manifest(d)

    def test_manifest_missing_keys(self, tmp_path):
        d = tmp_path / "bundle"
        d.mkdir()
        (d / generators.MANIFEST_NAME).write_text(json.dumps({"n": 4}))
        with pytest.raises(FileFormatError, match="family"):
            read_manifest(d)

    def test_shape_mismatch_detected(self, tmp_path):
        p = gen_tridiag8(8)
        save_problem(p, tmp_path / "bundle")
        m = json.loads((tmp_path / "bundle" / generators.MANIFEST_NAME).read_text())
        m["n"] = 6
        (tmp_path / "bundle" / generators.MANIFEST_NAME).write_text(json.dumps(m))
        with pytest.raises(FileFormatError, match="n"):
            load_problem(tmp_path / "bundle")

    def test_corrupt_matrix_file(self, tmp_path):
        p = gen_tridiag8(8)
        save_problem(p, tmp_path / "bundle")
        mtx = tmp_path / "bundle" / "A.mtx"
        mtx.write_text("%%Nonsense\n" + mtx.read_text())
        with pytest.raises(FileFormatError, match=r"A\.mtx:1"):
            load_problem(tmp_path / "bundle")
