import argparse
import csv
import json
from dataclasses import fields

import numpy as np
import pytest

from avesolve.bench import BENCH_MAX_ITER, write_bench_manifest
from avesolve.cli import _config_from_args, build_parser, main
from avesolve.core import AveProblem
from avesolve.generators import gen_tridiag8, read_manifest, save_problem
from avesolve.solvers import ALPHA_MODES, SolverConfig

# Every SolverConfig field but the metric G has its own flag and JSON key.
CONFIG_FIELDS = [f.name for f in fields(SolverConfig) if f.name != "G"]


@pytest.fixture
def tridiag_bundle(tmp_path):
    out = tmp_path / "tri"
    assert main(["generate", "--family", "tridiag8", "--n", "20", "--out", str(out)]) == 0
    return out


@pytest.fixture
def nosol_bundle(tmp_path):
    out = tmp_path / "nosol"
    assert main(["generate", "--family", "nosol1d", "--out", str(out)]) == 0
    return out


def make_bundle(tmp_path, name, A, b):
    out = tmp_path / name
    save_problem(AveProblem(A, b), out)
    return out


class TestGenerate:
    def test_tridiag_bundle_layout(self, tridiag_bundle):
        assert (tridiag_bundle / "manifest.json").exists()
        assert (tridiag_bundle / "A.mtx").exists()
        assert (tridiag_bundle / "b.txt").exists()
        assert (tridiag_bundle / "xstar.txt").exists()
        m = read_manifest(tridiag_bundle)
        assert m["family"] == "tridiag8"
        assert m["n"] == 20

    def test_random_bundle(self, tmp_path, capsys):
        out = tmp_path / "rand"
        code = main(
            ["generate", "--family", "random", "--n", "30", "--sigma-min", "1.5",
             "--seed", "4", "--out", str(out)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "random" in printed and "30" in printed
        m = read_manifest(out)
        assert m["sigma_min_target"] == 1.5

    def test_missing_n_is_input_error(self, tmp_path, capsys):
        code = main(["generate", "--family", "random", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "--n" in capsys.readouterr().err

    def test_nosol_needs_no_n(self, nosol_bundle):
        m = read_manifest(nosol_bundle)
        assert m["n"] == 1
        assert m["has_known_solution"] is False


class TestSolve:
    def test_converged_exit_zero(self, tridiag_bundle, capsys):
        code = main(["solve", "--problem", str(tridiag_bundle), "--method", "drs"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Converged" in out

    def test_trace_file(self, tridiag_bundle, tmp_path):
        trace = tmp_path / "trace.csv"
        code = main(
            ["solve", "--problem", str(tridiag_bundle), "--method", "sor-like",
             "--omega", "1.0", "--trace", str(trace)]
        )
        assert code == 0
        with open(trace) as f:
            rows = list(csv.reader(f))
        assert rows[0][0] == "iteration"
        assert len(rows) > 2

    def test_max_iter_exit(self, tridiag_bundle):
        code = main(
            ["solve", "--problem", str(tridiag_bundle), "--method", "drs",
             "--max-iter", "1", "--x0-seed", "3"]
        )
        assert code == 3

    def test_diverged_exit(self, nosol_bundle):
        code = main(
            ["solve", "--problem", str(nosol_bundle), "--method", "drs",
             "--gamma", "1.0", "--divergence-threshold", "50"]
        )
        assert code == 2

    def test_singular_exit(self, tmp_path):
        bundle = make_bundle(
            tmp_path, "sing", np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2)
        )
        code = main(["solve", "--problem", str(bundle), "--method", "drs"])
        assert code == 4

    def test_theta_undefined_exit(self, tmp_path, capsys):
        bundle = make_bundle(
            tmp_path, "flat", np.array([[1.0, 2.0], [-2.0 / 3.0, 1.0]]), np.zeros(2)
        )
        code = main(["solve", "--problem", str(bundle), "--method", "inexact-newton"])
        assert code == 5
        assert "theta" in capsys.readouterr().err.lower()

    def test_stagnated_exit(self, tridiag_bundle, capsys):
        # No double-precision iterate has a residual of 1e-300 on this system.
        code = main(
            ["solve", "--problem", str(tridiag_bundle), "--method", "inexact-newton",
             "--eps", "1e-300"]
        )
        assert code == 6
        assert "Stagnated" in capsys.readouterr().out

    def test_missing_bundle_exit(self, tmp_path):
        code = main(
            ["solve", "--problem", str(tmp_path / "absent"), "--method", "drs"]
        )
        assert code == 1

    def test_unknown_method_is_argparse_error(self, tridiag_bundle):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--problem", str(tridiag_bundle), "--method", "cg"])
        assert exc.value.code == 2

    def test_config_file_overrides_flags(self, tridiag_bundle, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_iter": 1}))
        code = main(
            ["solve", "--problem", str(tridiag_bundle), "--method", "drs",
             "--max-iter", "1000", "--x0-seed", "3", "--config", str(cfg)]
        )
        assert code == 3

    def test_config_unknown_key(self, tridiag_bundle, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"stepsize": 0.1}))
        code = main(
            ["solve", "--problem", str(tridiag_bundle), "--method", "drs",
             "--config", str(cfg)]
        )
        assert code == 1
        assert "stepsize" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides",
        [
            {"gamma": "1.5"},
            {"epsilon": "1e-6"},
            {"max_iter": None},
            {"g_diag": 5},
            {"max_iter": 2.5},
        ],
        ids=["gamma-string", "epsilon-string", "max_iter-null", "g_diag-int", "max_iter-float"],
    )
    def test_config_value_of_wrong_type(self, tridiag_bundle, tmp_path, capsys, overrides):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(overrides))
        code = main(
            ["solve", "--problem", str(tridiag_bundle), "--method", "drs",
             "--config", str(cfg)]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and next(iter(overrides)) in err
        assert "Traceback" not in err

    def test_g_diag_file(self, tridiag_bundle, tmp_path):
        gfile = tmp_path / "g.txt"
        gfile.write_text("".join(f"{v}\n" for v in np.linspace(0.5, 2.0, 20)))
        code = main(
            ["solve", "--problem", str(tridiag_bundle), "--method", "drs",
             "--g-diag", str(gfile)]
        )
        assert code == 0

    def test_g_diag_wrong_length(self, tridiag_bundle, tmp_path, capsys):
        gfile = tmp_path / "g.txt"
        gfile.write_text("1.0\n2.0\n3.0\n")
        code = main(
            ["solve", "--problem", str(tridiag_bundle), "--method", "drs",
             "--g-diag", str(gfile)]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: G diagonal has length 3, expected 20\n"


class TestCheck:
    def test_prints_regime(self, tridiag_bundle, capsys):
        assert main(["check", "--problem", str(tridiag_bundle)]) == 0
        out = capsys.readouterr().out
        assert "StrictlyMonotone" in out
        assert "sigma_min" in out

    def test_boundary_regime(self, tmp_path, capsys):
        bundle = make_bundle(
            tmp_path, "bd", np.array([[1.0, 2.0], [-2.0 / 3.0, 1.0]]), np.zeros(2)
        )
        assert main(["check", "--problem", str(bundle)]) == 0
        assert "BoundaryMonotone" in capsys.readouterr().out

    def test_empty_problem_is_input_error(self, tmp_path, capsys):
        bundle = tmp_path / "empty"
        bundle.mkdir()
        (bundle / "manifest.json").write_text('{"family": "custom", "n": 0, "format": "dense"}\n')
        (bundle / "A.mtx").write_text("%%MatrixMarket matrix array real general\n0 0\n")
        (bundle / "b.txt").write_text("")
        assert main(["check", "--problem", str(bundle)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: AveProblem: A must be square and nonempty")
        assert "Traceback" not in err


class TestBenchAndProfile:
    @pytest.fixture
    def bundles(self, tmp_path):
        paths = []
        for i in range(2):
            out = tmp_path / f"rb{i}"
            assert (
                main(
                    ["generate", "--family", "random", "--n", "25", "--sigma-min",
                     "1.6", "--seed", str(40 + i), "--out", str(out)]
                )
                == 0
            )
            paths.append(out)
        return paths

    def test_bench_outputs(self, bundles, tmp_path, capsys):
        out = tmp_path / "bench"
        code = main(
            ["bench", "--problems", *map(str, bundles), "--solvers", "drs,sor-like",
             "--measure", "iterations", "--repeats", "1", "--out", str(out)]
        )
        assert code == 0
        assert (out / "ratios.csv").exists()
        assert (out / "summary.csv").exists()
        assert (out / "bench_manifest.json").exists()
        printed = capsys.readouterr().out
        assert "efficiency" in printed and "robustness" in printed
        m = json.loads((out / "bench_manifest.json").read_text())
        assert m["solvers"] == ["drs", "sor-like"]
        assert m["measure"] == "iterations"

    def test_profile_adds_curves(self, bundles, tmp_path):
        out = tmp_path / "prof"
        code = main(
            ["profile", "--problems", *map(str, bundles), "--solvers", "drs,sor-like",
             "--measure", "iterations", "--repeats", "1", "--out", str(out)]
        )
        assert code == 0
        lines = (out / "curves.csv").read_text().strip().splitlines()
        assert lines[0] == "tau,drs,sor-like"
        vals = [float(r.split(",")[1]) for r in lines[1:]]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_bad_solver_name(self, bundles, tmp_path, capsys):
        code = main(
            ["bench", "--problems", *map(str, bundles), "--solvers", "drs,magic",
             "--out", str(tmp_path / "x")]
        )
        assert code == 1
        assert "magic" in capsys.readouterr().err

    def test_duplicate_bundle_ids(self, bundles, tmp_path, capsys):
        code = main(
            ["bench", "--problems", str(bundles[0]), str(bundles[0]),
             "--solvers", "drs", "--out", str(tmp_path / "y")]
        )
        assert code == 1


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def _subparser(name):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[name]


# Minimal argument lists that each subcommand parses.
REQUIRED_ARGS = {
    "solve": ["--problem", "p", "--method", "drs"],
    "bench": ["--problems", "p", "--solvers", "drs", "--out", "o"],
}


@pytest.mark.parametrize(
    "command, max_iter", [("solve", SolverConfig().max_iter), ("bench", BENCH_MAX_ITER)]
)
def test_config_flags_follow_solver_config(command, max_iter, tmp_path):
    defaults = SolverConfig()
    actions = {a.dest: a for a in _subparser(command)._actions if a.option_strings}
    for name in CONFIG_FIELDS:
        assert name in actions, name
        expected = max_iter if name == "max_iter" else getattr(defaults, name)
        assert actions[name].default == expected, name
        # A --config entry with the field's key reaches SolverConfig.
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({name: getattr(defaults, name)}))
        args = build_parser().parse_args([command, *REQUIRED_ARGS[command], "--config", str(path)])
        assert getattr(_config_from_args(args), name) == getattr(defaults, name), name
    assert actions["alpha_mode"].choices == ALPHA_MODES


def test_bench_manifest_records_every_config_field(tmp_path):
    cfg = SolverConfig(theta=0.25, inner_max_iter=np.int64(7))
    path = tmp_path / "bench_manifest.json"
    write_bench_manifest(path, {"t": gen_tridiag8(4)}, ["drs"], cfg, 1, "iterations", 0)
    recorded = json.loads(path.read_text())["config"]
    assert set(recorded) == {f.name for f in fields(SolverConfig)}
    assert recorded["G"] == "identity"
    for name in CONFIG_FIELDS:
        assert recorded[name] == getattr(cfg, name), name
