"""Smoke tests of the runnable demos in ``scripts/``: each is loaded by
path and its ``main`` run on a small input."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tridiag_iteration_table(capsys):
    load_script("tridiag_iteration_table").main(["--sizes", "100"])
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [r.split()[:3] for r in rows] == [["100", "drs", "Converged"],
                                             ["100", "sor-like", "Converged"]]

