"""scripts/output_drift.py on two tiny trees of kept outputs."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HEADER = "n,terminal_norm,pass\n"


def _load_drift():
    path = os.path.join(ROOT, "scripts", "output_drift.py")
    spec = importlib.util.spec_from_file_location("output_drift", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root, rows, header=HEADER):
    """root/linear-control/seed0/0/stages.csv holding these rows."""
    d = root / "linear-control" / "seed0" / "0"
    d.mkdir(parents=True)
    (d / "stages.csv").write_text(header + "".join(f"{row}\n" for row in rows))
    return str(root)


@pytest.mark.parametrize(
    "change_rows, header, max_rel, code",
    [
        (["1.0,0.5,true", "10.0,0.25,true"], HEADER, 1e-10, 0),
        (["1.0,0.5,true", "10.0,0.25000000000001,true"], HEADER, 1e-10, 0),
        (["1.0,0.5,true", "10.0,0.2500001,true"], HEADER, 1e-10, 1),
        (["1.0,0.5,true", "10.0,0.2500001,true"], HEADER, None, 0),
        (["1.0,0.5,true", "10.0,0.25,false"], HEADER, 1.0, 1),
        (["1.0,0.5,true", "10.0,inf,true"], HEADER, 1.0, 1),
        (["1.0,0.5,true"], HEADER, 1.0, 1),
        (["1.0,0.5,true", "10.0,0.25,true"], "n,norm,pass\n", 1.0, 1),
    ],
    ids=["same", "rounding", "drift", "drift_no_flag", "pass_flip", "finiteness", "rows",
         "header"],
)
def test_max_rel_exit_code(tmp_path, capsys, change_rows, header, max_rel, code):
    drift = _load_drift()
    parent = _tree(tmp_path / "parent", ["1.0,0.5,true", "10.0,0.25,true"])
    change = _tree(tmp_path / "change", change_rows, header)
    argv = [parent, change] + ([] if max_rel is None else ["--max-rel", str(max_rel)])
    assert drift.main(argv) == code
    assert "stages.csv" in capsys.readouterr().out


def test_csv_in_one_tree_fails(tmp_path):
    drift = _load_drift()
    parent = _tree(tmp_path / "parent", ["1.0,0.5,true"])
    (tmp_path / "change").mkdir()
    assert drift.main([parent, str(tmp_path / "change"), "--max-rel", "1"]) == 1
    assert drift.main([parent, str(tmp_path / "change")]) == 0
