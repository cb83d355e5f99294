from __future__ import annotations

import importlib.util
import warnings
from pathlib import Path

_spec = importlib.util.spec_from_file_location("same_outputs", Path(__file__).parents[1] / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def _tree(root: Path, files: dict[str, bytes]) -> Path:
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(content)
    return root


def test_identical_trees_have_no_difference(tmp_path):
    files = {"check.txt": b"PASS\n", "estimate-seed1/aladin_history.csv": b"1,0.5\n"}
    a = _tree(tmp_path / "a", files)
    b = _tree(tmp_path / "b", files)
    assert same_outputs.compare_dirs(a, b) == (2, [])


def test_every_changed_or_unmatched_file_is_named(tmp_path):
    a = _tree(tmp_path / "a", {"same.txt": b"x", "run/changed.csv": b"1.0\n", "only_a.txt": b""})
    b = _tree(tmp_path / "b", {"same.txt": b"x", "run/changed.csv": b"1.0000000000000002\n", "only_b/x.txt": b""})
    n_files, diffs = same_outputs.compare_dirs(a, b)
    assert n_files == 4
    assert diffs == [
        f"only in {a}: only_a.txt",
        f"only in {b}: only_b/x.txt",
        "differs: run/changed.csv",
    ]


def test_a_cli_warning_is_recorded_without_its_source_location(tmp_path):
    def main(argv):
        warnings.warn("ridge retry")
        print("ran", *argv)
        return 3

    record = tmp_path / "run" / "stdout.txt"
    same_outputs._cli(main, ["estimate"], record)
    assert record.read_text() == "ran estimate\n--- stderr\n--- warnings\nUserWarning: ridge retry\n--- exit 3\n"
