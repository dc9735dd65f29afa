"""tools/pair_timing.py runs both trees from copies at paths of equal
length, whatever the lengths of the trees' own paths."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("pair_timing", ROOT / "tools" / "pair_timing.py")
pair_timing = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(pair_timing)


def test_trees_are_staged_at_paths_of_equal_length(tmp_path):
    trees = {"old": tmp_path / "a", "new": tmp_path / "a_much_longer_checkout_path"}
    for side, tree in trees.items():
        for part in ("src", "bench"):
            (tree / part / "__pycache__").mkdir(parents=True)
            (tree / part / "__pycache__" / "x.pyc").write_bytes(b"")
            (tree / part / "x.py").write_text(f"{side} {part}\n")
        (tree / "BENCHMARK.json").write_text("{}")
    staged = pair_timing.stage_trees(trees, tmp_path / "staged")
    assert set(staged) == {"old", "new"}
    assert len(str(staged["old"])) == len(str(staged["new"]))
    for side, tree in staged.items():
        assert sorted(p.relative_to(tree).as_posix() for p in tree.rglob("*")) == [
            "bench", "bench/x.py", "src", "src/x.py",
        ]
        assert (tree / "src" / "x.py").read_text() == f"{side} src\n"
