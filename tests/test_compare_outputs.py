import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import compare_outputs  # noqa: E402

from conftest import make_ratings_file  # noqa: E402


def test_a_tree_compared_with_itself_is_identical(tmp_path, monkeypatch,
                                                  capsys):
    # 150 users rate enough movies for transfer's five most-rated ones
    data = make_ratings_file(tmp_path / "u.data", users=150, movies=200,
                             target_item=50)
    exits = []
    compare = compare_outputs.compare

    def inspected(old, new):
        exits.extend(p.read_text() for p in sorted(old.glob("streams/*.exit")))
        return compare(old, new)

    monkeypatch.setattr(compare_outputs, "compare", inspected)
    assert compare_outputs.main(["--data", str(data), str(ROOT),
                                 str(ROOT)]) == 0
    assert exits == ["0\n"] * len(compare_outputs.COMMANDS)
    assert "identical: " in capsys.readouterr().out


def _write_tree(top, files):
    for rel, text in files.items():
        (top / rel).parent.mkdir(parents=True, exist_ok=True)
        (top / rel).write_text(text)
    return top


def test_compare_names_each_difference(tmp_path):
    old = _write_tree(tmp_path / "old", {
        "same.csv": "a,b\n1,2\n", "changed.csv": "a\n1\n2\n",
        "only_old.txt": "", "streams/train.exit": "0\n",
        "run/longer.json": "{}\n"})
    new = _write_tree(tmp_path / "new", {
        "same.csv": "a,b\n1,2\n", "changed.csv": "a\n1\n3\n",
        "only_new.txt": "", "streams/train.exit": "2\n",
        "run/longer.json": "{}\n{}\n"})
    assert compare_outputs.compare(old, new) == [
        "differs: changed.csv (first at line 3)",
        "only in new: only_new.txt",
        "only in old: only_old.txt",
        "differs: run/longer.json (first at line 2)",
        "differs: streams/train.exit (first at line 1)",
    ]
    assert compare_outputs.compare(old, old) == []


def test_main_exits_1_on_a_difference_and_2_without_sources(
        tmp_path, monkeypatch, capsys):
    def fake_run(root, data, tree):  # each root writes its own name
        _write_tree(tree, {"out/root.txt": root.name})

    monkeypatch.setattr(compare_outputs, "run_tree", fake_run)
    data = tmp_path / "u.data"
    data.write_text("")
    roots = [_write_tree(tmp_path / name, {"src/graphstab/cli.py": ""})
             for name in ("a", "b")]
    assert compare_outputs.main(["--data", str(data),
                                 *map(str, roots)]) == 1
    out = capsys.readouterr().out
    assert "differs: out/root.txt (first at line 1)" in out
    assert "differences: 1" in out
    assert compare_outputs.main(["--data", str(data), str(roots[0]),
                                 str(tmp_path)]) == 2
    assert "no src/graphstab/cli.py under" in capsys.readouterr().err
