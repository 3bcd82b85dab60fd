import fnmatch
import re
import shlex
from pathlib import Path

from graphstab.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_tour_runs():
    text = README.read_text()
    tour = text[text.index("## Quick tour"):]
    block = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    exec(compile(block, str(README), "exec"), {})


def readme_cli_lines():
    """The argv of each `graphstab` line of README's CLI block."""
    text = README.read_text()
    cli = text[text.index("## CLI"):]
    block = re.search(r"```sh\n(.*?)```", cli, re.DOTALL).group(1)
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [argv for argv in lines if argv[:1] == ["graphstab"]]


def test_readme_cli_lines_parse():
    # argparse only: the MovieLens lines need a ratings file to run
    lines = readme_cli_lines()
    assert len(lines) == 6
    for argv in lines:
        build_parser().parse_args(argv[1:])


def test_readme_cli_lines_without_data_run(tmp_path, monkeypatch, capsys):
    runnable = [argv for argv in readme_cli_lines()
                if argv[1] in ("verify", "demo")]
    assert [argv[1] for argv in runnable] == ["verify", "demo"]
    monkeypatch.chdir(tmp_path)  # demo writes under its relative --out
    for argv in runnable:
        assert main(argv[1:]) == 0, argv
    assert "all invariants satisfied" in capsys.readouterr().out
    assert len(list(tmp_path.glob("*/tradeoff.csv"))) == 1


def test_readme_cli_names_only_files_the_commands_write(ratings_file,
                                                        tmp_path):
    # so a retired output cannot stay documented; a `{seed}` field matches
    # any text, as a glob
    text = README.read_text()
    start = text.index("## CLI")
    cli = text[start:text.index("\n## ", start)]
    names = set(re.findall(r"`([^`\s]+\.(?:csv|json))`", cli))
    assert "rmse.csv" in names
    run = tmp_path / "run"
    assert main(["train", "--data", str(ratings_file), "--movie-id", "7",
                 "--mu", "0", "--seeds", "0", "--epochs", "1",
                 "--features", "2", "--taps", "2", "--out", str(run)]) == 0
    for argv in (["transfer"], ["perturb-sweep", "--draws", "1"],
                 ["split-sweep"]):
        assert main([*argv, "--data", str(ratings_file), "--checkpoints",
                     str(run), "--out", str(tmp_path / "sweeps")]) == 0
    written = [path.name for path in tmp_path.rglob("*") if path.is_file()]
    assert [name for name in sorted(names) if not fnmatch.filter(
        written, re.sub(r"\{[^}]*\}", "*", name))] == []
