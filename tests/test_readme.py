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
