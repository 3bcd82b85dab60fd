"""Run the graphstab CLI from two source trees on one ratings file and name
every difference in what they produce.

    python tools/compare_outputs.py --data U_DATA OLD_ROOT NEW_ROOT

Each root is a checkout holding `src/graphstab`. Each tree runs COMMANDS in
a fresh temporary directory of its own, from the same relative paths, so
the `config:` header lines and the checkpoints' run digests of two equal
programs agree. Each tree's commands get PYTHONPATH=<root>/src and one BLAS
thread. Every file the commands write, and each command's stdout, stderr
and exit code, is compared byte for byte.

Exit codes: 0 identical outputs, 1 a difference (each one is printed),
2 a root without `src/graphstab`.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

DATA = "u.data"
RUN = ("--data", DATA, "--checkpoints", "run")

# (name, argv) in order; the sweeps read the checkpoints `train` writes
COMMANDS = [
    ("train", ["train", "--data", DATA, "--mu", "0", "0.5", "--seeds", "1",
               "--epochs", "5", "--out", "run"]),
    ("perturb-sweep", ["perturb-sweep", *RUN, "--epsilon", "0.01", "0.05",
                       "0.1", "--draws", "1", "--out", "perturb"]),
    ("transfer", ["transfer", *RUN, "--out", "transfer"]),
    ("split-sweep", ["split-sweep", *RUN, "--splits", "0.5", "0.7", "0.9",
                     "--out", "splits"]),
    ("demo-seed-0", ["demo", "--seed", "0", "--out", "demo_0"]),
    ("demo-seed-3", ["demo", "--seed", "3", "--out", "demo_3"]),
    ("verify", ["verify"]),
]

ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_tree(root: Path, data: Path, tree: Path) -> None:
    """Run COMMANDS from root's sources with tree/out as the working
    directory (the ratings copied there as DATA); write each command's
    stdout, stderr and exit code to tree/streams/<name>.stdout, .stderr
    and .exit."""
    work, streams = tree / "out", tree / "streams"
    work.mkdir(parents=True)
    streams.mkdir()
    shutil.copyfile(data, work / DATA)
    env = {**os.environ, "PYTHONPATH": str(root / "src"),
           **dict.fromkeys(ONE_THREAD, "1")}
    for name, argv in COMMANDS:
        done = subprocess.run([sys.executable, "-m", "graphstab.cli", *argv],
                              cwd=work, env=env, capture_output=True)
        (streams / f"{name}.stdout").write_bytes(done.stdout)
        (streams / f"{name}.stderr").write_bytes(done.stderr)
        (streams / f"{name}.exit").write_text(f"{done.returncode}\n")


def compare(old: Path, new: Path) -> list:
    """One line per difference between the trees under old and new: a file
    in one tree only, or a file whose bytes differ (with the first line
    that differs), in the order of the sorted relative paths."""
    def files(top):
        return {p.relative_to(top).as_posix(): p
                for p in top.rglob("*") if p.is_file()}

    a, b = files(old), files(new)
    differences = []
    for rel in sorted(a.keys() | b.keys()):
        if rel not in b:
            differences.append(f"only in old: {rel}")
        elif rel not in a:
            differences.append(f"only in new: {rel}")
        else:
            old_bytes, new_bytes = a[rel].read_bytes(), b[rel].read_bytes()
            if old_bytes != new_bytes:
                old_lines = old_bytes.splitlines()
                new_lines = new_bytes.splitlines()
                line = next((i for i, (x, y) in enumerate(
                    zip(old_lines, new_lines), start=1) if x != y),
                    min(len(old_lines), len(new_lines)) + 1)
                differences.append(f"differs: {rel} (first at line {line})")
    return differences


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="compare the CLI outputs of two graphstab trees")
    parser.add_argument("--data", required=True, type=Path,
                        help="ratings file in u.data format")
    parser.add_argument("old_root", type=Path)
    parser.add_argument("new_root", type=Path)
    args = parser.parse_args(argv)
    roots = [args.old_root.resolve(), args.new_root.resolve()]
    for root in roots:
        if not (root / "src" / "graphstab" / "cli.py").is_file():
            print(f"error: no src/graphstab/cli.py under {root}",
                  file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        trees = [Path(tmp) / "old", Path(tmp) / "new"]
        for root, tree in zip(roots, trees):
            run_tree(root, args.data.resolve(), tree)
        differences = compare(*trees)
        count = sum(1 for p in trees[0].rglob("*") if p.is_file())
    for line in differences:
        print(line)
    if differences:
        print(f"differences: {len(differences)}")
        return 1
    print(f"identical: {count} files, {len(COMMANDS)} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
