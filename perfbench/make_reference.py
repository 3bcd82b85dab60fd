"""Record the quality values the benchmark checks, for a range of seeds.

    python3 perfbench/make_reference.py --seeds 0 1 2 ...

For each seed it runs one pass of the train and perturb-sweep workloads and
stores test_rmse_mu0, test_rmse_mu0.5 (train) and rmse_shift_mu0,
rmse_shift_mu0.5 (perturb-sweep) in perfbench/reference.json, merged with
the seeds already there. Later runs fail a check when a value moves by more
than run.REFERENCE_RTOL. Re-record only when a change is meant to alter the
program's numbers, and say so with the change.
"""

import argparse
import json
import sys

import run

WORKLOADS = ("train", "perturb-sweep")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    path = run.BENCH / "reference.json"
    table = json.loads(path.read_text()) if path.is_file() else {}
    for seed in args.seeds:
        for name in WORKLOADS:
            result = run.execute(name, seed, 0.0, 0, reference={})
            if result.failures:
                print("\n".join(result.failures), file=sys.stderr)
                return 1
            quality = {k: v for k, (v, _) in result.report.items()
                       if k.startswith(("test_rmse_", "rmse_shift"))}
            table.setdefault(name, {})[str(seed)] = quality
            print(f"seed {seed} {name}: {quality}", flush=True)
            table = {w: dict(sorted(rows.items(), key=lambda kv: int(kv[0])))
                     for w, rows in table.items()}
            path.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
