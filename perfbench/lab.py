"""The library half of the stability-lab workload.

`inputs` builds the lab's inputs from the workload seed: a random weighted
graph on N=100 nodes, its adjacency GSO, a 2-layer integral Lipschitz GNN
(1 -> 4 -> 4 features, K=5 taps per filter) and single-filter taps, all
designed on the GSO's spectral interval padded by 20%.

`sweep` loads them and runs the two public sweeps the paper's synthetic
experiments use: `empirical_gnn_distance_sweep` under edge dilation and
under random relative perturbations, then `empirical_filter_distance_sweep`
under relative perturbations. It writes one CSV row per bound report.

Run `python3 perfbench/lab.py inputs --seed 1 --out lab.npz`, then
`python3 perfbench/lab.py sweep --inputs lab.npz --out reports.csv`.
"""

import argparse
import csv
import sys

NODES = 100
LAYER_DIMS = (1, 4, 4)
TAPS = 5
C_TARGET = 1.0
EPSILONS = (0.01, 0.02, 0.05, 0.1)
# seeds per sweep; the paper-style 10 makes a ~6 s pass, 2 keeps a pass
# near 2 s, so a 15 s run has about seven passes to take the median of
SWEEP_SEEDS = 2
PROBES = 30
GNN_KINDS = ("dilation", "relative")
FILTER_KIND = "relative"

REPORT_COLUMNS = ("sweep", "kind", "epsilon", "seed", "measured", "bound",
                  "C", "delta", "satisfied")


# numpy and graphstab are imported inside the functions: perfbench/run.py
# reads the sizes above, and whatever its own process loads is counted in the
# peak RSS of every child it starts


def make_inputs(seed: int, path) -> None:
    import numpy as np
    from graphstab import graphs, stability

    S = graphs.build_gso(graphs.random_weighted_graph(NODES, seed))
    lam = np.linalg.eigvalsh(S.matrix)
    interval = (1.2 * lam[0], 1.2 * lam[-1])
    layers = [stability.il_layer(f_in, f_out, TAPS, interval, C_TARGET,
                                 seed=seed + i)
              for i, (f_in, f_out) in enumerate(zip(LAYER_DIMS[:-1],
                                                    LAYER_DIMS[1:]))]
    np.savez(path, gso=S.matrix,
             taps0=layers[0].taps, taps1=layers[1].taps,
             readout=np.full(LAYER_DIMS[-1], 1.0 / LAYER_DIMS[-1]),
             filter_taps=stability.design_il_taps(interval, TAPS, C_TARGET))


def run_sweeps(path):
    """Return the bound reports of both sweeps as row tuples."""
    import numpy as np
    from graphstab import graphs, gnn, stability

    data = np.load(path)
    S = graphs.GSO(data["gso"])
    model = gnn.GNNModel(
        layers=[gnn.LayerSpec(data["taps0"]), gnn.LayerSpec(data["taps1"])],
        readout_weights=data["readout"], readout_bias=0.0, node=0,
    )
    seeds = range(SWEEP_SEEDS)
    rows = []
    for kind in GNN_KINDS:
        for r in stability.empirical_gnn_distance_sweep(
                model, S, kind, EPSILONS, seeds, probe_count=PROBES):
            rows.append(("gnn", kind, r.epsilon, r.seed, r.measured, r.bound,
                         r.C, r.delta, r.satisfied))
    for r in stability.empirical_filter_distance_sweep(
            S, data["filter_taps"], FILTER_KIND, EPSILONS, seeds):
        rows.append(("filter", FILTER_KIND, r.epsilon, r.seed, r.measured,
                     r.bound, r.C, r.delta, r.satisfied))
    return rows


def expected_reports() -> int:
    return (len(GNN_KINDS) + 1) * len(EPSILONS) * SWEEP_SEEDS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="stability-lab sweeps")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("inputs", help="build the lab inputs from a seed")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p = sub.add_parser("sweep", help="run both sweeps on saved inputs")
    p.add_argument("--inputs", required=True)
    p.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.command == "inputs":
        make_inputs(args.seed, args.out)
        return 0
    rows = run_sweeps(args.inputs)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        writer.writerows(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
