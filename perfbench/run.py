"""Outside-in benchmark of the graphstab lab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run it from the repository root. It drives the `graphstab` CLI and the public
stability sweeps from outside, one fresh process per command, in a closed
loop: each command starts only after the previous one returned. Every input
is generated from --seed; nothing under src/ is modified or imported here.

Workloads (BENCHMARK.json says why each was chosen):
  train          graphstab train on paper-shaped synthetic ratings
  perturb-sweep  graphstab perturb-sweep on checkpoints trained in set-up
  transfer       graphstab transfer, then graphstab split-sweep
  stability-lab  the GNN and filter distance sweeps (perfbench/lab.py), then
                 graphstab verify

A run sets up (generates inputs, and for the two sweep workloads trains the
checkpoints), then repeats the workload's commands as timed passes for about
--seconds. All children run on one CPU. For stability-lab,
perfbench/calibrate.py, a fixed numpy job, runs after every timed command,
and the run's times are scaled to the reference host speed (see CAL_REF_S
and WORKLOADS), so its time metrics do not follow the load other tenants put
on a shared host. With --trace 0 it reports the end-to-end metrics; with
--trace 1 it runs one untraced and one traced pass and reports per-function
call counts, self time, unique-argument ratios and the tracing overhead.
Outputs of every command are checked; a failed check counts as a failed
operation. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Machine information and all checks
are written next to the result under .perfbench_work/results/.
"""

import argparse
import csv
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

# Neither numpy nor graphstab is loaded here: what this process holds in
# memory when it starts a child is counted in that child's peak RSS.
import lab
import tracer

# One BLAS thread per child: only one child runs at a time, and a single
# thread keeps timings steady on a small shared machine.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PYTHON = sys.executable

# scaled times are in these seconds: perfbench/calibrate.py takes about this
# long, process start included, on an uncontended 2.1 GHz Xeon vCPU. A run's
# scaled times are its wall times times CAL_REF_S over the median time of the
# calibrations it ran, one after each command, on the same CPU. The median
# over the whole run, not the calibrations next to a command: one 0.2 s
# calibration is too noisy to scale a whole pass by.
CAL_REF_S = 0.2

# a run must end within 180 s; a child still running at this point of the
# run is killed, which fails its check
RUN_DEADLINE_S = 170.0

# workload sizes; the paper's settings where the run budget allows
MUS = (0.0, 0.5)
TRAIN_EPOCHS = 5           # paper: 40; cut so one train pass fits a run
SETUP_EPOCHS = 1           # checkpoints for the sweep workloads
BATCH_SIZE = 5             # TrainConfig default, used for expected counts
# 3 of the paper's 4 values: a pass then takes ~10 s, so a 15 s run holds
# two passes
EPSILONS = (0.01, 0.05, 0.1)
DRAWS = 1                  # paper: 10
TRANSFER_MOVIES = 5        # graphstab transfer default
# 3 of graphstab split-sweep's default 5 ratios, to keep a run near 35 s
SPLIT_RATIOS = (0.5, 0.7, 0.9)

# quality values must stay within this relative tolerance of reference.json
REFERENCE_RTOL = 1e-3


# --- metric declarations -----------------------------------------------------

END_TO_END = {          # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "throughput": "1/s",
    "peak_rss_mb": "MB",
}


def per_layer_units():
    units = {}
    for name in tracer.SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in tracer.FINGERPRINTED:
        units[f"{name}.unique_ratio"] = "ratio"
    units["trace.overhead_s"] = "s"
    units["ops_failed_ratio"] = "ratio"
    return units


# --- child processes ---------------------------------------------------------

@dataclass
class Command:
    """One child process and what was observed about it."""

    label: str
    argv: list
    wall_s: float = 0.0
    cpu_s: float = 0.0         # user + system CPU time of the child
    peak_rss_mb: float = 0.0
    returncode: int | None = None
    output: str = ""
    failures: list = field(default_factory=list)
    spans: str | None = None

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(f"{self.label}: {message}")
        return ok


def child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def child_argv(target: str, args, spans: Path | None = None) -> list:
    """argv of a graphstab CLI ("cli"), perfbench/lab.py ("lab") or
    perfbench/ratings.py ("ratings") child.

    With spans set, the child runs under perfbench/traced.py, which writes
    the spans of the traced process to that file.
    """
    args = [str(a) for a in args]
    if spans is not None:
        return [PYTHON, str(BENCH / "traced.py"), str(spans), target, *args]
    if target == "cli":
        return [PYTHON, "-m", "graphstab.cli", *args]
    return [PYTHON, str(BENCH / f"{target}.py"), *args]


def run_child(ctx, argv, cwd, out):
    """Run argv to completion; return its wall time, exit code and usage.

    The wait blocks in os.wait4, so the time is exact: subprocess's waits
    with a timeout poll, and round a child's end up to the next poll, up to
    50 ms late. A child still running at ctx.deadline is killed."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out,
                            stderr=subprocess.STDOUT)
    killer = threading.Timer(max(ctx.deadline - start, 0.0), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return time.perf_counter() - start, proc.returncode, usage


def calibrate(ctx) -> float:
    """Wall time of one perfbench/calibrate.py process."""
    argv = [PYTHON, str(BENCH / "calibrate.py")]
    cal_s, returncode, _ = run_child(ctx, argv, BENCH, subprocess.DEVNULL)
    if returncode != 0:
        raise RuntimeError(f"perfbench/calibrate.py exited with {returncode}")
    ctx.calibrations.append(cal_s)
    return cal_s


def run_command(ctx, label, target, args, cwd: Path,
                spans: Path | None = None) -> Command:
    """Run one child to completion, timing it and reading its peak RSS.

    With ctx.scaled, a calibration runs after it."""
    cmd = Command(label, child_argv(target, args, spans),
                  spans=str(spans) if spans else None)
    log = cwd / f"{label}.log"
    with open(log, "w") as out:
        cmd.wall_s, cmd.returncode, usage = run_child(ctx, cmd.argv, cwd, out)
    if ctx.scaled:
        calibrate(ctx)
    cmd.cpu_s = usage.ru_utime + usage.ru_stime
    cmd.peak_rss_mb = usage.ru_maxrss / 1024.0   # Linux reports KiB
    cmd.output = log.read_text()
    cmd.check(cmd.returncode == 0,
              f"exit code {cmd.returncode}: {cmd.output[-500:]!r}")
    return cmd


# --- output checks -----------------------------------------------------------

def read_table(path: Path):
    """Rows of a CSV written by graphstab (comment header lines skipped)."""
    with open(path) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def check_table(cmd: Command, path: Path, rows_expected: int,
                numeric_columns) -> list:
    if not cmd.check(path.is_file(), f"{path.name} missing"):
        return []
    rows = read_table(path)
    cmd.check(len(rows) == rows_expected,
              f"{path.name} has {len(rows)} rows, expected {rows_expected}")
    for row in rows:
        for col in numeric_columns:
            try:
                value = float(row[col])
            except (KeyError, TypeError, ValueError):
                cmd.check(False, f"{path.name}: column {col} unreadable")
                return rows
            if not cmd.check(math.isfinite(value),
                             f"{path.name}: non-finite {col} = {value}"):
                return rows
    return rows


def split_sizes(path: Path):
    rows = read_table(path)
    n_train = sum(r["subset"] == "train" for r in rows)
    return n_train, len(rows) - n_train


def load_reference():
    path = BENCH / "reference.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def check_quality(cmd: Command, ctx, workload: str, values: dict) -> str:
    """Quality values must repeat exactly between the passes of a run and
    stay within REFERENCE_RTOL of reference.json for seeds recorded there."""
    first = ctx.info.setdefault(f"{workload} quality", values)
    cmd.check(first == values,
              f"quality differs between passes: {first} then {values}")
    ref = ctx.reference.get(workload, {}).get(str(ctx.seed))
    if ref is None:
        return f"no reference values for seed {ctx.seed}"
    for name, value in values.items():
        want = ref[name]
        cmd.check(math.isclose(value, want, rel_tol=REFERENCE_RTOL),
                  f"{name} = {value!r}, reference {want!r} "
                  f"(rtol {REFERENCE_RTOL})")
    return (f"{', '.join(values)} compared with reference.json for seed "
            f"{ctx.seed} (rtol {REFERENCE_RTOL})")


def check_counts(cmd: Command, expected: dict) -> None:
    """Compare a traced command's call counts against expected counts."""
    summary = tracer.summarize([tracer.read_spans(cmd.spans)])
    for name, want in expected.items():
        got = summary[name]["calls"]
        cmd.check(got == want, f"{name}.calls = {got}, expected {want}")


# --- workloads ---------------------------------------------------------------

@dataclass
class Context:
    seed: int
    inputs: Path           # set-up products: u.data, checkpoints, lab inputs
    reference: dict
    deadline: float        # perf_counter time by which children must end
    scaled: bool = False   # calibrate after every command
    info: dict = field(default_factory=dict)
    calibrations: list = field(default_factory=list)   # seconds, in order


@dataclass
class Pass:
    commands: list
    work: int
    quality: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.commands)

    @property
    def cpu_s(self) -> float:
        return sum(c.cpu_s for c in self.commands)


def setup_ratings(ctx: Context) -> Command:
    cmd = run_command(ctx, "generate", "ratings", [
        "--seed", ctx.seed, "--out", ctx.inputs / "u.data"], ctx.inputs)
    if cmd.returncode == 0:
        facts = json.loads(cmd.output.splitlines()[-1])
        del facts["path"]
        first = ctx.info.setdefault("ratings", facts)
        cmd.check(first == facts,
                  "ratings differ between set-ups with the same seed")
    return cmd


def setup_checkpoints(ctx: Context) -> list:
    gen = setup_ratings(ctx)
    ckpt = ctx.inputs / "checkpoints"
    shutil.rmtree(ckpt, ignore_errors=True)
    cmd = run_command(ctx, "setup-train", "cli", [
        "train", "--data", ctx.inputs / "u.data", "--mu", *MUS,
        "--seeds", ctx.seed, "--epochs", SETUP_EPOCHS, "--out", ckpt],
        ctx.inputs)
    if cmd.returncode == 0:
        for mu in MUS:
            path = ckpt / f"checkpoint_mu{mu}_split{ctx.seed}.json"
            cmd.check(path.is_file(), f"{path.name} missing")
    return [gen, cmd]


def setup_train(ctx: Context) -> list:
    return [setup_ratings(ctx)]


def pass_train(ctx: Context, out: Path, spans_dir: Path | None) -> Pass:
    cmd = run_command(ctx, "train", "cli", [
        "train", "--data", ctx.inputs / "u.data", "--mu", *MUS,
        "--seeds", ctx.seed, "--epochs", TRAIN_EPOCHS, "--out", out],
        out, spans_dir and spans_dir / "train.spans")
    p = Pass([cmd], work=0)
    if cmd.returncode != 0:
        return p
    rows = check_table(cmd, out / "rmse.csv", len(MUS), ["mu", "test_rmse"])
    n_train, n_test = split_sizes(out / f"split_{ctx.seed}.csv")
    p.work = len(MUS) * n_train * TRAIN_EPOCHS
    for mu in MUS:
        check_table(cmd, out / f"trace_mu{mu}_split{ctx.seed}.csv",
                    TRAIN_EPOCHS, ["loss", "penalty"])
    p.quality = {f"test_rmse_mu{float(r['mu']):g}": float(r["test_rmse"])
                 for r in rows}
    if len(p.quality) == len(MUS):
        p.notes.append(check_quality(cmd, ctx, "train", p.quality))
    if cmd.spans:
        nb = math.ceil(n_train / BATCH_SIZE)
        m = len(MUS)
        check_counts(cmd, {
            "cli.main": 1, "movielens.load_ratings": 1,
            "movielens.build_task": m, "movielens.pearson_graph": m,
            "graphs.knn_sparsify": m, "gnn.train": m,
            "gnn.resolve_lambda_interval": m,
            "gnn.forward": m * n_train * TRAIN_EPOCHS + m * n_test,
            "gnn.sample_gradients": m * n_train * TRAIN_EPOCHS,
            "gnn.adam_step": m * nb * TRAIN_EPOCHS,
            # batches of the mu > 0 run, plus one per epoch for every mu
            "gnn.penalty": sum(mu > 0 for mu in MUS) * nb * TRAIN_EPOCHS
            + m * TRAIN_EPOCHS,
        })
    return p


def pass_perturb(ctx: Context, out: Path, spans_dir: Path | None) -> Pass:
    cmd = run_command(ctx, "perturb-sweep", "cli", [
        "perturb-sweep", "--data", ctx.inputs / "u.data",
        "--checkpoints", ctx.inputs / "checkpoints",
        "--epsilon", *EPSILONS, "--draws", DRAWS, "--out", out],
        out, spans_dir and spans_dir / "perturb.spans")
    evals = len(MUS) * len(EPSILONS) * DRAWS
    p = Pass([cmd], work=evals)
    if cmd.returncode != 0:
        return p
    rows = check_table(cmd, out / "perturb_sweep.csv", evals,
                       ["epsilon", "rmse_base", "rmse_perturbed",
                        "rmse_difference"])
    for mu in MUS:
        diffs = [abs(float(r["rmse_difference"])) for r in rows
                 if float(r["mu"]) == mu]
        if diffs:
            # rmse_shift is the penalized model's; mu = 0 is shown beside it
            key = "rmse_shift" if mu > 0 else f"rmse_shift_mu{mu:g}"
            p.quality[key] = statistics.fmean(diffs)
    if len(p.quality) == len(MUS):
        p.notes.append(check_quality(cmd, ctx, "perturb-sweep", p.quality))
    if cmd.spans:
        _, n_test = split_sizes(ctx.inputs / "checkpoints"
                                / f"split_{ctx.seed}.csv")
        draws = len(EPSILONS) * DRAWS
        check_counts(cmd, {
            "cli.main": 1, "movielens.load_ratings": 1,
            "movielens.build_task": len(MUS), "gnn.train": 0,
            "perturbation.random_relative_perturbation": len(MUS) * draws,
            "gnn.forward": len(MUS) * (1 + draws) * n_test,
        })
    return p


def pass_transfer(ctx: Context, out: Path, spans_dir: Path | None) -> Pass:
    common = ["--data", ctx.inputs / "u.data",
              "--checkpoints", ctx.inputs / "checkpoints", "--out", out]
    transfer = run_command(ctx, "transfer",
                           "cli", ["transfer", *common], out,
                           spans_dir and spans_dir / "transfer.spans")
    split = run_command(ctx, "split-sweep", "cli", [
        "split-sweep", *common, "--splits", *SPLIT_RATIOS],
        out, spans_dir and spans_dir / "split.spans")
    transfer_tasks = len(MUS) * TRANSFER_MOVIES
    split_tasks = len(MUS) * (1 + len(SPLIT_RATIOS))
    p = Pass([transfer, split], work=transfer_tasks + split_tasks)
    if transfer.returncode == 0:
        check_table(transfer, out / "transfer.csv", transfer_tasks,
                    ["rmse_mean", "rmse_std", "degradation_percent"])
    if split.returncode == 0:
        check_table(split, out / "split_sweep.csv",
                    len(MUS) * len(SPLIT_RATIOS),
                    ["rmse_base", "rmse_at_ratio", "rmse_difference"])
    for cmd, tasks in ((transfer, transfer_tasks), (split, split_tasks)):
        if cmd.spans and cmd.returncode == 0:
            check_counts(cmd, {
                "cli.main": 1, "movielens.load_ratings": 1,
                "movielens.build_task": tasks,
                "movielens.pearson_graph": tasks,
                "graphs.knn_sparsify": tasks, "gnn.train": 0,
            })
    return p


def setup_lab(ctx: Context) -> list:
    cmd = run_command(ctx, "lab-inputs", "lab", [
        "inputs", "--seed", ctx.seed, "--out", ctx.inputs / "lab.npz"],
        ctx.inputs)
    return [cmd]


def pass_lab(ctx: Context, out: Path, spans_dir: Path | None) -> Pass:
    sweep = run_command(ctx, "lab-sweep", "lab", [
        "sweep", "--inputs", ctx.inputs / "lab.npz",
        "--out", out / "reports.csv"],
        out, spans_dir and spans_dir / "lab.spans")
    verify = run_command(ctx, "verify", "cli", ["verify"], out,
                         spans_dir and spans_dir / "verify.spans")
    reports = lab.expected_reports()
    p = Pass([sweep, verify], work=reports)
    if sweep.returncode == 0:
        check_table(sweep, out / "reports.csv", reports,
                    ["epsilon", "measured", "bound", "C", "delta"])
    verify.check("all invariants satisfied" in verify.output,
                 "verify did not print 'all invariants satisfied'")
    if sweep.spans and sweep.returncode == 0:
        points = len(lab.EPSILONS) * lab.SWEEP_SEEDS
        probes = lab.PROBES + lab.NODES   # random probes + eigenvectors
        layers = len(lab.LAYER_DIMS) - 1
        check_counts(sweep, {
            "stability.empirical_gnn_distance_sweep": len(lab.GNN_KINDS),
            "stability.empirical_filter_distance_sweep": 1,
            "stability.empirical_gnn_distance": len(lab.GNN_KINDS) * points,
            "stability.bank_il_constant":
                len(lab.GNN_KINDS) * points * layers,
            "gnn.forward": len(lab.GNN_KINDS) * points * probes * 2,
            "cli.main": 0,
        })
    if verify.spans and verify.returncode == 0:
        check_counts(verify, {"cli.main": 1})
    return p


@dataclass(frozen=True)
class Workload:
    name: str
    throughput_name: str      # what one unit of `throughput` counts
    setup_repeats: int
    setup: object
    run_pass: object
    scaled: bool              # times scaled to the reference host speed


# The sub-second set-ups repeat seven times, so their median is steady; each
# checkpoint set-up trains two models (~12 s), so it runs once per run.
# stability-lab spends its time in the interpreter and in tiny numpy calls
# on N=100 arrays, as calibrate.py does, and its speed follows the
# calibration's: its times are scaled. The others work on 943x1682 arrays;
# their speed did not follow the calibration's, so scaling them would add the
# calibration's noise and remove none: their times are raw.
WORKLOADS = {w.name: w for w in (
    Workload("train", "train.sample_steps_per_s", 7, setup_train,
             pass_train, scaled=False),
    Workload("perturb-sweep", "perturb.evals_per_s", 1, setup_checkpoints,
             pass_perturb, scaled=False),
    Workload("transfer", "transfer.tasks_per_s", 1, setup_checkpoints,
             pass_transfer, scaled=False),
    Workload("stability-lab", "lab.sweep_points_per_s", 7, setup_lab,
             pass_lab, scaled=True),
)}


# --- machine information -----------------------------------------------------

MACHINE_PROBE = """
import json, numpy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
except (TypeError, KeyError):
    blas = {}
print(json.dumps({"numpy": numpy.__version__,
                  "blas_name": blas.get("name", "unknown"),
                  "blas_version": blas.get("version", "unknown"),
                  "blas_config": blas.get("openblas configuration", "")}))
"""


def machine_info() -> dict:
    """Machine and library facts, with numpy's read in a child process."""
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "blas_threads": THREAD_ENV,
    }
    probe = subprocess.run([PYTHON, "-c", MACHINE_PROBE], env=child_env(),
                           capture_output=True, text=True, timeout=60)
    if probe.returncode == 0:
        info.update(json.loads(probe.stdout))
    else:
        info["numpy"] = f"probe failed: {probe.stderr[-200:]}"
    return info


# --- running a workload ------------------------------------------------------

@dataclass
class Result:
    workload: str
    seed: int
    trace: int
    commands: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    report: dict = field(default_factory=dict)   # name -> (value, unit)
    notes: list = field(default_factory=list)
    inputs: dict | None = None                   # generated ratings, if any

    @property
    def failures(self):
        return [f for c in self.commands for f in c.failures]

    @property
    def failed(self) -> int:
        return sum(bool(c.failures) for c in self.commands)


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: int, workdir: Path, reference: dict) -> Result:
    result = Result(workload.name, seed, trace)
    ctx = Context(seed, workdir / "inputs", reference,
                  deadline=time.perf_counter() + RUN_DEADLINE_S,
                  scaled=workload.scaled)
    ctx.inputs.mkdir(parents=True)
    setups = []
    for _ in range(1 if trace else workload.setup_repeats):
        setups.append(workload.setup(ctx))
        result.commands += setups[-1]
    result.inputs = ctx.info.get("ratings")
    if result.failures:
        return result

    def one_pass(i, spans_dir=None):
        out = workdir / f"pass{i}"
        out.mkdir()
        p = workload.run_pass(ctx, out, spans_dir)
        result.commands += p.commands
        result.notes += [n for n in p.notes if n not in result.notes]
        return p

    if trace:
        plain = one_pass(0)
        spans_dir = workdir / "spans"
        spans_dir.mkdir()
        traced = one_pass(1, spans_dir)
        # a failed check still yields spans; a killed process does not
        if not all(Path(c.spans).is_file() for c in traced.commands):
            return result
        summary = tracer.summarize(
            [tracer.read_spans(c.spans) for c in traced.commands])
        for name in tracer.SPAN_NAMES:
            result.metrics[f"{name}.calls"] = summary[name]["calls"]
            result.metrics[f"{name}.self_s"] = summary[name]["self_s"]
        for name in tracer.FINGERPRINTED:
            result.metrics[f"{name}.unique_ratio"] = tracer.unique_ratio(
                summary[name])
        result.metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
        result.metrics["ops_failed_ratio"] = (result.failed
                                              / len(result.commands))
        result.report = {"untraced_wall_s": (plain.wall_s, "s"),
                         "traced_wall_s": (traced.wall_s, "s")}
        return result

    passes = []
    while not passes or sum(p.wall_s for p in passes) < seconds:
        passes.append(one_pass(len(passes)))
        if result.failures:
            return result
    # the times of a scaled workload are given at the reference host speed
    speed = (CAL_REF_S / statistics.median(ctx.calibrations)
             if ctx.calibrations else 1.0)
    raw_setup_s = statistics.median(sum(c.wall_s for c in s) for s in setups)
    raw_wall_s = statistics.median(p.wall_s for p in passes)
    # every pass does the same work, so throughput follows the median pass
    wall_s = raw_wall_s * speed
    result.metrics = {
        "setup_s": raw_setup_s * speed,
        "wall_s": wall_s,
        "throughput": passes[0].work / wall_s,
        "peak_rss_mb": max(c.peak_rss_mb for p in passes for c in p.commands),
    }
    result.report = {
        workload.throughput_name: (result.metrics["throughput"], "1/s"),
        # unscaled: these follow the host's load
        "raw_setup_s": (raw_setup_s, "s"),
        "raw_wall_s": (raw_wall_s, "s"),
        # CPU time next to wall time: when both move together, a change in
        # wall time is the processor's speed, not waiting
        "cpu_s": (statistics.median(p.cpu_s for p in passes), "s"),
        "passes": (len(passes), "count"),
        "setup_repeats": (len(setups), "count"),
    }
    if ctx.calibrations:
        result.report["host_speed"] = (speed, "x")
        result.report["calibrations"] = (len(ctx.calibrations), "count")
    for name, value in passes[0].quality.items():
        result.report[name] = (value, "rating")
    return result


def print_result(result: Result, info: dict, units: dict) -> None:
    print(f"workload {result.workload}  seed {result.seed}  "
          f"trace {result.trace}")
    print("machine " + json.dumps(info, sort_keys=True))
    if result.inputs:
        print("inputs " + json.dumps(result.inputs, sort_keys=True))
    for name, value in result.metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for name, (value, unit) in result.report.items():
        print(f"  {name} = {value:.6g} {unit}")
    attempted = len(result.commands)
    if "ops_failed_ratio" not in result.metrics:
        print(f"  ops_failed_ratio = {result.failed / max(attempted, 1):.6g} "
              f"ratio ({result.failed} of {attempted} operations failed)")
    for note in result.notes:
        print(f"  check: {note}")
    for failure in result.failures:
        print(f"  FAILED: {failure}")


def save_result(result: Result, info: dict) -> Path:
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    path = out / (f"{result.workload}-seed{result.seed}"
                  f"-trace{result.trace}.json")
    path.write_text(json.dumps({
        "workload": result.workload, "seed": result.seed,
        "trace": result.trace, "machine": info, "inputs": result.inputs,
        "metrics": result.metrics,
        "report": result.report, "notes": result.notes,
        "failures": result.failures,
        "commands": [{"label": c.label, "argv": c.argv, "wall_s": c.wall_s,
                      "cpu_s": c.cpu_s, "peak_rss_mb": c.peak_rss_mb,
                      "returncode": c.returncode} for c in result.commands],
    }, indent=1, default=str))
    return path


def result_line(result: Result, units: dict) -> dict:
    return {
        "correct": not result.failures,
        "attempted": len(result.commands),
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result.metrics.items()},
    }


def execute(name: str, seed: int, seconds: float, trace: int,
            reference: dict) -> Result:
    """Run one workload in a scratch directory that is removed after."""
    workdir = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        return run_workload(WORKLOADS[name], seed, seconds, trace, workdir,
                            reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="outside-in benchmark of graphstab")
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind like on Ctrl-C: run_command kills and reaps the
    # running child, and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "graphstab" / "cli.py").is_file():
        print(f"error: graphstab sources not found under {SRC}",
              file=sys.stderr)
        return 2
    units = {**END_TO_END, **per_layer_units()}
    info = machine_info()
    # one CPU for every child and calibration, so each calibration measures
    # the CPU its neighbouring command ran on; the vCPUs of a shared host
    # speed up and slow down independently
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    info["pinned_cpu"] = cpu
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reference = load_reference()
    lines = {}
    for name in names:
        result = execute(name, args.seed, args.seconds, args.trace, reference)
        print_result(result, info, units)
        save_result(result, info)
        lines[name] = result_line(result, units)
    if len(names) == 1:
        print(json.dumps(lines[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in lines.values()),
            "attempted": sum(r["attempted"] for r in lines.values()),
            "failed": sum(r["failed"] for r in lines.values()),
            "workloads": lines,
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
