"""Outside-in tracer for graphstab.

The tracer wraps a fixed list of public graphstab functions and rebinds each
name in every loaded graphstab module that holds it: `cli` and `stability`
import `forward` and `train` from `gnn`, `perturbation` imports
`spectral_norm` and `eigendecompose`, and so on, so patching only the
defining module would miss those calls. Nothing under `src/` changes.

Each call records a span (name, start, end, parent, fingerprint). For a few
functions the call arguments are fingerprinted, so the share of calls that
did distinct work can be counted; other spans have no fingerprint. Spans stay
in memory and are written to one JSON file when the traced process ends;
`summarize` derives per-function call counts, self time (duration minus the
time covered by child spans) and unique-argument ratios from them.

The module uses the standard library only, so the benchmark's own process
can read spans without loading numpy: whatever that process holds in memory
when it starts a child is counted in the child's peak RSS.
"""

import dataclasses
import functools
import hashlib
import importlib
import json
import sys
import time

# module -> functions, in the order the benchmark reports them
TARGETS = {
    "movielens": ["load_ratings", "pearson_graph", "build_task"],
    "graphs": ["knn_sparsify", "build_gso", "graph_shift"],
    "spectral": ["eigendecompose", "integral_lipschitz_check"],
    "filters": ["shift_stack", "spectral_norm", "filter_distance",
                "graph_convolution"],
    "perturbation": ["random_relative_perturbation", "solve_relative_error",
                     "spec_misalignment"],
    "gnn": ["train", "forward", "sample_gradients", "penalty", "adam_step",
            "resolve_lambda_interval", "objective", "objective_gradients"],
    "stability": ["bank_il_constant", "empirical_gnn_distance",
                  "empirical_filter_distance_sweep",
                  "empirical_gnn_distance_sweep"],
    "cli": ["main"],
}

# functions whose arguments are fingerprinted to count repeated work
FINGERPRINTED = ("movielens.build_task",
                 "perturbation.random_relative_perturbation",
                 "stability.bank_il_constant")

# time spent fingerprinting is recorded as its own span, so it is charged
# to no traced function's self time
FINGERPRINT_SPAN = "trace.fingerprint"

SPAN_NAMES = [f"{module}.{fn}" for module, fns in TARGETS.items()
              for fn in fns]

# arrays at least this large are hashed once per object within a process;
# the benchmark's large inputs (ratings matrix, GSO) are never mutated
_BIG_ARRAY_BYTES = 1 << 20


class Tracer:
    """Records spans for the functions in TARGETS while installed."""

    def __init__(self):
        # (name, start, end, parent, fingerprint); parent is the index of
        # the enclosing span, -1 at the root
        self.spans = []
        self._stack = []
        self._patched = []           # (module, attribute, original)
        self._array_digests = {}     # id -> (array, digest)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target and rebind it wherever graphstab imported it."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for module in TARGETS:
            importlib.import_module(f"graphstab.{module}")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None
                   and (name == "graphstab" or name.startswith("graphstab."))]
        for module, fns in TARGETS.items():
            home = sys.modules[f"graphstab.{module}"]
            for fn in fns:
                name = f"{module}.{fn}"
                original = getattr(home, fn)
                wrapper = self._wrap(name, original, name in FINGERPRINTED)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        """Restore every rebound name."""
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, name, fn, fingerprint):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            digest = None
            if fingerprint:
                t0 = clock()
                digest = self.fingerprint((args, sorted(kwargs.items())))
                spans.append((FINGERPRINT_SPAN, t0, clock(), parent, None))
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent, digest)
                stack.pop()

        return traced

    # -- fingerprints -------------------------------------------------------

    def fingerprint(self, value) -> str:
        h = hashlib.blake2b(digest_size=16)
        self._feed(h, value)
        return h.hexdigest()

    def _feed(self, h, value) -> None:
        np = sys.modules.get("numpy")   # graphstab has loaded it if used
        if np is not None and isinstance(value, np.ndarray):
            h.update(b"nd")
            h.update(self._array_digest(value))
        elif dataclasses.is_dataclass(value) and not isinstance(value, type):
            h.update(type(value).__name__.encode())
            for f in dataclasses.fields(value):
                self._feed(h, getattr(value, f.name))
        elif isinstance(value, (list, tuple)):
            h.update(b"(%d" % len(value))
            for item in value:
                self._feed(h, item)
            h.update(b")")
        else:
            h.update(repr(value).encode())

    def _array_digest(self, a) -> bytes:
        if a.nbytes >= _BIG_ARRAY_BYTES:
            hit = self._array_digests.get(id(a))
            if hit is not None and hit[0] is a:
                return hit[1]
        h = hashlib.blake2b(digest_size=16)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
        digest = h.digest()
        if a.nbytes >= _BIG_ARRAY_BYTES:
            self._array_digests[id(a)] = (a, digest)
        return digest

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as one JSON list."""
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def read_spans(path):
    """Read a file written by Tracer.write into span tuples."""
    with open(path) as fh:
        return [tuple(span) for span in json.load(fh)]


def summarize(span_lists):
    """Per-function calls, self seconds and fingerprints over span lists.

    Each list holds the spans of one process (parents index into it).
    Returns {name: {"calls": int, "self_s": float, "fingerprints": [...]}}
    for every name in SPAN_NAMES, zero-filled for functions never called.
    """
    out = {n: {"calls": 0, "self_s": 0.0, "fingerprints": []}
           for n in SPAN_NAMES}
    for spans in span_lists:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _, fp) in enumerate(spans):
            if name not in out:
                continue
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[i]
            if fp is not None:
                entry["fingerprints"].append(fp)
    return out


def unique_ratio(entry) -> float:
    """Distinct argument fingerprints per call; 1 when never called, since
    then no call repeated another's work."""
    fps = entry["fingerprints"]
    return len(set(fps)) / len(fps) if fps else 1.0
