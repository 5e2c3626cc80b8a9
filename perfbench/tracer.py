"""Outside-in tracing of a ``garchmc run``: spans around calls into each layer.

The tracer replaces public functions of the garchmc modules with timing
wrappers from here, so no tracing code lives in the program. Spans are kept
in memory as parallel arrays (name, parent, start, end) and saved when the
run ends. A span's self time is its duration minus the durations of its
direct child spans; spans on one thread nest, so children never overlap.
"""
import functools
import math
import time
from array import array
from collections import Counter

import numpy as np

#: Wrapped functions: (module or class path under garchmc, attribute, span name).
#: Names that do not exist in the traced tree are skipped and reported.
TARGETS = (
    ("data", "generate_synthetic", "data.generate_synthetic"),
    ("data", "load_prices", "data.load_prices"),
    ("data", "transform_returns", "data.transform_returns"),
    ("backend.kernels", "log_likelihood", "model.loglik"),
    ("proposal", "fit", "proposal.fit"),
    ("proposal.StudentTProposal", "sample", "proposal.sample"),
    ("proposal.StudentTProposal", "log_density", "proposal.log_density"),
    ("samplers", "tune_metropolis", "samplers.tune_metropolis"),
    ("samplers", "run_adaptive", "samplers.run"),
    ("samplers", "run_metropolis", "samplers.run"),
    ("samplers", "_run_adaptive_full", "samplers.run"),
    ("samplers", "_run_metropolis_full", "samplers.run"),
    ("diagnostics", "summarize", "diagnostics.summarize"),
    ("diagnostics", "acf", "diagnostics.acf"),
)

#: Name of the span the tracer puts around each closure that
#: ``model.make_log_posterior`` returns.
POSTERIOR = "model.posterior"


def _resolve(root, path):
    obj = root
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


class Tracer:
    """In-memory span recorder with patch/unpatch of the garchmc modules."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters = Counter()
        self.installed = []
        self._ids = {}
        self._stack = []
        self._patches = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        """Return fn wrapped so that every call records a span called name."""
        nid = self._id(name)
        clock, stack = self.clock, self._stack
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def _posterior_factory(self, make):
        counters = self.counters

        @functools.wraps(make)
        def make_traced(*args, **kwargs):
            traced = self.wrap(POSTERIOR, make(*args, **kwargs))

            def log_post(theta):
                value = traced(theta)
                if value == -math.inf:
                    counters["model.posterior_log_zero"] += 1
                return value

            return log_post

        return make_traced

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, garchmc):
        """Patch the layers of the imported ``garchmc`` package."""
        for path, attr, name in TARGETS:
            owner = _resolve(garchmc, path)
            if owner is not None and callable(getattr(owner, attr, None)):
                self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))
                self.installed.append(f"{path}.{attr}")
        model = getattr(garchmc, "model", None)
        if model is not None and callable(getattr(model, "make_log_posterior", None)):
            self._patch(model, "make_log_posterior",
                        self._posterior_factory(model.make_log_posterior))
            self.installed.append("model.make_log_posterior")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self):
        """Spans as numpy arrays: (names, name_id, parent, start, end)."""
        return (list(self.names), np.asarray(self.name_id, dtype=np.int64),
                np.asarray(self.parent, dtype=np.int64),
                np.asarray(self.start), np.asarray(self.end))

    def save(self, path):
        names, name_id, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(names), name_id=name_id,
                            parent=parent, start=start, end=end)


def self_times(parent, start, end):
    """Per-span self time: duration minus the durations of direct children."""
    dur = np.asarray(end) - np.asarray(start)
    parent = np.asarray(parent)
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    return dur - child


def layer_metrics(names, name_id, parent, start, end, counters, n_returns):
    """Per-layer numbers of one traced run from its spans and counters."""
    dur = end - start
    own = self_times(parent, start, end)
    # Index len(names) stands for "no parent".
    label_of = np.array(list(names) + [""])
    layer_of = np.array([n.split(".")[0] for n in names] + [""])
    parent_id = np.where(parent >= 0, name_id[np.maximum(parent, 0)], len(names))
    labels, layer = label_of[name_id], layer_of[name_id]
    parent_label, parent_layer = label_of[parent_id], layer_of[parent_id]

    def spans(label):
        return labels == label

    def busy(label):
        # Outermost spans of a label only, so a wrapper calling another
        # wrapper of the same label is not counted twice.
        return float(dur[spans(label) & (parent_label != label)].sum())

    calls = {n: int(spans(n).sum()) for n in names}
    loglik_calls = calls.get("model.loglik", 0)
    loglik_s = busy("model.loglik")
    posterior_calls = calls.get(POSTERIOR, 0)
    summarize_end = end[spans("diagnostics.summarize")]
    main_end = end[spans("cli.main")]
    write_s = float(main_end.max() - summarize_end.max()) \
        if summarize_end.size and main_end.size else 0.0
    return {
        "data.load_s": float(dur[(layer == "data") & (parent_layer != "data")].sum()),
        "model.loglik_calls": loglik_calls,
        "model.loglik_s": loglik_s,
        "model.loglik_ns_per_step":
            1e9 * loglik_s / (loglik_calls * n_returns) if loglik_calls else 0.0,
        "model.posterior_calls": posterior_calls,
        "model.out_of_support_ratio":
            counters.get("model.posterior_log_zero", 0) / posterior_calls
            if posterior_calls else 0.0,
        "proposal.fit_calls": calls.get("proposal.fit", 0),
        "proposal.fit_s": busy("proposal.fit"),
        "proposal.draw_s": busy("proposal.sample") + busy("proposal.log_density"),
        "samplers.tune_s": busy("samplers.tune_metropolis"),
        "samplers.self_s": float(own[layer == "samplers"].sum()),
        "diagnostics.summarize_s": busy("diagnostics.summarize"),
        "diagnostics.acf_calls": calls.get("diagnostics.acf", 0),
        "diagnostics.acf_s": busy("diagnostics.acf"),
        "cli.write_s": write_s,
    }
