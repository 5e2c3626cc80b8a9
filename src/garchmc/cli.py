"""Command-line front end: run a sampler on CSV or synthetic data, dump
reports/traces, and compare two completed runs."""
import argparse
import contextlib
import fcntl
import hashlib
import itertools
import json
import math
import os
import pickle
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import backend, data, diagnostics, proposal, samplers
from .exceptions import ComparisonRefusedError, GarchMCError
from .rng import chain_seed


#: The samplers ``--sampler`` chooses from.
_SAMPLERS = ("adaptive", "metropolis")


@dataclass
class RunConfig:
    """Settings of one ``garchmc run``.

    Each field is the flag of its name with dashes; its metadata holds the
    flag's argparse ``help`` and ``choices``.
    """

    csv: str = field(default=None, metadata={"help": "two-column CSV of label,price rows"})
    synthetic: bool = field(default=False, metadata={"help": "generate synthetic GARCH data"})
    alpha: float = 0.03
    beta: float = 0.94
    omega: float = 0.011
    n: int = field(default=2000, metadata={"help": "synthetic series length"})
    sampler: str = field(default="adaptive", metadata={"choices": _SAMPLERS})
    burn_in: int = samplers.AdaptiveSchedule.burn_in
    pilot: int = samplers.AdaptiveSchedule.pilot
    refit_interval: int = samplers.AdaptiveSchedule.refit_interval
    total: int = samplers.AdaptiveSchedule.total
    nu: float = proposal.DEFAULT_NU
    seed: int = 12345
    out: str = "garchmc_out"
    chains: int = 1

    def validate(self):
        """Check every field; returns the run's AdaptiveSchedule."""
        if (self.csv is None) == (not self.synthetic):
            raise GarchMCError("exactly one input source required: --csv PATH or --synthetic")
        if self.sampler not in _SAMPLERS:
            raise GarchMCError(f"unknown sampler {self.sampler!r}")
        if self.seed < 0:
            raise GarchMCError(f"--seed must be non-negative, got {self.seed}")
        if self.chains <= 0:
            raise GarchMCError(f"--chains must be positive, got {self.chains}")
        try:
            proposal.check_nu(self.nu)
            sched = samplers.AdaptiveSchedule(self.burn_in, self.pilot, self.refit_interval, self.total)
        except ValueError as exc:
            # Each message starts with the offending field: name it as its flag.
            raise GarchMCError("--" + str(exc).replace("_", "-")) from None
        if self.total < diagnostics.MIN_DRAWS:
            raise GarchMCError(f"--total must be at least {diagnostics.MIN_DRAWS} "
                               f"to summarize, got {self.total}")
        # The first proposal fit sees only the pilot and needs dim + 1 draws.
        min_pilot = len(diagnostics.PARAM_NAMES) + 1
        if self.sampler == "adaptive" and self.pilot < min_pilot:
            raise GarchMCError(f"--pilot must be at least {min_pilot} for the adaptive "
                               f"sampler, got {self.pilot}")
        return sched


def _load_returns(config):
    if config.csv is not None:
        return data.transform_returns(data.load_prices(config.csv))
    return data.generate_synthetic((config.alpha, config.beta, config.omega), config.n, config.seed)


def _fingerprint(y):
    return hashlib.sha256(np.ascontiguousarray(y, dtype=np.float64).tobytes()).hexdigest()


#: Rows per write of chain.csv, so the formatted text held at once stays
#: bounded however long the chain.
_CHUNK_ROWS = 4096


def _write_atomic(path, pieces):
    """Write the strings ``pieces`` to ``path``, all or nothing.

    They go to ``<name>.part``, which replaces ``path`` only once complete
    and is unlinked on any failure, so ``path`` is either absent, as it was,
    or complete.
    """
    part = path.with_name(path.name + ".part")
    try:
        with open(part, "w", newline="", encoding="utf-8") as fh:
            for piece in pieces:
                fh.write(piece)
        os.replace(part, path)
    finally:
        part.unlink(missing_ok=True)


def _chain_csv_lines(draws, accepted):
    """The text of chain.csv: a header line, then the rows of the (k, 3)
    draws and their accept flags as ``backend.kernels.chain_text`` writes
    them, _CHUNK_ROWS rows per piece."""
    yield ",".join([*diagnostics.PARAM_NAMES, "accepted\n"])
    for i in range(0, len(draws), _CHUNK_ROWS):
        rows = slice(i, i + _CHUNK_ROWS)
        yield backend.kernels.chain_text(draws[rows], accepted[rows])


def _finite_or_null(obj):
    """``obj`` with every NaN or infinite float replaced by None, which JSON
    writes as ``null``."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_finite_or_null(v) for v in obj]
    return obj


def _write_json(path, obj):
    """Write ``obj`` as strict JSON (RFC 8259): NaN and +-inf become null."""
    _write_atomic(path, [json.dumps(_finite_or_null(obj), indent=1, allow_nan=False)])


#: Files every chain writes, and those only an adaptive chain writes.
_CHAIN_ARTIFACTS = ("chain.csv", "acceptance_trace.csv", "report.json", "report.txt")
_ADAPTIVE_ARTIFACTS = ("proposal_history.json",)
#: Every file name a run can write, in ``--out`` and in its chain_NN/.
_ARTIFACTS = ("manifest.json", "cross_chain.json", *_CHAIN_ARTIFACTS, *_ADAPTIVE_ARTIFACTS)


def _remove_stale_artifacts(out, config):
    """Remove the manifest, then every artifact an earlier run left in
    ``out`` or its chain_NN/ that a run of ``config`` will not write and
    every artifact's ``<name>.part``, then each chain_NN/ that this leaves
    empty.

    A ``.part`` left behind is a killed run's: the caller holds the lock, so
    no live writer owns it. Files the run will write are left for
    ``_write_atomic`` to replace, and no other file is touched.
    """
    own = set(_CHAIN_ARTIFACTS)
    if config.sampler == "adaptive":
        own.update(_ADAPTIVE_ARTIFACTS)
    if config.chains > 1:
        own = {f"chain_{i:02d}/{name}" for i in range(config.chains) for name in own}
        own.add("cross_chain.json")
    (out / "manifest.json").unlink(missing_ok=True)
    chain_dirs = [d for d in out.glob("chain_*")
                  if d.name.removeprefix("chain_").isdigit() and d.is_dir()]
    for d in (out, *chain_dirs):
        for name in _ARTIFACTS:
            (d / f"{name}.part").unlink(missing_ok=True)
            if (d / name).relative_to(out).as_posix() not in own:
                (d / name).unlink(missing_ok=True)
    for d in chain_dirs:
        if not any(d.iterdir()):
            d.rmdir()


def _cpu_shares(cpus, k):
    """The CPUs each of ``k`` chains runs on: chain i takes every k-th of
    the sorted ``cpus`` from the i-th, so with k <= len(cpus) the shares are
    disjoint and cover ``cpus``, and with more chains each takes one CPU,
    chain i the (i mod len(cpus))-th."""
    return [cpus[i % len(cpus)::k] for i in range(k)]


def _median(values):
    """``np.median`` of the floats ``values``, bit for bit and NaN when any
    is NaN, without the ``numpy.ma`` import that ``np.median`` makes."""
    s = np.sort(values)
    if math.isnan(s[-1]):  # np.sort puts NaN last
        return math.nan
    mid = (len(s) - 1) // 2
    return float(np.mean(s[mid:len(s) - mid]))


def _run_one_chain(config, sched, y, seed, out, cpus=None):
    """Run a single chain and write all artifacts into ``out``.

    A ``--chains`` child first moves onto its share ``cpus`` of the parent's
    CPUs, so that chains run together do not take turns on one CPU; the
    batch kernel then starts its threads on that share alone. A refused move
    leaves the child where it was.
    """
    if cpus is not None:
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, cpus)
    out.mkdir(parents=True, exist_ok=True)
    if config.sampler == "adaptive":
        res = samplers.run_adaptive(y, sched, nu=config.nu, seed=seed)
        _write_json(out / "proposal_history.json", [p.to_dict() for p in res.history])
    else:
        res = samplers.run_metropolis(y, sched, seed=seed)

    report = diagnostics.summarize(res.draws, res.accepted)
    _write_atomic(out / "chain.csv", _chain_csv_lines(res.draws, res.accepted))
    trace_rows = ("%d,%.17g\n" % row for row in enumerate(res.trace.tolist()))
    _write_atomic(out / "acceptance_trace.csv",
                  itertools.chain(["batch,acceptance\n"], trace_rows))
    _write_json(out / "report.json", {**report, "sampler": config.sampler, "seed": seed})
    _write_atomic(out / "report.txt",
                  [diagnostics.report_text(report, f"{config.sampler} run (seed {seed})") + "\n"])
    return report


def _chain_child(w, *args):
    """Pickle ``(True, _run_one_chain(*args))``, or ``(False, exception)``,
    into the pipe ``w`` and leave the forked child, with status 0 once sent."""
    try:
        try:
            sent = True, _run_one_chain(*args)
        except Exception as exc:
            sent = False, exc
        with open(w, "wb") as pipe:
            pipe.write(pickle.dumps(sent))
        os._exit(0)
    finally:
        os._exit(1)


def _run_chains(config, sched, y, seeds, dirs, shares):
    """Run chain i, of seed ``seeds[i]`` into ``dirs[i]`` on the CPUs
    ``shares[i]``, in forked child i, at most 8 at once; return the reports.
    Raise the first failing chain's exception in chain order, with every
    child reaped and no later chain started."""
    sys.stdout.flush()
    sys.stderr.flush()
    children, reports = [], []
    try:
        for i in range(len(seeds) + 8):
            if i < len(seeds):
                r, w = os.pipe()
                if (pid := os.fork()) == 0:
                    _chain_child(w, config, sched, y, seeds[i], dirs[i], shares[i])
                os.close(w)
                children.append((pid, open(r, "rb")))
            if i >= 7 and len(reports) < len(children):  # reap chain i - 7 before i + 1 starts
                pid, pipe = children[len(reports)]
                with pipe:
                    sent = pipe.read()
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                ok, value = pickle.loads(sent) if code == 0 else (
                    False, GarchMCError(f"chain {len(reports)} {how} without a report"))
                reports.append(value)
                if not ok:
                    raise value
    finally:
        for pid, pipe in children[len(reports):]:
            pipe.close()
            os.waitpid(pid, 0)
    return reports


def run(config):
    """Execute a run per config; writes artifacts under config.out. Returns 0.

    ``manifest.json`` is written last, so it marks a completed run. Before
    anything is written, a stale manifest and every artifact of an earlier
    run that this run will not overwrite are removed, so the artifacts beside
    a manifest are all its run's. The run holds an exclusive lock on
    config.out from then until its manifest is written; a run that finds it
    held fails before touching anything.
    """
    sched = config.validate()
    y = _load_returns(config)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    fd = os.open(out, os.O_RDONLY)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise GarchMCError(f"{out} is in use by another run") from None
        _remove_stale_artifacts(out, config)
        if config.chains == 1:
            _run_one_chain(config, sched, y, config.seed, out)
        else:
            k = config.chains
            seeds = [chain_seed(config.seed, i) for i in range(k)]
            dirs = [out / f"chain_{i:02d}" for i in range(k)]
            # Without both affinity calls (macOS), the chains share every CPU.
            shares = [None] * k
            if hasattr(os, "sched_getaffinity") and hasattr(os, "sched_setaffinity"):
                shares = _cpu_shares(sorted(os.sched_getaffinity(0)), k)
            reports = _run_chains(config, sched, y, seeds, dirs, shares)
            spread = {}
            for name in diagnostics.PARAM_NAMES:
                means = np.array([r["params"][name]["mean"] for r in reports])
                stat_errs = np.array([r["params"][name]["stat_error"] for r in reports])
                spread[name] = {
                    "mean_of_means": float(means.mean()),
                    "spread_of_means": float(means.std(ddof=1)),
                    "median_stat_error": _median(stat_errs),
                }
            _write_json(out / "cross_chain.json", {"seeds": seeds, "spread": spread})

        _write_json(out / "manifest.json", {
            "config": asdict(config),
            "data_fingerprint": _fingerprint(y),
            "n_returns": int(y.size),
            "kernel": backend.KERNEL,
        })
    finally:
        os.close(fd)
    return 0


@contextlib.contextmanager
def _refused_if_malformed(path):
    """Refuse the comparison, naming ``path``, when what the block reads of
    that run file does not parse or is missing: the file comes from outside
    the program."""
    try:
        yield
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        raise ComparisonRefusedError(f"{path} is not a run file compare can read "
                                     f"({type(exc).__name__}: {exc})") from None


def compare_runs(dir_a, dir_b):
    """Two-block comparison of completed single-chain runs on identical data.

    Returns the formatted text; refuses a ``--chains`` run, a manifest.json
    or report.json that is not valid JSON or lacks what the text shows, and
    mismatched data fingerprints.
    """
    runs = []
    for d in map(Path, (dir_a, dir_b)):
        path = d / "manifest.json"
        with _refused_if_malformed(path):
            manifest = json.loads(path.read_text(encoding="utf-8"))
            config, fingerprint = manifest["config"], manifest["data_fingerprint"]
            chains = config["chains"]
            if chains > 1:
                raise ComparisonRefusedError(f"{d} holds a --chains {chains} run; "
                                             "compare takes single-chain runs")
            title = config["sampler"].capitalize()
        path = d / "report.json"
        with _refused_if_malformed(path):
            # A statistic written as null was NaN or infinite: show it as nan.
            report = json.loads(path.read_text(encoding="utf-8"), object_hook=lambda obj: {
                k: math.nan if v is None else v for k, v in obj.items()})
            text = diagnostics.report_text(report, title)
            two_tau = [report["params"][n]["two_tau_int"] for n in diagnostics.PARAM_NAMES]
        runs.append((fingerprint, text, two_tau))
    fingerprints, texts, two_taus = zip(*runs)
    if fingerprints[0] != fingerprints[1]:
        raise ComparisonRefusedError("runs were made on different data; comparison refused")

    lines = [texts[0], "", texts[1], ""]
    ratios = [f"{b / a if a else math.nan:.3g}" for a, b in zip(*two_taus)]
    lines.append("2tau_int ratio (B/A)".ljust(22) + "".join(r.ljust(14) for r in ratios))
    return "\n".join(lines)


def _build_parser():
    parser = argparse.ArgumentParser(prog="garchmc",
                                     description="Bayesian GARCH(1,1) estimation by MCMC")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a sampler and write artifacts",
                           argument_default=argparse.SUPPRESS)
    src = run_p.add_mutually_exclusive_group(required=True)
    for f in fields(RunConfig):
        group = src if f.name in ("csv", "synthetic") else run_p
        flag = "--" + f.name.replace("_", "-")
        if f.type is bool:
            group.add_argument(flag, action="store_true", **f.metadata)
        else:
            group.add_argument(flag, type=f.type, **f.metadata)

    cmp_p = sub.add_parser("compare", help="compare two completed runs")
    cmp_p.add_argument("dir_a")
    cmp_p.add_argument("dir_b")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            del args.command
            return run(RunConfig(**vars(args)))
        print(compare_runs(args.dir_a, args.dir_b))
        return 0
    except (GarchMCError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
