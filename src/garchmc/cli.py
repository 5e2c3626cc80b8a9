"""Command-line front end: run a sampler on CSV or synthetic data, dump
reports/traces, and compare two completed runs."""
import argparse
import concurrent.futures
import contextlib
import fcntl
import hashlib
import itertools
import json
import math
import os
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


def _run_one_chain(config, sched, y, seed, out):
    """Run a single chain and write all artifacts into ``out``."""
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
            with concurrent.futures.ProcessPoolExecutor(max_workers=min(k, 8)) as pool:
                reports = list(pool.map(_run_one_chain, [config] * k, [sched] * k, [y] * k,
                                        seeds, dirs))
            spread = {}
            for name in diagnostics.PARAM_NAMES:
                means = np.array([r["params"][name]["mean"] for r in reports])
                stat_errs = np.array([r["params"][name]["stat_error"] for r in reports])
                spread[name] = {
                    "mean_of_means": float(means.mean()),
                    "spread_of_means": float(means.std(ddof=1)),
                    "median_stat_error": float(np.median(stat_errs)),
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
