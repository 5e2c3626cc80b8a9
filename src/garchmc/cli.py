"""Command-line front end: run a sampler on CSV or synthetic data, dump
reports/traces, and compare two completed runs."""
import argparse
import concurrent.futures
import hashlib
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import backend, data, diagnostics, model, samplers
from .exceptions import ComparisonRefusedError, GarchMCError
from .rng import chain_seed


@dataclass
class RunConfig:
    csv: str = None
    synthetic: bool = False
    alpha: float = 0.03
    beta: float = 0.94
    omega: float = 0.011
    n: int = 2000
    sampler: str = "adaptive"
    burn_in: int = 3000
    pilot: int = 1000
    refit_interval: int = 1000
    total: int = 100000
    nu: float = 10.0
    seed: int = 12345
    sigma1: str = "var"
    window_factor: float = 5.0
    out: str = "garchmc_out"
    chains: int = 1
    freeze_after: int = None
    dump_returns: bool = False

    def validate(self):
        if (self.csv is None) == (not self.synthetic):
            raise GarchMCError("exactly one input source required: --csv PATH or --synthetic")
        if self.sampler not in ("adaptive", "metropolis"):
            raise GarchMCError(f"unknown sampler {self.sampler!r}")
        if min(self.burn_in, self.pilot, self.refit_interval, self.total, self.chains) <= 0:
            raise GarchMCError("schedule fields and --chains must be positive")
        if self.sigma1 != "var":
            try:
                v = float(self.sigma1)
            except ValueError:
                raise GarchMCError(f"--sigma1 must be 'var' or a number, got {self.sigma1!r}") from None
            if v <= 0:
                raise GarchMCError("--sigma1 value must be positive")


def _load_returns(config):
    if config.csv is not None:
        return data.transform_returns(data.load_prices(config.csv))
    spec = data.SyntheticSpec(
        true_theta=model.ParamVector(config.alpha, config.beta, config.omega),
        n=config.n,
        seed=config.seed,
    )
    return data.generate_synthetic(spec)


def _resolve_sigma1(config, y):
    return float(np.var(y)) if config.sigma1 == "var" else float(config.sigma1)


def _fingerprint(y):
    return hashlib.sha256(np.ascontiguousarray(y, dtype=np.float64).tobytes()).hexdigest()


def _write_chain_csv(path, chain):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("alpha,beta,omega,accepted\n")
        for row, acc in zip(chain.draws, chain.accepted):
            fh.write(f"{row[0]:.17g},{row[1]:.17g},{row[2]:.17g},{int(acc)}\n")


def _write_trace_csv(path, trace):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("batch,acceptance\n")
        for i, a in enumerate(trace):
            fh.write(f"{i},{a:.17g}\n")


def _write_covariance_trace(path, history):
    cols = ["V11", "V12", "V13", "V22", "V23", "V33"]
    idx = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("refit," + ",".join(cols) + "\n")
        for r, prop in enumerate(history):
            v = prop.covariance()
            fh.write(f"{r}," + ",".join(f"{v[i, j]:.17g}" for i, j in idx) + "\n")


def _run_one_chain(config, y, seed, out):
    """Run a single chain and write all artifacts into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    sigma1_sq = _resolve_sigma1(config, y)
    sched = samplers.AdaptiveSchedule(
        burn_in=config.burn_in,
        pilot=config.pilot,
        refit_interval=config.refit_interval,
        total=config.total,
    )
    if config.sampler == "adaptive":
        res = samplers.run_adaptive(
            y, sched, nu=config.nu, seed=seed, sigma1_sq=sigma1_sq,
            freeze_after=config.freeze_after,
        )
        _write_covariance_trace(out / "covariance_trace.csv", res.history)
        with open(out / "proposal_history.json", "w", encoding="utf-8") as fh:
            json.dump([p.to_dict() for p in res.history], fh, indent=1)
    else:
        res = samplers.run_metropolis(y, sched, seed=seed, sigma1_sq=sigma1_sq)

    report = diagnostics.summarize(
        res.chain,
        window_factor=config.window_factor,
        metadata={"sampler": config.sampler, "seed": seed},
    )
    _write_chain_csv(out / "chain.csv", res.chain)
    _write_trace_csv(out / "acceptance_trace.csv", res.trace)
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=1)
    with open(out / "report.txt", "w", encoding="utf-8") as fh:
        fh.write(report.to_text(title=f"{config.sampler} run (seed {seed})") + "\n")
    with open(out / "checkpoint.json", "w", encoding="utf-8") as fh:
        json.dump(res.checkpoint, fh, indent=1)
    return report


def run(config):
    """Execute a run per config; writes artifacts under config.out. Returns 0."""
    config.validate()
    y = _load_returns(config)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)

    manifest = {
        "config": asdict(config),
        "seed": config.seed,
        "data_fingerprint": _fingerprint(y),
        "n_returns": int(y.size),
        "backend": backend.BACKEND,
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
    if config.dump_returns:
        data.write_returns(out / "returns.csv", y)

    if config.chains == 1:
        _run_one_chain(config, y, config.seed, out)
        return 0

    seeds = [chain_seed(config.seed, i) for i in range(config.chains)]
    dirs = [out / f"chain_{i:02d}" for i in range(config.chains)]
    with concurrent.futures.ProcessPoolExecutor(max_workers=min(config.chains, 8)) as pool:
        reports = list(pool.map(_run_one_chain,
                                [config] * config.chains, [y] * config.chains, seeds, dirs))
    spread = {}
    for name in diagnostics.PARAM_NAMES:
        means = np.array([r.params[name].mean for r in reports])
        stat_errs = np.array([r.params[name].stat_error for r in reports])
        spread[name] = {
            "mean_of_means": float(means.mean()),
            "spread_of_means": float(means.std(ddof=1)),
            "median_stat_error": float(np.median(stat_errs)),
        }
    with open(out / "cross_chain.json", "w", encoding="utf-8") as fh:
        json.dump({"chains": config.chains, "seeds": seeds, "spread": spread}, fh, indent=1)
    return 0


def compare_runs(dir_a, dir_b):
    """Two-block comparison of completed runs on identical data.

    Returns the formatted text; refuses mismatched data fingerprints.
    """
    blocks = []
    fingerprints = []
    for d in (dir_a, dir_b):
        d = Path(d)
        with open(d / "manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        with open(d / "report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        fingerprints.append(manifest["data_fingerprint"])
        blocks.append((manifest["config"]["sampler"], diagnostics.DiagnosticsReport(
            params={n: diagnostics.ParamSummary(**p) for n, p in report["params"].items()},
            acceptance=report["acceptance"],
            n_draws=report["n_draws"],
        )))
    if fingerprints[0] != fingerprints[1]:
        raise ComparisonRefusedError("runs were made on different data; comparison refused")

    lines = []
    for sampler, report in blocks:
        lines += [report.to_text(title=sampler.capitalize()), ""]
    (_, a), (_, b) = blocks
    ratios = [f"{b.params[n].two_tau_int / a.params[n].two_tau_int:.3g}" for n in a.params]
    lines.append("2tau_int ratio (B/A)".ljust(22) + "".join(r.ljust(14) for r in ratios))
    return "\n".join(lines)


def _build_parser():
    parser = argparse.ArgumentParser(prog="garchmc",
                                     description="Bayesian GARCH(1,1) estimation by MCMC")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a sampler and write artifacts",
                           argument_default=argparse.SUPPRESS)
    src = run_p.add_mutually_exclusive_group(required=True)
    src.add_argument("--csv", help="two-column CSV of label,price rows")
    src.add_argument("--synthetic", action="store_true", help="generate synthetic GARCH data")
    run_p.add_argument("--alpha", type=float)
    run_p.add_argument("--beta", type=float)
    run_p.add_argument("--omega", type=float)
    run_p.add_argument("--n", type=int, help="synthetic series length")
    run_p.add_argument("--sampler", choices=["adaptive", "metropolis"])
    run_p.add_argument("--burn-in", type=int)
    run_p.add_argument("--pilot", type=int)
    run_p.add_argument("--refit-interval", type=int)
    run_p.add_argument("--total", type=int)
    run_p.add_argument("--nu", type=float)
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--sigma1", help="'var' or an explicit positive value")
    run_p.add_argument("--window-factor", type=float)
    run_p.add_argument("--out")
    run_p.add_argument("--chains", type=int)
    run_p.add_argument("--freeze-after", type=int,
                       help="stop re-fitting the proposal after this many refits")
    run_p.add_argument("--dump-returns", action="store_true")

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
