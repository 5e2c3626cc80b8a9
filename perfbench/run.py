"""garchmc benchmark: run time, set-up time, CPU, memory and ESS/s of
closed-loop ``garchmc run`` workloads, with per-layer numbers from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a garchmc source tree; it uses the tree's own
``src/`` and whatever kernel backend ``garchmc.backend`` picks. Each
``garchmc run`` happens in a fresh interpreter (child.py), one after the
other, until the next run would end after ``--seconds``; at least one run is
made. Every run's outputs are checked (see check_output). The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the bounded end-to-end metrics with
``--trace 0``; with ``--trace 1``, the per-layer metrics of one extra traced
run plus the unbounded end-to-end ones. Run and CPU time are bounded as
multiples of a calibration loop timed around each run (see end_to_end),
because this kind of shared machine changes speed by tens of percent from
minute to minute. A fuller record with the run environment, input hashes and
every sample goes to ``.perfbench_out/`` in the tree.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".perfbench_out"

PARAMS = ("alpha", "beta", "omega")
#: The paper's synthetic protocol, shared by every workload.
SCHEDULE = ("--burn-in", "3000", "--pilot", "1000", "--refit-interval", "1000")
SYNTHETIC = ("--synthetic", "--alpha", "0.03", "--beta", "0.94", "--omega", "0.011",
             "--n", "2000")
TRUE_THETA = dict(zip(PARAMS, (0.03, 0.94, 0.011)))
#: A synthetic adaptive run fails when a posterior mean lies further than this
#: many posterior standard deviations from the generating parameter.
MEAN_SDS = 5.0
#: report.json fields allowed to be NaN: garchmc reports a blocked-jackknife
#: error as NaN when a jackknife sub-series has no tau_int plateau, which
#: happens on healthy random-walk chains with 2tau_int in the hundreds.
MAY_BE_NAN = frozenset({"two_tau_int_err_jk"})
CHILD_TIMEOUT_S = 150
#: Calibration-loop time that setup_s is scaled to; about the loop's time on
#: a 2-vCPU Xeon.
CAL_NOMINAL_S = 0.25


@dataclass(frozen=True)
class Workload:
    name: str
    sampler: str
    total: int
    chains: int = 1
    #: When positive, the run reads a CSV of this many prices that the
    #: benchmark writes from its seed, instead of --synthetic data.
    csv_prices: int = 0

    @property
    def synthetic_adaptive(self):
        return self.sampler == "adaptive" and not self.csv_prices


WORKLOADS = {w.name: w for w in (
    Workload("adaptive-default", "adaptive", 30000),
    Workload("metropolis-default", "metropolis", 30000),
    Workload("csv-year-200k", "adaptive", 60000, csv_prices=251),
    Workload("adaptive-2chains", "adaptive", 20000, chains=2),
)}


def garchmc_args(wl, seed, total, csv_path, out):
    src = ("--csv", str(csv_path)) if wl.csv_prices else SYNTHETIC
    return ["run", *src, "--sampler", wl.sampler, *SCHEDULE, "--total", str(total),
            "--chains", str(wl.chains), "--seed", str(seed), "--out", str(out)]


# --- output checks ---------------------------------------------------------

def _non_finite(obj, path=""):
    """Paths of numbers in a parsed JSON value that are NaN or infinite."""
    if isinstance(obj, dict):
        return [p for k, v in obj.items() if k not in MAY_BE_NAN
                for p in _non_finite(v, f"{path}.{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in _non_finite(v, f"{path}[{i}]")]
    if isinstance(obj, float) and not math.isfinite(obj):
        return [path]
    return []


def _load_json(path, problems):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: {exc}")
        return None


def check_output(out, wl, total, exit_code):
    """Check one run's output directory.

    Returns (problems, facts). The run failed when problems is non-empty:
    a non-zero exit code; a chain.csv without the alpha,beta,omega,accepted
    header, with a malformed row, or with other than chains x total rows in
    all; a non-finite value in report.json or cross_chain.json; or, on a
    synthetic adaptive workload, a posterior mean more than MEAN_SDS posterior
    standard deviations from the generating parameter. facts holds the
    chain.csv SHA-256 (over all chains in order), row and accept counts, the
    parsed reports and the bytes in the output directory.
    """
    out = Path(out)
    if exit_code != 0:
        return [f"exit code {exit_code}"], {}
    problems = []
    digest = hashlib.sha256()
    rows = accepted = 0
    reports = []
    dirs = [out] if wl.chains == 1 else [out / f"chain_{i:02d}" for i in range(wl.chains)]
    for d in dirs:
        try:
            raw = (d / "chain.csv").read_bytes()
        except OSError as exc:
            problems.append(f"chain.csv: {exc}")
            continue
        digest.update(raw)
        header, _, body = raw.partition(b"\n")
        if header != b"alpha,beta,omega,accepted":
            problems.append(f"{d.name}/chain.csv: header {header[:60]!r}")
        n = body.count(b"\n")
        acc = body.count(b",1\n")
        if acc + body.count(b",0\n") != n or not body.endswith(b"\n"):
            problems.append(f"{d.name}/chain.csv: malformed row")
        rows += n
        accepted += acc
        report = _load_json(d / "report.json", problems)
        if report is None:
            continue
        reports.append(report)
        problems += [f"{d.name}/report.json{p} not finite" for p in _non_finite(report)]
        if wl.synthetic_adaptive:
            for name in PARAMS:
                p = report["params"][name]
                if abs(p["mean"] - TRUE_THETA[name]) > MEAN_SDS * p["stddev"]:
                    problems.append(f"{d.name}: posterior mean of {name} {p['mean']:.4g} is "
                                    f"over {MEAN_SDS} sd ({p['stddev']:.3g}) from "
                                    f"{TRUE_THETA[name]}")
    if rows != wl.chains * total:
        problems.append(f"chain.csv rows {rows} != {wl.chains} x {total}")
    if wl.chains > 1:
        cross = _load_json(out / "cross_chain.json", problems)
        if cross is not None:
            problems += [f"cross_chain.json{p} not finite" for p in _non_finite(cross)]
    manifest = _load_json(out / "manifest.json", problems) or {}
    facts = {
        "chain_sha256": digest.hexdigest(),
        "rows": rows,
        "accepted": accepted,
        "reports": reports,
        "returns_sha256": manifest.get("data_fingerprint"),
        "bytes_written": sum(f.stat().st_size for f in out.rglob("*") if f.is_file()),
    }
    return problems, facts


def ess(reports):
    """Minimum over alpha/beta/omega of draws / 2tau_int, summed over chains."""
    return min(sum(r["n_draws"] / r["params"][name]["two_tau_int"] for r in reports)
               for name in PARAMS)


def two_tau_int_max(reports):
    return max(r["params"][name]["two_tau_int"] for r in reports for name in PARAMS)


# --- processes ---------------------------------------------------------------

def child_env():
    """The caller's environment with the tree's src/ first on PYTHONPATH.

    Thread-count variables such as OPENBLAS_NUM_THREADS pass through as set.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def spawn(workdir, args):
    """Run child.py in a fresh interpreter; returns (exit code, its result, setup_s).

    The child and anything it starts share a new session; on timeout the
    whole group is killed, and the child is always waited for.
    """
    fd, result_path = tempfile.mkstemp(suffix=".json", dir=workdir)
    os.close(fd)
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), result_path, *args],
                            cwd=ROOT, env=child_env(), stdout=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = "timeout"
    try:
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    except ValueError:
        result = {}
    os.unlink(result_path)
    setup_s = result["imported"] - t0 if "imported" in result else None
    return code, result, setup_s


class Runner:
    """Runs one workload at one seed and keeps every sample it takes."""

    def __init__(self, wl, seed, total, workdir):
        self.wl, self.seed, self.total, self.workdir = wl, seed, total, workdir
        self.csv_path = None
        self.inputs = {}
        if wl.csv_prices:
            self.csv_path = workdir / "prices.csv"
            self.inputs["prices_csv_sha256"] = inputs.write_prices(
                self.csv_path, seed, wl.csv_prices)
        self.runs = []
        self.first_chain_sha256 = None

    def warm_up(self):
        """Import garchmc.cli once, untimed, so that compiling bytecode is not
        counted as set-up; returns the run environment that child records."""
        code, result, _ = spawn(self.workdir, [])
        if code != 0 or "env" not in result:
            raise RuntimeError(f"warm-up import failed with exit code {code}")
        return result["env"]

    def run(self, spans_path=None):
        out = Path(tempfile.mkdtemp(prefix="out-", dir=self.workdir))
        args = ["--"] + garchmc_args(self.wl, self.seed, self.total, self.csv_path, out)
        if spans_path is not None:
            args = ["--spans", str(spans_path)] + args
        code, result, setup_s = spawn(self.workdir, args)
        problems, facts = check_output(out, self.wl, self.total, code)
        shutil.rmtree(out)
        if "run_s" not in result:
            problems.append("child reported no timing")
        if facts:
            if self.first_chain_sha256 is None:
                self.first_chain_sha256 = facts["chain_sha256"]
            elif facts["chain_sha256"] != self.first_chain_sha256:
                problems.append("chain.csv differs from the first run of this workload and seed")
            self.inputs.setdefault("returns_sha256", facts["returns_sha256"])
        sample = {k: result[k] for k in ("run_s", "cal_s", "cpu_s", "children_cpu_s",
                                         "peak_rss_mb") if k in result}
        if setup_s is not None:
            sample["setup_wall_s"] = setup_s
        sample.update(problems=problems, facts=facts, traced=spans_path is not None)
        for k in ("layers", "kernels", "patched", "spans"):
            if k in result:
                sample[k] = result[k]
        for p in problems:
            print(f"[{self.wl.name} seed {self.seed}] run failed: {p}", file=sys.stderr)
        self.runs.append(sample)
        return sample

    def measure(self, seconds):
        """Untraced runs, back to back, until the next one would end after seconds."""
        begin = time.perf_counter()
        while True:
            self.run()
            elapsed = time.perf_counter() - begin
            if elapsed * (len(self.runs) + 1) / len(self.runs) > seconds:
                return


def _median(values):
    return float(statistics.median(values))


def end_to_end(runner):
    """Medians over the untraced runs.

    run_cal and cpu_cal are a run's wall and CPU time divided by the time of
    the calibration loop around it (child.calibrate), so that they do not
    follow the drift of the machine's speed. setup_s is the set-up time of
    each run's interpreter scaled the same way, to a machine on which the
    loop takes CAL_NOMINAL_S. run_s, cpu_s and setup_wall_s are the raw times.
    """
    timed = [r for r in runner.runs if not r["traced"] and "run_s" in r]
    ok = [r for r in timed if not r["problems"]]
    return {
        "run_cal": (_median([r["run_s"] / r["cal_s"] for r in timed]), "cal"),
        "setup_s": (_median([r["setup_wall_s"] * CAL_NOMINAL_S / r["cal_s"]
                             for r in timed]), "s"),
        "cpu_cal": (_median([r["cpu_s"] / r["cal_s"] for r in timed]), "cal"),
        "peak_rss_mb": (_median([r["peak_rss_mb"] for r in timed]), "MB"),
        "run_s": (_median([r["run_s"] for r in timed]), "s"),
        "cpu_s": (_median([r["cpu_s"] for r in timed]), "s"),
        "setup_wall_s": (_median([r["setup_wall_s"] for r in timed]), "s"),
        "cal_s": (_median([r["cal_s"] for r in timed]), "s"),
        "ess_per_s": (_median([ess(r["facts"]["reports"]) / r["run_s"] for r in ok])
                      if ok else float("nan"), "1/s"),
        "two_tau_int_max": (_median([two_tau_int_max(r["facts"]["reports"]) for r in ok])
                            if ok else float("nan"), "draws"),
        "fail_ratio": (sum(bool(r["problems"]) for r in runner.runs) / len(runner.runs),
                       "ratio"),
    }


#: End-to-end metrics in the JSON result with --trace 0; the others are
#: unbounded and go with the per-layer metrics (see BENCHMARK.json).
BOUNDED = ("run_cal", "setup_s", "cpu_cal", "peak_rss_mb")


def per_layer(runner, traced, e2e):
    layers = dict(traced["layers"])
    facts = traced["facts"]
    rows = facts.get("rows", 0)
    kernels = traced["kernels"]
    layers.update({
        "samplers.accept_ratio": facts.get("accepted", 0) / rows if rows else 0.0,
        "cli.bytes_written": facts.get("bytes_written", 0),
        "cli.pool_cpu_s": traced["children_cpu_s"],
        "trace.overhead_s": traced["run_s"] - e2e["run_s"][0],
        "model.kernel_python_ns_per_step_n250": kernels["python_n250"],
        "model.kernel_python_ns_per_step_n2000": kernels["python_n2000"],
        "model.kernel_selected_ns_per_step_n250": kernels["selected_n250"],
        "model.kernel_selected_ns_per_step_n2000": kernels["selected_n2000"],
    })
    layers.update({k: e2e[k][0] for k in ("run_s", "cpu_s", "setup_wall_s", "cal_s",
                                          "ess_per_s", "two_tau_int_max")})
    return {k: (v, LAYER_UNITS[k]) for k, v in layers.items()}


LAYER_UNITS = {
    "run_s": "s", "cpu_s": "s", "setup_wall_s": "s", "cal_s": "s",
    "data.load_s": "s", "model.loglik_calls": "count", "model.loglik_s": "s",
    "model.loglik_ns_per_step": "ns", "model.posterior_calls": "count",
    "model.out_of_support_ratio": "ratio", "proposal.fit_calls": "count",
    "proposal.fit_s": "s", "proposal.draw_s": "s", "samplers.tune_s": "s",
    "samplers.self_s": "s", "samplers.accept_ratio": "ratio",
    "diagnostics.summarize_s": "s", "diagnostics.acf_calls": "count",
    "diagnostics.acf_s": "s", "cli.write_s": "s", "cli.bytes_written": "bytes",
    "cli.pool_cpu_s": "s", "trace.overhead_s": "s", "ess_per_s": "1/s",
    "two_tau_int_max": "draws",
    "model.kernel_python_ns_per_step_n250": "ns",
    "model.kernel_python_ns_per_step_n2000": "ns",
    "model.kernel_selected_ns_per_step_n250": "ns",
    "model.kernel_selected_ns_per_step_n2000": "ns",
}


def source_fingerprint():
    """Git commit when the tree is a repository, and a SHA-256 over src/."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--total", type=int, default=None,
                        help="override the workload's retained draws (smoke tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "garchmc" / "cli.py").is_file():
        print(f"error: no garchmc source tree at {ROOT}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    total = args.total or wl.total
    workdir = Path(tempfile.mkdtemp(prefix=f".perfbench_tmp-{wl.name}-", dir=ROOT))
    try:
        runner = Runner(wl, args.seed, total, workdir)
        env = runner.warm_up()
        runner.measure(args.seconds)
        if not any("run_s" in r for r in runner.runs):
            print("error: no run reported a timing", file=sys.stderr)
            return 1
        e2e = end_to_end(runner)
        metrics = {k: e2e[k] for k in BOUNDED}
        spans_path = None
        if args.trace:
            RESULTS.mkdir(exist_ok=True)
            spans_path = RESULTS / f"{wl.name}-seed{args.seed}-spans.npz"
            traced = runner.run(spans_path=spans_path)
            if "layers" not in traced:
                print("error: the traced run reported no spans", file=sys.stderr)
                return 1
            metrics = per_layer(runner, traced, e2e)
    finally:
        shutil.rmtree(workdir)

    failed = sum(bool(r["problems"]) for r in runner.runs)
    record = {
        "workload": asdict(wl), "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "total": total, "environment": env,
        "source": source_fingerprint(), "inputs": runner.inputs,
        "runs": [{k: v for k, v in r.items() if k != "facts"}
                 | {"chain_sha256": r["facts"].get("chain_sha256")} for r in runner.runs],
        "end_to_end": e2e, "metrics": metrics,
        "spans_file": spans_path.name if spans_path else None,
    }
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    n_timed = sum(not r["traced"] for r in runner.runs)
    print(f"{wl.name} seed {args.seed}: {n_timed} untraced runs of --total {total}, "
          f"backend {env['garchmc_backend']}")
    for name, (value, unit) in (e2e | metrics).items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runner.runs),
        "failed": failed,
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
