"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""
import csv
import json
import math

import numpy as np
import pytest
from scipy.signal import lfilter

from garchmc import cli, data, diagnostics, model, proposal
from quadrature import posterior_moments

#: The generating (alpha, beta, omega) of the runs' synthetic data.
TRUTH = (0.03, 0.94, 0.011)
SEED = 5
PARAMS = ("alpha", "beta", "omega")


def report_line(ok, label, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")


def full_config(out, sampler):
    return cli.RunConfig(
        synthetic=True, **dict(zip(PARAMS, TRUTH)),
        n=2000, sampler=sampler, seed=SEED, out=str(out),
    )


@pytest.fixture(scope="session")
def adaptive_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("adaptive_full")
    assert cli.run(full_config(out, "adaptive")) == 0
    return out


@pytest.fixture(scope="session")
def metro_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("metro_full")
    assert cli.run(full_config(out, "metropolis")) == 0
    return out


def load_report(run_dir):
    return json.loads((run_dir / "report.json").read_text())


def test_parameter_recovery(adaptive_dir):
    report = load_report(adaptive_dir)
    truth = dict(zip(PARAMS, TRUTH))
    ok = True
    details = []
    for name in PARAMS:
        p = report["params"][name]
        pulls = abs(p["mean"] - truth[name]) / p["stddev"]
        details.append(f"{name}: |mean-truth|/sd = {pulls:.2f}")
        ok &= pulls < 3.0
    report_line(ok, "parameter recovery", "; ".join(details))
    assert ok


def test_decorrelation_claim(adaptive_dir, metro_dir):
    rep_a = load_report(adaptive_dir)
    rep_m = load_report(metro_dir)
    ok = True
    details = []
    for name in PARAMS:
        ta = rep_a["params"][name]["two_tau_int"]
        tm = rep_m["params"][name]["two_tau_int"]
        details.append(f"{name}: 2tau_a={ta:.2f}, ratio={tm / ta:.0f}")
        ok &= ta <= 10.0 and tm / ta >= 10.0
    report_line(ok, "decorrelation claim", "; ".join(details))
    assert ok


def test_acceptance_plateau(adaptive_dir):
    with open(adaptive_dir / "acceptance_trace.csv", newline="") as fh:
        trace = np.array([float(r["acceptance"]) for r in csv.DictReader(fh)])
    last10 = trace[-10:].mean()
    ok = trace[0] < trace[-1] and last10 > 0.6
    report_line(ok, "acceptance plateau",
                f"batch1={trace[0]:.3f}, final={trace[-1]:.3f}, last10 mean={last10:.3f}")
    assert ok


def refit_covariances(run_dir):
    """Each refit's empirical covariance V = nu/(nu-2) * sigma, from its
    proposal_history.json entry, as a (refits, 3, 3) array."""
    history = json.loads((run_dir / "proposal_history.json").read_text())
    return np.array([p["nu"] / (p["nu"] - 2.0) * np.array(p["sigma"]) for p in history])


def test_covariance_convergence(adaptive_dir):
    rows, cols = np.triu_indices(3)
    v = refit_covariances(adaptive_dir)[:, rows, cols]
    n_refits = v.shape[0]
    tail = v[int(math.floor(0.8 * n_refits)):]
    rel = np.max(np.abs(tail - v[-1]) / np.abs(v[-1]))
    ok = rel < 0.05
    report_line(ok, "covariance convergence",
                f"{n_refits} refits, max relative change over final 20% = {rel:.4f}")
    assert ok


def test_metropolis_tuning(metro_dir):
    acceptance = load_report(metro_dir)["acceptance"]
    ok = 0.5 <= acceptance <= 0.85
    report_line(ok, "metropolis tuning", f"overall acceptance = {acceptance:.3f}")
    assert ok


def test_proposal_sampler_moments():
    rng = np.random.default_rng(20)
    cloud = rng.multivariate_normal(
        [0.03, 0.94, 0.011],
        np.array([[6.4e-5, -9e-5, 2e-5], [-9e-5, 2.9e-4, -7e-5], [2e-5, -7e-5, 2.5e-5]]),
        size=5000,
    )
    acc = proposal.SampleAccumulator(3)
    acc.add_batch(cloud)
    prop = proposal.fit(acc, 10.0)
    draws = prop.sample(rng, size=1000000)
    mean_dev = np.max(np.abs(draws.mean(axis=0) - prop.mean))
    want = prop.nu / (prop.nu - 2.0) * prop.sigma
    rel = np.linalg.norm(np.cov(draws.T) - want) / np.linalg.norm(want)
    ok = mean_dev < 0.01 and rel < 0.02
    report_line(ok, "proposal sampler moments",
                f"max mean dev = {mean_dev:.5f}, cov rel Frobenius = {rel:.4f}")
    assert ok


def test_diagnostics_oracle():
    rng = np.random.default_rng(21)
    x = lfilter([1.0], [1.0, -0.9], rng.standard_normal(1000000))
    tau, *_ = diagnostics.tau_int(diagnostics.acf(x, 1000), x.size)
    iid = rng.standard_normal(1000000)
    tau_iid, *_ = diagnostics.tau_int(diagnostics.acf(iid, 100), iid.size)
    ok = abs(tau - 9.5) / 9.5 < 0.10 and 0.9 <= 2 * tau_iid <= 1.1
    report_line(ok, "diagnostics oracle",
                f"AR(1) tau = {tau:.2f} (want 9.5 +/- 10%), iid 2tau = {2 * tau_iid:.3f}")
    assert ok


def test_kernel_correctness(independence_chain):
    prop = proposal.StudentTProposal(np.array([0.0]), np.array([[1.0]]), 10.0)
    rng = np.random.default_rng(22)
    _, self_accepted = independence_chain(
        lambda t: float(prop.log_density(t)), prop, np.array([0.5]), 100000, rng
    )
    harness_draws, _ = independence_chain(
        lambda t: -0.5 * float(t[0]) ** 2, prop, np.array([0.0]), 1000000, rng
    )
    x = harness_draws[:, 0]
    self_acceptance = self_accepted.mean()
    ok = (
        self_acceptance == 1.0
        and abs(x.mean()) < 0.01
        and abs(x.var() - 1.0) < 0.02
    )
    report_line(ok, "kernel correctness",
                f"self-proposal acceptance = {self_acceptance:.4f}, "
                f"harness mean = {x.mean():.4f}, var = {x.var():.4f}")
    assert ok


def test_likelihood_oracle():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(100):
        a = rng.uniform(0.01, 0.4)
        b = rng.uniform(0.01, 0.95 - a)
        w = rng.uniform(0.001, 0.5)
        y = rng.standard_normal(rng.integers(1, 11))
        s1 = rng.uniform(0.01, 2.0)
        got = model.make_log_posterior(y, s1)(np.array([a, b, w]))
        s = s1
        want = 0.0
        for t in range(len(y)):
            if t > 0:
                s = w + a * y[t - 1] ** 2 + b * s
            want += -0.5 * math.log(2 * math.pi * s) - y[t] ** 2 / (2 * s)
        worst = max(worst, abs(got - want) / abs(want))
    ok = worst < 1e-12
    report_line(ok, "likelihood oracle", f"worst relative deviation = {worst:.2e}")
    assert ok


@pytest.fixture(scope="session")
def quadrature():
    """Posterior mean, sd and covariance of the runs' data by quadrature."""
    # The runs' data: the synthetic series and cli's default sigma1_sq.
    y = data.generate_synthetic(TRUTH, 2000, SEED)
    return posterior_moments(y, float(np.var(y)), TRUTH)


def test_posterior_quadrature_oracle(adaptive_dir, metro_dir, quadrature):
    mean, sd, _ = quadrature
    ok = True
    details = []
    for label, run_dir in (("adaptive", adaptive_dir), ("metropolis", metro_dir)):
        params = load_report(run_dir)["params"]
        pulls = [(params[n]["mean"] - mean[i]) / params[n]["stat_error"]
                 for i, n in enumerate(PARAMS)]
        details.append(f"{label} (mean - quadrature)/stat_error = "
                       + ", ".join(f"{p:+.2f}" for p in pulls))
        ok &= all(abs(p) < 4.0 for p in pulls)
    report_line(ok, "posterior quadrature oracle",
                "; ".join(details) + "; quadrature sd = " + ", ".join(f"{v:.3g}" for v in sd))
    assert ok


def test_covariance_quadrature_oracle(adaptive_dir, quadrature):
    # The last refit's empirical covariance V of its N draws against the
    # posterior covariance. A sample variance of N_eff = N / 2tau_int
    # independent Gaussian draws has relative sd sqrt(2 / N_eff).
    _, _, cov = quadrature
    variances = np.diag(refit_covariances(adaptive_dir)[-1])
    n = json.loads((adaptive_dir / "proposal_history.json").read_text())[-1]["n_samples"]
    params = load_report(adaptive_dir)["params"]
    two_tau = np.array([params[name]["two_tau_int"] for name in PARAMS])
    pulls = (variances / np.diag(cov) - 1.0) / np.sqrt(2.0 * two_tau / n)
    ok = bool(np.all(np.abs(pulls) < 4.0))
    report_line(ok, "covariance quadrature oracle",
                f"(V_ii / quadrature - 1) / relative sd over {n} draws = "
                + ", ".join(f"{p:+.2f}" for p in pulls))
    assert ok


def test_determinism(tmp_path):
    cfg_a = cli.RunConfig(synthetic=True, n=800, total=5000, burn_in=500, pilot=500,
                          seed=9, out=str(tmp_path / "a"))
    cfg_b = cli.RunConfig(synthetic=True, n=800, total=5000, burn_in=500, pilot=500,
                          seed=9, out=str(tmp_path / "b"))
    assert cli.run(cfg_a) == 0
    assert cli.run(cfg_b) == 0
    a = (tmp_path / "a" / "chain.csv").read_bytes()
    b = (tmp_path / "b" / "chain.csv").read_bytes()
    ok = a == b
    report_line(ok, "determinism", f"chain.csv byte-identical over {len(a)} bytes")
    assert ok
