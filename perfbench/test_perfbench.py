"""Tests of the benchmark's own logic: metrics, span self time, output checks,
and a tiny smoke run of every workload with the traced run."""
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from tracer import Tracer, layer_metrics, self_times

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _report(two_tau, n_draws=100000, mean=(0.03, 0.94, 0.011), sd=0.01):
    return {
        "acceptance": 0.6,
        "n_draws": n_draws,
        "params": {
            name: {"mean": m, "stddev": sd, "stat_error": 1e-4, "two_tau_int": t,
                   "two_tau_int_err": 0.1, "two_tau_int_err_jk": float("nan"),
                   "t_star": 10, "plateau_found": True}
            for name, m, t in zip(run.PARAMS, mean, two_tau)
        },
    }


def _write_run(out, rows=1000, two_tau=(4.0, 5.0, 8.0)):
    out.mkdir(parents=True, exist_ok=True)
    lines = ["alpha,beta,omega,accepted"]
    lines += [f"0.03,0.94,0.011,{i % 2}" for i in range(rows)]
    (out / "chain.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (out / "report.json").write_text(json.dumps(_report(two_tau, n_draws=rows)),
                                     encoding="utf-8")
    (out / "manifest.json").write_text(json.dumps({"data_fingerprint": "ab"}),
                                       encoding="utf-8")


def test_ess_per_s_from_fixed_report(tmp_path):
    (tmp_path / "report.json").write_text(json.dumps(_report((4.0, 5.0, 8.0))),
                                          encoding="utf-8")
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert run.ess([report]) == pytest.approx(100000 / 8.0)
    assert run.ess([report, report]) == pytest.approx(2 * 100000 / 8.0)
    assert run.two_tau_int_max([report]) == 8.0

    class Runner:
        runs = [{"traced": False, "run_s": r, "cal_s": c, "cpu_s": 1.0, "peak_rss_mb": 100.0,
                 "setup_wall_s": s, "problems": [], "facts": {"reports": [report]}}
                for r, c, s in ((2.0, 0.5, 1.0), (2.5, 0.25, 1.2), (3.0, 0.2, 1.4))]

    e2e = run.end_to_end(Runner)
    assert e2e["ess_per_s"] == (pytest.approx(12500 / 2.5), "1/s")
    assert e2e["run_s"] == (2.5, "s")
    assert e2e["run_cal"] == (10.0, "cal")
    assert e2e["cpu_cal"] == (4.0, "cal")
    assert e2e["setup_wall_s"] == (1.2, "s")
    # Set-up scaled to a 0.25 s calibration loop: 0.5, 1.2 and 1.75 s.
    assert e2e["setup_s"] == (pytest.approx(1.2), "s")
    assert e2e["fail_ratio"] == (0.0, "ratio")


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 4] and d [5, 9]; b holds c [2, 3].
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    np.testing.assert_allclose(self_times(parent, start, end), [3.0, 2.0, 1.0, 4.0])


def test_tracer_records_nesting_and_layer_numbers():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    loglik = tracer.wrap("model.loglik", lambda: -1.0)
    posterior = tracer.wrap("model.posterior", loglik)
    summarize = tracer.wrap("diagnostics.summarize", lambda: None)

    def sample():
        posterior()
        posterior()

    tracer.wrap("cli.main", lambda: (tracer.wrap("samplers.run", sample)(), summarize()))()
    names, name_id, parent, start, end = tracer.arrays()
    assert [names[i] for i in name_id] == [
        "cli.main", "samplers.run", "model.posterior", "model.loglik",
        "model.posterior", "model.loglik", "diagnostics.summarize"]
    assert list(parent) == [-1, 0, 1, 2, 1, 4, 0]
    m = layer_metrics(names, name_id, parent, start, end, {}, n_returns=10)
    assert m["model.loglik_calls"] == 2
    assert m["model.loglik_s"] == 2.0
    assert m["model.loglik_ns_per_step"] == pytest.approx(1e9 * 2.0 / 20)
    assert m["model.posterior_calls"] == 2
    # samplers.run spans ticks 1..10, its two posterior children 2..5 and 6..9.
    assert m["samplers.self_s"] == 3.0
    assert m["diagnostics.summarize_s"] == 1.0
    assert m["cli.write_s"] == 1.0


def test_check_output_accepts_a_complete_run(tmp_path):
    wl = run.WORKLOADS["adaptive-default"]
    _write_run(tmp_path)
    problems, facts = run.check_output(tmp_path, wl, 1000, 0)
    assert problems == []
    assert facts["rows"] == 1000 and facts["accepted"] == 500


def test_truncated_chain_csv_is_a_failure(tmp_path):
    wl = run.WORKLOADS["adaptive-default"]
    _write_run(tmp_path)
    raw = (tmp_path / "chain.csv").read_bytes()
    (tmp_path / "chain.csv").write_bytes(raw[: len(raw) // 2 + 7])
    problems, _ = run.check_output(tmp_path, wl, 1000, 0)
    assert any("malformed row" in p for p in problems)
    assert any("rows" in p and "1000" in p for p in problems)


def test_other_failures(tmp_path):
    wl = run.WORKLOADS["adaptive-default"]
    assert run.check_output(tmp_path, wl, 1000, 1)[0] == ["exit code 1"]
    _write_run(tmp_path)
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    report["params"]["beta"]["two_tau_int"] = float("inf")
    report["params"]["alpha"]["mean"] = 0.03 + 6 * 0.01
    (tmp_path / "report.json").write_text(json.dumps(report), encoding="utf-8")
    problems, _ = run.check_output(tmp_path, wl, 1000, 0)
    assert any("beta.two_tau_int not finite" in p for p in problems)
    assert any("posterior mean of alpha" in p for p in problems)
    # The same report passes the mean check on the random-walk workload.
    problems, _ = run.check_output(tmp_path, run.WORKLOADS["metropolis-default"], 1000, 0)
    assert not any("posterior mean" in p for p in problems)


def test_metric_names_match_benchmark_json():
    assert set(run.BOUNDED) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(run.LAYER_UNITS) == {m["name"] for m in SPEC["per_layer"]}
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)
    for m in SPEC["end_to_end"]:
        assert m["unit"] == {"run_cal": "cal", "setup_s": "s", "cpu_cal": "cal",
                             "peak_rss_mb": "MB"}[m["name"]]
    for m in SPEC["per_layer"]:
        assert m["unit"] == run.LAYER_UNITS[m["name"]]


def test_smoke_every_workload_traced():
    """All four workloads at --total 1000: one untraced and one traced run each."""
    procs = {
        name: subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
             "--seconds", "0", "--trace", "1", "--total", "1000"],
            cwd=HERE.parent, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for name in run.WORKLOADS
    }
    for name, proc in procs.items():
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        result = json.loads(out.strip().splitlines()[-1])
        assert result["correct"], err
        assert (result["attempted"], result["failed"]) == (2, 0)
        assert set(result["metrics"]) == set(run.LAYER_UNITS)
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["data.load_s"] > 0
        if name == "adaptive-2chains":
            # The chains run in forked workers, whose spans are not collected.
            assert m["cli.pool_cpu_s"] > 0 and m["model.loglik_calls"] == 0
        else:
            assert m["cli.pool_cpu_s"] == 0
            assert m["model.loglik_calls"] > 1000 and m["diagnostics.acf_calls"] > 0
            assert m["proposal.fit_calls"] == (0 if name == "metropolis-default" else 1)
