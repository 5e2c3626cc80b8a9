import csv
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from garchmc import cli, diagnostics


def run_cli(args):
    return cli.main(args)


def base_args(out, sampler="adaptive", seed=11, total=3000):
    return [
        "run", "--synthetic", "--n", "400", "--seed", str(seed),
        "--sampler", sampler, "--burn-in", "300", "--pilot", "200",
        "--refit-interval", "500", "--total", str(total), "--out", str(out),
    ]


class TestRun:
    def test_adaptive_artifacts(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(base_args(out)) == 0
        for name in ("report.txt", "report.json", "chain.csv", "acceptance_trace.csv",
                     "proposal_history.json", "covariance_trace.csv", "manifest.json",
                     "checkpoint.json"):
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text())
        assert set(report["params"]) == {"alpha", "beta", "omega"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 11
        assert len(manifest["data_fingerprint"]) == 64
        history = json.loads((out / "proposal_history.json").read_text())
        assert len(history) == 6  # total / refit_interval
        assert set(history[0]) == {"mean", "sigma", "nu", "n_samples"}

    def test_chain_csv_row_count_and_format(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(base_args(out, sampler="metropolis", total=2000)) == 0
        with open(out / "chain.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["alpha", "beta", "omega", "accepted"]
        assert len(rows) == 2001
        a, b, w, acc = (float(v) for v in rows[1])
        assert a > 0 and b > 0 and w > 0 and acc in (0.0, 1.0)
        assert not (out / "proposal_history.json").exists()

    def test_deterministic_chain_bytes(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(base_args(out_a)) == 0
        assert run_cli(base_args(out_b)) == 0
        assert (out_a / "chain.csv").read_bytes() == (out_b / "chain.csv").read_bytes()

    def test_csv_input(self, tmp_path):
        rng = np.random.default_rng(0)
        prices = 100.0 * np.exp(np.cumsum(0.005 * rng.standard_normal(500)))
        f = tmp_path / "prices.csv"
        f.write_text("date,price\n" + "\n".join(f"d{i},{p}" for i, p in enumerate(prices)) + "\n")
        out = tmp_path / "run"
        args = ["run", "--csv", str(f), "--sampler", "metropolis", "--burn-in", "300",
                "--pilot", "100", "--refit-interval", "500", "--total", "1000",
                "--out", str(out), "--dump-returns"]
        assert run_cli(args) == 0
        assert (out / "chain.csv").exists()
        returns = (out / "returns.csv").read_text().strip().splitlines()
        assert returns[0] == "return"
        assert len(returns) == 500  # header + 499 returns

    def test_missing_csv_exits_one(self, tmp_path):
        args = ["run", "--csv", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")]
        assert run_cli(args) == 1

    def test_sigma1_override(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(base_args(out) + ["--sigma1", "0.25"]) == 0
        assert run_cli(base_args(tmp_path / "bad") + ["--sigma1", "-1"]) == 1

    @pytest.mark.parametrize("flag", [
        ["--nu", "2"], ["--nu", "0"], ["--nu", "-3"],
        ["--window-factor", "0"], ["--window-factor", "-1"],
        ["--freeze-after", "0"],
    ])
    def test_out_of_range_flag_exits_one(self, tmp_path, capsys, flag):
        assert run_cli(base_args(tmp_path / "bad") + flag) == 1
        assert capsys.readouterr().err.startswith("error: " + flag[0])

    def test_zero_variance_returns_exit_one(self, tmp_path, capsys):
        flat = tmp_path / "flat.csv"
        flat.write_text("date,price\n" + "".join(f"d{i},100\n" for i in range(50)))
        for source in (["--csv", str(flat)], ["--synthetic", "--n", "1"]):
            assert run_cli(["run", *source, "--out", str(tmp_path / "o")]) == 1
            assert "positive variance" in capsys.readouterr().err

    def test_multi_chain(self, tmp_path):
        out = tmp_path / "multi"
        assert run_cli(base_args(out, total=2000) + ["--chains", "2"]) == 0
        assert (out / "chain_00" / "chain.csv").exists()
        assert (out / "chain_01" / "chain.csv").exists()
        cross = json.loads((out / "cross_chain.json").read_text())
        assert cross["chains"] == 2
        assert set(cross["spread"]) == {"alpha", "beta", "omega"}
        a = (out / "chain_00" / "chain.csv").read_bytes()
        b = (out / "chain_01" / "chain.csv").read_bytes()
        assert a != b

    def test_freeze_after(self, tmp_path):
        out = tmp_path / "frozen"
        assert run_cli(base_args(out) + ["--freeze-after", "2"]) == 0
        history = json.loads((out / "proposal_history.json").read_text())
        assert len(history) == 2


class TestCompare:
    @pytest.fixture()
    def two_runs(self, tmp_path):
        out_a, out_m = tmp_path / "adaptive", tmp_path / "metro"
        assert run_cli(base_args(out_a, sampler="adaptive")) == 0
        assert run_cli(base_args(out_m, sampler="metropolis")) == 0
        return out_a, out_m

    def test_self_comparison_has_unit_ratios(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(base_args(out)) == 0
        text = cli.compare_runs(out, out)
        ratio_line = [l for l in text.splitlines() if l.startswith("2tau_int ratio")][0]
        assert ratio_line.split()[-3:] == ["1", "1", "1"]

    def test_two_block_layout(self, two_runs, capsys):
        out_a, out_m = two_runs
        assert run_cli(["compare", str(out_a), str(out_m)]) == 0
        text = capsys.readouterr().out
        assert "Adaptive" in text and "Metropolis" in text
        for row in ("mean", "standard deviation", "statistical error", "2tau_int"):
            assert row in text

    def test_lower_bound_flag_shown(self, tmp_path):
        summary = diagnostics.ParamSummary(0.5, 0.1, 0.01, 1370.0, 90.0, float("nan"), 999, False)
        report = diagnostics.DiagnosticsReport(
            params={n: summary for n in diagnostics.PARAM_NAMES}, acceptance=0.6, n_draws=30000,
        )
        dirs = []
        for sampler in ("adaptive", "metropolis"):
            d = tmp_path / sampler
            d.mkdir()
            (d / "manifest.json").write_text(json.dumps(
                {"config": {"sampler": sampler}, "data_fingerprint": "same"}))
            (d / "report.json").write_text(json.dumps(report.to_dict()))
            dirs.append(d)
        text = cli.compare_runs(*dirs)
        assert text.count("(no plateau; lower bound)") == 6
        assert "1.37e+03 +/- 90" in text

    def test_mismatched_data_refused(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(base_args(out_a, seed=11)) == 0
        assert run_cli(base_args(out_b, seed=12)) == 0  # different synthetic data
        assert run_cli(["compare", str(out_a), str(out_b)]) == 1


def test_config_requires_one_source():
    with pytest.raises(cli.GarchMCError):
        cli.RunConfig(csv=None, synthetic=False).validate()
    with pytest.raises(cli.GarchMCError):
        cli.RunConfig(csv="x.csv", synthetic=True).validate()


def test_run_flags_map_onto_config(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "run", seen.append)
    cli.main(["run", "--synthetic"])
    assert seen == [cli.RunConfig(synthetic=True)]

    want = cli.RunConfig(
        csv="prices.csv", alpha=0.05, beta=0.9, omega=0.02, n=500, sampler="metropolis",
        burn_in=10, pilot=20, refit_interval=30, total=40, nu=7.0, seed=8, sigma1="0.5",
        window_factor=6.0, out="elsewhere", chains=3, freeze_after=2, dump_returns=True,
    )
    default = cli.RunConfig()
    argv = ["run"]
    for f in fields(cli.RunConfig):
        value = getattr(want, f.name)
        if f.name != "synthetic":  # exclusive with --csv; checked above
            assert value != getattr(default, f.name), f.name
        flag = "--" + f.name.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif value is not False:
            argv += [flag, str(value)]
    cli.main(argv)
    assert seen[1:] == [want]


def test_import_loads_no_heavy_scipy_modules():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    heavy = ("scipy.signal", "scipy.stats", "scipy.interpolate", "scipy.special", "scipy.fft")
    code = (
        "import sys, garchmc.cli\n"
        f"print(','.join(m for m in {heavy!r} if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == ""
