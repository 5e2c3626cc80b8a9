import csv
import errno
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from garchmc import _kernels_py, backend, cli, data, diagnostics, samplers


SRC = Path(__file__).resolve().parents[1] / "src"

#: Files every single-chain run writes beside its manifest.
CHAIN_FILES = {"chain.csv", "acceptance_trace.csv", "report.json", "report.txt"}
ADAPTIVE_FILES = CHAIN_FILES | {"proposal_history.json"}


def run_cli(args):
    return cli.main(args)


def run_python(code):
    """``python -c code`` on this tree's src/, capturing its output."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def fixed_report():
    """A summarize() dict whose every parameter hit no plateau."""
    summary = {"mean": 0.5, "stddev": 0.1, "stat_error": 0.01, "two_tau_int": 1370.0,
               "two_tau_int_err": 90.0, "two_tau_int_err_jk": float("nan"), "t_star": 999,
               "plateau_found": False}
    return {"acceptance": 0.6, "n_draws": 30000,
            "params": {n: summary for n in diagnostics.PARAM_NAMES}}


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
                     "proposal_history.json", "manifest.json"):
            assert (out / name).exists(), name
        assert not (out / "checkpoint.json").exists()
        report = json.loads((out / "report.json").read_text())
        assert set(report["params"]) == {"alpha", "beta", "omega"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 11
        assert len(manifest["data_fingerprint"]) == 64
        assert manifest["kernel"] == backend.KERNEL
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
                "--out", str(out)]
        assert run_cli(args) == 0
        assert (out / "chain.csv").exists()
        # The manifest fingerprints exactly the 499 returns garchmc.data makes
        # of the prices, so they can be rebuilt from the run's config.
        y = data.transform_returns(data.load_prices(f))
        assert y.shape == (499,)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n_returns"] == 499
        assert hashlib.sha256(y.tobytes()).hexdigest() == manifest["data_fingerprint"]

    def test_missing_csv_exits_one(self, tmp_path):
        args = ["run", "--csv", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")]
        assert run_cli(args) == 1

    @pytest.mark.parametrize("flag", [
        ["--nu", "2"], ["--nu", "0"], ["--nu", "-3"],
        ["--refit-interval", "4000"], ["--pilot", "0"], ["--chains", "0"],
        ["--nu", "inf"], ["--total", "500"], ["--seed", "-1"], ["--nu", "1e308"],
    ])
    def test_out_of_range_flag_exits_one(self, tmp_path, capsys, flag):
        assert run_cli(base_args(tmp_path / "bad") + flag) == 1
        assert capsys.readouterr().err.startswith("error: " + flag[0])
        assert not (tmp_path / "bad" / "manifest.json").exists()

    @pytest.mark.parametrize("flag", [["--sigma1", "1"], ["--window-factor", "5"]],
                             ids=["sigma1", "window-factor"])
    def test_retired_flag_is_unknown(self, tmp_path, capsys, flag):
        # The recursion starts from the returns' variance and the window
        # factor is diagnostics.WINDOW_FACTOR: neither is a setting.
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--synthetic", "--out", str(tmp_path / "run"), *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag, message", [
        (["--n", "0"], "synthetic n must be positive"),
        (["--pilot", "2"], "--pilot must be at least 4"),
    ])
    def test_unrunnable_setting_exits_one(self, tmp_path, capsys, flag, message):
        assert run_cli(base_args(tmp_path / "bad") + flag) == 1
        assert capsys.readouterr().err.startswith("error: " + message)
        assert not (tmp_path / "bad" / "manifest.json").exists()

    def test_metropolis_needs_no_pilot_fit(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(base_args(out, sampler="metropolis", total=1000) + ["--pilot", "2"]) == 0
        assert (out / "manifest.json").exists()

    @pytest.mark.parametrize("extra", [[], ["--chains", "2"]], ids=["one-chain", "chains-2"])
    def test_overflow_exits_one_without_warning(self, tmp_path, extra):
        # The real kernels, called with sigma1_sq = 1e-320, so y_0^2 / sigma1_sq
        # overflows; the fork-started --chains pool inherits the stand-in.
        out = tmp_path / "run"
        args = ["run", "--synthetic", "--n", "200", "--total", "2000", "--out", str(out), *extra]
        code = (
            "import sys\n"
            "from garchmc import backend, cli\n"
            "kernels = backend.kernels\n"
            "loglik, batch = kernels.log_likelihood, kernels.log_likelihood_batch\n"
            "kernels.log_likelihood = lambda series, a, b, w, s: loglik(series, a, b, w, 1e-320)\n"
            "kernels.log_likelihood_batch = lambda y, thetas, s: batch(y, thetas, 1e-320)\n"
            f"sys.exit(cli.main({args!r}))\n"
        )
        proc = run_python(code)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == ["error: non-finite GARCH log-likelihood"]
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("pair", [(1e-300, 1e300), (1e300, 1e-300)],
                             ids=["ratio-overflows", "ratio-underflows"])
    def test_price_ratio_leaving_float64_exits_one(self, tmp_path, capsys, pair):
        f = tmp_path / "prices.csv"
        f.write_text(f"d0,{pair[0]}\nd1,{pair[1]}\n")
        assert run_cli(["run", "--csv", str(f), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error: prices 1 and 2 ({pair[0]}, {pair[1]}): their ratio leaves float64\n")

    def test_zero_variance_returns_exit_one(self, tmp_path, capsys):
        flat = tmp_path / "flat.csv"
        flat.write_text("date,price\n" + "".join(f"d{i},100\n" for i in range(50)))
        for source in (["--csv", str(flat)], ["--synthetic", "--n", "1"]):
            assert run_cli(["run", *source, "--out", str(tmp_path / "o")]) == 1
            assert "positive variance" in capsys.readouterr().err

    def test_seven_returns_exit_one(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli(["run", "--synthetic", "--n", "7", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: need at least 8 returns, got 7")
        assert not (out / "manifest.json").exists()

    def test_multi_chain(self, tmp_path):
        out = tmp_path / "multi"
        assert run_cli(base_args(out, total=2000) + ["--chains", "2"]) == 0
        assert (out / "chain_00" / "chain.csv").exists()
        assert (out / "chain_01" / "chain.csv").exists()
        cross = json.loads((out / "cross_chain.json").read_text())
        assert len(cross["seeds"]) == 2
        assert set(cross["spread"]) == {"alpha", "beta", "omega"}
        a = (out / "chain_00" / "chain.csv").read_bytes()
        b = (out / "chain_01" / "chain.csv").read_bytes()
        assert a != b

    @pytest.mark.parametrize("sampler, extra, want", [
        ("adaptive", [], ADAPTIVE_FILES | {"manifest.json"}),
        ("metropolis", [], CHAIN_FILES | {"manifest.json"}),
        ("adaptive", ["--chains", "2"],
         {f"chain_0{i}/{f}" for i in (0, 1) for f in ADAPTIVE_FILES}
         | {"cross_chain.json", "manifest.json"}),
    ], ids=["adaptive", "metropolis", "chains-2"])
    def test_exact_artifact_set(self, tmp_path, sampler, extra, want):
        out = tmp_path / "run"
        assert run_cli(base_args(out, sampler=sampler, total=1000) + extra) == 0
        assert {f.relative_to(out).as_posix() for f in out.rglob("*") if f.is_file()} == want

    def test_rerun_removes_earlier_artifacts_only(self, tmp_path):
        assert set(cli._ARTIFACTS) == ADAPTIVE_FILES | {"manifest.json", "cross_chain.json"}
        out = tmp_path / "run"
        out.mkdir()
        (out / "notes.txt").write_text("not an artifact")
        assert run_cli(base_args(out, total=1000) + ["--chains", "2"]) == 0
        (out / "chain_01" / "notes.txt").write_text("not an artifact")
        for sampler in ("adaptive", "metropolis"):
            assert run_cli(base_args(out, sampler=sampler, total=1000)) == 0
        files = {f.relative_to(out).as_posix() for f in out.rglob("*") if f.is_file()}
        assert files == CHAIN_FILES | {"manifest.json", "notes.txt", "chain_01/notes.txt"}
        assert not (out / "chain_00").exists()
        assert (out / "notes.txt").read_text() == "not an artifact"

    def test_rerun_removes_killed_runs_part_files(self, tmp_path):
        # A SIGKILL skips _write_atomic's cleanup and leaves its <name>.part.
        out = tmp_path / "run"
        assert run_cli(base_args(out, total=1000) + ["--chains", "2"]) == 0
        (out / "chain_01" / "chain.csv.part").write_text("half a chain")
        (out / "proposal_history.json.part").write_text("[")
        assert run_cli(base_args(out, sampler="metropolis", total=1000)) == 0
        files = {f.relative_to(out).as_posix() for f in out.rglob("*") if f.is_file()}
        assert files == CHAIN_FILES | {"manifest.json"}
        assert not (out / "chain_01").exists()

    @pytest.mark.parametrize("exc", [OSError(errno.ENOSPC, "No space left on device"),
                                     KeyboardInterrupt()], ids=["oserror", "interrupt"])
    def test_failed_write_leaves_no_manifest(self, tmp_path, monkeypatch, capsys, exc):
        out = tmp_path / "run"
        assert run_cli(base_args(out)) == 0  # a completed run, soon stale
        before = (out / "chain.csv").read_bytes()
        write = cli._write_atomic

        def fail_in_chain_csv(path, pieces):
            def first_chunk_then_fail():
                it = iter(pieces)
                yield next(it)  # header
                yield next(it)  # the first 1000 rows
                assert path.with_name("chain.csv.part").exists()
                raise exc

            write(path, first_chunk_then_fail() if path.name == "chain.csv" else pieces)

        monkeypatch.setattr(cli, "_write_atomic", fail_in_chain_csv)
        monkeypatch.setattr(cli, "_CHUNK_ROWS", 1000)  # 3000 rows make three chunks
        if isinstance(exc, OSError):
            assert run_cli(base_args(out, seed=12)) == 1
        else:
            with pytest.raises(KeyboardInterrupt):
                run_cli(base_args(out, seed=12))
        assert not (out / "manifest.json").exists()
        assert list(out.rglob("*.part")) == []
        assert (out / "chain.csv").read_bytes() == before
        capsys.readouterr()
        assert run_cli(["compare", str(out), str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_busy_out_exits_one_and_touches_nothing(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli(base_args(out)) == 0
        before = {name: (out / name).read_bytes() for name in ("manifest.json", "chain.csv")}
        fd = os.open(out, os.O_RDONLY)  # another run, holding the lock
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            capsys.readouterr()
            assert run_cli(base_args(out, seed=12)) == 1
            assert capsys.readouterr().err.startswith("error: ")
            assert {name: (out / name).read_bytes() for name in before} == before
            assert list(out.rglob("*.part")) == []
        finally:
            os.close(fd)
        assert run_cli(base_args(out, seed=12)) == 0
        assert (out / "chain.csv").read_bytes() != before["chain.csv"]

    def test_chain_csv_bytes_match_per_row_format(self, tmp_path, monkeypatch, either_kernels):
        values = [5e-324, 1e-300, -0.0, 0.1, 1.0, 1e22, 123456789.0]
        draws = np.array([np.roll(values, -k)[:3] for k in range(len(values))])
        accepted = np.arange(len(values)) % 3 == 0
        trace = np.array([3 / 7])
        result = samplers.RunResult(draws, accepted, trace, [])
        monkeypatch.setattr(samplers, "run_metropolis", lambda *args, **kwargs: result)
        monkeypatch.setattr(diagnostics, "summarize", lambda *args, **kwargs: fixed_report())
        monkeypatch.setattr(cli, "_CHUNK_ROWS", 3)  # the 7 rows span three chunks
        out = tmp_path / "run"
        assert run_cli(base_args(out, sampler="metropolis")) == 0
        want = "alpha,beta,omega,accepted\n" + "".join(
            f"{row[0]:.17g},{row[1]:.17g},{row[2]:.17g},{int(acc)}\n"
            for row, acc in zip(draws, accepted)
        )
        assert (out / "chain.csv").read_bytes() == want.encode()
        assert (out / "acceptance_trace.csv").read_text() == f"batch,acceptance\n0,{3 / 7:.17g}\n"

    def test_chain_writer_reuses_text_only_for_equal_rows(self, tmp_path, monkeypatch,
                                                          either_kernels):
        a, b, c = (0.05, 0.9, 0.01), (-0.0, 0.25, 1e-300), (0.0, 0.25, 1e-300)
        # A rejected run of A across the chunk boundary at row 4; c (0.0) right
        # after b (-0.0); A back after other states; an accepted row equal to
        # the row before it.
        states = [a, a, a, a, a, a, b, c, (0.3, 0.6, 5e-324), a, a, b]
        flags = [1, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1]
        draws, accepted = np.array(states), np.array(flags, dtype=bool)
        monkeypatch.setattr(cli, "_CHUNK_ROWS", 4)
        cli._write_atomic(tmp_path / "chain.csv", cli._chain_csv_lines(draws, accepted))
        want = "alpha,beta,omega,accepted\n" + "".join(
            f"{row[0]:.17g},{row[1]:.17g},{row[2]:.17g},{int(acc)}\n"
            for row, acc in zip(draws, accepted)
        )
        assert (tmp_path / "chain.csv").read_bytes() == want.encode()
        assert want.splitlines()[7:9] == ["-0,0.25,1e-300,1", "0,0.25,1e-300,1"]


#: compare's refusal of a run file that does not parse or lacks a key.
UNREADABLE = "{path} is not a run file compare can read"


class TestCompare:
    @pytest.fixture()
    def two_runs(self, tmp_path):
        out_a, out_m = tmp_path / "adaptive", tmp_path / "metro"
        assert run_cli(base_args(out_a, sampler="adaptive")) == 0
        assert run_cli(base_args(out_m, sampler="metropolis")) == 0
        return out_a, out_m

    @pytest.fixture()
    def run_and_copy(self, tmp_path):
        """A completed run and a copy of it to edit."""
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(base_args(out_a, total=1000)) == 0
        shutil.copytree(out_a, out_b)
        return out_a, out_b

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
        report = fixed_report()
        dirs = []
        for sampler in ("adaptive", "metropolis"):
            d = tmp_path / sampler
            d.mkdir()
            (d / "manifest.json").write_text(json.dumps(
                {"config": {"sampler": sampler, "chains": 1}, "data_fingerprint": "same"}))
            (d / "report.json").write_text(json.dumps(report))
            dirs.append(d)
        text = cli.compare_runs(*dirs)
        assert text.count("(no plateau; lower bound)") == 6
        assert "1.37e+03 +/- 90" in text

    def test_zero_two_tau_int_gives_nan_ratio(self, run_and_copy):
        out_a, out_b = run_and_copy
        report = json.loads((out_a / "report.json").read_text())
        report["params"]["alpha"]["two_tau_int"] = 0.0
        (out_a / "report.json").write_text(json.dumps(report))
        ratio_line = cli.compare_runs(out_a, out_b).splitlines()[-1]
        assert ratio_line.split()[-3:] == ["nan", "1", "1"]

    def test_null_reads_back_as_nan(self, tmp_path):
        # report.json writes NaN as null; compare shows it as nan, as it
        # showed the bare NaN token before.
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(base_args(out_a, sampler="metropolis", seed=1, total=2000)) == 0
        shutil.copytree(out_a, out_b)
        report = json.loads((out_b / "report.json").read_text())
        report["params"]["alpha"].update(stat_error=None, two_tau_int=None)
        (out_b / "report.json").write_text(json.dumps(report))
        text = cli.compare_runs(out_a, out_b)
        stat_rows = [l for l in text.splitlines() if l.startswith("statistical error")]
        assert stat_rows[0].split()[2] != "nan" and stat_rows[1].split()[2] == "nan"
        assert text.splitlines()[-1].split()[-3:] == ["nan", "1", "1"]

    def test_multi_chain_run_refused(self, tmp_path, capsys):
        single, multi = tmp_path / "single", tmp_path / "multi"
        assert run_cli(base_args(single, total=1000)) == 0
        assert run_cli(base_args(multi, total=1000) + ["--chains", "2"]) == 0
        for pair in ((single, multi), (multi, single)):
            assert run_cli(["compare", *map(str, pair)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {multi} holds a --chains 2 run"), err

    @pytest.mark.parametrize("name, edit", [
        ("manifest.json", lambda text: text[:len(text) // 2]),
        ("manifest.json", lambda text: text.replace('"data_fingerprint"', '"fingerprint"')),
        ("manifest.json", lambda text: text.replace('"chains"', '"n_chains"')),
        ("report.json", lambda text: text.replace('"two_tau_int"', '"tau"')),
    ], ids=["truncated-manifest", "manifest-missing-key", "manifest-missing-chains",
            "report-missing-key"])
    def test_malformed_run_file_refused(self, run_and_copy, capsys, name, edit):
        # Run files come from outside the program: a bad one is refused by
        # name, with exit code 1 and no traceback.
        out_a, out_b = run_and_copy
        path = out_b / name
        text = path.read_text()
        assert edit(text) != text
        path.write_text(edit(text))
        capsys.readouterr()
        assert run_cli(["compare", str(out_a), str(out_b)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: " + UNREADABLE.format(path=path)), err
        assert len(err.splitlines()) == 1

    def test_mismatched_data_refused(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(base_args(out_a, seed=11)) == 0
        assert run_cli(base_args(out_b, seed=12)) == 0  # different synthetic data
        assert run_cli(["compare", str(out_a), str(out_b)]) == 1


def _refuse_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


@pytest.mark.parametrize("sampler, extra", [("metropolis", []), ("adaptive", ["--chains", "2"])],
                         ids=["metropolis", "chains-2"])
def test_json_artifacts_are_strict_json(tmp_path, sampler, extra):
    """Every JSON file a run writes parses under RFC 8259: a NaN statistic,
    such as a Metropolis run's jackknife error, is written as null."""
    out = tmp_path / "run"
    assert run_cli(base_args(out, sampler=sampler, seed=1, total=2000) + extra) == 0
    texts = {p.relative_to(out).as_posix(): p.read_text() for p in out.rglob("*.json")}
    assert len(texts) == (2 if sampler == "metropolis" else 6)
    for name, text in texts.items():
        json.loads(text, parse_constant=_refuse_constant)
    if sampler == "metropolis":
        assert json.loads(texts["report.json"])["params"]["alpha"]["two_tau_int_err_jk"] is None


#: The ``--total 2000 --seed 1`` run behind each set of pins: its sampler
#: and extra flags.
PINNED_RUNS = {
    "adaptive": ("adaptive", []),
    "metropolis": ("metropolis", []),
    "chains-2": ("adaptive", ["--chains", "2"]),
}
#: SHA-256 of chain.csv, report.json, report.txt, acceptance_trace.csv and
#: (adaptive only) proposal_history.json of each sampler's run, and of
#: cross_chain.json of the --chains 2 run.
PINNED_SHA256 = {
    "adaptive": {
        "chain.csv": "e7aed5c5584b6bdc482ff6324a6b7275df597b6b356e576f416cf8426f127fa5",
        "report.json": "b5d1207797dfe88c09affe1c3fd439fdade25c457f2546cd1af943b0dcfc8695",
        "report.txt": "a962e3883f7142e04c50317070f6f1a1e3c6edb94fc33731adfd78ece2ba75a7",
        "acceptance_trace.csv":
            "bc11b080e07e66ef0e1ee9809d4fed9882e691d5df184a311a184763299a8a9f",
        "proposal_history.json":
            "c1b39b401d9407179a6957f47dfad7ef47387e8df5cbbf25f91b223880f6a6ab",
    },
    "metropolis": {
        "chain.csv": "b4c910ff37d63f61dfb3e14ba487ee6f9fbcf5c7bff48d581fbaaede7d144c86",
        "report.json": "b54495da641886d8f28463b1997a2a17d0bd63721e78f5751e68e16511b93127",
        "report.txt": "f8a8b9de44afaae2dc827fd2f9c966c8c469fd18f37bc32c5df452b2823d4d24",
        "acceptance_trace.csv":
            "daafc9370e2696f27a743566d718879d8f306380c22159ab6dbd782cd1d4a89f",
    },
    "chains-2": {
        "cross_chain.json": "3bade6ca17557f697742d15436e2f2ff7eac64db13797c87feb3e675f053d1d7",
    },
}


@pytest.mark.parametrize("run", sorted(PINNED_SHA256))
def test_artifact_bytes_are_pinned(tmp_path, run):
    """A refactor or speed-up must leave a run's artifacts byte for byte as
    they were. A pin moves only together with a CHANGES.md entry that says
    why its bytes moved, as a change of the default nu will."""
    sampler, extra = PINNED_RUNS[run]
    out = tmp_path / run
    assert run_cli(base_args(out, sampler=sampler, seed=1, total=2000) + extra) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in PINNED_SHA256[run]}
    assert got == PINNED_SHA256[run]


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
        burn_in=10, pilot=20, refit_interval=30, total=40, nu=7.0, seed=8, out="elsewhere",
        chains=3,
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


@pytest.mark.parametrize("blas_threads", [None, "2"], ids=["blas-default", "blas-2"])
def test_import_loads_no_heavy_scipy_modules(blas_threads):
    # Importing garchmc sets OPENBLAS_NUM_THREADS=1 before numpy loads, so no
    # BLAS worker starts, unless the caller set a value of their own. It
    # loads neither the process pool's modules nor, on the compiled kernels,
    # the numpy twin.
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(SRC)
    if blas_threads:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    heavy = ("scipy.signal", "scipy.stats", "scipy.interpolate", "scipy.special", "scipy.fft")
    code = (
        "import os, sys, garchmc.cli, json\n"
        "from garchmc import backend\n"
        "print(json.dumps({'threads': len(os.listdir('/proc/self/task')),\n"
        "                  'blas': os.environ['OPENBLAS_NUM_THREADS'],\n"
        "                  'kernel': backend.KERNEL,\n"
        f"                  'loaded': [m for m in {heavy!r} + ('concurrent.futures',\n"
        "                              'garchmc._kernels_py') if m in sys.modules]}))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    got = json.loads(out.stdout)
    assert got["blas"] == (blas_threads or "1")
    if not blas_threads:
        assert got["threads"] == 1
    assert got["loaded"] == (["garchmc._kernels_py"] if got["kernel"] == "numpy" else [])


@pytest.mark.parametrize("sampler, extra", [("adaptive", []), ("metropolis", []),
                                            ("adaptive", ["--chains", "2"])],
                         ids=["adaptive", "metropolis", "adaptive-chains-2"])
def test_each_kernel_writes_the_same_chain(tmp_path, monkeypatch, compiled, sampler, extra):
    # One whole run per kernel module, switched by backend.kernels alone; the
    # fork-started --chains pool inherits the switch. Only manifest.json,
    # which names the output directory, may differ.
    runs = []
    for kernels in (_kernels_py, compiled):
        monkeypatch.setattr(backend, "kernels", kernels)
        out = tmp_path / kernels.__name__
        assert run_cli(base_args(out, sampler=sampler) + extra) == 0
        runs.append({str(path.relative_to(out)): path.read_bytes() for path in out.rglob("*")
                     if path.is_file() and path.name != "manifest.json"})
    names = {name.rpartition("/")[2] for name in runs[0]}
    assert {"chain.csv", "report.json", "report.txt", "acceptance_trace.csv"} <= names
    assert ("proposal_history.json" in names) == (sampler == "adaptive")
    assert ("cross_chain.json" in names) == bool(extra)
    assert runs[0] == runs[1]


def test_compiled_run_imports_no_scipy(tmp_path):
    # The numpy twin imports scipy.linalg.blas at its first call, so no
    # import loads scipy, and a run loads it only on the numpy twin.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    args = base_args(tmp_path / "run", sampler="metropolis", total=1000)
    code = (
        "import sys, garchmc.cli\n"
        "from garchmc import backend\n"
        "loaded = lambda: any(m.partition('.')[0] == 'scipy' for m in sys.modules)\n"
        "imported = loaded()\n"
        f"assert garchmc.cli.main({args!r}) == 0\n"
        "print(backend.KERNEL, imported, loaded())"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    kernel, imported, ran = out.stdout.split()
    assert kernel == backend.KERNEL
    assert (imported, ran) == ("False", str(kernel == "numpy"))


@pytest.mark.parametrize("n_cpus", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_cpu_shares_split_the_mask(n_cpus, k):
    cpus = [0, 2, 3, 7][:n_cpus]
    shares = cli._cpu_shares(cpus, k)
    assert len(shares) == k
    if k <= n_cpus:
        assert all(shares)
        assert sorted(c for share in shares for c in share) == cpus
    else:
        assert shares == [[cpus[i % n_cpus]] for i in range(k)]


def _worker_cpus(tmp_path, monkeypatch, chains, getaffinity=os.sched_getaffinity):
    """Run ``--chains chains`` through the fork-started pool with a sampler
    that first records the CPUs its worker may run on; returns them in chain
    order."""
    run_adaptive = samplers.run_adaptive
    seen = tmp_path / "seen"
    seen.mkdir()

    def recording(y, sched, nu, seed):
        (seen / str(seed)).write_text(json.dumps(sorted(getaffinity(0))))
        return run_adaptive(y, sched, nu=nu, seed=seed)

    monkeypatch.setattr(samplers, "run_adaptive", recording)
    out = tmp_path / "run"
    assert run_cli(base_args(out, total=1000) + ["--chains", str(chains)]) == 0
    seeds = json.loads((out / "cross_chain.json").read_text())["seeds"]
    return [json.loads((seen / str(seed)).read_text()) for seed in seeds]


@pytest.mark.parametrize("chains", [2, 3])
def test_each_pool_worker_runs_on_its_share(tmp_path, monkeypatch, chains):
    cpus = sorted(os.sched_getaffinity(0))
    got = _worker_cpus(tmp_path, monkeypatch, chains)
    assert got == [cpus[i % len(cpus)::chains] for i in range(chains)]


def _refuse_affinity(pid, cpus):
    raise OSError(errno.EINVAL, "Invalid argument")


@pytest.mark.parametrize("change", ["no-getaffinity", "no-setaffinity", "setaffinity-fails"])
def test_pool_without_affinity_runs_on_every_cpu(tmp_path, monkeypatch, change):
    # As where os lacks the affinity calls (macOS), or the kernel refuses the
    # share: the run still completes, each worker on the parent's whole mask.
    getaffinity = os.sched_getaffinity
    if change == "setaffinity-fails":
        monkeypatch.setattr(os, "sched_setaffinity", _refuse_affinity)
    else:
        monkeypatch.delattr(os, "sched_" + change.removeprefix("no-"))
    cpus = sorted(getaffinity(0))
    assert _worker_cpus(tmp_path, monkeypatch, 2, getaffinity) == [cpus, cpus]


def test_chains_on_one_cpu_keep_their_bytes(tmp_path):
    out = tmp_path / "run"
    args = base_args(out, seed=1, total=2000) + ["--chains", "2"]
    code = (
        "import os, sys\n"
        "from garchmc import cli\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        f"sys.exit(cli.main({args!r}))\n"
    )
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    got = hashlib.sha256((out / "cross_chain.json").read_bytes()).hexdigest()
    assert got == PINNED_SHA256["chains-2"]["cross_chain.json"]


def test_chains_run_does_not_import_numpy_ma(tmp_path):
    # np.median imports numpy.ma at its first call, about 10 ms that the
    # parent would spend after the pool has finished.
    args = base_args(tmp_path / "run", total=1000) + ["--chains", "2"]
    code = (
        "import sys\n"
        "from garchmc import cli\n"
        f"assert cli.main({args!r}) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_median_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(3)
    for trial in range(11000):
        values = rng.lognormal(-5.0, 2.0, size=trial % 11 + 1)
        if trial % 10 == 0:
            values[rng.integers(values.size)] = np.nan
        elif trial % 10 == 1:
            values[rng.integers(values.size)] = np.inf
        elif trial % 10 == 2:
            values[:] = rng.choice(values[:2], size=values.size)  # ties
        want = np.float64(np.median(values)).tobytes()
        assert np.float64(cli._median(values)).tobytes() == want, values
