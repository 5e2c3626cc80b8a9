"""The build of the compiled kernels and its fallback to the numpy twin, and
the chain.csv text that both write."""
import io
import itertools
import math
import os
import platform
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

from garchmc import _kernels_py, backend

CC = sysconfig.get_config_var("CC")
FOUND = bool(CC) and shutil.which(shlex.split(CC)[0]) is not None
SRC = Path(__file__).resolve().parents[1] / "src"


def edge_values():
    """Doubles at the edges of the compiled kernels' exact integer path: each
    power of ten from 1e-8 to 1e18 with both of its neighbours; every odd
    m/2^18 in [0.1, 1), a tie at 17 significant digits; the ends of the
    binary exponents that path takes, 2^-14 and 2^57; and zeros, subnormals,
    negatives and non-finite values, which it leaves to Python's formatting."""
    tens = np.array([float(f"1e{e}") for e in range(-8, 19)])
    m = np.arange(int(0.1 * 2 ** 18) | 1, 2 ** 18, 2)
    ends = np.array([2.0 ** -14, 2.0 ** 57, 9.999999999999999e16, 1e17, 9.9999e-5])
    special = [5e-324, 1e-300, -0.0, 0.0, 1e22, -1.5, -1e-5, math.inf, -math.inf, math.nan]
    return np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, math.inf),
                           m / 2.0 ** 18, ends, np.nextafter(ends, 0.0),
                           np.nextafter(ends, math.inf), special])


def chain_rows(values, rng):
    """(draws, accepted) holding values, padded with 0.5, as rows of three."""
    draws = np.append(values, [0.5] * (-len(values) % 3)).reshape(-1, 3)
    return draws, rng.random(len(draws)) < 0.5


def per_row_text(draws, accepted):
    return "".join("%.17g,%.17g,%.17g,%d\n" % (*row, acc)
                   for row, acc in zip(draws.tolist(), accepted.tolist()))


def assert_same_text(got, want):
    """Fail with the first differing lines of two texts: pytest's own diff of
    megabyte strings would take minutes."""
    if got != want:
        pairs = itertools.zip_longest(got.splitlines(), want.splitlines())
        pytest.fail(f"differing (got, want) lines: {[(g, w) for g, w in pairs if g != w][:5]}")


def test_compiled_kernels_load_where_a_compiler_is_found():
    # A broken _kernels.c must fail here, not hide behind the fallback.
    assert backend.KERNEL == ("c" if FOUND else "numpy")
    assert (backend.kernels is _kernels_py) == (backend.KERNEL == "numpy")


@pytest.mark.skipif(not FOUND, reason="no C compiler")
def test_kernel_source_compiles_without_warnings(tmp_path):
    # build() keeps no compiler output, so a warning would go unseen.
    cmd = [*shlex.split(CC), *backend.FLAGS, "-Wall", "-Werror",
           "-I" + sysconfig.get_paths()["include"], str(backend.SOURCE),
           "-o", str(tmp_path / "_kernels.so"), "-lm"]
    done = subprocess.run(cmd, capture_output=True, text=True, stdin=subprocess.DEVNULL,
                          timeout=backend.COMPILE_TIMEOUT_S)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("cc", [None, "", "false", "garchmc-no-such-compiler"])
def test_failed_compile_falls_back_to_numpy_twin(tmp_path, cc):
    assert backend.build(cc, tmp_path / "cache") == (_kernels_py, "numpy")
    assert not any(tmp_path.rglob("*_kernels*"))


def test_unwritable_cache_falls_back_to_numpy_twin(tmp_path):
    (tmp_path / "file").write_text("")
    assert backend.build(CC, tmp_path / "file" / "cache") == (_kernels_py, "numpy")


def test_build_compiles_once_then_loads(tmp_path, monkeypatch, compiled):
    # Each build registers its module under garchmc._kernels; monkeypatch
    # puts the package's own back afterwards.
    monkeypatch.delitem(sys.modules, "garchmc._kernels")
    module, name = backend.build(CC, tmp_path)
    assert name == "c" and module is not compiled
    built = list(tmp_path.iterdir())
    assert len(built) == 1 and built[0].name.endswith(sysconfig.get_config_var("EXT_SUFFIX"))
    assert module.log_likelihood([0.5, -0.3], 0.1, 0.8, 0.01, 0.05) == \
        compiled.log_likelihood([0.5, -0.3], 0.1, 0.8, 0.01, 0.05)

    def no_compile(*args, **kwargs):
        raise AssertionError("compiled again")

    monkeypatch.setattr(subprocess, "run", no_compile)
    module, name = backend.build(CC, tmp_path)
    assert name == "c" and list(tmp_path.iterdir()) == built


@pytest.mark.skipif(not FOUND, reason="no C compiler")
@pytest.mark.parametrize("undefine", [[], ["-U__SIZEOF_INT128__"]], ids=["int128", "no-int128"])
def test_kernel_source_runs_clean_under_ubsan(tmp_path, undefine):
    # A 128-bit shift by 128 or more, or a signed overflow, would pass every
    # other test unseen. Without __int128 every value takes Python's "%.17g".
    # The batch calls run the exponent carry, the step-by-step redo of tiny
    # variances and the SIMD clone this CPU dispatches to. Both accept loops
    # run too: on zero steps, with one parameter, on NaN scores, and with
    # targets that raise or return None, which must leave as those errors.
    path = tmp_path / f"_kernels{sysconfig.get_config_var('EXT_SUFFIX')}"
    cmd = [*shlex.split(CC), *backend.FLAGS, "-fsanitize=undefined", "-fno-sanitize-recover=all",
           *undefine, "-Wall", "-Werror", "-I" + sysconfig.get_paths()["include"],
           str(backend.SOURCE), "-o", str(path), "-lm"]
    done = subprocess.run(cmd, capture_output=True, text=True, stdin=subprocess.DEVNULL,
                          timeout=backend.COMPILE_TIMEOUT_S)
    assert done.returncode == 0, done.stderr
    draws, _ = chain_rows(edge_values(), np.random.default_rng(0))
    accepted = np.arange(len(draws)) % 2 == 0
    code = (
        "import importlib.util, sys\n"
        "import numpy as np\n"
        f"spec = importlib.util.spec_from_file_location('garchmc._kernels', {str(path)!r})\n"
        "kernels = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(kernels)\n"
        "kernels.log_likelihood([0.5, -0.3, 0.2], 0.1, 0.8, 0.01, 0.05)\n"
        "rng = np.random.default_rng(0)\n"
        "thetas = np.column_stack([rng.uniform(0.01, 0.1, 1003), rng.uniform(0.5, 0.899, 1003),\n"
        "                          rng.uniform(0.2, 1.0, 1003)])\n"
        "kernels.log_likelihood_batch(rng.standard_normal(2000), thetas, 1.0)\n"
        # The series of test_model's test_tiny_variances_take_one_log_per_step.
        "y = np.random.default_rng(9).standard_normal(400) * np.repeat([1e-12, 1.0], 200)\n"
        "thetas[:, 2] = 1e-26\n"
        "kernels.log_likelihood_batch(y, thetas, 1e-24)\n"
        "from garchmc.exceptions import NumericOverflowError\n"
        "theta, u = np.array([0.05, 0.9, 0.01]), rng.random(600)\n"
        "shifts = rng.uniform(-0.02, 0.02, (600, 3))\n"
        "def target(cand):\n"
        "    a, b, w = cand\n"
        "    return -1e3 * (a - 0.05) ** 2 if a > 0 else float('-inf')\n"
        "draws, flags, end, log_p = kernels.rw_chain(target, theta, 0.0, shifts, u)\n"
        "assert 0 < flags.sum() < 600 and (draws[-1] == end).all()\n"
        "kernels.rw_chain(target, theta, 0.0, shifts[:0], u[:0])\n"
        "kernels.rw_chain(lambda cand: cand[0], theta[:1], 0.0, shifts[:, :1], u)\n"
        "kernels.rw_chain(lambda cand: float('nan'), theta, float('-inf'), shifts, u)\n"
        "calls = []\n"
        "def fail(cand):\n"
        "    calls.append(cand)\n"
        "    if len(calls) == 10:\n"
        "        raise NumericOverflowError('raised by the target at step 9')\n"
        "    return 0.0\n"
        "for bad, error in ((fail, NumericOverflowError), (lambda cand: None, TypeError)):\n"
        "    try:\n"
        "        kernels.rw_chain(bad, theta, 0.0, shifts, u)\n"
        "    except error:\n"
        "        pass\n"
        "    else:\n"
        "        raise SystemExit(f'no {error.__name__}')\n"
        "log_p_cands = rng.standard_normal(1000)\n"
        "log_p_cands[::7] = float('-inf')\n"
        "log_p_cands[::11] = float('nan')\n"
        "index, flags, log_p = kernels.independence_accept(\n"
        "    log_p_cands, rng.standard_normal(1000), rng.random(1000), float('-inf'), 0.0)\n"
        "assert 0 < flags.sum() < 1000 and index[-1] <= 1000\n"
        "kernels.independence_accept(log_p_cands[:0], log_p_cands[:0], u[:0], 0.0, 0.0)\n"
        "draws = np.frombuffer(sys.stdin.buffer.read()).reshape(-1, 3)\n"
        "sys.stdout.write(kernels.chain_text(draws, np.arange(len(draws)) % 2 == 0))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], input=draws.tobytes(),
                          capture_output=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          timeout=backend.COMPILE_TIMEOUT_S)
    assert done.returncode == 0, done.stderr.decode()
    assert_same_text(done.stdout.decode(), per_row_text(draws, accepted))


def cpu_flags():
    """The CPU feature flags that /proc/cpuinfo lists; none where it cannot
    be read."""
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return {flag for line in text.splitlines() if line.startswith("flags")
            for flag in line.partition(":")[2].split()}


@pytest.mark.skipif(platform.machine() != "x86_64", reason="the SIMD clones are x86-64 only")
@pytest.mark.parametrize("target, flag", [("avx512f", "avx512f"), ("avx2", "avx2"),
                                          ("arch=x86-64", None)])
def test_every_simd_clone_gives_the_same_bits(tmp_path, compiled, target, flag):
    # A CPU only ever runs the clone it dispatches to. The macro rewrites the
    # batch kernel's target_clones attribute into a single target, so each
    # build holds that clone alone; 1003 candidates leave a vector epilogue.
    if flag is not None and flag not in cpu_flags():
        pytest.skip(f"this CPU has no {flag}")
    path = tmp_path / f"_kernels{sysconfig.get_config_var('EXT_SUFFIX')}"
    cmd = [*shlex.split(CC), *backend.FLAGS, f'-Dtarget_clones(...)=target("{target}")',
           "-Wall", "-Werror", "-I" + sysconfig.get_paths()["include"], str(backend.SOURCE),
           "-o", str(path), "-lm"]
    done = subprocess.run(cmd, capture_output=True, text=True, stdin=subprocess.DEVNULL,
                          timeout=backend.COMPILE_TIMEOUT_S)
    assert done.returncode == 0, done.stderr
    rng = np.random.default_rng(23)
    thetas = np.column_stack([rng.uniform(0.01, 0.3, 1003), rng.uniform(0.5, 0.69, 1003),
                              rng.uniform(0.2, 1.0, 1003)])
    ys = [rng.standard_normal(n) for n in (1, 17, 250, 2000)]
    code = (
        "import importlib.util, io, sys\n"
        "import numpy as np\n"
        f"spec = importlib.util.spec_from_file_location('garchmc._kernels', {str(path)!r})\n"
        "kernels = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(kernels)\n"
        "cases = np.load(io.BytesIO(sys.stdin.buffer.read()))\n"
        "thetas = cases['thetas']\n"
        "out = []\n"
        "for i in range(len(cases.files) - 1):\n"
        "    y = cases[f'y{i}']\n"
        "    out.append(kernels.log_likelihood_batch(y, thetas, 1.0))\n"
        "    out.append([kernels.log_likelihood(y, *theta, 1.0) for theta in thetas])\n"
        "sys.stdout.buffer.write(np.concatenate(out).tobytes())\n"
    )
    cases = io.BytesIO()
    np.savez(cases, thetas=thetas, **{f"y{i}": y for i, y in enumerate(ys)})
    done = subprocess.run([sys.executable, "-c", code], input=cases.getvalue(),
                          capture_output=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          timeout=backend.COMPILE_TIMEOUT_S)
    assert done.returncode == 0, done.stderr.decode()
    got = np.frombuffer(done.stdout).reshape(len(ys), 2, len(thetas))
    for y, (batch, scalar) in zip(ys, got):
        want = compiled.log_likelihood_batch(y, thetas, 1.0)
        assert batch.tobytes() == want.tobytes()
        assert scalar.tobytes() == want.tobytes()


class TestChainText:
    """Both modules' chain_text against per-row "%.17g"."""

    def test_both_modules_write_per_row_format_exactly(self, compiled):
        rng = np.random.default_rng(5)
        values = np.concatenate([edge_values(), 10.0 ** rng.uniform(-9.0, 19.0, 10 ** 6)])
        draws, accepted = chain_rows(values, rng)
        want = per_row_text(draws, accepted)
        assert_same_text(compiled.chain_text(draws, accepted), want)
        assert_same_text(_kernels_py.chain_text(draws, accepted), want)

    def test_lists_and_empty_chains_are_accepted(self, either_kernels):
        text = either_kernels.chain_text([[0.1, 2.0, 1e-300]], [1])
        assert text == "0.10000000000000001,2,1e-300,1\n"
        assert either_kernels.chain_text(np.empty((0, 3)), np.empty(0, bool)) == ""

    @pytest.mark.parametrize("rows, flags", [(3, 2), (3, 4), (0, 1)])
    def test_flags_not_one_per_row_raise(self, either_kernels, rows, flags):
        with pytest.raises(ValueError):
            either_kernels.chain_text(np.full((rows, 3), 0.5), np.ones(flags, bool))

    @pytest.mark.parametrize("shape", [(6,), (2, 3, 1)])
    def test_draws_not_two_dimensional_raise(self, either_kernels, shape):
        with pytest.raises(ValueError):
            either_kernels.chain_text(np.full(shape, 0.5), np.ones(shape[0], bool))
