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

from cpu import cpu_flags
from garchmc import _kernels_py, backend, data

CC = sysconfig.get_config_var("CC")
FOUND = bool(CC) and shutil.which(shlex.split(CC)[0]) is not None
SRC = Path(__file__).resolve().parents[1] / "src"


def edge_values():
    """Doubles at the edges of the compiled kernels' exact integer path: each
    power of ten from 1e-17 to 1e49 with both of its neighbours, so every
    change of decimal exponent, of notation and the ends of the decimal
    exponents that path takes, 1e-16 and 1e48; every odd m/2^18 in [0.1, 1),
    a tie at 17 significant digits in fixed notation, and every odd
    c * 2^(k-17) in [10^k, 10^(k+1)) for k from -8 to -5, one in exponential
    notation; the binary exponents where the path's 128-bit shift runs out,
    2^159 and 2^160; and zeros, subnormals, negatives and non-finite values,
    which it leaves to Python's formatting."""
    tens = np.array([float(f"1e{e}") for e in range(-17, 50)])
    m = np.arange(int(0.1 * 2 ** 18) | 1, 2 ** 18, 2)
    c = np.arange(1, 2 * 10 ** 5, 2)
    ties = [c * 2.0 ** (k - 17) for k in range(-8, -4)]
    ties = [t[(10.0 ** k <= t) & (t < 10.0 ** (k + 1))] for k, t in zip(range(-8, -4), ties)]
    ends = np.array([2.0 ** 159, 2.0 ** 160, 9.999999999999999e16, 1e17, 9.9999e-5])
    special = [5e-324, 1e-300, -0.0, 0.0, 1e300, -1.5, -1e-5, math.inf, -math.inf, math.nan]
    return np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, math.inf),
                           m / 2.0 ** 18, *ties, ends, np.nextafter(ends, 0.0),
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


def test_built_package_ships_and_compiles_the_kernel_source(tmp_path):
    # setuptools' build_py lays the package out as an install would, package
    # data included; it writes garchmc.egg-info beside src/, so it runs on a copy.
    pytest.importorskip("setuptools")
    shutil.copy(SRC.parent / "pyproject.toml", tmp_path)
    shutil.copytree(SRC, tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    lib = tmp_path / "lib"
    build = subprocess.run([sys.executable, "-c", "import setuptools; setuptools.setup()",
                            "build_py", "-d", str(lib)],
                           cwd=tmp_path, env=env, capture_output=True, text=True)
    assert build.returncode == 0, build.stderr
    code = (
        "from pathlib import Path\n"
        "from garchmc import backend\n"
        "print(Path(backend.__file__).parent, backend.SOURCE.exists(), backend.KERNEL)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env=dict(env, PYTHONPATH=str(lib)), capture_output=True, text=True,
                          timeout=backend.COMPILE_TIMEOUT_S)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [str(lib / "garchmc"), "True", "c" if FOUND else "numpy"]
    built = list((lib / "garchmc" / "__pycache__").glob(
        f"_kernels-*{sysconfig.get_config_var('EXT_SUFFIX')}"))
    assert len(built) == (1 if FOUND else 0), built


@pytest.mark.parametrize("cc", [None, "", "false", "garchmc-no-such-compiler"])
def test_failed_compile_falls_back_to_numpy_twin(tmp_path, cc):
    assert backend.build(cc, tmp_path / "cache") == (_kernels_py, "numpy")
    assert not any(tmp_path.rglob("*_kernels*"))


def test_unwritable_cache_falls_back_to_numpy_twin(tmp_path):
    (tmp_path / "file").write_text("")
    assert backend.build(CC, tmp_path / "file" / "cache") == (_kernels_py, "numpy")


def test_build_compiles_once_then_loads(tmp_path, monkeypatch, compiled):
    # Each build registers its module under garchmc._kernels; monkeypatch
    # puts the package's own back afterwards. The build adds -Wall -Werror
    # to its flags, since it keeps no compiler output and a warning would
    # go unseen.
    monkeypatch.delitem(sys.modules, "garchmc._kernels")
    monkeypatch.setattr(backend, "FLAGS", (*backend.FLAGS, "-Wall", "-Werror"))
    run, errors = subprocess.run, []

    def kept_stderr(*args, **kwargs):
        try:
            return run(*args, **kwargs)
        except subprocess.CalledProcessError as exc:
            errors.append(exc.stderr.decode())
            raise

    monkeypatch.setattr(subprocess, "run", kept_stderr)
    module, name = backend.build(CC, tmp_path)
    assert name == "c" and module is not compiled, "".join(errors)
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
    # variances and the SIMD clone this CPU dispatches to, and one raises
    # for a NaN total in its last range, which a spawned thread scores where
    # the process may use two CPUs, across the join. Both accept loops
    # run too: the random walk on the real likelihood, which takes its fused
    # four-lane passes, and on zero steps; on every combination of edge values
    # in its shifts through the real likelihood, with the same outcome as a
    # forwarding wrapper's per-step path, and in a candidate scored NaN; and
    # with likelihood stand-ins that raise or return None, which must leave
    # as those errors.
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
        "y = rng.standard_normal(2000)\n"
        "y[0] = 1.0\n"
        "thetas = np.tile([0.05, 0.9, 0.01], (1003, 1))\n"
        "thetas[-1] = (-5.0, 0.5, 0.01)\n"
        "try:\n"
        "    kernels.log_likelihood_batch(y, thetas, 1.0)\n"
        "except NumericOverflowError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('no NumericOverflowError from the last range')\n"
        "theta, u = np.array([0.05, 0.9, 0.01]), rng.random(600)\n"
        "shifts = rng.uniform(-0.02, 0.02, (600, 3))\n"
        "y = rng.standard_normal(200)\n"
        "log_p = kernels.log_likelihood(y, *theta, 1.0)\n"
        "draws, flags, end, log_p = kernels.rw_chain(y, 1.0, theta, log_p, shifts, u)\n"
        "assert 0 < flags.sum() < 600 and (draws[-1] == end).all()\n"
        "kernels.rw_chain(y, 1.0, theta, 0.0, shifts[:0], u[:0])\n"
        "edges = np.array([0.0, -0.0, 5e-324, np.nan, np.inf, -np.inf])\n"
        "grid = np.array(np.meshgrid(edges, edges, edges)).reshape(3, -1).T\n"
        "loglik = kernels.log_likelihood\n"
        "def outcome(*args):\n"
        "    try:\n"
        "        return [np.asarray(x).tobytes() for x in kernels.rw_chain(*args)]\n"
        "    except NumericOverflowError:\n"
        "        return NumericOverflowError\n"
        "for start in (np.full(3, -0.0), np.array([0.25, 0.25, 0.5])):\n"
        "    for grid_shifts in (grid, grid[grid[:, 2] != np.inf]):\n"
        "        args = (y, 1.0, start, float('-inf'), grid_shifts, u[:len(grid_shifts)])\n"
        "        kernels.log_likelihood = loglik\n"
        "        fused = outcome(*args)\n"
        "        kernels.log_likelihood = lambda *args: loglik(*args)\n"
        "        if outcome(*args) != fused:\n"
        "            raise SystemExit(f'the two rw_chain paths differ from {start}')\n"
        "kernels.log_likelihood = lambda series, a, b, w, s: float('nan')\n"
        "kernels.rw_chain(y, 1.0, np.full(3, -0.0), float('-inf'), grid, u[:216])\n"
        "calls = []\n"
        "def fail(series, a, b, w, s):\n"
        "    calls.append(a)\n"
        "    if len(calls) == 10:\n"
        "        raise NumericOverflowError('raised by the likelihood at call 9')\n"
        "    return 0.0\n"
        "for bad, error in ((fail, NumericOverflowError), (lambda *args: None, TypeError)):\n"
        "    kernels.log_likelihood = bad\n"
        "    try:\n"
        "        kernels.rw_chain(y, 1.0, theta, 0.0, shifts, u)\n"
        "    except error:\n"
        "        pass\n"
        "    else:\n"
        "        raise SystemExit(f'no {error.__name__}')\n"
        "log_p_cands = rng.standard_normal(1000)\n"
        "log_p_cands[::7] = float('-inf')\n"
        "log_p_cands[::11] = float('nan')\n"
        "flags, log_p = kernels.independence_accept(\n"
        "    log_p_cands, rng.standard_normal(1000), rng.random(1000), float('-inf'), 0.0)\n"
        "assert 0 < flags.sum() < 1000 and log_p == log_p_cands[np.flatnonzero(flags)[-1]]\n"
        "kernels.independence_accept(log_p_cands[:0], log_p_cands[:0], u[:0], 0.0, 0.0)\n"
        "draws = np.frombuffer(sys.stdin.buffer.read()).reshape(-1, 3)\n"
        "sys.stdout.write(kernels.chain_text(draws, np.arange(len(draws)) % 2 == 0))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], input=draws.tobytes(),
                          capture_output=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          timeout=backend.COMPILE_TIMEOUT_S)
    assert done.returncode == 0, done.stderr.decode()
    assert_same_text(done.stdout.decode(), per_row_text(draws, accepted))


@pytest.mark.skipif(platform.machine() != "x86_64", reason="the SIMD clones are x86-64 only")
@pytest.mark.parametrize("define, flag", [
    pytest.param('target_clones(...)=target("avx512f")', "avx512f", id="avx512f"),
    pytest.param('target_clones(...)=target("avx2")', "avx2", id="avx2"),
    pytest.param('target_clones(...)=target("arch=x86-64")', None, id="baseline"),
    pytest.param("__builtin_cpu_supports(feature)=0", "avx2", id="four-lane-batch"),
])
def test_every_simd_clone_gives_the_same_bits(tmp_path, compiled, define, flag):
    # A CPU only ever runs the clone it dispatches to. The first three macros
    # rewrite the target_clones attribute of score, the four-lane routine,
    # into a single target, so each build holds that clone alone; its batch
    # kernel and rw_chain's passes still take eight lanes through the AVX2
    # routine score8 on an AVX2 CPU. The last keeps the clones but makes
    # module init find no AVX2, so its batch kernel takes four lanes through
    # score and rw_chain the four-lane pass tree, against the eight lanes and
    # the eight-lane tree that this process's build takes on the same CPU:
    # that build covers both pass trees. 1003 candidates end in a partial
    # group of four and of eight. The random walks take 2000 steps on GARCH
    # returns at widths that accept about 0.74, 0.28 and 0.96 of them; at
    # the last, most eight-lane passes decide four steps.
    if flag is not None and flag not in cpu_flags():
        pytest.skip(f"this CPU has no {flag}")
    path = tmp_path / f"_kernels{sysconfig.get_config_var('EXT_SUFFIX')}"
    cmd = [*shlex.split(CC), *backend.FLAGS, f"-D{define}",
           "-Wall", "-Werror", "-I" + sysconfig.get_paths()["include"], str(backend.SOURCE),
           "-o", str(path), "-lm"]
    done = subprocess.run(cmd, capture_output=True, text=True, stdin=subprocess.DEVNULL,
                          timeout=backend.COMPILE_TIMEOUT_S)
    assert done.returncode == 0, done.stderr
    rng = np.random.default_rng(23)
    thetas = np.column_stack([rng.uniform(0.01, 0.3, 1003), rng.uniform(0.5, 0.69, 1003),
                              rng.uniform(0.2, 1.0, 1003)])
    ys = [rng.standard_normal(n) for n in (1, 17, 250, 2000)]
    start = np.array([0.05, 0.9, 0.01])
    walk_y = data.generate_synthetic(tuple(start), 2000, 11)
    walk_s1 = float(np.var(walk_y))
    scale = np.array([0.1, 0.1, 0.02]) / math.sqrt(len(walk_y))
    walks = [(width * scale * rng.standard_normal((2000, 3)), rng.random(2000))
             for width in (0.5, 3.0, 0.1)]
    accept_bands = [(0.25, 0.85), (0.25, 0.85), (0.9, 1.0)]
    code = (
        "import importlib.util, io, sys\n"
        "import numpy as np\n"
        f"spec = importlib.util.spec_from_file_location('garchmc._kernels', {str(path)!r})\n"
        "kernels = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(kernels)\n"
        "cases = np.load(io.BytesIO(sys.stdin.buffer.read()))\n"
        "thetas, y, s1, start = cases['thetas'], cases['walk_y'], float(cases['walk_s1']), "
        "cases['start']\n"
        "out = {}\n"
        "for i in range(4):\n"
        "    y_i = cases[f'y{i}']\n"
        "    out[f'batch{i}'] = kernels.log_likelihood_batch(y_i, thetas, 1.0)\n"
        "    out[f'scalar{i}'] = [kernels.log_likelihood(y_i, *theta, 1.0) for theta in thetas]\n"
        "for i in range(3):\n"
        "    walk = kernels.rw_chain(y, s1, start, kernels.log_likelihood(y, *start, s1),\n"
        "                            cases[f'shifts{i}'], cases[f'u{i}'])\n"
        "    for name, value in zip(('draws', 'accepted', 'end', 'log_p'), walk):\n"
        "        out[f'{name}{i}'] = value\n"
        "buf = io.BytesIO()\n"
        "np.savez(buf, **out)\n"
        "sys.stdout.buffer.write(buf.getvalue())\n"
    )
    cases = io.BytesIO()
    np.savez(cases, thetas=thetas, walk_y=walk_y, walk_s1=walk_s1, start=start,
             **{f"y{i}": y for i, y in enumerate(ys)},
             **{f"shifts{i}": shifts for i, (shifts, _) in enumerate(walks)},
             **{f"u{i}": u for i, (_, u) in enumerate(walks)})
    done = subprocess.run([sys.executable, "-c", code], input=cases.getvalue(),
                          capture_output=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          timeout=backend.COMPILE_TIMEOUT_S)
    assert done.returncode == 0, done.stderr.decode()
    got = np.load(io.BytesIO(done.stdout))
    for i, y in enumerate(ys):
        want = compiled.log_likelihood_batch(y, thetas, 1.0)
        assert got[f"batch{i}"].tobytes() == want.tobytes()
        assert got[f"scalar{i}"].tobytes() == want.tobytes()
    for i, ((shifts, u), (low, high)) in enumerate(zip(walks, accept_bands)):
        want = compiled.rw_chain(walk_y, walk_s1, start,
                                 compiled.log_likelihood(walk_y, *start, walk_s1), shifts, u)
        assert low < want[1].mean() < high
        for name, value in zip(("draws", "accepted", "end", "log_p"), want):
            assert got[f"{name}{i}"].tobytes() == np.asarray(value).tobytes(), name


class TestChainText:
    """Both modules' chain_text against per-row "%.17g"."""

    def test_both_modules_write_per_row_format_exactly(self, compiled):
        # The spread scaled by 1e-6 and by 1e20 is mostly in exponential
        # notation, as the omega of ``--omega 1e-6`` is.
        rng = np.random.default_rng(5)
        spread = 10.0 ** rng.uniform(-9.0, 19.0, 10 ** 6)
        values = np.concatenate([edge_values(), spread, spread[:2 * 10 ** 5] * 1e-6,
                                 spread[:2 * 10 ** 5] * 1e20])
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
