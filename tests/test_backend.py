"""The build of the compiled kernels and its fallback to the numpy twin."""
import shlex
import shutil
import subprocess
import sys
import sysconfig

import pytest

from garchmc import _kernels_py, backend

CC = sysconfig.get_config_var("CC")
FOUND = bool(CC) and shutil.which(shlex.split(CC)[0]) is not None


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
