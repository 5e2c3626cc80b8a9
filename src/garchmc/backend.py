"""The one place that picks the kernels, the likelihood, the two
Metropolis-Hastings accept loops and the chain.csv text: ``_kernels.c``,
compiled on first import, or its numpy twin ``_kernels_py``.

``build`` compiles ``_kernels.c`` with the C compiler and include directory
Python was built with, into ``__pycache__/_kernels-<hash><EXT_SUFFIX>`` beside
this file, and loads it. The command holds -pthread, since the batch kernel
scores its candidates on threads that it creates and joins within each call.
The hash covers the source, the compile command and the suffix, so a file
already there is loaded without a compile, and a changed source, command or
interpreter gets a file of its own. The compiler writes a per-process
temporary name that is then moved into place, so concurrent first imports
are safe. Any failure falls back to ``_kernels_py``: no compiler, a compile
error, a directory that cannot be written or a file that does not load. The
twin is imported only then, so a run on the compiled kernels never loads it.
``KERNEL`` names the kernels in use, "c" or "numpy", and each run's
``manifest.json`` records it.

``kernels`` is the one switch: ``model``, ``samplers`` and ``cli`` read every
kernel through it, so setting it swaps a run's likelihood, accept loops and
chain.csv text together. One compiled likelihood body scores every candidate,
several side by side, and differs from the twin in rounding only: it takes one
log per candidate and one divide per two steps. It takes eight lanes in
four-double vectors where the CPU has AVX2, which the module checks once when
it loads, and four in two-double vectors elsewhere, for the batch kernel,
``rw_chain`` and the scalar kernel alike: the scalar kernel scores its one
candidate as a batch of one. A kernel module's ``rw_chain`` looks its own
``log_likelihood`` attribute up once per call, and ``model`` reads
``backend.kernels.log_likelihood`` at each call. The compiled ``rw_chain``
walks its steps in one loop with two branches. While that attribute is the
compiled module's own function, each pass scores a tree of speculative
candidates at once and makes no Python call: with eight lanes it decides
three steps, or four when three accept, and with four lanes two or three.
``perfbench/tracer.py`` sets a wrapper there first; the loop then calls
it once per candidate inside the support, as the twin always does, so the
tracer counts every scalar call, and its per-layer numbers describe that
wrapper branch. Both branches take the same steps.
"""
import hashlib
import importlib.util
import os
import shlex
import sys
import sysconfig
from pathlib import Path

SOURCE = Path(__file__).with_name("_kernels.c")
#: -ffp-contract=off keeps the recursion's multiply and add from being fused
#: into an FMA, which would round differently from ``_kernels_py``, and so
#: keeps the likelihood body's eight-lane AVX2 instance equal to its four-lane
#: baseline one. No -march: the cache file is keyed by source and command, not
#: by CPU, and the module picks its instance by the CPU when it loads.
FLAGS = ("-O3", "-ffp-contract=off", "-pthread", "-shared", "-fPIC")
COMPILE_TIMEOUT_S = 120


def build(cc, cache_dir):
    """(module, name) of the kernels: ``_kernels.c`` compiled by the compiler
    command ``cc`` into ``cache_dir`` unless already there, and "c"; or
    ``_kernels_py`` and "numpy" when any step fails."""
    if cc:
        suffix = sysconfig.get_config_var("EXT_SUFFIX")
        cmd = [*shlex.split(cc), *FLAGS, "-I" + sysconfig.get_paths()["include"], str(SOURCE)]
        try:
            key = hashlib.sha256(SOURCE.read_bytes() + "\0".join([*cmd, suffix]).encode())
            path = Path(cache_dir) / f"_kernels-{key.hexdigest()[:16]}{suffix}"
            if not path.exists():
                _compile(cmd, path)
            spec = importlib.util.spec_from_file_location("garchmc._kernels", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except (OSError, ImportError):
            pass
        else:
            sys.modules[spec.name] = module
            return module, "c"
    from . import _kernels_py

    return _kernels_py, "numpy"


def _compile(cmd, path):
    """Run the compile command ``cmd`` to write ``path`` by way of a
    per-process name; raises OSError when it cannot."""
    import subprocess

    path.parent.mkdir(exist_ok=True)
    part = path.with_name(f"{path.name}.{os.getpid()}.part")
    try:
        subprocess.run([*cmd, "-o", str(part), "-lm"], check=True, capture_output=True,
                       stdin=subprocess.DEVNULL, timeout=COMPILE_TIMEOUT_S)
        os.replace(part, path)
    except subprocess.SubprocessError as exc:
        raise OSError(f"cannot compile {SOURCE}: {exc}") from exc
    finally:
        part.unlink(missing_ok=True)


kernels, KERNEL = build(sysconfig.get_config_var("CC"), Path(__file__).with_name("__pycache__"))
