"""Fresh-interpreter side of the benchmark: import garchmc.cli, run it, report.

    python3 perfbench/child.py RESULT.json [--spans SPANS.npz] [-- garchmc-args...]

The first import is ``garchmc.cli``; the monotonic time taken right after it,
minus the parent's time just before it started this process, is the set-up
time. Without garchmc arguments the child only records that time and the run
environment. With them it calls ``garchmc.cli.main`` once and records wall
time, CPU and peak memory of that call, and runs the calibration loop just
before and after it. With ``--spans`` it traces the call
(see tracer.py), saves the spans, and times the likelihood kernels directly.
"""
import time

import garchmc.cli

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

#: Series lengths of the kernel micro-timing: one trading year and the
#: default synthetic protocol.
KERNEL_SIZES = (250, 2000)
KERNEL_BATCHES = 7
KERNEL_BATCH_S = 0.04
#: Size of the calibration loop (see calibrate); about 0.12 s on a 2-vCPU Xeon.
CAL_NUMPY_CALLS = 2500
CAL_PY_STEPS = 1000000


def environment():
    """Versions, backend, BLAS and machine facts recorded next to results."""
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    cpu_model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "garchmc_backend": getattr(garchmc, "BACKEND", None),
        "garchmc_file": garchmc.__file__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")
                 if k in blas},
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "machine": platform.machine(),
    }


def calibrate():
    """Seconds taken by a fixed mix of numpy calls on 2000-element arrays and
    interpreted float arithmetic.

    That is the kind of work a garchmc run does with the fallback kernel, in
    code no change to garchmc touches. The speed of a shared machine drifts
    by tens of percent over seconds to minutes; run time divided by this
    figure, taken around the run, cancels most of that drift.
    """
    x = np.linspace(0.5, 1.5, 2000)
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(CAL_NUMPY_CALLS):
        acc += float(np.sum(np.log(x * 1.0001) + x / (x + 1.0)))
    for j in range(CAL_PY_STEPS):
        acc += j * 0.5
    return time.perf_counter() - t0


def kernel_modules():
    """The fallback kernel module, plus the one garchmc.backend selects and
    the compiled one whenever they import."""
    import importlib

    found = {"python": importlib.import_module("garchmc._kernels_py")}
    try:
        found["compiled"] = importlib.import_module("garchmc._kernels")
    except ImportError:
        pass
    backend = sys.modules.get("garchmc.backend")
    found["selected"] = getattr(backend, "kernels", None) or found.get("compiled",
                                                                       found["python"])
    return found


def time_kernel(loglik, y):
    """Median ns per recursion step of loglik on series y."""
    y = np.ascontiguousarray(y, dtype=np.float64)
    a, b, w = inputs.THETA
    s1 = float(np.var(y))
    for _ in range(20):
        loglik(y, a, b, w, s1)
    reps, spent = 1, 0.0
    while spent < KERNEL_BATCH_S / 4:
        reps *= 2
        t0 = time.perf_counter()
        for _ in range(reps):
            loglik(y, a, b, w, s1)
        spent = time.perf_counter() - t0
    reps = max(1, int(reps * KERNEL_BATCH_S / spent))
    batches = []
    for _ in range(KERNEL_BATCHES):
        t0 = time.perf_counter()
        for _ in range(reps):
            loglik(y, a, b, w, s1)
        batches.append(time.perf_counter() - t0)
    return 1e9 * float(np.median(batches)) / (reps * y.size)


def kernel_timings(seed, modules):
    out = {}
    timed = {}
    for n in KERNEL_SIZES:
        y = inputs.simulate_returns(seed, n, stream=1)
        for role, module in modules.items():
            key = (id(module), n)
            if key not in timed:
                timed[key] = time_kernel(module.log_likelihood, y)
            out[f"{role}_n{n}"] = timed[key]
    return out


def _rusage():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me, kids


def main(argv):
    result_path, rest = argv[0], argv[1:]
    spans_path = None
    if rest[:1] == ["--spans"]:
        spans_path, rest = rest[1], rest[2:]
    cli_args = rest[1:] if rest[:1] == ["--"] else rest
    result = {"imported": IMPORTED}
    if not cli_args:
        result["env"] = environment()
    else:
        modules = kernel_modules()
        tracer = None
        main_fn = garchmc.cli.main
        if spans_path:
            tracer = Tracer()
            tracer.install(garchmc)
            main_fn = tracer.wrap("cli.main", main_fn)
        cal_s = calibrate()
        me0, kids0 = _rusage()
        t0 = time.perf_counter()
        code = main_fn(cli_args)
        run_s = time.perf_counter() - t0
        me1, kids1 = _rusage()
        cal_s += calibrate()
        kids_cpu = (kids1.ru_utime - kids0.ru_utime) + (kids1.ru_stime - kids0.ru_stime)
        result.update(
            exit_code=code,
            run_s=run_s,
            cal_s=cal_s,
            cpu_s=(me1.ru_utime - me0.ru_utime) + (me1.ru_stime - me0.ru_stime) + kids_cpu,
            children_cpu_s=kids_cpu,
            peak_rss_mb=max(me1.ru_maxrss, kids1.ru_maxrss) / 1024.0,
        )
        if tracer is not None:
            tracer.uninstall()
            tracer.save(spans_path)
            n_returns = _n_returns(cli_args)
            names, name_id, parent, start, end = tracer.arrays()
            result["layers"] = layer_metrics(names, name_id, parent, start, end,
                                             tracer.counters, n_returns)
            result["patched"] = tracer.installed
            result["spans"] = int(start.size)
            result["kernels"] = kernel_timings(_seed(cli_args), modules)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return result.get("exit_code", 0)


def _arg(cli_args, flag):
    return cli_args[cli_args.index(flag) + 1]


def _seed(cli_args):
    return int(_arg(cli_args, "--seed"))


def _n_returns(cli_args):
    with open(os.path.join(_arg(cli_args, "--out"), "manifest.json"), encoding="utf-8") as fh:
        return int(json.load(fh)["n_returns"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
