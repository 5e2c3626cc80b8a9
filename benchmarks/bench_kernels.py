"""Time the kernels, called directly, of the numpy twin
``garchmc._kernels_py`` and of the compiled ``_kernels.c`` side by side: the
scalar likelihood on y, as ``rw_chain`` calls it, and the batch likelihood
on BATCH_K candidates per call. Every figure is per candidate (one
parameter set): a scalar call scores one.

Then the compiled batch kernel's lanes and threads: it prints the CPUs of
the process's affinity mask, and the time per candidate at n = 2000 of one
scalar call, of ONE_THREAD_K candidates, few enough that the kernel scores
them on the calling thread alone, and of BATCH_K, in wall time and in the
process's CPU time. Where the CPU has AVX2, the script exits unless the
ONE_THREAD_K row's wall time is below LANE_RATIO times the scalar call's:
the scalar call scores its candidate as one group of the CPU's lanes, with
the other lanes repeating it, and the batch kernel fills every lane of a
group with a candidate of its own, so the ratio is near one over the
lanes. A build whose kernels take four lanes gives the same bits and shows
only in that ratio.
Where the mask holds two CPUs or more, the script exits unless the
BATCH_K row's wall time is below THREADS_RATIO times the ONE_THREAD_K
row's: a build that never starts a thread gives the same bits, so only its
speed shows it. The rows are timed again, up to THREAD_ROUNDS rounds in
all, while that ratio misses, and the best round is judged, since a
second thread gets no CPU of its own while the machine's other CPUs are
busy, or where the scheduler starts it on the calling thread's CPU, as it
did before the kernel kept its helpers off that CPU (see THREADS_RATIO).
The CPU column tells such a miss from a build without threads: when
the second thread gets a CPU of its own, the BATCH_K row's CPU time is
near twice its wall time; when the two take turns on one, the two are near
equal.

Then ``rw_chain`` on the real likelihood, in ns per step, BATCH_K steps from
THETA at each n, whose widths accept about 0.6 of them, inside the tuned
band RW_ACCEPT_BAND. The compiled kernels run it twice, once through each
branch of their one step loop: the pass branch, on their own likelihood,
whose passes score speculative candidates side by side and make no Python
call, and "wrapper", with a forwarding wrapper set as their
``log_likelihood``, one Python call per candidate inside the support. The
pass row is labelled by the lanes the CPU takes: "eight-lane" where it has
AVX2, whose passes decide three or four steps, and "four-lane" elsewhere,
whose passes decide two or three. The numpy twin steps as the wrapper row
does. The script exits unless the pass row is below PASS_RATIO times the
wrapper row at every n: a build that never takes the pass branch, or that
scores only two lanes per pass, takes the same steps, so only its speed
shows it. No bound on that ratio tells eight lanes from four on every run
(see PASS_RATIO), so the script does not check which tree a build takes.

Then the chain.csv text, in ns per row: ``chain_text`` of CHAIN_ROWS rows at
acceptance CHAIN_ACCEPT in one call. Then the two accept loops:
``rw_chain``'s wrapper branch, in ns per step, on BATCH_K steps inside the
support with a stand-in ``log_likelihood`` set on its module that returns
0.0, so that the loop and its one Python call per step are timed and no
likelihood; and ``independence_accept``, in ns per draw, on BATCH_K
candidates whose scores are drawn before the clock starts. Where no C
compiler is found, the compiled columns read "-".

One layer follows that calls no kernel: ``diagnostics.summarize``, in ms per
call, the report of a chain of SUMMARIZE_DRAWS draws whose three columns are
AR(1) series, then of one whose columns also carry a slow sine wave, so that
their lag bound is N/10 as on real chains. The script checks that those
bounds reach N/10 and that every jackknife replicate finds a plateau, and
exits unless the long-range row at the longest chain is below
LONG_RANGE_RATIO times the AR(1) row: the jackknife's lag sums stop near
each replicate's window, whatever its lag bound, so only its speed shows a
jackknife that takes them out to the bound. The two rows at the longest
chain are timed again, up to SUMMARIZE_ROUNDS rounds in all, while that
ratio misses, and the best round is judged, as for THREADS_RATIO.

Usage: PYTHONPATH=src python benchmarks/bench_kernels.py [--n 250 2000]

End-to-end run timing is the job of ``perfbench/run.py``.
"""
import argparse
import gc
import math
import os
import time
import timeit

import numpy as np

from garchmc import _kernels_py, backend, data, diagnostics

THETA = (0.05, 0.90, 0.01)
#: Where the random walk on the stand-in likelihood starts: its steps of
#: 1e-3 stay inside the support from there, so each one calls the likelihood.
RW_THETA = (0.3, 0.3, 0.4)
#: Step widths of the random walk on the real likelihood, times 1/sqrt(n),
#: and the band its acceptance must lie in.
RW_WIDTHS = (0.1, 0.1, 0.02)
RW_ACCEPT_BAND = (0.5, 0.85)
#: The compiled pass branch must take less than this share of the wrapper
#: branch's time per step. With four lanes per pass it read 0.33-0.35 and
#: 0.41-0.43 at n = 250 and 2000, and a build scoring two lanes per pass
#: 0.50-0.55 and 0.61-0.66. With eight it read 0.24-0.34 and 0.25-0.39 in
#: five runs, against 0.33-0.39 and 0.38-0.41 for a four-lane build of the
#: same source alternated with them, so no bound separates those two on
#: every run (2-vCPU Xeon).
PASS_RATIO = 0.55
BATCHES = 5
#: Candidates per batch call: the default refit interval.
BATCH_K = 1000
#: A batch that the compiled kernel scores on one thread at n = 2000: its
#: 64 * 2000 candidate-steps are fewer than two threads' worth of
#: ``_kernels.c``'s MIN_THREAD_STEPS, so BATCH_K's time per candidate
#: against it shows what the threads alone save.
ONE_THREAD_K = 64
#: Where the process may use two CPUs or more, BATCH_K candidates at n = 2000
#: must take less than this share of ONE_THREAD_K's time per candidate
#: (0.54-0.64 measured on 2 CPUs, and once 0.82 in a first round while the
#: other CPU was busy; 1.05-1.15 with the threads taken out). A first round
#: also missed where the scheduler started the kernel's helper thread on the
#: calling thread's CPU and the two took turns there: before the helpers
#: were kept off that CPU, first rounds read 0.56, 0.54, 0.82 and 0.57 in
#: four runs, the miss at 1.3 times as much CPU as wall time, and after it
#: 0.64, 0.54, 0.53 and 0.56 (2-vCPU Xeon).
THREADS_RATIO = 0.8
#: Rounds of the threads rows at most, while THREADS_RATIO misses.
THREAD_ROUNDS = 3
#: Where the CPU has AVX2, ONE_THREAD_K candidates at n = 2000 must take
#: less than this share of a scalar call's time per candidate: 0.124-0.126
#: in three runs with eight lanes, the scalar call scoring one group of
#: eight, and 0.215-0.257 in three runs of a build whose CPU check finds no
#: AVX2, so that both take four (2-vCPU Xeon).
LANE_RATIO = 0.18
#: Rows and acceptance of the chain whose chain.csv text is timed.
CHAIN_ROWS = 20000
CHAIN_ACCEPT = 0.4
#: Chain lengths whose summarize is timed, and the AR(1) coefficient of their
#: columns: 2tau_int = (1 + phi) / (1 - phi) = 4, and the ACF first falls
#: below 0.01 near lag 10, so the lag bound is about 100. Real chains' bounds
#: reach N/10 (870-4630 at 60000 draws on 251 CSV prices). Either way the
#: cost is the whole series' FFT to its lag bound plus jackknife lag sums to
#: about twice the window T*, tens of lags on both.
SUMMARIZE_DRAWS = (30000, 60000)
SUMMARIZE_PHI = 0.6
#: At the longest chain, summarize on the long-range draws must take less
#: than this multiple of its time on the AR(1) draws: it read 0.48-1.13 in
#: nine runs with jackknife lag sums that stop near the window, and
#: 1.77-2.73 in eight with lag sums to the lag bound (2-vCPU Xeon).
LONG_RANGE_RATIO = 1.5
#: Rounds of the longest chain's summarize rows at most, while
#: LONG_RANGE_RATIO misses: single rounds at one tree read 1.67 and 1.80 in
#: two of four runs, each row alone moving between 9 and 26 ms from process
#: to process (2-vCPU Xeon).
SUMMARIZE_ROUNDS = 3
#: The long-range columns add to those a sine wave of one period over the
#: chain that carries SLOW_SHARE of the variance: 2tau_int stays near 8, but
#: the ACF stays near 0.08 or above out to lag N/10, so the lag bound is N/10.
#: A slow random part would do the same only on most seeds: its sample ACF
#: is too noisy to keep above 0.01 out to lag N/100 every time.
SLOW_SHARE = 0.1


def time_call(fn, args, clock=time.perf_counter):
    """Seconds per call of fn(*args) on clock, wall time by default: the
    minimum over BATCHES batches of at least 0.2 s each, the least disturbed
    by other load. The garbage collector stays on, as in a run."""
    timer = timeit.Timer(lambda: fn(*args), setup=gc.enable, timer=clock)
    reps, _ = timer.autorange()
    return min(timer.repeat(BATCHES, reps)) / reps


def rows(kernels, y, sigma1_sq):
    """(name, seconds per candidate) of each timed call of kernels."""
    thetas = np.tile(THETA, (BATCH_K, 1))
    return [
        ("log_likelihood", time_call(kernels.log_likelihood, (y, *THETA, sigma1_sq))),
        ("log_likelihood_batch",
         time_call(kernels.log_likelihood_batch, (y, thetas, sigma1_sq)) / BATCH_K),
    ]


def threads_rows(kernels):
    """(candidates, wall seconds, process CPU seconds per candidate) of a
    scalar ``kernels.log_likelihood`` call, as 1 candidate, and of
    ``kernels.log_likelihood_batch`` on ONE_THREAD_K and on BATCH_K
    candidates at n = 2000."""
    y = np.ascontiguousarray(data.generate_synthetic(THETA, 2000, 1))
    thetas = np.tile(THETA, (BATCH_K, 1))
    sigma1_sq = float(np.var(y))
    clocks = (time.perf_counter, time.process_time)
    return [(1, *(time_call(kernels.log_likelihood, (y, *THETA, sigma1_sq), clock)
                  for clock in clocks))] + [
        (k, *(time_call(kernels.log_likelihood_batch, (y, thetas[:k], sigma1_sq), clock) / k
              for clock in clocks))
        for k in (ONE_THREAD_K, BATCH_K)]


def has_avx2():
    """Whether /proc/cpuinfo lists AVX2 among the CPU's flags."""
    try:
        with open("/proc/cpuinfo") as info:
            return any(line.startswith("flags") and "avx2" in line.split() for line in info)
    except OSError:
        return False


def random_walk_row(kernels, y, sigma1_sq):
    """(acceptance, seconds per step in the pass branch or None where kernels
    has none, seconds per step in the wrapper branch, or the twin's)
    of ``kernels.rw_chain`` on BATCH_K steps from THETA on the likelihood of
    y. Exits unless the acceptance lies in RW_ACCEPT_BAND."""
    rng = np.random.default_rng(1)
    shifts = np.array(RW_WIDTHS) / math.sqrt(len(y)) * rng.standard_normal((BATCH_K, 3))
    log_p = kernels.log_likelihood(y, *THETA, sigma1_sq)
    args = (y, sigma1_sq, np.array(THETA), log_p, shifts, rng.random(BATCH_K))
    accept = kernels.rw_chain(*args)[1].mean()
    if not RW_ACCEPT_BAND[0] <= accept <= RW_ACCEPT_BAND[1]:
        raise SystemExit(f"the random walk at n={len(y)} accepts {accept:.3f} of its steps, "
                         f"outside {RW_ACCEPT_BAND}")
    if kernels is _kernels_py:
        return accept, None, time_call(kernels.rw_chain, args) / BATCH_K
    passes = time_call(kernels.rw_chain, args) / BATCH_K
    loglik = kernels.log_likelihood
    kernels.log_likelihood = lambda *a: loglik(*a)
    try:
        wrapper = time_call(kernels.rw_chain, args) / BATCH_K
    finally:
        kernels.log_likelihood = loglik
    return accept, passes, wrapper


def ar1_draws(rng, k):
    """(k, 3) draws whose columns are AR(1) series with coefficient
    SUMMARIZE_PHI."""
    eps = rng.standard_normal((k, 3))
    draws = np.empty((k, 3))
    draws[0] = eps[0]
    for i in range(1, k):
        draws[i] = SUMMARIZE_PHI * draws[i - 1] + eps[i]
    return draws


def long_range_draws(rng, k):
    """AR(1) draws plus a sine wave of one period over the chain, at a random
    phase per column, carrying SLOW_SHARE of the variance. Exits unless
    every column's lag bound is N/10 and every jackknife replicate finds a
    plateau."""
    amplitude = math.sqrt(2.0 * SLOW_SHARE / (1.0 - SLOW_SHARE) / (1.0 - SUMMARIZE_PHI ** 2))
    phase = rng.uniform(0.0, 2.0 * math.pi, 3)
    wave = amplitude * np.sin(2.0 * math.pi * np.arange(k)[:, None] / k + phase)
    draws = ar1_draws(rng, k) + wave
    bounds = [diagnostics.bounded_acf(x).size - 1 for x in draws.T]
    report = diagnostics.summarize(draws, np.ones(k, bool))
    if bounds != [k // 10] * 3 or not all(
            math.isfinite(p["two_tau_int_err_jk"]) for p in report["params"].values()):
        raise SystemExit(f"long-range draws miss their regime: lag bounds {bounds}, "
                         f"report {report['params']}")
    return draws


def chain_draws(rng):
    """(draws, accepted) of CHAIN_ROWS rows at acceptance CHAIN_ACCEPT."""
    accepted = rng.random(CHAIN_ROWS) < CHAIN_ACCEPT
    accepted[0] = True
    fresh = np.tile(THETA, (CHAIN_ROWS, 1)) + 1e-3 * rng.standard_normal((CHAIN_ROWS, 3))
    # A rejected step repeats the row before it.
    return fresh[np.maximum.accumulate(np.where(accepted, np.arange(CHAIN_ROWS), 0))], accepted


def accept_loop_rows(kernels):
    """(name, seconds per step) of each accept loop of kernels, on BATCH_K
    steps."""
    rng = np.random.default_rng(1)
    shifts = 1e-3 * rng.standard_normal((BATCH_K, 3))
    log_g_cands = rng.standard_normal(BATCH_K)
    # Scores near the proposal's accept about 70% of the steps, as the
    # fitted proposal does on the default protocol.
    log_p_cands = log_g_cands + 0.5 * rng.standard_normal(BATCH_K)
    u = rng.random(BATCH_K)
    y = np.zeros(1)
    loglik = kernels.log_likelihood
    kernels.log_likelihood = lambda series, a, b, w, sigma1_sq: 0.0
    try:
        rw = time_call(kernels.rw_chain, (y, 1.0, np.array(RW_THETA), 0.0, shifts, u))
    finally:
        kernels.log_likelihood = loglik
    independence = time_call(kernels.independence_accept,
                             (log_p_cands, log_g_cands, u, 0.0, 0.0))
    return [("rw_chain wrapper (0.0)", rw / BATCH_K),
            ("independence_accept", independence / BATCH_K)]


def summarize_rows(lengths=SUMMARIZE_DRAWS):
    """(name, ms per call) of summarize on each kind of chain at each of
    lengths, the AR(1) rows first."""
    rng = np.random.default_rng(1)
    return [(f"summarize, {k} {kind} draws",
             time_call(diagnostics.summarize, (make(rng, k), np.ones(k, bool))) * 1e3)
            for kind, make in (("AR(1)", ar1_draws), ("long-range", long_range_draws))
            for k in lengths]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=int, nargs="+", default=[250, 2000],
                        help="return series lengths")
    args = parser.parse_args()

    print(f"{'kernel':>26} {'n':>6} {'numpy us/cand':>14} {'c us/cand':>10} "
          f"{'numpy ns/step':>14} {'c ns/step':>10}")
    for n in args.n:
        y = np.ascontiguousarray(data.generate_synthetic(THETA, n, 1))
        sigma1_sq = float(np.var(y))
        py_rows = rows(_kernels_py, y, sigma1_sq)
        c_times = ([t for _, t in rows(backend.kernels, y, sigma1_sq)]
                   if backend.KERNEL == "c" else [None] * len(py_rows))
        for (name, t_py), t_c in zip(py_rows, c_times):
            us_c, ns_c = (f"{t_c * 1e6:.2f}", f"{t_c * 1e9 / n:.1f}") if t_c else ("-", "-")
            print(f"{name:>26} {n:>6} {t_py * 1e6:14.2f} {us_c:>10} "
                  f"{t_py * 1e9 / n:14.1f} {ns_c:>10}")
    print()
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    print(f"batch threads: {cpus} CPUs in the affinity mask")
    if backend.KERNEL == "c":
        print(f"{'log_likelihood(_batch)':>26} {'n':>6} {'cands':>6} {'c us/cand':>10} "
              f"{'cpu us/cand':>12}")
        rounds = []
        for _ in range(THREAD_ROUNDS):
            times = threads_rows(backend.kernels)
            (_, t_scalar, _), (_, t_one, _), (_, t_batch, _) = times
            rounds.append((t_batch / t_one, t_one / t_scalar, times))
            for k, t, cpu in times:
                print(f"{'':>26} {2000:>6} {k:>6} {t * 1e6:10.2f} {cpu * 1e6:12.2f}")
            print(f"{'ratio':>26} {f'lanes {t_one / t_scalar:.3f}':>24} "
                  f"{f'threads {t_batch / t_one:.2f}':>14}")
            if cpus < 2 or t_batch < THREADS_RATIO * t_one:
                break
        threads, _, times = min(rounds)
        (_, t_one, cpu_one), (_, t_batch, cpu_batch) = times[1:]
        if cpus >= 2 and not threads < THREADS_RATIO:
            raise SystemExit(f"{BATCH_K} candidates at n=2000 take {t_batch * 1e6:.2f} us each "
                             f"({cpu_batch * 1e6:.2f} us of process CPU), not below "
                             f"{THREADS_RATIO} of {ONE_THREAD_K} candidates' "
                             f"{t_one * 1e6:.2f} ({cpu_one * 1e6:.2f} us of CPU) on {cpus} CPUs, "
                             f"in the best of {len(rounds)} rounds")
        lanes = min(lane for _, lane, _ in rounds)
        if has_avx2() and not lanes < LANE_RATIO:
            raise SystemExit(f"{ONE_THREAD_K} candidates at n=2000 take {lanes:.3f} of a scalar "
                             f"call's time each, not below {LANE_RATIO}, on an AVX2 CPU")
    print()
    print(f"{'random walk, likelihood':>26} {'n':>6} {'accept':>7} {'numpy ns/step':>14} "
          f"{'c ns/step':>10}")
    pass_row = f"rw_chain, {'eight' if has_avx2() else 'four'}-lane"
    for n in args.n:
        y = np.ascontiguousarray(data.generate_synthetic(THETA, n, 1))
        sigma1_sq = float(np.var(y))
        accept, _, t_py = random_walk_row(_kernels_py, y, sigma1_sq)
        _, *t_c = (random_walk_row(backend.kernels, y, sigma1_sq)
                   if backend.KERNEL == "c" else (None, None, None))
        for name, t_np, t in zip((pass_row, "rw_chain, wrapper"), (None, t_py), t_c):
            ns_np = f"{t_np * 1e9:.0f}" if t_np else "-"
            ns_c = f"{t * 1e9:.0f}" if t else "-"
            print(f"{name:>26} {n:>6} {accept:>7.3f} {ns_np:>14} {ns_c:>10}")
        if t_c[0] is not None and not t_c[0] < PASS_RATIO * t_c[1]:
            raise SystemExit(f"the {pass_row} at n={n} takes {t_c[0] * 1e9:.0f} ns per "
                             f"step, not below {PASS_RATIO} of the wrapper's "
                             f"{t_c[1] * 1e9:.0f}")
    print()
    draws, accepted = chain_draws(np.random.default_rng(1))
    ns_py = time_call(_kernels_py.chain_text, (draws, accepted)) / CHAIN_ROWS * 1e9
    ns_c = (f"{time_call(backend.kernels.chain_text, (draws, accepted)) / CHAIN_ROWS * 1e9:.1f}"
            if backend.KERNEL == "c" else "-")
    print(f"{'chain_text':>26} {'rows':>6} {'numpy ns/row':>14} {'c ns/row':>10}")
    print(f"{f'acceptance {CHAIN_ACCEPT}':>26} {CHAIN_ROWS:>6} {ns_py:14.1f} {ns_c:>10}")
    print()
    print(f"{'accept loop':>26} {'steps':>6} {'numpy ns/step':>14} {'c ns/step':>10}")
    c_times = ([t for _, t in accept_loop_rows(backend.kernels)]
               if backend.KERNEL == "c" else [None] * 2)
    for (name, t_py), t_c in zip(accept_loop_rows(_kernels_py), c_times):
        ns_c = f"{t_c * 1e9:.1f}" if t_c else "-"
        print(f"{name:>26} {BATCH_K:>6} {t_py * 1e9:14.1f} {ns_c:>10}")
    print()
    print(f"{'layer':>42} {'time':>8}")
    rounds = []
    for lengths in [SUMMARIZE_DRAWS] + [SUMMARIZE_DRAWS[-1:]] * (SUMMARIZE_ROUNDS - 1):
        times = summarize_rows(lengths)
        for name, t in times:
            print(f"{name:>42} {t:8.1f} ms/call")
        (_, t_ar1), (_, t_long) = times[len(lengths) - 1], times[-1]
        rounds.append((t_long / t_ar1, t_long, t_ar1))
        if t_long < LONG_RANGE_RATIO * t_ar1:
            break
    ratio, t_long, t_ar1 = min(rounds)
    if not ratio < LONG_RANGE_RATIO:
        raise SystemExit(f"summarize of {SUMMARIZE_DRAWS[-1]} long-range draws takes "
                         f"{t_long:.1f} ms, not below {LONG_RANGE_RATIO} of the AR(1) "
                         f"draws' {t_ar1:.1f}, in the best of {len(rounds)} rounds")


if __name__ == "__main__":
    main()
