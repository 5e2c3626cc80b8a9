/* The GARCH(1,1) likelihood kernels, the two Metropolis-Hastings accept
   loops and the chain.csv text in C, with the signatures of ``_kernels_py``:
   positional arguments only, the returns y first.

   ``garchmc.backend`` compiles this file on first import with
   -ffp-contract=off, so each step of the volatility recursion,
   s_t = (y_{t-1}^2*alpha + omega) + beta*s_{t-1} from s_0 = sigma1_sq,
   rounds as it does in ``_kernels_py``. The file uses the CPython C API and
   the buffer protocol only: arrays come in through numpy.ascontiguousarray,
   as ``_kernels_py`` takes them through np.asarray, and go out through
   numpy.empty.

   log L = -0.5 * sum_t [log(2 pi) + log(s_t) + y_t^2/s_t]. The log(s_t)
   are taken as one log per candidate: the product of its s_t is carried,
   CHUNK steps at a time, as a significand in [1, 2) and a power of two. A
   chunk with an s_t below SAFE_MIN, whose product could pass through the
   subnormals, and one whose product is not finite are redone with one log
   per step. A non-finite total raises
   garchmc.exceptions.NumericOverflowError.

   The batch kernel and rw_chain's lanes are built once per x86-64 SIMD
   level (AVX-512, AVX2 and the baseline) by target_clones, and the loader
   picks the one the CPU supports; the scalar kernel is built at the
   baseline only. Since -ffp-contract=off, every build rounds each
   operation alike, so all give the same bits.

   The batch kernel splits its k candidates into contiguous ranges, one per
   thread: as many threads as the process's affinity mask holds CPUs, at
   most MAX_THREADS, and no more than give each thread MIN_THREAD_STEPS
   candidate-steps (k * n), so a small batch stays on the calling thread.
   The calling thread scores the first range and the others run on plain
   pthreads that are created and joined inside the call, so no thread
   outlives it and a fork never copies one. Each thread scores its range
   BLOCK_K candidates at a time. Each candidate's operations do not depend
   on its neighbours, so every split gives the same bits.

   chain_text writes "%.17g" of each parameter: a positive normal double
   between about 1e-16 and 1e48, in fixed or exponential notation, by exact
   128-bit integer arithmetic (put_exact), and every other value, or every
   value where the compiler has no __int128, by PyOS_double_to_string, the
   routine behind Python's "%.17g".

   rw_chain and independence_accept are the loops of ``_kernels_py`` with
   the same IEEE operations in the same order and the exp of Python's
   math.exp, so they take the same steps on the same random numbers.
   rw_chain walks its steps in one loop that tests each candidate for the
   support and scores it in one of two branches. While this module's
   log_likelihood attribute is its own function, a candidate inside the
   support opens a pass that scores four lanes of score at once: the
   candidate, the next step's after this step accepts and after it
   rejects, and the one after that after both accept. So a pass decides
   two steps, or three when both accept, and makes no Python call. While a
   wrapper is set there, as ``perfbench/tracer.py`` sets one on
   ``backend.kernels.log_likelihood``, each step calls it once on its own
   candidate, so the wrapper sees every call. Both branches give the same
   bits. independence_accept returns only its accept flags and the end
   log-density; which row holds the state after each step is worked out by
   ``garchmc.samplers``. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <float.h>
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define CHUNK 16
/* With every s_t at least 2^-62, each partial product of at most CHUNK of
   them, times a significand in [1, 2), is at least 2^-992, so normal; an
   s_t above it can only overflow the product to inf, which stays inf and
   fails the finiteness check. */
#define SAFE_MIN 0x1p-62
#define LOG_2PI 1.8378770664093454836
#define LN2 0.69314718055994530942
/* The significand field of a double, and the bits of 1.0. */
#define SIGNIFICAND_BITS 0x000fffffffffffffULL
#define ONE_BITS 0x3ff0000000000000ULL

/* One step of the volatility recursion from s = s_{t-1} and lag = y_{t-1}^2. */
static inline double
recur(double lag, double a, double b, double w, double s)
{
    return (lag * a + w) + b * s;
}

static PyObject *overflow_error; /* garchmc.exceptions.NumericOverflowError */
static PyObject *ascontiguousarray;
static PyObject *empty;

/* A C-contiguous float64 view of obj with ndim dimensions: obj's own
   buffer when it is one, otherwise that of numpy.ascontiguousarray(obj,
   float). Returns 0, or -1 with an exception set. */
static int
get_doubles(PyObject *obj, int ndim, Py_buffer *view)
{
    const int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT;
    if (PyObject_GetBuffer(obj, view, flags) == 0) {
        if (view->ndim == ndim && view->itemsize == 8 && strcmp(view->format, "d") == 0)
            return 0;
        PyBuffer_Release(view);
    }
    PyErr_Clear();
    PyObject *arr = PyObject_CallFunctionObjArgs(ascontiguousarray, obj,
                                                 (PyObject *)&PyFloat_Type, NULL);
    if (arr == NULL)
        return -1;
    int rc = PyObject_GetBuffer(arr, view, flags);
    Py_DECREF(arr);
    if (rc == 0 && view->ndim != ndim) {
        PyErr_Format(PyExc_ValueError, "expected %d dimension(s), got %d", ndim, view->ndim);
        PyBuffer_Release(view);
        rc = -1;
    }
    return rc;
}

/* A new numpy.empty array of dtype and shape (n,), or (n, p) when ndim is
   2, with a writable view of it in view; NULL with an exception set. */
static PyObject *
new_array(PyObject *dtype, int ndim, Py_ssize_t n, Py_ssize_t p, Py_buffer *view)
{
    PyObject *arr = ndim == 2 ? PyObject_CallFunction(empty, "(nn)O", n, p, dtype)
                              : PyObject_CallFunction(empty, "nO", n, dtype);
    if (arr != NULL && PyObject_GetBuffer(arr, view, PyBUF_C_CONTIGUOUS | PyBUF_WRITABLE) < 0)
        Py_CLEAR(arr);
    return arr;
}

/* The log-likelihoods of the k rows (alpha, beta, omega) of theta on the n
   returns y, into total. Time-outer and candidate-inner; touches no Python
   object, so it may run without the GIL. Returns -1 when out of memory.

   A candidate's product of s_t so far is mant * 2^twos, mant in [1, 2). A
   chunk's product starts from mant; when it passes the check, its exponent
   moves into twos and its significand becomes mant, exactly and without a
   branch. A chunk that fails adds its own step-by-step logs into total. */
static inline __attribute__((always_inline)) int
score(const double *y, Py_ssize_t n, const double *theta, Py_ssize_t k,
      double sigma1_sq, double *total)
{
    double *buf = malloc(10 * (size_t)(k ? k : 1) * sizeof(double));
    if (buf == NULL)
        return -1;
    double *restrict a = buf, *restrict b = a + k, *restrict w = b + k;
    double *restrict s = w + k, *restrict start = s + k, *restrict prod = start + k;
    double *restrict low = prod + k, *restrict quad = low + k, *restrict mant = quad + k;
    int64_t *restrict twos = (int64_t *)(mant + k);
    for (Py_ssize_t j = 0; j < k; j++) {
        a[j] = theta[3 * j];
        b[j] = theta[3 * j + 1];
        w[j] = theta[3 * j + 2];
        total[j] = quad[j] = s[j] = 0.0;
        mant[j] = 1.0;
        twos[j] = 0;
    }
    for (Py_ssize_t t0 = 0; t0 < n; t0 += CHUNK) {
        const Py_ssize_t t1 = t0 + CHUNK < n ? t0 + CHUNK : n;
        memcpy(start, s, k * sizeof(double));
        for (Py_ssize_t j = 0; j < k; j++) {
            prod[j] = mant[j];
            low[j] = INFINITY;
        }
        for (Py_ssize_t t = t0; t < t1; t++) {
            const double y2 = y[t] * y[t];
            if (t == 0) {
                for (Py_ssize_t j = 0; j < k; j++)
                    s[j] = sigma1_sq;
            }
            else {
                const double lag = y[t - 1] * y[t - 1];
                for (Py_ssize_t j = 0; j < k; j++)
                    s[j] = recur(lag, a[j], b[j], w[j], s[j]);
            }
            for (Py_ssize_t j = 0; j < k; j++) {
                quad[j] += y2 / s[j];
                prod[j] *= s[j];
                low[j] = s[j] < low[j] ? s[j] : low[j];
            }
        }
        int failed = 0;
        for (Py_ssize_t j = 0; j < k; j++) {
            const int ok = (low[j] >= SAFE_MIN) & (prod[j] <= DBL_MAX);
            uint64_t bits;
            double m;
            memcpy(&bits, &prod[j], sizeof bits);
            const int64_t e = (int64_t)(bits >> 52) - 1023;
            bits = (bits & SIGNIFICAND_BITS) | ONE_BITS;
            memcpy(&m, &bits, sizeof m);
            twos[j] += ok ? e : 0;
            mant[j] = ok ? m : mant[j];
            failed |= !ok;
        }
        if (!failed)
            continue;
        for (Py_ssize_t j = 0; j < k; j++) {
            if ((low[j] >= SAFE_MIN) & (prod[j] <= DBL_MAX))
                continue;
            double st = start[j], logs = 0.0;
            for (Py_ssize_t t = t0; t < t1; t++) {
                st = t ? recur(y[t - 1] * y[t - 1], a[j], b[j], w[j], st) : sigma1_sq;
                logs += log(st);
            }
            total[j] += logs;
        }
    }
    for (Py_ssize_t j = 0; j < k; j++) {
        const double logs = (log(mant[j]) + (double)twos[j] * LN2) + total[j];
        total[j] = -0.5 * ((logs + quad[j]) + (double)n * LOG_2PI);
    }
    free(buf);
    return 0;
}

/* The batch entry point's score, built once per x86-64 SIMD level; the
   loader's ifunc resolver binds the clone that the CPU runs. score itself
   is not cloned, so that it stays inlined into the scalar entry point. */
#if defined(__x86_64__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define SIMD_CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif
#ifndef SIMD_CLONES
#define SIMD_CLONES
#endif

SIMD_CLONES static int
score_batch(const double *y, Py_ssize_t n, const double *theta, Py_ssize_t k,
            double sigma1_sq, double *total)
{
    return score(y, n, theta, k, sigma1_sq, total);
}

/* Two doubles, and their bits: score_lanes keeps each per-lane quantity in
   two of these. In one vector of four, the baseline x86-64 build, which
   has no register for one, ran every operation through the stack. */
typedef double pair __attribute__((vector_size(2 * sizeof(double))));
typedef uint64_t pair_bits __attribute__((vector_size(2 * sizeof(uint64_t))));
#define LANE(v, l) ((v)[(l) / 2][(l) % 2])

/* score of the four rows of theta, each inside the support, into total:
   every lane takes score's operations for its row in score's order, so
   each total has the bits that score gives its row.

   score's check of a chunk needs its least s_t, which this loop does not
   keep: with alpha, beta and omega positive, a rounded step from s_{t-1}
   >= 0 gives s_t >= omega, so a lane whose omega and sigma1_sq are at least
   SAFE_MIN has no s_t below it (a NaN one makes the product NaN, which
   fails the check as in score). Only a lane with a smaller omega or
   sigma1_sq has its chunk's s_t redone to find the least. */
SIMD_CLONES static void
score_lanes(const double *y, Py_ssize_t n, const double (*theta)[3], double sigma1_sq,
            double *total)
{
    pair a[2], b[2], w[2], s[2] = {{0}}, quad[2] = {{0}}, mant[2] = {{1.0, 1.0}, {1.0, 1.0}};
    const pair first = {sigma1_sq, sigma1_sq};
    pair_bits twos[2] = {{0}}, bounded[2];
    double logs[4] = {0.0};
    for (int l = 0; l < 4; l++) {
        LANE(a, l) = theta[l][0];
        LANE(b, l) = theta[l][1];
        LANE(w, l) = theta[l][2];
    }
    for (int h = 0; h < 2; h++)
        bounded[h] = (pair_bits)(w[h] >= SAFE_MIN) & (pair_bits)(first >= SAFE_MIN);
    for (Py_ssize_t t0 = 0; t0 < n; t0 += CHUNK) {
        const Py_ssize_t t1 = t0 + CHUNK < n ? t0 + CHUNK : n;
        const pair start[2] = {s[0], s[1]};
        pair prod[2] = {mant[0], mant[1]};
        for (Py_ssize_t t = t0; t < t1; t++) {
            for (int h = 0; h < 2; h++) {
                s[h] = t ? (y[t - 1] * y[t - 1] * a[h] + w[h]) + b[h] * s[h] : first;
                quad[h] += y[t] * y[t] / s[h];
                prod[h] *= s[h];
            }
        }
        /* All ones in each lane whose chunk passes score's check, as a
           bounded lane with a finite product does. Any other lane is redone
           step by step, and its logs are kept when it fails. */
        pair_bits ok[2];
        int redo = 0;
        for (int h = 0; h < 2; h++) {
            ok[h] = bounded[h] & (pair_bits)(prod[h] <= DBL_MAX);
            redo |= !(ok[h][0] & ok[h][1]);
        }
        for (int l = 0; redo && l < 4; l++) {
            if (LANE(ok, l))
                continue;
            double st = LANE(start, l), chunk = 0.0;
            int above = LANE(prod, l) <= DBL_MAX;
            for (Py_ssize_t t = t0; t < t1; t++) {
                st = t ? recur(y[t - 1] * y[t - 1], LANE(a, l), LANE(b, l), LANE(w, l), st)
                       : sigma1_sq;
                chunk += log(st);
                above &= !(st < SAFE_MIN);
            }
            LANE(ok, l) = -(uint64_t)above;
            if (!above)
                logs[l] += chunk;
        }
        for (int h = 0; h < 2; h++) {
            const pair_bits bits = (pair_bits)prod[h];
            twos[h] += ok[h] & ((bits >> 52) - 1023);
            mant[h] = (pair)((ok[h] & ((bits & SIGNIFICAND_BITS) | ONE_BITS))
                             | (~ok[h] & (pair_bits)mant[h]));
        }
    }
    for (int l = 0; l < 4; l++) {
        const double sum = (log(LANE(mant, l)) + (double)(int64_t)LANE(twos, l) * LN2) + logs[l];
        total[l] = -0.5 * ((sum + LANE(quad, l)) + (double)n * LOG_2PI);
    }
}

/* At most this many threads score one batch call. */
#define MAX_THREADS 8
/* A thread scores its range BLOCK_K candidates per score_batch call, so that
   the ten arrays score keeps per candidate stay in the L1 cache: one thread
   took 1.4-1.6 times as long per candidate on 1000 candidates at once
   (n = 250 and 2000; 48 KiB L1 data cache). */
#define BLOCK_K 64
/* Each thread scores at least this many candidate-steps, about 0.2 ms of
   one core's work. With a quarter of it, 1000 candidates at n = 251 went to
   two threads, and a run of 60 such batches took 5% more CPU time and no
   less wall time (2-vCPU Xeon). */
#define MIN_THREAD_STEPS 262144

/* One thread's range of a batch call: k candidates from theta, scored into
   total BLOCK_K at a time, and -1 when any block ran out of memory. */
struct range {
    const double *y, *theta;
    Py_ssize_t n, k;
    double sigma1_sq, *total;
    int rc;
};

static void *
score_range(void *arg)
{
    struct range *r = arg;
    r->rc = 0;
    for (Py_ssize_t j = 0; j < r->k; j += BLOCK_K) {
        const Py_ssize_t m = r->k - j < BLOCK_K ? r->k - j : BLOCK_K;
        r->rc |= score_batch(r->y, r->n, r->theta + 3 * j, m, r->sigma1_sq, r->total + j);
    }
    return NULL;
}

/* The threads that score k candidates on n returns: the CPUs of the
   process's affinity mask, but at most MAX_THREADS, k and one per
   MIN_THREAD_STEPS candidate-steps, and at least one. */
static int
thread_count(Py_ssize_t n, Py_ssize_t k)
{
    int count = 1;
#ifdef CPU_COUNT
    const double steps = (double)n * (double)k;
    cpu_set_t cpus;
    if (steps >= 2.0 * MIN_THREAD_STEPS && sched_getaffinity(0, sizeof cpus, &cpus) == 0) {
        count = CPU_COUNT(&cpus) < MAX_THREADS ? CPU_COUNT(&cpus) : MAX_THREADS;
        if (count > steps / MIN_THREAD_STEPS)
            count = (int)(steps / MIN_THREAD_STEPS);
        if (count > k)
            count = (int)k;
    }
#endif
    return count;
}

/* score_batch over the k candidates of theta in thread_count(n, k)
   contiguous ranges, the first on the calling thread. A range whose thread
   cannot be created is scored by the calling thread after its own. Touches
   no Python object; returns -1 when any range ran out of memory. */
static int
score_threads(const double *y, Py_ssize_t n, const double *theta, Py_ssize_t k,
              double sigma1_sq, double *total)
{
    struct range ranges[MAX_THREADS];
    pthread_t threads[MAX_THREADS];
    int started[MAX_THREADS] = {0};
    const int count = thread_count(n, k);
    for (int i = 0; i < count; i++) {
        const Py_ssize_t first = k * i / count, end = k * (i + 1) / count;
        ranges[i] = (struct range){y, theta + 3 * first, n, end - first, sigma1_sq,
                                   total + first, 0};
    }
    for (int i = 1; i < count; i++)
        started[i] = pthread_create(&threads[i], NULL, score_range, &ranges[i]) == 0;
    score_range(&ranges[0]);
    int rc = ranges[0].rc;
    for (int i = 1; i < count; i++) {
        if (started[i])
            pthread_join(threads[i], NULL);
        else
            score_range(&ranges[i]);
        rc |= ranges[i].rc;
    }
    return rc;
}

/* Raises NumericOverflowError unless all k totals are finite. */
static int
check_finite(const double *total, Py_ssize_t k)
{
    for (Py_ssize_t j = 0; j < k; j++) {
        if (!isfinite(total[j])) {
            PyErr_SetString(overflow_error, "non-finite GARCH log-likelihood");
            return -1;
        }
    }
    return 0;
}

static PyObject *
log_likelihood(PyObject *self, PyObject *args)
{
    PyObject *series;
    double theta[3], sigma1_sq, total;
    Py_buffer yv;
    if (!PyArg_ParseTuple(args, "Odddd:log_likelihood", &series,
                          &theta[0], &theta[1], &theta[2], &sigma1_sq)
        || get_doubles(series, 1, &yv) < 0)
        return NULL;
    int rc = score(yv.buf, yv.shape[0], theta, 1, sigma1_sq, &total);
    PyBuffer_Release(&yv);
    if (rc < 0)
        return PyErr_NoMemory();
    if (check_finite(&total, 1) < 0)
        return NULL;
    return PyFloat_FromDouble(total);
}

static PyObject *
log_likelihood_batch(PyObject *self, PyObject *args)
{
    PyObject *y_obj, *thetas_obj, *out = NULL;
    double sigma1_sq;
    Py_buffer yv, tv, ov;
    if (!PyArg_ParseTuple(args, "OOd:log_likelihood_batch", &y_obj, &thetas_obj, &sigma1_sq)
        || get_doubles(y_obj, 1, &yv) < 0)
        return NULL;
    if (get_doubles(thetas_obj, 2, &tv) < 0) {
        PyBuffer_Release(&yv);
        return NULL;
    }
    Py_ssize_t k = tv.shape[0];
    int rc = -1;
    if (tv.shape[1] != 3)
        PyErr_Format(PyExc_ValueError, "thetas must have 3 columns, got %zd", tv.shape[1]);
    else if ((out = new_array((PyObject *)&PyFloat_Type, 1, k, 0, &ov)) != NULL) {
        Py_BEGIN_ALLOW_THREADS
        rc = score_threads(yv.buf, yv.shape[0], tv.buf, k, sigma1_sq, ov.buf);
        Py_END_ALLOW_THREADS
        if (rc < 0)
            PyErr_NoMemory();
        else
            rc = check_finite(ov.buf, k);
        PyBuffer_Release(&ov);
        if (rc < 0)
            Py_CLEAR(out);
    }
    PyBuffer_Release(&yv);
    PyBuffer_Release(&tv);
    return rc < 0 ? NULL : out;
}

/* The Metropolis-Hastings rule of ``_kernels_py._accept`` for log
   acceptance ratio delta and u ~ U(0, 1), with the exp of Python's
   math.exp. A delta of -inf, a candidate outside the support, and a NaN
   delta reject. */
static inline int
accept(double delta, double u)
{
    return delta >= 0.0 || u < exp(delta);
}

/* Whether the GARCH triple at theta lies in the support of
   garchmc.model.in_support. */
static inline int
in_support(const double *theta)
{
    return theta[0] > 0.0 && theta[1] > 0.0 && theta[2] > 0.0 && theta[0] + theta[1] < 1.0;
}

/* One step of rw_chain to the candidate in row, of log-density log_p_cand,
   from the state theta of log-density *log_p: when u accepts, the candidate
   becomes the state; otherwise row is overwritten with the state. Returns
   the accept flag. */
static inline char
decide(double *theta, double *log_p, double *row, double log_p_cand, double u)
{
    const int accepted = accept(log_p_cand - *log_p, u);
    if (accepted) {
        memcpy(theta, row, 3 * sizeof(double));
        *log_p = log_p_cand;
    }
    else
        memcpy(row, theta, 3 * sizeof(double));
    return (char)accepted;
}

/* Steps i, i + 1 and, when both accept, i + 2 of walk, of the left that
   remain, where step i's candidate, in row, lies inside the support.
   score_lanes scores four lanes on the ny returns y side by side: step i's
   candidate (I), step i + 1's after step i accepts (A) and after it
   rejects (R), and step i + 2's after both accept (AA). A lane outside the
   support, or past the last step, holds step i's candidate instead and
   its total is ignored. Each step takes the lane its predecessors'
   decisions pick, and a lane's total is checked for finiteness only when
   a step takes it. Returns the steps taken, or -1 with an exception set. */
enum { LANE_I, LANE_A, LANE_R, LANE_AA };
static Py_ssize_t
pass(const double *y, Py_ssize_t ny, double sigma1_sq, double *theta, double *log_p,
     const double *shift, const double *u, Py_ssize_t left, double *row, char *flag)
{
    /* The next step's lane after each lane rejects and accepts; -1 ends. */
    static const int next[4][2] = {{LANE_R, LANE_A}, {-1, LANE_AA}, {-1, -1}, {-1, -1}};
    const Py_ssize_t steps = left < 3 ? left : 3;
    double cand[4][3], total[4];
    int inside[4];
    for (int j = 0; j < 3; j++) {
        cand[LANE_I][j] = row[j];
        cand[LANE_A][j] = steps > 1 ? row[j] + shift[3 + j] : row[j];
        cand[LANE_R][j] = steps > 1 ? theta[j] + shift[3 + j] : row[j];
        cand[LANE_AA][j] = steps > 2 ? cand[LANE_A][j] + shift[6 + j] : row[j];
    }
    for (int l = 0; l < 4; l++) {
        if (!(inside[l] = in_support(cand[l])))
            memcpy(cand[l], row, sizeof cand[l]);
    }
    score_lanes(y, ny, (const double (*)[3])cand, sigma1_sq, total);
    for (int m = 0, lane = LANE_I; m < steps; m++) {
        if (inside[lane] && check_finite(total + lane, 1) < 0)
            return -1;
        memcpy(row + 3 * m, cand[lane], sizeof cand[lane]);
        flag[m] = decide(theta, log_p, row + 3 * m, inside[lane] ? total[lane] : -INFINITY, u[m]);
        if ((lane = next[lane][(int)flag[m]]) < 0)
            return m + 1;
    }
    return steps;
}

/* The n steps of rw_chain from the state theta of log-density *log_p: step
   i's candidate, theta + shift[i], is built in its row of the draws. While
   loglik is NULL, for this module's own likelihood, a candidate inside the
   support opens a pass, with no Python call. Any other candidate takes
   one step: outside the support it scores -inf, and inside, a call of the
   wrapper loglik on y_obj, the owner of y's buffer. Returns 0, or -1 with
   an exception set. */
static int
walk(PyObject *loglik, PyObject *y_obj, const double *y, Py_ssize_t ny, double sigma1_sq,
     double *theta, double *log_p, const double *shift, const double *u, Py_ssize_t n,
     double *draws, char *flag)
{
    for (Py_ssize_t i = 0, steps; i < n; i += steps) {
        double *row = draws + 3 * i;
        for (int j = 0; j < 3; j++)
            row[j] = theta[j] + shift[3 * i + j];
        if (loglik == NULL && in_support(row)) {
            steps = pass(y, ny, sigma1_sq, theta, log_p, shift + 3 * i, u + i, n - i, row,
                         flag + i);
            if (steps < 0)
                return -1;
            continue;
        }
        double total = -INFINITY;
        if (in_support(row)) {
            PyObject *value = PyObject_CallFunction(loglik, "Odddd", y_obj, row[0], row[1],
                                                    row[2], sigma1_sq);
            if (value == NULL)
                return -1;
            total = PyFloat_AsDouble(value);
            Py_DECREF(value);
            if (total == -1.0 && PyErr_Occurred())
                return -1;
        }
        flag[i] = decide(theta, log_p, row, total, u[i]);
        steps = 1;
    }
    return 0;
}

/* rw_chain(y, sigma1_sq, theta, log_p, shifts, u): random-walk Metropolis
   on the GARCH triple from theta of log-density log_p, as in
   ``_kernels_py``. Step i proposes theta + shifts[i] and accepts by u[i]. A
   candidate outside the support scores -inf with no call. One inside is
   scored by this module's log_likelihood attribute, looked up once per
   call: while that is this module's own function, walk decides two or
   three steps per pass and makes no Python call; once a wrapper is set
   there, as ``perfbench/tracer.py`` does, walk calls it once per candidate
   inside the support, so the wrapper sees every scalar call, with the
   array that owns y's buffer: y itself when it is a C-contiguous float64
   array. The state is kept in the buffer of the end state's array. */
static PyObject *
rw_chain(PyObject *self, PyObject *args)
{
    PyObject *y_obj, *theta_obj, *shifts_obj, *u_obj, *result = NULL;
    PyObject *loglik = NULL;
    PyObject *draws = NULL, *accepted = NULL, *end = NULL;
    double sigma1_sq, log_p;
    Py_buffer tv = {0}, sv = {0}, uv = {0}, yv = {0}, dv = {0}, av = {0}, ev = {0};
    if (!PyArg_ParseTuple(args, "OdOdOO:rw_chain", &y_obj, &sigma1_sq, &theta_obj, &log_p,
                          &shifts_obj, &u_obj)
        || get_doubles(theta_obj, 1, &tv) < 0 || get_doubles(shifts_obj, 2, &sv) < 0
        || get_doubles(u_obj, 1, &uv) < 0)
        goto done;
    const Py_ssize_t n = uv.shape[0];
    if (tv.shape[0] != 3 || sv.shape[0] != n || sv.shape[1] != 3) {
        PyErr_Format(PyExc_ValueError, "theta must have length 3 and shifts shape (len(u), 3) = "
                     "(%zd, 3), got %zd and (%zd, %zd)", n, tv.shape[0], sv.shape[0], sv.shape[1]);
        goto done;
    }
    if ((loglik = PyObject_GetAttrString(self, "log_likelihood")) == NULL)
        goto done;
    if (PyCFunction_Check(loglik) && PyCFunction_GET_FUNCTION(loglik) == log_likelihood)
        Py_CLEAR(loglik);
    if (get_doubles(y_obj, 1, &yv) < 0
        || (draws = new_array((PyObject *)&PyFloat_Type, 2, n, 3, &dv)) == NULL
        || (accepted = new_array((PyObject *)&PyBool_Type, 1, n, 0, &av)) == NULL
        || (end = new_array((PyObject *)&PyFloat_Type, 1, 3, 0, &ev)) == NULL)
        goto done;
    memcpy(ev.buf, tv.buf, 3 * sizeof(double));
    if (walk(loglik, yv.obj, yv.buf, yv.shape[0], sigma1_sq, ev.buf, &log_p, sv.buf, uv.buf, n,
             dv.buf, av.buf) == 0)
        result = Py_BuildValue("OOOd", draws, accepted, end, log_p);
done:
    PyBuffer_Release(&ev);
    PyBuffer_Release(&av);
    PyBuffer_Release(&dv);
    PyBuffer_Release(&yv);
    PyBuffer_Release(&uv);
    PyBuffer_Release(&sv);
    PyBuffer_Release(&tv);
    Py_XDECREF(end);
    Py_XDECREF(accepted);
    Py_XDECREF(draws);
    Py_XDECREF(loglik);
    return result;
}

/* independence_accept(log_p_cands, log_g_cands, u, log_p, log_g): the
   independence-MH accept loop of ``_kernels_py`` over k candidates already
   scored, from a state scored log_p by the target and log_g by the
   proposal. Returns the accept flags and the end state's log-density; the
   caller knows which candidate each flag takes. */
static PyObject *
independence_accept(PyObject *self, PyObject *args)
{
    PyObject *lp_obj, *lg_obj, *u_obj, *accepted = NULL, *result = NULL;
    double log_p, log_g;
    Py_buffer pv = {0}, gv = {0}, uv = {0}, av = {0};
    if (!PyArg_ParseTuple(args, "OOOdd:independence_accept", &lp_obj, &lg_obj, &u_obj,
                          &log_p, &log_g)
        || get_doubles(lp_obj, 1, &pv) < 0 || get_doubles(lg_obj, 1, &gv) < 0
        || get_doubles(u_obj, 1, &uv) < 0)
        goto done;
    const Py_ssize_t k = uv.shape[0];
    if (pv.shape[0] != k || gv.shape[0] != k) {
        PyErr_Format(PyExc_ValueError, "log_p_cands, log_g_cands and u must have one length, "
                     "got %zd, %zd and %zd", pv.shape[0], gv.shape[0], k);
        goto done;
    }
    if ((accepted = new_array((PyObject *)&PyBool_Type, 1, k, 0, &av)) == NULL)
        goto done;
    const double *log_p_cands = pv.buf, *log_g_cands = gv.buf, *u = uv.buf;
    char *flag = av.buf;
    for (Py_ssize_t i = 0; i < k; i++) {
        flag[i] = (char)accept((log_p_cands[i] - log_p) + (log_g - log_g_cands[i]), u[i]);
        if (flag[i]) {
            log_p = log_p_cands[i];
            log_g = log_g_cands[i];
        }
    }
    result = Py_BuildValue("Od", accepted, log_p);
done:
    PyBuffer_Release(&av);
    PyBuffer_Release(&uv);
    PyBuffer_Release(&gv);
    PyBuffer_Release(&pv);
    Py_XDECREF(accepted);
    return result;
}

/* The text of chain.csv rows. PARAM_MAX is the longest "%.17g" of a
   double, "-2.2250738585072014e-308", plus its comma. */
#define PARAM_MAX 25
#define POW10_16 10000000000000000ULL
#define POW10_17 100000000000000000ULL

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

/* 5^0 ... 5^32; from 5^28 on they exceed 64 bits. */
#define POW5_27 7450580596923828125ULL
static const u128 POW5[33] = {
    1ULL, 5ULL, 25ULL, 125ULL, 625ULL, 3125ULL, 15625ULL, 78125ULL, 390625ULL, 1953125ULL,
    9765625ULL, 48828125ULL, 244140625ULL, 1220703125ULL, 6103515625ULL, 30517578125ULL,
    152587890625ULL, 762939453125ULL, 3814697265625ULL, 19073486328125ULL, 95367431640625ULL,
    476837158203125ULL, 2384185791015625ULL, 11920928955078125ULL, 59604644775390625ULL,
    298023223876953125ULL, 1490116119384765625ULL, POW5_27,
    (u128)POW5_27 * 5, (u128)POW5_27 * 25, (u128)POW5_27 * 125, (u128)POW5_27 * 625,
    (u128)POW5_27 * 3125,
};

static const char DIGIT_PAIRS[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* The count decimal digits of v < 10^count, zero-padded, at out. */
static void
put_digits(char *out, uint32_t v, int count)
{
    for (; count >= 2; v /= 100) {
        count -= 2;
        memcpy(out + count, DIGIT_PAIRS + 2 * (v % 100), 2);
    }
    if (count)
        out[0] = (char)('0' + v);
}

/* "%.17g" of x at out by exact integer arithmetic, where x is positive and
   normal and its 17-digit decimal exponent k is in [-16, 48], so that the
   17 significant digits N = round-half-even(x * 10^(16-k)) fit 128-bit
   arithmetic; NULL, with nothing written, for any other x. The text is in
   fixed notation for k in [-4, 16] and in exponential notation, d.ddde+kk,
   outside, as "%.17g" writes it.

   With x = m * 2^e and j = 16 - k, x * 10^j = m * 5^j * 2^(e+j). For j >= 0
   that is m * 5^j shifted by e + j bits, with the bits shifted out as the
   remainder. For j < 0 it is m * 2^(e+j) divided by 5^-j: k >= 17 means
   x >= 2^56, so e + j >= 0 there. That quotient has no tie, since 5^-j is
   odd. k is fixed by the unrounded quotient, 10^16 <= q < 10^17, and moves
   up only when rounding carries N to 10^17: a k taken after rounding would
   write the double nearest 1e-6, 9.9999999999999995e-07, as 1e-06. */
static char *
put_exact(char *out, double x)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    const int biased = (int)(bits >> 52);  /* above 2047 when x is negative */
    const int b = biased - 1023;           /* 2^b <= x < 2^(b+1) */
    if (biased == 0 || biased >= 2047)     /* zero, subnormal, negative or not finite */
        return NULL;
    const uint64_t m = (bits & ((1ULL << 52) - 1)) | (1ULL << 52);
    const int e = b - 52;
    /* Within one of floor(b * log10(2)), which the loop corrects. */
    int k = b >= 0 ? (b * 1233) >> 12 : -((-b * 1233 + 4095) >> 12);
    /* N is q, plus one when the remainder rem passes half, or ties it with q
       odd. */
    u128 q, rem, half;
    for (;;) {
        const int j = 16 - k;
        /* m * 5^j < 2^53 * 5^32 < 2^128, and m * 2^(e+j) < 2^(53+75). */
        if (j > 32 || j < -32 || e + j > 75)
            return NULL;
        if (j >= 0) {
            const u128 p = (u128)m * POW5[j];
            const int s = e + j;  /* at most 5, since k <= 16 means x < 2^57 */
            q = s >= 0 ? p << s : p >> -s;
            rem = s >= 0 ? 0 : p & (((u128)1 << -s) - 1);
            half = s >= 0 ? 1 : (u128)1 << (-s - 1);
        }
        else {
            const u128 num = (u128)m << (e + j);
            q = num / POW5[-j];
            rem = 2 * (num % POW5[-j]);
            half = POW5[-j];
        }
        if (q < POW10_16)
            k--;
        else if (q >= POW10_17)
            k++;
        else
            break;
    }
    uint64_t n = (uint64_t)q;
    n += rem > half || (rem == half && (n & 1));
    if (n == POW10_17) {
        if (++k > 48)
            return NULL;
        n = POW10_16;
    }
    char digits[17];
    put_digits(digits, (uint32_t)(n / 100000000), 9);
    put_digits(digits + 9, (uint32_t)(n % 100000000), 8);
    int nd = 17;
    while (digits[nd - 1] == '0')
        nd--;
    if (k < -4 || k > 16) {
        *out++ = digits[0];
        if (nd > 1) {
            *out++ = '.';
            memcpy(out, digits + 1, nd - 1);
            out += nd - 1;
        }
        *out++ = 'e';
        *out++ = k < 0 ? '-' : '+';
        put_digits(out, (uint32_t)(k < 0 ? -k : k), 2);
        out += 2;
    }
    else if (k >= 0) {
        memcpy(out, digits, k + 1);
        out += k + 1;
        if (nd > k + 1) {
            *out++ = '.';
            memcpy(out, digits + k + 1, nd - k - 1);
            out += nd - k - 1;
        }
    }
    else {
        *out++ = '0';
        *out++ = '.';
        for (int i = -1; i > k; i--)
            *out++ = '0';
        memcpy(out, digits, nd);
        out += nd;
    }
    return out;
}
#endif

/* "%.17g" of x at out; the end of the text, or NULL with an exception set.
   What put_exact does not take goes to Python's own "%.17g", which is exact
   by construction. */
static char *
put_double(char *out, double x)
{
#ifdef __SIZEOF_INT128__
    char *end = put_exact(out, x);
    if (end != NULL)
        return end;
#endif
    char *text = PyOS_double_to_string(x, 'g', 17, 0, NULL);
    if (text == NULL)
        return NULL;
    const size_t len = strlen(text);
    memcpy(out, text, len);
    PyMem_Free(text);
    return out + len;
}

/* The k rows "%.17g,...,%.17g,0|1\n" of the (k, p) draws and k accept
   flags. A row's parameter text is formatted when its bytes differ from the
   row before, which keeps -0.0 and 0.0 apart, and for the first row;
   otherwise the text before it is copied. */
static PyObject *
chain_text(PyObject *self, PyObject *args)
{
    PyObject *draws_obj, *flags_obj, *flags_arr = NULL, *text = NULL;
    Py_buffer dv, fv;
    if (!PyArg_ParseTuple(args, "OO:chain_text", &draws_obj, &flags_obj)
        || get_doubles(draws_obj, 2, &dv) < 0)
        return NULL;
    flags_arr = PyObject_CallFunctionObjArgs(ascontiguousarray, flags_obj,
                                             (PyObject *)&PyBool_Type, NULL);
    if (flags_arr == NULL || PyObject_GetBuffer(flags_arr, &fv, PyBUF_C_CONTIGUOUS) < 0) {
        Py_XDECREF(flags_arr);
        PyBuffer_Release(&dv);
        return NULL;
    }
    const Py_ssize_t k = dv.shape[0], p = dv.shape[1];
    char *buf = NULL;
    if (fv.ndim != 1 || fv.shape[0] != k) {
        PyErr_Format(PyExc_ValueError, "expected %zd accept flags, one per row of draws", k);
        goto done;
    }
    /* Each row's text takes at most row_max bytes. */
    const Py_ssize_t row_max = p <= (PY_SSIZE_T_MAX - 2) / PARAM_MAX ? p * PARAM_MAX + 2
                                                                     : PY_SSIZE_T_MAX;
    if ((k && row_max > (PY_SSIZE_T_MAX - 1) / k)
        || (buf = PyMem_Malloc(k * row_max + 1)) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    const double *row = dv.buf;
    const char *flag = fv.buf;
    const size_t row_bytes = (size_t)p * sizeof(double);
    char *out = buf, *head = buf;
    size_t head_len = 0;
    for (Py_ssize_t i = 0; i < k; i++, row += p) {
        if (i && memcmp(row, row - p, row_bytes) == 0) {
            memcpy(out, head, head_len);
            out += head_len;
        }
        else {
            head = out;
            for (Py_ssize_t j = 0; j < p; j++) {
                if ((out = put_double(out, row[j])) == NULL)
                    goto done;
                *out++ = ',';
            }
            head_len = out - head;
        }
        *out++ = flag[i] ? '1' : '0';
        *out++ = '\n';
    }
    text = PyUnicode_New(out - buf, 127);
    if (text != NULL)
        memcpy(PyUnicode_1BYTE_DATA(text), buf, out - buf);
done:
    PyMem_Free(buf);
    PyBuffer_Release(&fv);
    Py_DECREF(flags_arr);
    PyBuffer_Release(&dv);
    return text;
}

static PyMethodDef methods[] = {
    {"log_likelihood", log_likelihood, METH_VARARGS, "Log-likelihood of one parameter set."},
    {"log_likelihood_batch", log_likelihood_batch, METH_VARARGS,
     "Log-likelihoods of the (k, 3) parameter rows of thetas."},
    {"chain_text", chain_text, METH_VARARGS,
     "The chain.csv rows of the (k, p) draws and their k accept flags."},
    {"rw_chain", rw_chain, METH_VARARGS,
     "Random-walk Metropolis steps: (draws, accepted, end state, its log-density)."},
    {"independence_accept", independence_accept, METH_VARARGS,
     "Independence-MH accept loop: (accepted, end log-density)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "garchmc._kernels",
    "Compiled GARCH(1,1) likelihood kernels, accept loops and chain.csv text.",
    -1, methods,
};

PyMODINIT_FUNC
PyInit__kernels(void)
{
    PyObject *exceptions = PyImport_ImportModule("garchmc.exceptions");
    PyObject *numpy = PyImport_ImportModule("numpy");
    if (exceptions && numpy
        && (overflow_error = PyObject_GetAttrString(exceptions, "NumericOverflowError"))
        && (ascontiguousarray = PyObject_GetAttrString(numpy, "ascontiguousarray")))
        empty = PyObject_GetAttrString(numpy, "empty");
    Py_XDECREF(exceptions);
    Py_XDECREF(numpy);
    if (!overflow_error || !ascontiguousarray || !empty)
        return NULL;
    return PyModule_Create(&module);
}
