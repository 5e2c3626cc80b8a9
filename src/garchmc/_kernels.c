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
   CHUNK steps at a time, as a significand in [1, 2) and a power of two. The
   y_t^2/s_t are taken two steps per divide, over s_t*s_{t+1}. A chunk with
   an s_t below SAFE_MIN, whose product could pass through the subnormals,
   and one whose product or quadratic sum is not finite are redone with one
   log and one divide per step. A non-finite total raises
   garchmc.exceptions.NumericOverflowError. The numpy twin divides and
   takes a log at every step, so the two differ in rounding only.

   One body, SCORE, computes it, several candidates side by side, and is
   instantiated twice. score holds four lanes in two vectors of two doubles:
   the scalar kernel fills its four lanes with its one candidate. score is
   built once per x86-64 SIMD level (AVX-512, AVX2 and the baseline) by
   target_clones, and the loader picks the one the CPU supports. score8
   holds eight lanes in two vectors of four doubles and is built for AVX2
   alone. Module init checks the CPU once and sets score_group: score8
   where it has AVX2, score elsewhere. The batch kernel takes its rows, and
   rw_chain its speculative candidates, that many at a time through it.
   Each lane runs the same IEEE operations in either, and -ffp-contract=off
   keeps every build from fusing them, so all give the same bits.

   The batch kernel splits its k candidates into contiguous ranges, one per
   thread: as many threads as the process's affinity mask holds CPUs, at
   most MAX_THREADS, and no more than give each thread MIN_THREAD_STEPS
   candidate-steps (k * n), so a small batch stays on the calling thread.
   The calling thread scores the first range and the others run on plain
   pthreads that are created and joined inside the call, so no thread
   outlives it and a fork never copies one. Each candidate's operations do
   not depend on its neighbours, so every split and every grouping gives
   the same bits.

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
   support opens a pass that scores score_group's lanes at once, one table,
   TREE, of the candidates that the steps after it may propose. Eight lanes
   hold the candidate, the next two steps' after every accept and reject,
   and the one after three accepts, so a pass decides three steps, or four
   when three accept: 3 + a^3 on average at acceptance a. The first four
   lanes of TREE, the tree where score_group is score, hold the candidate,
   the next step's after an accept and a reject, and the one after that
   after two accepts, and decide 2 + a^2. No pass makes a Python call.
   While a wrapper is set there, as ``perfbench/tracer.py`` sets one on
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
#include <string.h>

#define CHUNK 16
/* With every s_t at least 2^-62, each partial product of at most CHUNK of
   them, times a significand in [1, 2), is at least 2^-992, so normal; an
   s_t or a pair product s_t*s_{t+1} above it can only overflow the product
   to inf, which stays inf and fails the finiteness check. */
#define SAFE_MIN 0x1p-62
#define LOG_2PI 1.8378770664093454836
#define LN2 0.69314718055994530942
/* The significand field of a double, and the bits of 1.0. */
#define SIGNIFICAND_BITS 0x000fffffffffffffULL
#define ONE_BITS 0x3ff0000000000000ULL

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

/* score is built once per x86-64 SIMD level; the loader's ifunc resolver
   binds the clone that the CPU runs. score8 is built for AVX2 alone. */
#if defined(__x86_64__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define SIMD_CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#define AVX2 __attribute__((target("avx2")))
#endif
#endif
#ifndef SIMD_CLONES
#define SIMD_CLONES
#endif

/* Two and four doubles, and their bits. score keeps each per-lane quantity
   in two pairs: in a vector of four, the baseline x86-64 build, which has no
   register for one, ran every operation through the stack. score8 keeps
   its eight lanes in two vectors of four, which AVX2 holds in registers. */
typedef double pair __attribute__((vector_size(2 * sizeof(double))));
typedef uint64_t pair_bits __attribute__((vector_size(2 * sizeof(uint64_t))));
typedef double quartet __attribute__((vector_size(4 * sizeof(double))));
typedef uint64_t quartet_bits __attribute__((vector_size(4 * sizeof(uint64_t))));

/* SCORE(name, vec, bits) defines name, the log-likelihoods of the 2 *
   WIDTH rows (alpha, beta, omega) of theta on the n returns y, into total,
   one row per lane, with each per-lane quantity in two vecs of WIDTH
   lanes: time-outer and lane-inner, and no lane's operations depend on
   another's, so every vec gives the same bits. Touches no Python object,
   so it may run without the GIL.

   Steps go two at a time with one divide: with p = s_t*s_{t+1},
   y_t^2/s_t + y_{t+1}^2/s_{t+1} = (y_t^2*s_{t+1} + y_{t+1}^2*s_t)/p. A
   lane's product of s_t so far is mant * 2^twos, mant in [1, 2), and is
   carried on by p; a short last chunk's odd step divides alone. A chunk's
   product starts from mant, and its quadratic sum from 0; when the chunk
   passes the check, no s_t below SAFE_MIN and a finite product and
   quadratic sum, the sum moves into quad, the product's exponent into twos
   and its significand becomes mant, exactly and without a branch. A finite
   product means that no p overflowed, and a finite sum that no numerator
   did, so each quotient equals the pair's two terms to within a few
   roundings. A lane whose chunk fails has its quadratic sum redone with one divide per
   step, and its logs step by step into logs unless its s_t and product
   pass.

   The check needs the chunk's least s_t, which the loop does not keep: with
   alpha and beta at least 0, a rounded step from s_{t-1} >= 0 gives s_t >=
   omega, so a lane whose omega and sigma1_sq are at least SAFE_MIN has no
   s_t below it (a NaN one makes the product NaN, which fails the check).
   Only a lane outside those bounds, which the scalar and batch kernels may
   be given, has its chunk's s_t redone to find the least. */
#define SCORE(name, vec, bits)                                                                 \
static void                                                                                    \
name(const double *y, Py_ssize_t n, const double (*theta)[3], double sigma1_sq, double *total) \
{                                                                                              \
    enum { WIDTH = sizeof(vec) / sizeof(double), LANES = 2 * WIDTH };                          \
    const vec first = (vec){0} + sigma1_sq;                                                    \
    vec a[2], b[2], w[2], s[2] = {first, first}, quad[2] = {{0}};                              \
    vec mant[2] = {(vec){0} + 1.0, (vec){0} + 1.0};                                            \
    bits twos[2] = {{0}}, bounded[2];                                                          \
    double logs[LANES] = {0.0};                                                                \
    for (int l = 0; l < LANES; l++) {                                                          \
        a[l / WIDTH][l % WIDTH] = theta[l][0];                                                 \
        b[l / WIDTH][l % WIDTH] = theta[l][1];                                                 \
        w[l / WIDTH][l % WIDTH] = theta[l][2];                                                 \
    }                                                                                          \
    for (int h = 0; h < 2; h++)                                                                \
        bounded[h] = (bits)(a[h] >= 0.0) & (bits)(b[h] >= 0.0)                                 \
                     & (bits)(w[h] >= SAFE_MIN) & (bits)(first >= SAFE_MIN);                   \
    for (Py_ssize_t t0 = 0; t0 < n; t0 += CHUNK) {                                             \
        const Py_ssize_t t1 = t0 + CHUNK < n ? t0 + CHUNK : n;                                 \
        const vec start[2] = {s[0], s[1]};                                                     \
        vec prod[2] = {mant[0], mant[1]}, part[2] = {{0}};                                     \
        Py_ssize_t t = t0;                                                                     \
        for (; t + 1 < t1; t += 2) {                                                           \
            const double y2 = y[t] * y[t], y2_next = y[t + 1] * y[t + 1];                      \
            for (int h = 0; h < 2; h++) {                                                      \
                const vec s_next = (y2 * a[h] + w[h]) + b[h] * s[h], p = s[h] * s_next;        \
                part[h] += (y2 * s_next + y2_next * s[h]) / p;                                 \
                prod[h] *= p;                                                                  \
                s[h] = (y2_next * a[h] + w[h]) + b[h] * s_next;                                \
            }                                                                                  \
        }                                                                                      \
        if (t < t1) {                                                                          \
            const double y2 = y[t] * y[t];                                                     \
            for (int h = 0; h < 2; h++) {                                                      \
                part[h] += y2 / s[h];                                                          \
                prod[h] *= s[h];                                                               \
                s[h] = (y2 * a[h] + w[h]) + b[h] * s[h];                                       \
            }                                                                                  \
        }                                                                                      \
        /* All ones in each lane whose chunk passes the check. Any other lane                  \
           is redone step by step. */                                                          \
        bits ok[2];                                                                            \
        int redo = 0;                                                                          \
        for (int h = 0; h < 2; h++) {                                                          \
            ok[h] = bounded[h] & (bits)(prod[h] <= DBL_MAX) & (bits)(part[h] <= DBL_MAX);      \
            for (int i = 0; i < WIDTH; i++)                                                    \
                redo |= !ok[h][i];                                                             \
        }                                                                                      \
        for (int l = 0; redo && l < LANES; l++) {                                              \
            const int h = l / WIDTH, i = l % WIDTH;                                            \
            if (ok[h][i])                                                                      \
                continue;                                                                      \
            double st = start[h][i], chunk = 0.0, quadratic = 0.0;                             \
            int above = prod[h][i] <= DBL_MAX;                                                 \
            for (t = t0; t < t1; t++) {                                                        \
                chunk += log(st);                                                              \
                quadratic += y[t] * y[t] / st;                                                 \
                above &= !(st < SAFE_MIN);                                                     \
                st = (y[t] * y[t] * a[h][i] + w[h][i]) + b[h][i] * st;                         \
            }                                                                                  \
            part[h][i] = quadratic;                                                            \
            ok[h][i] = -(uint64_t)above;                                                       \
            if (!above)                                                                        \
                logs[l] += chunk;                                                              \
        }                                                                                      \
        for (int h = 0; h < 2; h++) {                                                          \
            const bits prod_bits = (bits)prod[h];                                              \
            quad[h] += part[h];                                                                \
            twos[h] += ok[h] & ((prod_bits >> 52) - 1023);                                     \
            mant[h] = (vec)((ok[h] & ((prod_bits & SIGNIFICAND_BITS) | ONE_BITS))              \
                            | (~ok[h] & (bits)mant[h]));                                       \
        }                                                                                      \
    }                                                                                          \
    for (int l = 0; l < LANES; l++) {                                                          \
        const int h = l / WIDTH, i = l % WIDTH;                                                \
        const double sum = (log(mant[h][i]) + (double)(int64_t)twos[h][i] * LN2) + logs[l];    \
        total[l] = -0.5 * ((sum + quad[h][i]) + (double)n * LOG_2PI);                          \
    }                                                                                          \
}

/* score: four lanes in pairs, built per SIMD level, for the scalar kernel,
   and for the batch kernel and rw_chain where the CPU has no AVX2. score8:
   eight lanes in quartets, for the batch kernel and rw_chain where it
   has. */
SIMD_CLONES SCORE(score, pair, pair_bits)
#ifdef AVX2
AVX2 SCORE(score8, quartet, quartet_bits)
#endif

/* The routine and lanes of the batch kernel and of rw_chain's passes:
   score8 and 8 where the CPU has AVX2, set at module init, otherwise score
   and 4. */
static void (*score_group)(const double *, Py_ssize_t, const double (*)[3], double, double *)
    = score;
static int group_lanes = 4;

/* At most this many threads score one batch call. */
#define MAX_THREADS 8
/* Each thread scores at least this many candidate-steps, about 0.12 ms of
   one core's work at 0.45 ns each (one thread, eight lanes, n = 251 and
   500). With a quarter of it, 1000 candidates at n = 251 and at n = 500 go
   to two threads, which took 13% and 27% less wall time per call and 32%
   and 31% more CPU time (2-vCPU Xeon). */
#define MIN_THREAD_STEPS 262144

/* One thread's range of a batch call: k candidates from theta, scored into
   total. */
struct range {
    const double *y;
    const double (*theta)[3];
    Py_ssize_t n, k;
    double sigma1_sq, *total;
};

/* score_group over a range group_lanes rows at a time. A short last group
   is padded with its first row, and only its real totals are kept. */
static void *
score_range(void *arg)
{
    const struct range *r = arg;
    const int lanes = group_lanes;
    Py_ssize_t j = 0;
    for (; j + lanes <= r->k; j += lanes)
        score_group(r->y, r->n, r->theta + j, r->sigma1_sq, r->total + j);
    if (j < r->k) {
        double group[8][3], total[8];
        for (int l = 0; l < lanes; l++)
            memcpy(group[l], r->theta[j + l < r->k ? j + l : j], sizeof group[l]);
        score_group(r->y, r->n, (const double (*)[3])group, r->sigma1_sq, total);
        memcpy(r->total + j, total, (r->k - j) * sizeof(double));
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

/* score_range over the k candidates of theta in thread_count(n, k)
   contiguous ranges, the first on the calling thread. A range whose thread
   cannot be created is scored by the calling thread after its own. Touches
   no Python object. */
static void
score_threads(const double *y, Py_ssize_t n, const double (*theta)[3], Py_ssize_t k,
              double sigma1_sq, double *total)
{
    struct range ranges[MAX_THREADS];
    pthread_t threads[MAX_THREADS];
    int started[MAX_THREADS] = {0};
    const int count = thread_count(n, k);
    for (int i = 0; i < count; i++) {
        const Py_ssize_t first = k * i / count, end = k * (i + 1) / count;
        ranges[i] = (struct range){y, theta + first, n, end - first, sigma1_sq, total + first};
    }
    for (int i = 1; i < count; i++)
        started[i] = pthread_create(&threads[i], NULL, score_range, &ranges[i]) == 0;
    score_range(&ranges[0]);
    for (int i = 1; i < count; i++) {
        if (started[i])
            pthread_join(threads[i], NULL);
        else
            score_range(&ranges[i]);
    }
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
    double theta[4][3], sigma1_sq, total[4];
    Py_buffer yv;
    if (!PyArg_ParseTuple(args, "Odddd:log_likelihood", &series,
                          &theta[0][0], &theta[0][1], &theta[0][2], &sigma1_sq)
        || get_doubles(series, 1, &yv) < 0)
        return NULL;
    for (int l = 1; l < 4; l++)
        memcpy(theta[l], theta[0], sizeof theta[l]);
    score(yv.buf, yv.shape[0], (const double (*)[3])theta, sigma1_sq, total);
    PyBuffer_Release(&yv);
    if (check_finite(total, 1) < 0)
        return NULL;
    return PyFloat_FromDouble(total[0]);
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
    const Py_ssize_t k = tv.shape[0];
    if (tv.shape[1] != 3)
        PyErr_Format(PyExc_ValueError, "thetas must have 3 columns, got %zd", tv.shape[1]);
    else if ((out = new_array((PyObject *)&PyFloat_Type, 1, k, 0, &ov)) != NULL) {
        Py_BEGIN_ALLOW_THREADS
        score_threads(yv.buf, yv.shape[0], tv.buf, k, sigma1_sq, ov.buf);
        Py_END_ALLOW_THREADS
        if (check_finite(ov.buf, k) < 0)
            Py_CLEAR(out);
        PyBuffer_Release(&ov);
    }
    PyBuffer_Release(&yv);
    PyBuffer_Release(&tv);
    return out;
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

/* The speculative lanes of a pass: the candidates of step i and of the
   steps after it, named by the decisions, accept (A) or reject (R), that
   lead to them from step i, whose candidate is lane I. The first four, I,
   A, R and AA, are the tree where group_lanes is 4; all eight, which add
   AR, RA, RR and AAA, are the tree where it is 8. For each lane, depth is
   the step after step i that it proposes; base is the lane whose candidate
   is the state after those decisions, or THETA for the state before step
   i; and next is the lane of the following step after a reject and after
   an accept, where a lane at or past group_lanes ends the pass. */
enum { LANE_I, LANE_A, LANE_R, LANE_AA, LANE_AR, LANE_RA, LANE_RR, LANE_AAA, LANES, THETA = -1 };
static const struct {
    int depth, base, next[2];
} TREE[LANES] = {
    [LANE_I] = {0, THETA, {LANE_R, LANE_A}},
    [LANE_A] = {1, LANE_I, {LANE_AR, LANE_AA}},
    [LANE_R] = {1, THETA, {LANE_RR, LANE_RA}},
    [LANE_AA] = {2, LANE_A, {LANES, LANE_AAA}},
    [LANE_AR] = {2, LANE_I, {LANES, LANES}},
    [LANE_RA] = {2, LANE_R, {LANES, LANES}},
    [LANE_RR] = {2, THETA, {LANES, LANES}},
    [LANE_AAA] = {3, LANE_AA, {LANES, LANES}},
};

/* Step i of walk and the steps after it that its tree's lanes reach, of the
   left that remain, where step i's candidate, in row, lies inside the
   support: two or three steps with four lanes, three or four with eight.
   score_group scores group_lanes lanes on the ny returns y side by side,
   each the state after its decisions plus its step's shift. A lane outside
   the support, or past the last step, holds step i's candidate instead and
   its total is ignored. Each step takes the lane its predecessors'
   decisions pick, and a lane's total is checked for finiteness only when
   a step takes it. Returns the steps taken, or -1 with an exception set. */
static Py_ssize_t
pass(const double *y, Py_ssize_t ny, double sigma1_sq, double *theta, double *log_p,
     const double *shift, const double *u, Py_ssize_t left, double *row, char *flag)
{
    const int lanes = group_lanes;
    double cand[LANES][3], total[LANES];
    int inside[LANES];
    for (int l = 0; l < lanes; l++) {
        const int depth = TREE[l].depth;
        const double *from = TREE[l].base == THETA ? theta : cand[TREE[l].base];
        for (int j = 0; j < 3; j++)
            cand[l][j] = depth < left ? from[j] + shift[3 * depth + j] : row[j];
    }
    for (int l = 0; l < lanes; l++) {
        if (!(inside[l] = TREE[l].depth < left && in_support(cand[l])))
            memcpy(cand[l], row, sizeof cand[l]);
    }
    score_group(y, ny, (const double (*)[3])cand, sigma1_sq, total);
    for (int m = 0, lane = LANE_I;; m++) {
        if (inside[lane] && check_finite(total + lane, 1) < 0)
            return -1;
        memcpy(row + 3 * m, cand[lane], sizeof cand[lane]);
        flag[m] = decide(theta, log_p, row + 3 * m, inside[lane] ? total[lane] : -INFINITY, u[m]);
        if ((lane = TREE[lane].next[(int)flag[m]]) >= lanes || m + 1 == left)
            return m + 1;
    }
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
   call: while that is this module's own function, walk decides up to
   four steps per pass and makes no Python call; once a wrapper is set
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
#ifdef AVX2
    if (__builtin_cpu_supports("avx2")) {
        score_group = score8;
        group_lanes = 8;
    }
#endif
    return PyModule_Create(&module);
}
