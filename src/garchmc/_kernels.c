/* The GARCH(1,1) likelihood kernels in C, with the signatures of
   ``_kernels_py``: positional arguments only, the series first. The scalar
   kernel's series is y or this module's Workspace(y).

   ``garchmc.backend`` compiles this file on first import with
   -ffp-contract=off, so each step of the volatility recursion,
   s_t = (y_{t-1}^2*alpha + omega) + beta*s_{t-1} from s_0 = sigma1_sq,
   rounds as it does in ``_kernels_py``. The file uses the CPython C API and
   the buffer protocol only: arrays come in through numpy.ascontiguousarray,
   as ``_kernels_py`` takes them through np.asarray, and go out through
   numpy.empty.

   log L = -0.5 * sum_t [log(2 pi) + log(s_t) + y_t^2/s_t]. The log(s_t)
   are taken as one log of the product of each CHUNK steps. A chunk with an
   s_t below SAFE_MIN, whose product could pass through the subnormals, and
   one whose product is not finite are redone with one log per step. A
   non-finite total raises garchmc.exceptions.NumericOverflowError. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <float.h>
#include <math.h>
#include <stdlib.h>
#include <string.h>

#define CHUNK 16
/* With every s_t at least 2^-62, each partial product of at most CHUNK of
   them is at least 2^-992, so normal; an s_t above it can only overflow the
   product to inf, which stays inf and fails the finiteness check. */
#define SAFE_MIN 0x1p-62
#define LOG_2PI 1.8378770664093454836

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

/* The log-likelihoods of the k rows (alpha, beta, omega) of theta on the n
   returns y, into total. Time-outer and candidate-inner; touches no Python
   object, so it may run without the GIL. Returns -1 when out of memory. */
static int
score(const double *y, Py_ssize_t n, const double *theta, Py_ssize_t k,
      double sigma1_sq, double *total)
{
    double *buf = malloc(8 * (size_t)(k ? k : 1) * sizeof(double));
    if (buf == NULL)
        return -1;
    double *restrict a = buf, *restrict b = a + k, *restrict w = b + k;
    double *restrict s = w + k, *restrict start = s + k, *restrict prod = start + k;
    double *restrict low = prod + k, *restrict quad = low + k;
    for (Py_ssize_t j = 0; j < k; j++) {
        a[j] = theta[3 * j];
        b[j] = theta[3 * j + 1];
        w[j] = theta[3 * j + 2];
        total[j] = quad[j] = s[j] = 0.0;
    }
    for (Py_ssize_t t0 = 0; t0 < n; t0 += CHUNK) {
        const Py_ssize_t t1 = t0 + CHUNK < n ? t0 + CHUNK : n;
        memcpy(start, s, k * sizeof(double));
        for (Py_ssize_t j = 0; j < k; j++) {
            prod[j] = 1.0;
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
        for (Py_ssize_t j = 0; j < k; j++) {
            if (low[j] >= SAFE_MIN && prod[j] <= DBL_MAX) {
                total[j] += log(prod[j]);
                continue;
            }
            double st = start[j], logs = 0.0;
            for (Py_ssize_t t = t0; t < t1; t++) {
                st = t ? recur(y[t - 1] * y[t - 1], a[j], b[j], w[j], st) : sigma1_sq;
                logs += log(st);
            }
            total[j] += logs;
        }
    }
    for (Py_ssize_t j = 0; j < k; j++)
        total[j] = -0.5 * ((total[j] + quad[j]) + (double)n * LOG_2PI);
    free(buf);
    return 0;
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
    else if ((out = PyObject_CallFunction(empty, "n", k)) != NULL) {
        if (PyObject_GetBuffer(out, &ov, PyBUF_C_CONTIGUOUS | PyBUF_WRITABLE) == 0) {
            Py_BEGIN_ALLOW_THREADS
            rc = score(yv.buf, yv.shape[0], tv.buf, k, sigma1_sq, ov.buf);
            Py_END_ALLOW_THREADS
            if (rc < 0)
                PyErr_NoMemory();
            else
                rc = check_finite(ov.buf, k);
            PyBuffer_Release(&ov);
        }
        if (rc < 0)
            Py_CLEAR(out);
    }
    PyBuffer_Release(&yv);
    PyBuffer_Release(&tv);
    return rc < 0 ? NULL : out;
}

/* The scalar kernel keeps nothing per series, so a workspace is y as a
   float64 array. */
static PyObject *
workspace(PyObject *self, PyObject *y)
{
    return PyObject_CallFunctionObjArgs(ascontiguousarray, y, (PyObject *)&PyFloat_Type, NULL);
}

static PyMethodDef methods[] = {
    {"Workspace", workspace, METH_O, "y as a C-contiguous float64 array."},
    {"log_likelihood", log_likelihood, METH_VARARGS, "Log-likelihood of one parameter set."},
    {"log_likelihood_batch", log_likelihood_batch, METH_VARARGS,
     "Log-likelihoods of the (k, 3) parameter rows of thetas."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "garchmc._kernels", "Compiled GARCH(1,1) likelihood kernels.",
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
