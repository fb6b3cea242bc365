/* Compiled trajectory-batch kernels.
 *
 * A batch holds n trajectories: the level bit at t = 0 (uint8, shape (n,)),
 * the switch times (float64, shape (n, k), padded with +inf) and the number
 * of valid switch times per row (intp, shape (n,)).  Each kernel walks every
 * row once along the ascending grid t_grid (float64, shape (m,)) and fills a
 * caller-allocated C-contiguous (n, m) output through the buffer protocol;
 * rtdeph._kernels validates and converts the arguments and allocates the
 * output.  The loops run with the GIL released.
 *
 * The arithmetic is that of the numpy reference (_reference.py), operation
 * for operation, so the two backends agree bit for bit.  setup.py compiles
 * this file with -ffp-contract=off, so no multiply-add is fused.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdint.h>
#include <string.h>

enum { LEVELS, SWITCH_TIMES, COUNTS, T_GRID, OUT, N_VIEWS };

typedef struct {
    Py_buffer views[N_VIEWS];
    int held;
    Py_ssize_t n, k, m;
    const unsigned char *levels;
    const double *switch_times;
    const Py_ssize_t *counts;
    const double *t_grid;
    void *out;
} Batch;

static void
release(Batch *b)
{
    while (b->held > 0)
        PyBuffer_Release(&b->views[--b->held]);
}

static int
view(Batch *b, PyObject *obj, int ndim, Py_ssize_t itemsize, const char *name)
{
    Py_buffer *v = &b->views[b->held];
    int flags = PyBUF_C_CONTIGUOUS | (b->held == OUT ? PyBUF_WRITABLE : 0);
    if (PyObject_GetBuffer(obj, v, flags) < 0)
        return -1;
    b->held++;
    if (v->ndim != ndim || v->itemsize != itemsize) {
        PyErr_Format(PyExc_ValueError, "%s must be %d-D with %zd-byte items",
                     name, ndim, itemsize);
        return -1;
    }
    return 0;
}

/* Takes (levels, switch_times, counts, t_grid[, v], out).  On failure the
   caller still releases the views taken so far. */
static int
parse(Batch *b, PyObject *args, Py_ssize_t out_itemsize, double *v)
{
    PyObject *o[N_VIEWS];
    memset(b, 0, sizeof *b);
    int ok = v ? PyArg_ParseTuple(args, "OOOOdO", &o[LEVELS], &o[SWITCH_TIMES],
                                  &o[COUNTS], &o[T_GRID], v, &o[OUT])
               : PyArg_ParseTuple(args, "OOOOO", &o[LEVELS], &o[SWITCH_TIMES],
                                  &o[COUNTS], &o[T_GRID], &o[OUT]);
    if (!ok || view(b, o[LEVELS], 1, 1, "levels") < 0
        || view(b, o[SWITCH_TIMES], 2, sizeof(double), "switch_times") < 0
        || view(b, o[COUNTS], 1, sizeof(Py_ssize_t), "counts") < 0
        || view(b, o[T_GRID], 1, sizeof(double), "t_grid") < 0
        || view(b, o[OUT], 2, out_itemsize, "out") < 0)
        return -1;
    Py_buffer *vw = b->views;
    b->n = vw[LEVELS].shape[0];
    b->k = vw[SWITCH_TIMES].shape[1];
    b->m = vw[T_GRID].shape[0];
    if (vw[SWITCH_TIMES].shape[0] != b->n || vw[COUNTS].shape[0] != b->n
        || vw[OUT].shape[0] != b->n || vw[OUT].shape[1] != b->m) {
        PyErr_SetString(PyExc_ValueError, "array shapes do not match");
        return -1;
    }
    b->levels = vw[LEVELS].buf;
    b->switch_times = vw[SWITCH_TIMES].buf;
    b->counts = vw[COUNTS].buf;
    b->t_grid = vw[T_GRID].buf;
    b->out = vw[OUT].buf;
    return 0;
}

/* One row's walk along the grid: j switches passed, the time acc spent at
   the high level up to the last of them, at time prev, and the level lvl
   since then. */
typedef struct {
    const double *tau;
    Py_ssize_t c, j;
    double acc, prev, lvl;
} Walk;

static Walk
walk_row(const Batch *b, Py_ssize_t i)
{
    Py_ssize_t c = b->counts[i];
    Walk w = {b->switch_times + i * b->k, c < b->k ? c : b->k, 0, 0.0, 0.0,
              (double)b->levels[i]};
    return w;
}

/* Passes the switches at or before t and returns the dwell time in [0, t]. */
static inline double
dwell_at(Walk *w, double t)
{
    while (w->j < w->c && w->tau[w->j] <= t) {
        w->acc = w->acc + w->lvl * (w->tau[w->j] - w->prev);
        w->prev = w->tau[w->j];
        w->lvl = 1.0 - w->lvl;
        w->j++;
    }
    return w->acc + w->lvl * (t - w->prev);
}

static PyObject *
dwell_times(PyObject *self, PyObject *args)
{
    Batch b;
    if (parse(&b, args, sizeof(double), NULL) < 0) {
        release(&b);
        return NULL;
    }
    double *out = b.out;
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t i = 0; i < b.n; i++) {
        Walk w = walk_row(&b, i);
        for (Py_ssize_t gi = 0; gi < b.m; gi++)
            out[i * b.m + gi] = dwell_at(&w, b.t_grid[gi]);
    }
    Py_END_ALLOW_THREADS
    release(&b);
    Py_RETURN_NONE;
}

static PyObject *
levels_at_times(PyObject *self, PyObject *args)
{
    Batch b;
    if (parse(&b, args, 1, NULL) < 0) {
        release(&b);
        return NULL;
    }
    unsigned char *out = b.out;
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t i = 0; i < b.n; i++) {
        Walk w = walk_row(&b, i);
        for (Py_ssize_t gi = 0; gi < b.m; gi++) {
            dwell_at(&w, b.t_grid[gi]);
            out[i * b.m + gi] = b.levels[i] ^ (unsigned char)(w.j & 1);
        }
    }
    Py_END_ALLOW_THREADS
    release(&b);
    Py_RETURN_NONE;
}

/* z = exp(-i*theta) with theta = v * dwell, stored as (cos theta,
   sin(-theta)), which is what numpy's complex exp gives for -1j * theta.
   On a level-0 segment theta keeps its bits, so cos and sin are computed
   only when theta's bits differ from the previous grid point's. */
static PyObject *
coherences(PyObject *self, PyObject *args)
{
    Batch b;
    double v;
    if (parse(&b, args, 2 * sizeof(double), &v) < 0) {
        release(&b);
        return NULL;
    }
    double *z = b.out;
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t i = 0; i < b.n; i++) {
        Walk w = walk_row(&b, i);
        uint64_t bits, last = 0;
        double re = 0.0, im = 0.0;
        for (Py_ssize_t gi = 0; gi < b.m; gi++) {
            double theta = v * dwell_at(&w, b.t_grid[gi]);
            memcpy(&bits, &theta, sizeof bits);
            if (gi == 0 || bits != last) {
                re = cos(theta);
                im = sin(-theta);
                last = bits;
            }
            z[2 * (i * b.m + gi)] = re;
            z[2 * (i * b.m + gi) + 1] = im;
        }
    }
    Py_END_ALLOW_THREADS
    release(&b);
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"dwell_times", dwell_times, METH_VARARGS,
     "dwell_times(levels, switch_times, counts, t_grid, out): time at the high "
     "level in [0, t] per trajectory and grid time, into float64 out."},
    {"levels_at_times", levels_at_times, METH_VARARGS,
     "levels_at_times(levels, switch_times, counts, t_grid, out): level bit "
     "at each grid time per trajectory, into uint8 out."},
    {"coherences", coherences, METH_VARARGS,
     "coherences(levels, switch_times, counts, t_grid, v, out): "
     "exp(-i*v*dwell) per trajectory and grid time, into complex128 out."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_core",
    .m_doc = "Compiled trajectory-batch kernels.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__core(void)
{
    return PyModule_Create(&module);
}
