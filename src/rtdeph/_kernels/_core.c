/* Compiled trajectory-batch kernels.
 *
 * A batch holds n trajectories: the level bit at t = 0 (uint8, shape (n,))
 * and the switch times (float64, shape (n, k), padded with +inf).  Each
 * kernel walks every row once along the ascending, finite grid t_grid
 * (float64, shape (m,)); the walk stops at the padding because +inf is never
 * <= t.  dwell_times and levels_at_times fill a caller-allocated
 * C-contiguous (n, m) output through the buffer protocol.  block_sums
 * instead adds, per row, the terms of the coherences z = exp(-i*v*dwell)
 * shifted by their t = 0 value 1 to a caller-zeroed (N_SUMS, m + 1) float64
 * array of difference arrays, without forming any coherence.
 * rtdeph._kernels validates and converts the arguments, allocates the
 * outputs and finishes the difference arrays into column sums.  The loops
 * run with the GIL released.
 *
 * Between two switches a row's coherence is a constant c = exp(-i*v*acc)
 * on level 0, and on level 1 a segment factor s = exp(-i*v*(acc - prev))
 * times the grid factor e = exp(-i*v*t) that all rows share.  So each
 * stretch of grid points [g0, g1) between switches adds its terms once, at
 * g0, and takes them off at g1 of the difference arrays; the grid factor
 * is left to the finishing step.  A block costs one cos/sin pair per
 * stretch and a binary search per switch, not work per trajectory and grid
 * point.
 *
 * The arithmetic is that of the numpy reference (_reference.py), operation
 * for operation, so the two backends agree bit for bit.  setup.py compiles
 * this file with -ffp-contract=off, so no multiply-add is fused, and passes
 * the SHA-256 of this file as RTDEPH_SOURCE_SHA256, which the module
 * exposes as SOURCE_SHA256.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>

#ifndef RTDEPH_SOURCE_SHA256
#error "build with setup.py, which defines RTDEPH_SOURCE_SHA256"
#endif

/* The buffers one call holds: at most a batch of three and an output. */
enum { MAX_VIEWS = 4 };

typedef struct {
    Py_buffer views[MAX_VIEWS];
    int held;
} Views;

static void
release(Views *vs)
{
    while (vs->held > 0)
        PyBuffer_Release(&vs->views[--vs->held]);
}

/* A C-contiguous view of obj with ndim dimensions of itemsize-byte items,
   or NULL with an exception set.  The caller releases every view taken. */
static Py_buffer *
view(Views *vs, PyObject *obj, int ndim, Py_ssize_t itemsize, int writable,
     const char *name)
{
    Py_buffer *v = &vs->views[vs->held];
    if (PyObject_GetBuffer(obj, v, PyBUF_C_CONTIGUOUS | (writable ? PyBUF_WRITABLE : 0)) < 0)
        return NULL;
    vs->held++;
    if (v->ndim != ndim || v->itemsize != itemsize) {
        PyErr_Format(PyExc_ValueError, "%s must be %d-D with %zd-byte items",
                     name, ndim, itemsize);
        return NULL;
    }
    return v;
}

static int
shape_error(void)
{
    PyErr_SetString(PyExc_ValueError, "array shapes do not match");
    return -1;
}

typedef struct {
    Py_ssize_t n, k, m;
    const unsigned char *levels;
    const double *switch_times;
    const double *t_grid;
} Batch;

static int
batch_views(Batch *b, Views *vs, PyObject *levels, PyObject *switch_times,
            PyObject *t_grid)
{
    Py_buffer *lv, *st, *tg;
    if (!(lv = view(vs, levels, 1, 1, 0, "levels"))
        || !(st = view(vs, switch_times, 2, sizeof(double), 0, "switch_times"))
        || !(tg = view(vs, t_grid, 1, sizeof(double), 0, "t_grid")))
        return -1;
    b->n = lv->shape[0];
    b->k = st->shape[1];
    b->m = tg->shape[0];
    if (st->shape[0] != b->n)
        return shape_error();
    b->levels = lv->buf;
    b->switch_times = st->buf;
    b->t_grid = tg->buf;
    return 0;
}

/* Parses (levels, switch_times, t_grid, out) for a per-point kernel and
   returns the view of out, (n, m) with itemsize-byte items, or NULL with an
   exception set.  The caller releases the views either way. */
static Py_buffer *
per_point_args(PyObject *args, Batch *b, Views *vs, Py_ssize_t itemsize)
{
    PyObject *o[4];
    Py_buffer *out;
    if (!PyArg_ParseTuple(args, "OOOO", &o[0], &o[1], &o[2], &o[3])
        || batch_views(b, vs, o[0], o[1], o[2]) < 0
        || !(out = view(vs, o[3], 2, itemsize, 1, "out")))
        return NULL;
    if (out->shape[0] != b->n || out->shape[1] != b->m) {
        shape_error();
        return NULL;
    }
    return out;
}

/* One row's walk along the grid: j switches passed, the time acc spent at
   the high level up to the last of them, at time prev, and the level lvl
   since then. */
typedef struct {
    const double *tau;
    Py_ssize_t k, j;
    double acc, prev, lvl;
} Walk;

static Walk
walk_row(const Batch *b, Py_ssize_t i)
{
    Walk w = {b->switch_times + i * b->k, b->k, 0, 0.0, 0.0, (double)b->levels[i]};
    return w;
}

/* Passes switch j. */
static inline void
pass_switch(Walk *w)
{
    w->acc = w->acc + w->lvl * (w->tau[w->j] - w->prev);
    w->prev = w->tau[w->j];
    w->lvl = 1.0 - w->lvl;
    w->j++;
}

/* Passes the switches at or before t. */
static inline void
advance(Walk *w, double t)
{
    while (w->j < w->k && w->tau[w->j] <= t)
        pass_switch(w);
}

/* Passes the switches at or before t and returns the dwell time in [0, t]. */
static inline double
dwell_at(Walk *w, double t)
{
    advance(w, t);
    return w->acc + w->lvl * (t - w->prev);
}

static PyObject *
dwell_times(PyObject *self, PyObject *args)
{
    Views vs = {.held = 0};
    Batch b;
    Py_buffer *view_out = per_point_args(args, &b, &vs, sizeof(double));
    if (!view_out) {
        release(&vs);
        return NULL;
    }
    double *out = view_out->buf;
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t i = 0; i < b.n; i++) {
        Walk w = walk_row(&b, i);
        for (Py_ssize_t gi = 0; gi < b.m; gi++)
            out[i * b.m + gi] = dwell_at(&w, b.t_grid[gi]);
    }
    Py_END_ALLOW_THREADS
    release(&vs);
    Py_RETURN_NONE;
}

static PyObject *
levels_at_times(PyObject *self, PyObject *args)
{
    Views vs = {.held = 0};
    Batch b;
    Py_buffer *view_out = per_point_args(args, &b, &vs, 1);
    if (!view_out) {
        release(&vs);
        return NULL;
    }
    unsigned char *out = view_out->buf;
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t i = 0; i < b.n; i++) {
        Walk w = walk_row(&b, i);
        for (Py_ssize_t gi = 0; gi < b.m; gi++) {
            advance(&w, b.t_grid[gi]);
            out[i * b.m + gi] = b.levels[i] ^ (unsigned char)(w.j & 1);
        }
    }
    Py_END_ALLOW_THREADS
    release(&vs);
    Py_RETURN_NONE;
}

/* The difference arrays of block_sums, m + 1 entries each.  Level-0
   stretches add c - 1 = (c_r - 1, c_i) and the squares of its parts;
   level-1 stretches add 1 (their count), s - 1 = (s_r - 1, s_i), the
   squares of its parts and their product. */
enum {
    LOW_RE, LOW_IM, LOW_RE2, LOW_IM2,
    HIGH_N, HIGH_RE, HIGH_IM, HIGH_RE2, HIGH_IM2, HIGH_REIM,
    N_SUMS
};

/* The first index in [lo, m) whose grid time is >= t, or m: a switch on a
   grid point starts the new stretch there, as advance passes it. */
static inline Py_ssize_t
stretch_start(const double *t_grid, Py_ssize_t lo, Py_ssize_t m, double t)
{
    Py_ssize_t hi = m;
    while (lo < hi) {
        Py_ssize_t mid = lo + (hi - lo) / 2;
        if (t_grid[mid] < t)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* Adds the terms of row i's stretches to the difference arrays d (N_SUMS
   rows of m + 1), stretch by stretch: a stretch's terms at its first grid
   index g0, then their negatives at its end g1.  An empty stretch adds
   nothing, but its switch still moves acc and prev. */
static void
add_row(const Batch *b, Py_ssize_t i, double v, double *d)
{
    const Py_ssize_t m = b->m, w = m + 1;
    Walk walk = walk_row(b, i);
    Py_ssize_t g0 = 0;
    for (;;) {
        Py_ssize_t g1 = walk.j < walk.k ? stretch_start(b->t_grid, g0, m, walk.tau[walk.j]) : m;
        if (g1 > g0) {
            const int high = walk.lvl != 0.0;
            /* the parts of exp(-i*phase): cos(phase) and sin(-phase) */
            const double phase = v * (high ? walk.acc - walk.prev : walk.acc);
            const double re = cos(phase) - 1.0, im = sin(-phase);
            /* level 1 adds all six terms from HIGH_N, level 0 x[1..4] */
            const double x[6] = {1.0, re, im, re * re, im * im, re * im};
            const int first = high ? HIGH_N : LOW_RE, count = high ? 6 : 4;
            for (int q = 0; q < count; q++) {
                d[(first + q) * w + g0] += x[q + !high];
                d[(first + q) * w + g1] -= x[q + !high];
            }
        }
        if (g1 == m)
            return;
        pass_switch(&walk);
        g0 = g1;
    }
}

/* Takes (levels, switch_times, t_grid, v, out) and adds every row's
   stretch terms to the difference arrays in out, float64 (N_SUMS, m + 1),
   which the caller zeroes. */
static PyObject *
block_sums(PyObject *self, PyObject *args)
{
    PyObject *o[4];
    Views vs = {.held = 0};
    Batch b;
    Py_buffer *out;
    double v;
    if (!PyArg_ParseTuple(args, "OOOdO", &o[0], &o[1], &o[2], &v, &o[3])
        || batch_views(&b, &vs, o[0], o[1], o[2]) < 0
        || !(out = view(&vs, o[3], 2, sizeof(double), 1, "out"))) {
        release(&vs);
        return NULL;
    }
    if (out->shape[0] != N_SUMS || out->shape[1] != b.m + 1) {
        shape_error();
        release(&vs);
        return NULL;
    }
    double *d = out->buf;
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t i = 0; i < b.n; i++)
        add_row(&b, i, v, d);
    Py_END_ALLOW_THREADS
    release(&vs);
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"dwell_times", dwell_times, METH_VARARGS,
     "dwell_times(levels, switch_times, t_grid, out): time at the high level "
     "in [0, t] per trajectory and grid time, into float64 out."},
    {"levels_at_times", levels_at_times, METH_VARARGS,
     "levels_at_times(levels, switch_times, t_grid, out): level bit at each "
     "grid time per trajectory, into uint8 out."},
    {"block_sums", block_sums, METH_VARARGS,
     "block_sums(levels, switch_times, t_grid, v, out): adds the stretch terms "
     "of z = exp(-i*v*dwell) shifted by 1 to the (10, m + 1) difference "
     "arrays in float64 out, without the (n, m) array."},
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
    PyObject *mod = PyModule_Create(&module);
    if (mod && PyModule_AddStringConstant(mod, "SOURCE_SHA256", RTDEPH_SOURCE_SHA256) < 0) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
