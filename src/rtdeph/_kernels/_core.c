/* Compiled trajectory-batch kernels.
 *
 * A batch holds n trajectories: the level bit at t = 0 (uint8, shape (n,))
 * and the switch times (float64, shape (n, k), padded with +inf).  Each
 * kernel walks every row once along the ascending, finite grid t_grid
 * (float64, shape (m,)); the walk stops at the padding because +inf is never
 * <= t.  dwell_times and levels_at_times fill a caller-allocated
 * C-contiguous (n, m) output through the buffer protocol.  block_moments
 * instead walks the rows a tile at a time into one tile-sized buffer and
 * reduces each tile to column moments over the (Re, Im) pairs of the
 * coherences, merged in tile order.  rtdeph._kernels validates and converts
 * the arguments and allocates the outputs.  The loops run with the GIL
 * released.
 *
 * A coherence exp(-i*v*dwell) is not one complex exponential per grid
 * point.  On a level-0 segment the phase v*acc is constant; on a level-1
 * segment it is v*(acc - prev) + v*t, so the coherence is a segment factor
 * times a grid factor, each computed once: cos and sin run once per segment
 * a row visits and once per grid point of the call, not once per point of
 * the row.
 *
 * The arithmetic is that of the numpy reference (_reference.py), operation
 * for operation, so the two backends agree bit for bit.  setup.py compiles
 * this file with -ffp-contract=off, so no multiply-add is fused.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>

/* The buffers one call holds: at most a batch of three and four outputs. */
enum { MAX_VIEWS = 7 };

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

/* Passes the switches at or before t. */
static inline void
advance(Walk *w, double t)
{
    while (w->j < w->k && w->tau[w->j] <= t) {
        w->acc = w->acc + w->lvl * (w->tau[w->j] - w->prev);
        w->prev = w->tau[w->j];
        w->lvl = 1.0 - w->lvl;
        w->j++;
    }
}

/* Passes the switches at or before t and returns the dwell time in [0, t]. */
static inline double
dwell_at(Walk *w, double t)
{
    advance(w, t);
    return w->acc + w->lvl * (t - w->prev);
}

/* The (cos phase, sin(-phase)) pair of exp(-i*phase) into z[0], z[1]. */
static inline void
unit(double phase, double *z)
{
    z[0] = cos(phase);
    z[1] = sin(-phase);
}

/* Row i's coherences exp(-i*v*dwell) into z as m (Re, Im) pairs.  Entering
   a segment computes its factor s: exp(-i*v*acc) on level 0, which is the
   coherence itself, and exp(-i*v*(acc - prev)) on level 1, whose coherence
   at grid point gi is s times the grid factor exp(-i*v*t) held in
   e[2*gi], e[2*gi + 1], multiplied in real arithmetic. */
static void
coherence_row(const Batch *b, Py_ssize_t i, double v, const double *e, double *z)
{
    Walk w = walk_row(b, i);
    Py_ssize_t seg = -1;
    double s[2] = {0.0, 0.0};
    for (Py_ssize_t gi = 0; gi < b->m; gi++) {
        advance(&w, b->t_grid[gi]);
        if (w.j != seg) {
            unit(w.lvl == 0.0 ? v * w.acc : v * (w.acc - w.prev), s);
            seg = w.j;
        }
        if (w.lvl == 0.0) {
            z[2 * gi] = s[0];
            z[2 * gi + 1] = s[1];
        } else {
            const double er = e[2 * gi], ei = e[2 * gi + 1];
            z[2 * gi] = s[0] * er - s[1] * ei;
            z[2 * gi + 1] = s[0] * ei + s[1] * er;
        }
    }
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

/* Column moments over the (Re, Im) pairs of m columns: n rows merged so
   far, the (m, 2) mean and sums of squared deviations (M2), the extremes of
   re*re + im*im, and (m, 2) scratch for one tile's mean and M2. */
typedef struct {
    Py_ssize_t n, m;
    double *mean, *m2, *abs2_min, *abs2_max;
    double *tile_mean, *tile_m2;
} Moments;

/* Views of the four outputs for m columns; n starts at 0. */
static int
moment_views(Moments *s, Views *vs, Py_ssize_t m, PyObject *const *o)
{
    Py_buffer *mean, *m2, *lo, *hi;
    if (!(mean = view(vs, o[0], 2, sizeof(double), 1, "out_mean"))
        || !(m2 = view(vs, o[1], 2, sizeof(double), 1, "out_m2"))
        || !(lo = view(vs, o[2], 1, sizeof(double), 1, "out_abs2_min"))
        || !(hi = view(vs, o[3], 1, sizeof(double), 1, "out_abs2_max")))
        return -1;
    if (mean->shape[0] != m || mean->shape[1] != 2 || m2->shape[0] != m
        || m2->shape[1] != 2 || lo->shape[0] != m || hi->shape[0] != m)
        return shape_error();
    *s = (Moments){0, m, mean->buf, m2->buf, lo->buf, hi->buf, NULL, NULL};
    return 0;
}

static int
check_sizes(Py_ssize_t n, Py_ssize_t tile)
{
    if (tile < 1 || n < 1) {
        PyErr_SetString(PyExc_ValueError, "tile and the number of rows must be >= 1");
        return -1;
    }
    return 0;
}

/* Merges into s the moments of the C-contiguous (rows, m, 2) tile of
   (Re, Im) pairs at x.  The tile's mean is its row sum, added row by row
   from 0.0 as numpy sums over axis 0, divided by rows; its M2 is the sum of
   squared deviations from that mean, added the same way.  The first tile's
   moments are taken as they are; later ones merge by the pairwise update
   of Chan, Golub & LeVeque (1983). */
static void
merge_tile(Moments *s, const double *restrict x, Py_ssize_t rows)
{
    const Py_ssize_t m = s->m, w = 2 * m;
    const int first = s->n == 0;
    double *restrict mean = first ? s->mean : s->tile_mean;
    double *restrict m2 = first ? s->m2 : s->tile_m2;
    double *restrict lo = s->abs2_min, *restrict hi = s->abs2_max;
    for (Py_ssize_t j = 0; first && j < m; j++)
        lo[j] = hi[j] = x[2 * j] * x[2 * j] + x[2 * j + 1] * x[2 * j + 1];
    for (Py_ssize_t c = 0; c < w; c++)
        mean[c] = m2[c] = 0.0;
    for (Py_ssize_t r = 0; r < rows; r++) {
        const double *restrict row = x + r * w;
        for (Py_ssize_t c = 0; c < w; c++)
            mean[c] += row[c];
        for (Py_ssize_t j = 0; j < m; j++) {
            double a = row[2 * j] * row[2 * j] + row[2 * j + 1] * row[2 * j + 1];
            lo[j] = a < lo[j] || isnan(a) ? a : lo[j];
            hi[j] = a > hi[j] || isnan(a) ? a : hi[j];
        }
    }
    for (Py_ssize_t c = 0; c < w; c++)
        mean[c] = mean[c] / (double)rows;
    for (Py_ssize_t r = 0; r < rows; r++) {
        const double *restrict row = x + r * w;
        for (Py_ssize_t c = 0; c < w; c++) {
            double d = row[c] - mean[c];
            m2[c] += d * d;
        }
    }
    if (!first) {
        const Py_ssize_t n = s->n + rows;
        const double wb = (double)rows / (double)n;
        const double wab = (double)(s->n * rows) / (double)n;
        for (Py_ssize_t c = 0; c < w; c++) {
            double delta = mean[c] - s->mean[c];
            s->mean[c] = s->mean[c] + delta * wb;
            s->m2[c] = s->m2[c] + m2[c] + delta * delta * wab;
        }
    }
    s->n += rows;
}

/* Takes (levels, switch_times, t_grid, v, tile, out_mean, out_m2,
   out_abs2_min, out_abs2_max).  The one buffer holds a tile of coherences,
   the tile's mean and M2, and the grid factors exp(-i*v*t). */
static PyObject *
block_moments(PyObject *self, PyObject *args)
{
    PyObject *o[3], *out[4];
    Views vs = {.held = 0};
    Batch b;
    Moments s;
    double v, *buf = NULL, *e;
    Py_ssize_t tile, rows, w;
    if (!PyArg_ParseTuple(args, "OOOdnOOOO", &o[0], &o[1], &o[2], &v, &tile,
                          &out[0], &out[1], &out[2], &out[3])
        || batch_views(&b, &vs, o[0], o[1], o[2]) < 0
        || moment_views(&s, &vs, b.m, out) < 0 || check_sizes(b.n, tile) < 0) {
        release(&vs);
        return NULL;
    }
    rows = tile < b.n ? tile : b.n;
    w = 2 * b.m;
    if (w == 0 || rows + 3 <= PY_SSIZE_T_MAX / (Py_ssize_t)sizeof(double) / w)
        buf = PyMem_RawMalloc((size_t)((rows + 3) * w) * sizeof(double));
    if (!buf) {
        release(&vs);
        return PyErr_NoMemory();
    }
    s.tile_mean = buf + rows * w;
    s.tile_m2 = s.tile_mean + w;
    e = s.tile_m2 + w;
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t gi = 0; gi < b.m; gi++)
        unit(v * b.t_grid[gi], e + 2 * gi);
    for (Py_ssize_t start = 0; start < b.n; start += rows) {
        Py_ssize_t count = b.n - start < rows ? b.n - start : rows;
        for (Py_ssize_t i = 0; i < count; i++)
            coherence_row(&b, start + i, v, e, buf + i * w);
        merge_tile(&s, buf, count);
    }
    Py_END_ALLOW_THREADS
    PyMem_RawFree(buf);
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
    {"block_moments", block_moments, METH_VARARGS,
     "block_moments(levels, switch_times, t_grid, v, tile, out_mean, out_m2, "
     "out_abs2_min, out_abs2_max): column moments of exp(-i*v*dwell), "
     "reduced tile by tile without the (n, m) array."},
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
