/* Compiled trajectory-batch kernels.
 *
 * A batch holds n trajectories: the level bit at t = 0 (uint8, shape (n,)),
 * the switch times in epoch units x (float64, shape (n, k), sorted per row
 * and padded with +inf) and the epoch length scale: switch j of row i is at
 * x[i, j] * scale.  Each kernel walks every row once along the ascending,
 * finite grid t_grid (float64, shape (m,)), forming each switch time as it
 * reaches it; the walk stops at the first switch past the last grid time,
 * and so at the padding, because +inf is never <= t.  dwell_times and
 * levels_at_times fill a caller-allocated C-contiguous (n, m) output
 * through the buffer protocol.  block_sums instead adds, per row, the
 * terms of the coherences z = exp(-i*v*dwell) shifted by their t = 0 value
 * 1 to a caller-zeroed (N_SUMS, m + 1) float64 array of difference arrays,
 * without forming any coherence.  sample draws the epoch times: each row
 * from its own Philox4x32-10 counters (index, epoch, draw) under the
 * 64-bit seed, a Poisson number of sorted uniforms u per epoch e at
 * x = e + u, the epochs and times at or below a cut, which alone says what
 * is drawn, into a caller-allocated levels and a flat times buffer that it
 * lays out as the padded (n, k) rows, keeping the row counts in scratch of
 * its own.  They serve every switching rate, each with its own scale, up
 * to the cut.  exp_minus_i fills an array with block_sums' phase factor.
 *
 * sample walks the call's (row, epoch) pairs in row order, CHUNK at a
 * time, in four passes (sample_rows): the Philox block of each pair's
 * first draw; its count, found without a data-dependent exit, and a list
 * of the extra draws its count needs; the Philox blocks of those; and the
 * sort, cut and append of each epoch's times.  So the ten-round chains of
 * the counters run back to back, not behind each epoch's branches.  The
 * two Philox passes run eight counters per step on AVX2 lanes where the
 * CPU has them (asked once, at module init, and named by PHILOX_LANES),
 * and one at a time elsewhere and for the remainder.  Philox is 32-bit
 * integer arithmetic, which the lanes do exactly as the scalar code does,
 * so both paths give the same words.
 * Apart from the batches, float_reprs writes the shortest round-trip text
 * of float64 values, byte for byte Python's repr (see repr_fast).
 * rtdeph._kernels validates and converts the arguments, builds the Poisson
 * table, allocates the outputs and finishes the difference arrays into
 * column sums.  The batch loops run with the GIL released.
 *
 * Between two switches a row's coherence is a constant c = exp(-i*v*acc)
 * on level 0, and on level 1 a segment factor s = exp(-i*v*(acc - prev))
 * times the grid factor e = exp(-i*v*t) that all rows share.  So each
 * stretch of grid points [g0, g1) between switches adds its terms once, at
 * g0, and takes them off at g1 of the difference arrays; the grid factor
 * is left to the finishing step.  A block costs, per stretch, one
 * exp_minus_i of about 55 IEEE + and * and, per switch, a look-up in a
 * table of equal grid cells built once per call and a branch-free search
 * inside one cell: constant work per switch on a uniform grid, not work
 * per trajectory and grid point.
 *
 * The arithmetic is that of the numpy reference (_reference.py), operation
 * for operation, so the two backends agree bit for bit: a switch time is
 * the one product x * scale in both, exp_minus_i is repeated there, and the
 * grid index finds the same start as numpy's searchsorted; the sampler
 * uses only integer arithmetic, IEEE +, * and comparisons, and a sort per
 * epoch: a min/max network for at most 8 times and an insertion sort
 * above, which order the kept times as numpy's row sort does, whether its
 * Philox ran on lanes or not.
 * setup.py compiles this file with -ffp-contract=off, so no multiply-add
 * is fused, and passes the SHA-256 of this file as RTDEPH_SOURCE_SHA256,
 * which the module exposes as SOURCE_SHA256.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdint.h>
#include <string.h>

#ifndef RTDEPH_SOURCE_SHA256
#error "build with setup.py, which defines RTDEPH_SOURCE_SHA256"
#endif

/* The buffers one call holds: at most a batch of three and an output, or
   sample's table and two outputs. */
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
    double scale;
} Batch;

/* Views of (levels, switch_times, t_grid) and the scale, which must be
   finite and positive. */
static int
batch_views(Batch *b, Views *vs, PyObject *levels, PyObject *switch_times,
            PyObject *t_grid, double scale)
{
    if (!(scale > 0.0 && scale < Py_HUGE_VAL)) {
        PyErr_SetString(PyExc_ValueError, "scale must be finite and positive");
        return -1;
    }
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
    b->scale = scale;
    return 0;
}

/* Parses (levels, switch_times, t_grid, scale, out) for a per-point kernel
   and returns the view of out, (n, m) with itemsize-byte items, or NULL
   with an exception set.  The caller releases the views either way. */
static Py_buffer *
per_point_args(PyObject *args, Batch *b, Views *vs, Py_ssize_t itemsize)
{
    PyObject *o[4];
    double scale;
    Py_buffer *out;
    if (!PyArg_ParseTuple(args, "OOOdO", &o[0], &o[1], &o[2], &scale, &o[3])
        || batch_views(b, vs, o[0], o[1], o[2], scale) < 0
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
   since then.  Switch j is at tau[j] * scale. */
typedef struct {
    const double *tau;
    Py_ssize_t k, j;
    double scale, acc, prev, lvl;
} Walk;

static Walk
walk_row(const Batch *b, Py_ssize_t i)
{
    Walk w = {b->switch_times + i * b->k, b->k, 0, b->scale, 0.0, 0.0, (double)b->levels[i]};
    return w;
}

/* The time of switch j, which must exist. */
static inline double
next_switch(const Walk *w)
{
    return w->tau[w->j] * w->scale;
}

/* Passes switch j, which is at time t. */
static inline void
pass_switch(Walk *w, double t)
{
    w->acc = w->acc + w->lvl * (t - w->prev);
    w->prev = t;
    w->lvl = 1.0 - w->lvl;
    w->j++;
}

/* Passes the switches at or before t. */
static inline void
advance(Walk *w, double t)
{
    double s;
    while (w->j < w->k && (s = next_switch(w)) <= t)
        pass_switch(w, s);
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

/* exp(-i*theta) = (cos theta, sin(-theta)) in IEEE + and * alone, which
   _reference.exp_minus_i repeats operation for operation (a test holds the
   constants of the two equal).  k = rint(theta*2/pi) comes from the
   1.5*2^52 shift.  pi/2 = PIO2_1 + PIO2_2 + PIO2_3 + PIO2_3T: for |k| <
   2^20, k times each of the first three is exact, and the first two end on
   the 2^-53 grid, so y = theta - k*(PIO2_1 + PIO2_2) is exact too; r + rt
   = y - k*(PIO2_3 + PIO2_3T) keeps r's rounding error in rt (exact when |y|
   >= |k*PIO2_3|, and y - k*PIO2_3 is exact otherwise).  So the remainder
   keeps its digits next to every multiple of pi/2 below the bound, where
   it falls to 2^-60.5 (theta = 29*pi/2).  The sin and cos of r + rt, |r|
   <= ~pi/4, are the fdlibm kernel polynomials (Sun, 1993; FreeBSD's
   branch-free __kernel_cos), and the quadrant k mod 4 picks and signs
   them without a branch.  Past PHASE_BOUND (and for inf and NaN) it is
   libm's cos and sin, as numpy's complex exp is in the reference. */
static const double
    TWO_OVER_PI = 0x1.45f306dc9c883p-1, ROUND_SHIFT = 0x1.8p+52, PHASE_BOUND = 0x1p+20,
    PIO2_1 = 0x1.921fb544p+0, PIO2_2 = 0x1.0b462p-34, PIO2_3 = -0x1.cb3b399ep-55,
    PIO2_3T = 0x1.1701b839a252p-88,
    S1 = -0x1.5555555555549p-3, S2 = 0x1.111111110f8a6p-7, S3 = -0x1.a01a019c161d5p-13,
    S4 = 0x1.71de357b1fe7dp-19, S5 = -0x1.ae5e68a2b9cebp-26, S6 = 0x1.5d93a5acfd57cp-33,
    C1 = 0x1.555555555554cp-5, C2 = -0x1.6c16c16c15177p-10, C3 = 0x1.a01a019cb159p-16,
    C4 = -0x1.27e4f809c52adp-22, C5 = 0x1.1ee9ebdb4b1c4p-29, C6 = -0x1.8fae9be8838d4p-37;

/* The signs of cos(r) or sin(r) in cos(theta) and in sin(-theta), by k mod 4. */
static const double SIGN_RE[4] = {1.0, -1.0, -1.0, 1.0}, SIGN_IM[4] = {-1.0, -1.0, 1.0, 1.0};

static inline void
exp_minus_i(double theta, double *re, double *im)
{
    if (!(fabs(theta) <= PHASE_BOUND)) {
        *re = cos(theta);
        *im = sin(-theta);
        return;
    }
    const double k = (theta * TWO_OVER_PI + ROUND_SHIFT) - ROUND_SHIFT;
    const double y = (theta - k * PIO2_1) - k * PIO2_2, c = k * PIO2_3;
    const double r = y - c, rt = ((y - r) - c) - k * PIO2_3T;
    const double z = r * r, w = z * z, v = z * r;
    const double ps = (S2 + z * (S3 + z * S4)) + (z * w) * (S5 + z * S6);
    const double sn = r - ((z * (0.5 * rt - v * ps) - rt) - v * S1);
    const double pc = z * (C1 + z * (C2 + z * C3)) + (w * w) * (C4 + z * (C5 + z * C6));
    const double hz = 0.5 * z, h = 1.0 - hz;
    const double cs = h + (((1.0 - h) - hz) + (z * pc - r * rt));
    /* indexed, not a conditional, which the compiler may make a branch */
    const double parts[2] = {cs, sn};
    const int q = (int)k & 3;
    *re = parts[q & 1] * SIGN_RE[q];
    *im = parts[!(q & 1)] * SIGN_IM[q];
}

/* Takes (theta, out): theta 1-D float64, out float64 (n, 2), whose row i
   it fills with the parts of exp(-i*theta[i]), the factor of block_sums. */
static PyObject *
exp_minus_i_vector(PyObject *self, PyObject *args)
{
    PyObject *o[2];
    Views vs = {.held = 0};
    Py_buffer *tv, *ov;
    if (!PyArg_ParseTuple(args, "OO", &o[0], &o[1])
        || !(tv = view(&vs, o[0], 1, sizeof(double), 0, "theta"))
        || !(ov = view(&vs, o[1], 2, sizeof(double), 1, "out"))) {
        release(&vs);
        return NULL;
    }
    const Py_ssize_t n = tv->shape[0];
    if (ov->shape[0] != n || ov->shape[1] != 2) {
        shape_error();
        release(&vs);
        return NULL;
    }
    const double *theta = tv->buf;
    double *out = ov->buf;
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t i = 0; i < n; i++)
        exp_minus_i(theta[i], &out[2 * i], &out[2 * i + 1]);
    Py_END_ALLOW_THREADS
    release(&vs);
    Py_RETURN_NONE;
}

/* The first grid index of each of m equal cells over [t_grid[0],
   t_grid[m - 1]], built once per call, so that a switch looks up its cell
   and searches only inside it.  cell is monotone in t (it is 0 for NaN),
   so a grid time in an earlier cell is < t and one in a later cell is > t:
   the index a search of the whole grid finds lies in [first[c], first[c +
   1]]. */
typedef struct {
    const double *t;
    Py_ssize_t m;
    double lo, scale;
    Py_ssize_t *first;
} GridIndex;

static inline Py_ssize_t
cell(const GridIndex *gx, double t)
{
    const double u = (t - gx->lo) * gx->scale;
    if (!(u > 0.0))
        return 0;
    return u < (double)gx->m ? (Py_ssize_t)u : gx->m - 1;
}

/* Fills gx for the grid t (m >= 1 points); -1 with MemoryError set. */
static int
grid_index(GridIndex *gx, const double *t, Py_ssize_t m)
{
    const double span = t[m - 1] - t[0];
    gx->t = t;
    gx->m = m;
    gx->lo = t[0];
    gx->scale = span > 0.0 ? (double)m / span : 0.0;
    gx->first = PyMem_RawMalloc((m + 1) * sizeof(Py_ssize_t));
    if (!gx->first) {
        PyErr_NoMemory();
        return -1;
    }
    Py_ssize_t g = 0;
    for (Py_ssize_t c = 0; c < m; c++) {
        while (g < m && cell(gx, t[g]) < c)
            g++;
        gx->first[c] = g;
    }
    gx->first[m] = m;
    return 0;
}

/* The first index in [g0, m) whose grid time is >= t, or m: a switch on a
   grid point starts the new stretch there, as advance passes it.  A lower
   bound over t's cell without a data-dependent branch: the answer lies in
   [lo, lo + n], and each step tests the last of the first ceil(n/2)
   untested points, moves lo past them if it is < t (a conditional move,
   not a jump) and keeps floor(n/2) untested.  The step count depends only
   on the cell's size, at most log2 of it plus 1. */
static inline Py_ssize_t
stretch_start(const GridIndex *gx, Py_ssize_t g0, double t)
{
    const Py_ssize_t c = cell(gx, t);
    Py_ssize_t lo = gx->first[c] > g0 ? gx->first[c] : g0, n = gx->first[c + 1] - lo;
    while (n > 0) {
        const Py_ssize_t half = n - n / 2;
        lo = gx->t[lo + half - 1] < t ? lo + half : lo;
        n /= 2;
    }
    return lo;
}

/* Adds the terms of row i's stretches to the difference arrays d (N_SUMS
   rows of m + 1), stretch by stretch: a stretch's terms at its first grid
   index g0, then their negatives at its end g1.  An empty stretch adds
   nothing, but its switch still moves acc and prev. */
static void
add_row(const Batch *b, const GridIndex *gx, Py_ssize_t i, double v, double *d)
{
    const Py_ssize_t m = b->m, w = m + 1;
    Walk walk = walk_row(b, i);
    Py_ssize_t g0 = 0;
    for (;;) {
        /* the stretch ends at the next switch, at time s, or at the grid's end */
        const int more = walk.j < walk.k;
        const double s = more ? next_switch(&walk) : 0.0;
        const Py_ssize_t g1 = more ? stretch_start(gx, g0, s) : m;
        if (g1 > g0) {
            const int high = walk.lvl != 0.0;
            double re, im;
            exp_minus_i(v * (high ? walk.acc - walk.prev : walk.acc), &re, &im);
            re -= 1.0;
            /* level 1 adds six terms from HIGH_N, level 0 four from LOW_RE
               and two zeros, so the level picks them without a branch.
               The zeros change no bit: d starts at +0.0, and a sum with
               one operand other than -0.0 is never -0.0. */
            const double x[2][6] = {{re, im, re * re, im * im, 0.0, 0.0},
                                    {1.0, re, im, re * re, im * im, re * im}};
            const double *terms = x[high];
            double *rows = d + (high ? HIGH_N : LOW_RE) * w;
            for (int q = 0; q < 6; q++) {
                rows[q * w + g0] += terms[q];
                rows[q * w + g1] -= terms[q];
            }
        }
        if (g1 == m)
            return;
        pass_switch(&walk, s);
        g0 = g1;
    }
}

/* Takes (levels, switch_times, t_grid, scale, v, out) and adds every row's
   stretch terms to the difference arrays in out, float64 (N_SUMS, m + 1),
   which the caller zeroes. */
static PyObject *
block_sums(PyObject *self, PyObject *args)
{
    PyObject *o[4];
    Views vs = {.held = 0};
    Batch b;
    Py_buffer *out;
    double scale, v;
    if (!PyArg_ParseTuple(args, "OOOddO", &o[0], &o[1], &o[2], &scale, &v, &o[3])
        || batch_views(&b, &vs, o[0], o[1], o[2], scale) < 0
        || !(out = view(&vs, o[3], 2, sizeof(double), 1, "out"))) {
        release(&vs);
        return NULL;
    }
    if (out->shape[0] != N_SUMS || out->shape[1] != b.m + 1) {
        shape_error();
        release(&vs);
        return NULL;
    }
    if (b.m == 0) {
        /* every stretch is empty */
        release(&vs);
        Py_RETURN_NONE;
    }
    GridIndex gx;
    if (grid_index(&gx, b.t_grid, b.m) < 0) {
        release(&vs);
        return NULL;
    }
    double *d = out->buf;
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t i = 0; i < b.n; i++)
        add_row(&b, &gx, i, v, d);
    Py_END_ALLOW_THREADS
    PyMem_RawFree(gx.first);
    release(&vs);
    Py_RETURN_NONE;
}

/* Philox4x32-10's multipliers and key increments. */
static const uint32_t PHILOX_M0 = 0xD2511F53u, PHILOX_M1 = 0xCD9E8D57u,
    PHILOX_W0 = 0x9E3779B9u, PHILOX_W1 = 0xBB67AE85u;

/* Philox4x32-10 (Salmon, Moraes, Dror & Shaw, SC'11): the counter c
   becomes its random block in place, under the key (k0, k1). */
static inline void
philox(uint32_t c[4], uint32_t k0, uint32_t k1)
{
    for (int r = 0; r < 10; r++) {
        const uint64_t p0 = (uint64_t)PHILOX_M0 * c[0], p1 = (uint64_t)PHILOX_M1 * c[2];
        const uint32_t c1 = c[1], c3 = c[3];
        c[0] = (uint32_t)(p1 >> 32) ^ c1 ^ k0;
        c[1] = (uint32_t)p1;
        c[2] = (uint32_t)(p0 >> 32) ^ c3 ^ k1;
        c[3] = (uint32_t)p0;
        k0 += PHILOX_W0;
        k1 += PHILOX_W1;
    }
}

/* The AVX2 lanes exist only for x86 and a GNU-compatible compiler (gcc,
   clang), which compile one function for AVX2 through a target attribute
   and ask the CPU at run time; everything else has the portable path
   alone. */
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define RTDEPH_AVX2_LANES 1
#include <immintrin.h>

/* The low and high words of the eight 32x32-bit products a * m (m in
   every lane).  _mm256_mul_epu32 multiplies the even lanes into 64-bit
   products, so the odd lanes are shifted down for a second product, and
   each word is shifted back into its lane. */
__attribute__((target("avx2"))) static inline void
mulhilo8(__m256i a, __m256i m, __m256i *lo, __m256i *hi)
{
    const __m256i even = _mm256_mul_epu32(a, m);
    const __m256i odd = _mm256_mul_epu32(_mm256_srli_epi64(a, 32), m);
    *lo = _mm256_blend_epi32(even, _mm256_slli_epi64(odd, 32), 0xAA);
    *hi = _mm256_blend_epi32(_mm256_srli_epi64(even, 32), odd, 0xAA);
}

/* philox of the counters (w[0][j], w[1][j], w[2][j], w[3][j]), j < m (a
   multiple of 8), in place, eight per step: the same rounds on 32-bit
   lanes. */
__attribute__((target("avx2"))) static void
philox_avx2(uint32_t *const w[4], Py_ssize_t m, uint32_t k0, uint32_t k1)
{
    const __m256i m0 = _mm256_set1_epi32((int)PHILOX_M0), m1 = _mm256_set1_epi32((int)PHILOX_M1);
    for (Py_ssize_t j = 0; j < m; j += 8) {
        __m256i c0 = _mm256_loadu_si256((const __m256i *)(w[0] + j));
        __m256i c1 = _mm256_loadu_si256((const __m256i *)(w[1] + j));
        __m256i c2 = _mm256_loadu_si256((const __m256i *)(w[2] + j));
        __m256i c3 = _mm256_loadu_si256((const __m256i *)(w[3] + j));
        uint32_t a = k0, b = k1;
        for (int r = 0; r < 10; r++) {
            __m256i lo0, hi0, lo1, hi1;
            mulhilo8(c0, m0, &lo0, &hi0);
            mulhilo8(c2, m1, &lo1, &hi1);
            c0 = _mm256_xor_si256(_mm256_xor_si256(hi1, c1), _mm256_set1_epi32((int)a));
            c1 = lo1;
            c2 = _mm256_xor_si256(_mm256_xor_si256(hi0, c3), _mm256_set1_epi32((int)b));
            c3 = lo0;
            a += PHILOX_W0;
            b += PHILOX_W1;
        }
        _mm256_storeu_si256((__m256i *)(w[0] + j), c0);
        _mm256_storeu_si256((__m256i *)(w[1] + j), c1);
        _mm256_storeu_si256((__m256i *)(w[2] + j), c2);
        _mm256_storeu_si256((__m256i *)(w[3] + j), c3);
    }
}
#endif

/* Whether philox_lanes runs the AVX2 lanes: set once, at module init. */
static int avx2_lanes;

/* philox of the m counters (w[0][j], w[1][j], w[2][j], w[3][j]) in
   place: eight at a time on the AVX2 lanes where the CPU has them, the
   rest, and every counter elsewhere, one at a time. */
static void
philox_lanes(uint32_t *const w[4], Py_ssize_t m, uint32_t k0, uint32_t k1)
{
    Py_ssize_t j = 0;
#ifdef RTDEPH_AVX2_LANES
    if (avx2_lanes) {
        j = m - m % 8;
        philox_avx2(w, j, k0, k1);
    }
#endif
    for (; j < m; j++) {
        uint32_t c[4] = {w[0][j], w[1][j], w[2][j], w[3][j]};
        philox(c, k0, k1);
        for (int q = 0; q < 4; q++)
            w[q][j] = c[q];
    }
}

/* ((a << 20 ^ b >> 12) + 0.5) * 2^-52: 52 random bits, exact, in (0, 1). */
static inline double
uniform(uint32_t a, uint32_t b)
{
    return ((double)(((uint64_t)a << 20) ^ (b >> 12)) + 0.5) * 0x1p-52;
}

/* An epoch draws fewer switches than the Poisson table has entries; one
   of at most NETWORK_WIDTH is sorted by sort_network.  A count is found
   among the first COUNTED entries of the table without a data-dependent
   exit, and an epoch's first LISTED extra draws are listed without one. */
enum { MAX_TABLE = 64, NETWORK_WIDTH = 8, COUNTED = 16, LISTED = 4 };

/* Puts the lesser of *a and *b in *a and the greater in *b: two plain
   conditionals, which the compiler makes a min and a max, not a branch. */
static inline void
compare_exchange(double *a, double *b)
{
    const double x = *a, y = *b;
    *a = y < x ? y : x;
    *b = x < y ? y : x;
}

/* Sorts 8 doubles, none NaN, with an optimal network of 19
   compare-exchanges in 6 layers (Knuth, TAOCP vol. 3, 5.3.4): the same
   work, and no branch, whatever their order. */
static inline void
sort_network(double x[NETWORK_WIDTH])
{
    compare_exchange(&x[0], &x[2]); compare_exchange(&x[1], &x[3]);
    compare_exchange(&x[4], &x[6]); compare_exchange(&x[5], &x[7]);
    compare_exchange(&x[0], &x[4]); compare_exchange(&x[1], &x[5]);
    compare_exchange(&x[2], &x[6]); compare_exchange(&x[3], &x[7]);
    compare_exchange(&x[0], &x[1]); compare_exchange(&x[2], &x[3]);
    compare_exchange(&x[4], &x[5]); compare_exchange(&x[6], &x[7]);
    compare_exchange(&x[2], &x[4]); compare_exchange(&x[3], &x[5]);
    compare_exchange(&x[1], &x[4]); compare_exchange(&x[3], &x[6]);
    compare_exchange(&x[1], &x[2]); compare_exchange(&x[3], &x[4]);
    compare_exchange(&x[5], &x[6]);
}

/* One sample call: the key, the first index, the cut, the epochs each row
   draws (floor(cut) + 1, or 0 for a negative cut) and the table, padded
   with 1.0 to MAX_TABLE entries. */
typedef struct {
    uint32_t k0, k1;
    uint64_t start, epochs;
    double cut;
    double cdf[MAX_TABLE];
} Stream;

/* (Row, epoch) pairs per chunk of sample, a multiple of the 8 lanes. */
enum { CHUNK = 64 };

/* The scratch of one chunk.  Each pair's uniforms take a slot of u,
   max(NETWORK_WIDTH, N | 1) entries for a count N below MAX_TABLE; the
   extra draws 1 to N / 2 of the chunk's epochs, at most MAX_TABLE / 2 - 1
   per pair, are listed in extra, and each puts its two uniforms at
   u[dest] and u[dest + 1]. */
typedef struct {
    uint32_t draw[4][CHUNK];
    int count[CHUNK], slot[CHUNK];
    uint32_t extra[4][CHUNK * MAX_TABLE / 2];
    uint16_t dest[CHUNK * MAX_TABLE / 2];
    double u[CHUNK * MAX_TABLE];
} Chunk;

/* A place in the walk over the call's (row, epoch) pairs in row order. */
typedef struct {
    Py_ssize_t row;
    uint64_t e;
} Pair;

static inline void
next_pair(Pair *q, uint64_t epochs)
{
    if (++q->e == epochs) {
        q->e = 0;
        q->row++;
    }
}

/* Lists extra draw d of the epoch at (lo, hi, e), whose slot starts at slot. */
static inline void
list_draw(Chunk *ch, int x, const uint32_t counter[3], int d, int slot)
{
    ch->extra[0][x] = counter[0];
    ch->extra[1][x] = counter[1];
    ch->extra[2][x] = counter[2];
    ch->extra[3][x] = (uint32_t)d;
    ch->dest[x] = (uint16_t)(slot + 2 * d - 1);
}

/* Where the kept times go: times[used...] while they fit in cap, each row
   counted in counts[i], the widest row's count k, and room = min(cap,
   n * k), which the times of the (n, k) rows fill. */
typedef struct {
    double *times;
    Py_ssize_t *counts;
    Py_ssize_t n, cap, used, k, room, row;
} Out;

/* Appends an epoch's kept times to the row being drawn: all 8 of a
   network's with one copy where the room, min(cap, n * k) for the widest
   row so far, holds them (the entries past the kept ones land where later
   times or pad_rows write, never past the (n, k) rows), else one at a
   time while they fit in cap. */
static inline void
append(Out *o, const double *sorted, int kept, int network)
{
    o->row += kept;
    if (o->row > o->k) {
        o->k = o->row;
        o->room = o->k <= o->cap / o->n ? o->n * o->k : o->cap;
    }
    if (network && o->used + NETWORK_WIDTH <= o->room)
        memcpy(o->times + o->used, sorted, NETWORK_WIDTH * sizeof(double));
    else
        for (int p = 0; p < kept; p++)
            if (o->used + p < o->cap)
                o->times[o->used + p] = sorted[p];
    o->used += kept;
}

/* Sorts the epoch of count n at e, its uniforms in u (a slot whose first
   NETWORK_WIDTH entries are written), keeps its times at or below the cut
   and appends them.  The n times x = e + u at or below the cut are kept
   in ascending order: x is monotone in u, so they are in the order of
   their uniforms.  Up to NETWORK_WIDTH times, padded with +inf, go through
   sort_network, and the sorted prefix at or below the cut is kept (+inf
   never is); the rarer wider epochs (about 2% at mean 4) drop the times
   above the cut and insertion-sort the rest.  A sorted multiset of
   doubles has one order, so both give the same bits. */
static inline void
keep_epoch(const Stream *s, double e, int n, double *u, Out *o)
{
    if (n <= NETWORK_WIDTH) {
        double net[NETWORK_WIDTH];
        int kept = 0;
        for (int p = 0; p < NETWORK_WIDTH; p++)
            net[p] = p < n ? e + u[p] : Py_HUGE_VAL;
        sort_network(net);
        for (int p = 0; p < NETWORK_WIDTH; p++)
            kept += net[p] <= s->cut;
        append(o, net, kept, 1);
        return;
    }
    int kept = 0;
    for (int p = 0; p < n; p++) {
        const double x = e + u[p];
        if (x <= s->cut)
            u[kept++] = x;
    }
    for (int p = 1; p < kept; p++) {
        const double x = u[p];
        int q = p;
        for (; q > 0 && u[q - 1] > x; q--)
            u[q] = u[q - 1];
        u[q] = x;
    }
    append(o, u, kept, 0);
}

/* Samples rows 0 to n - 1 (trajectories start + i) into levels and o,
   CHUNK of the call's (row, epoch) pairs at a time, in row order, in four
   passes.  Pass 1 computes draw 0 of each pair, at the counter (index,
   epoch, 0).  Pass 2 takes the level bit from epoch 0's draw 0 (the low
   bit of word 1), the count N by inversion against the table (whose last
   entry is 1.0 > u, so N < MAX_TABLE) and the first uniform from words 2
   and 3; it counts the first COUNTED entries at or below u, which gives
   the inversion of a non-decreasing table, and walks on only when all of
   them are, and it lists the extra draws 1 to N / 2, which give two more
   uniforms each.  Pass 3 computes the listed draws and puts their
   uniforms in place.  Pass 4 sorts, cuts and appends each epoch's times.
   The two Philox passes give the words that philox gives, one counter at
   a time, whichever lanes run them.  A negative cut draws no epoch: each
   row's epoch 0 draw 0 then gives its level alone. */
static void
sample_rows(const Stream *s, unsigned char *levels, Chunk *ch, Out *o)
{
    const uint64_t per_row = s->epochs ? s->epochs : 1;
    uint32_t *const draw[4] = {ch->draw[0], ch->draw[1], ch->draw[2], ch->draw[3]};
    uint32_t *const extra[4] = {ch->extra[0], ch->extra[1], ch->extra[2], ch->extra[3]};
    Pair next = {0, 0};
    while (next.row < o->n) {
        const Pair first = next;
        int m = 0;
        for (; m < CHUNK && next.row < o->n; m++, next_pair(&next, per_row)) {
            const uint64_t index = s->start + (uint64_t)next.row;
            ch->draw[0][m] = (uint32_t)index;
            ch->draw[1][m] = (uint32_t)(index >> 32);
            ch->draw[2][m] = (uint32_t)next.e;
            ch->draw[3][m] = 0;
        }
        philox_lanes(draw, m, s->k0, s->k1);
        if (!s->epochs) {
            for (int p = 0; p < m; p++) {
                levels[first.row + p] = ch->draw[1][p] & 1u;
                o->counts[first.row + p] = 0;
            }
            continue;
        }
        Pair q = first;
        int slot = 0, listed = 0;
        for (int p = 0; p < m; p++, next_pair(&q, per_row)) {
            if (q.e == 0)
                levels[q.row] = ch->draw[1][p] & 1u;
            const double un = uniform(ch->draw[0][p], ch->draw[1][p]);
            int n = 0;
            for (int j = 0; j < COUNTED; j++)
                n += s->cdf[j] <= un;
            if (n == COUNTED)
                while (s->cdf[n] <= un)
                    n++;
            ch->count[p] = n;
            ch->slot[p] = slot;
            double *u = ch->u + slot;
            /* keep_epoch reads all NETWORK_WIDTH, masked past n: none stale */
            for (int j = 0; j < NETWORK_WIDTH; j++)
                u[j] = Py_HUGE_VAL;
            u[0] = uniform(ch->draw[2][p], ch->draw[3][p]);
            const uint64_t index = s->start + (uint64_t)q.row;
            const uint32_t counter[3] = {(uint32_t)index, (uint32_t)(index >> 32), (uint32_t)q.e};
            /* the first LISTED whatever n is, the later ones overwritten */
            for (int d = 1; d <= LISTED; d++)
                list_draw(ch, listed + d - 1, counter, d, slot);
            for (int d = LISTED + 1; d <= n / 2; d++)
                list_draw(ch, listed + d - 1, counter, d, slot);
            listed += n / 2;
            slot += n < NETWORK_WIDTH ? NETWORK_WIDTH : n | 1;
        }
        philox_lanes(extra, listed, s->k0, s->k1);
        for (int x = 0; x < listed; x++) {
            double *u = ch->u + ch->dest[x];
            u[0] = uniform(ch->extra[0][x], ch->extra[1][x]);
            u[1] = uniform(ch->extra[2][x], ch->extra[3][x]);
        }
        q = first;
        for (int p = 0; p < m; p++, next_pair(&q, per_row)) {
            keep_epoch(s, (double)q.e, ch->count[p], ch->u + ch->slot[p], o);
            if (q.e + 1 == per_row) {
                o->counts[q.row] = o->row;
                o->row = 0;
            }
        }
    }
}

/* Converts an integer in [0, 2^64) to *out (unsigned long long): a Python
   int or any object with __index__, such as a numpy integer, which the
   numpy backend takes too; OverflowError outside, never a silent wrap. */
static int
to_uint64(PyObject *obj, void *out)
{
    PyObject *index = PyNumber_Index(obj);
    if (!index)
        return 0;
    const unsigned long long value = PyLong_AsUnsignedLongLong(index);
    Py_DECREF(index);
    if (value == (unsigned long long)-1 && PyErr_Occurred())
        return 0;
    *(unsigned long long *)out = value;
    return 1;
}

/* Moves the n rows of counts[i] times that lie back to back at the
   front of times, used in all, to their places in the (n, k) rows and pads
   each with +inf: from the last row down, which never overwrites a row
   not yet moved. */
static void
pad_rows(double *times, const Py_ssize_t *counts, Py_ssize_t n, Py_ssize_t k, Py_ssize_t used)
{
    for (Py_ssize_t i = n - 1; i >= 0; i--) {
        used -= counts[i];
        memmove(times + i * k, times + used, counts[i] * sizeof(double));
        for (Py_ssize_t j = counts[i]; j < k; j++)
            times[i * k + j] = Py_HUGE_VAL;
    }
}

/* Takes (seed, start, cut, cdf, levels, times): samples the trajectories
   start to start + n - 1 (n = len(levels)) under the 64-bit seed into
   levels (uint8), and returns the widest row's count k of epoch times at
   or below the cut, which must be below 2^32 (not +inf or NaN): the epochs
   it spans fit the 32-bit counter.  cdf is non-decreasing and ends at
   1.0.  If n * k <= len(times), it also writes the (n, k) epoch times,
   padded with +inf, row by row into the front of times (float64), and
   nothing past them: the rows go there back to back first, and their
   counts, kept in scratch of its own, place them (pad_rows). */
static PyObject *
sample(PyObject *self, PyObject *args)
{
    PyObject *o[3];
    unsigned long long seed, start;
    Stream s;
    Views vs = {.held = 0};
    Py_buffer *cdf, *lv, *tv;
    if (!PyArg_ParseTuple(args, "O&O&dOOO", to_uint64, &seed, to_uint64, &start, &s.cut,
                          &o[0], &o[1], &o[2])
        || !(cdf = view(&vs, o[0], 1, sizeof(double), 0, "cdf"))
        || !(lv = view(&vs, o[1], 1, 1, 1, "levels"))
        || !(tv = view(&vs, o[2], 1, sizeof(double), 1, "times"))) {
        release(&vs);
        return NULL;
    }
    const Py_ssize_t n = lv->shape[0], table = cdf->shape[0];
    const double *entries = cdf->buf;
    int sorted = 1;
    for (Py_ssize_t j = 1; j < table && j < MAX_TABLE; j++)
        sorted &= entries[j - 1] <= entries[j];
    if (table < 1 || table > MAX_TABLE || !sorted || entries[table - 1] != 1.0
        || !(s.cut < 0x1p32) || (n > 0 && start + (uint64_t)(n - 1) < start)) {
        PyErr_SetString(PyExc_ValueError, "bad Poisson table, cut or index range");
        release(&vs);
        return NULL;
    }
    for (Py_ssize_t j = 0; j < MAX_TABLE; j++)
        s.cdf[j] = j < table ? entries[j] : 1.0;
    s.k0 = (uint32_t)seed;
    s.k1 = (uint32_t)(seed >> 32);
    s.start = start;
    s.epochs = s.cut >= 0.0 ? (uint64_t)s.cut + 1 : 0;
    Out out = {.times = tv->buf, .n = n, .cap = tv->shape[0]};
    Chunk *ch = PyMem_RawMalloc(sizeof(Chunk));
    out.counts = PyMem_RawMalloc(n * sizeof(Py_ssize_t));
    if (!ch || !out.counts) {
        PyMem_RawFree(ch);
        PyMem_RawFree(out.counts);
        release(&vs);
        return PyErr_NoMemory();
    }
    Py_BEGIN_ALLOW_THREADS
    sample_rows(&s, lv->buf, ch, &out);
    if (n > 0 && out.k <= out.cap / n)
        pad_rows(out.times, out.counts, n, out.k, out.used);
    Py_END_ALLOW_THREADS
    PyMem_RawFree(ch);
    PyMem_RawFree(out.counts);
    release(&vs);
    return PyLong_FromSsize_t(out.k);
}

/* Shortest round-trip text of a double, byte for byte repr(float(x)).
 *
 * The exact fast path covers the normal doubles x = m * 2**e (m the 53-bit
 * significand) with binary exponent E = e + 52 in [REPR_MIN_EXP,
 * REPR_MAX_EXP], 2**-49 <= |x| < 2**55 (about 1.8e-15 to 3.6e16).  Scaled
 * by 10**j, j = 16 - floor(E*log10(2)), x is 4m * 5**j / 2**s with
 * s = 54 - E - j >= 0, and so are the bounds of the interval of reals that
 * round to x, with 4m + 2 and 4m - 2 in place of 4m; at a power of two the
 * lower bound is 4m - 1, since the double below is half as far.  The
 * numerators stay below 2**128 and the interval is at least 1.6 wide, so
 * it holds an integer.  It is closed iff m is even, since a tie rounds to
 * the even significand.  The shortest digits are those of the multiple of
 * the largest power of ten 10**t in the interval, the one nearest x if
 * there are two, ties to an even digit: the digits of dtoa's mode 0, which
 * float.__repr__ prints (Steele & White, PLDI 1990).  Every other value
 * goes through the very call float.__repr__ makes. */

enum { REPR_MIN_EXP = -49, REPR_MAX_EXP = 54 };

typedef unsigned __int128 u128;

/* 5**j for the j whose power fits 64 bits; j up to 31 is a product of two. */
static const uint64_t POW5[28] = {
    1, 5, 25, 125, 625, 3125, 15625, 78125, 390625, 1953125, 9765625, 48828125,
    244140625, 1220703125, 6103515625, 30517578125, 152587890625, 762939453125,
    3814697265625, 19073486328125, 95367431640625, 476837158203125,
    2384185791015625, 11920928955078125, 59604644775390625, 298023223876953125,
    1490116119384765625, 7450580596923828125,
};

/* Lays out nd digits (no trailing zero) whose value is 0.digits * 10**decpt
   as float.__repr__ does: exponent form iff decpt <= -4 or decpt > 16, the
   exponent with a sign and at least two digits; else positional with at
   least one digit after the point.  Returns the length. */
static int
repr_layout(char *out, int negative, const char *digits, int nd, int decpt)
{
    char *p = out;
    if (negative)
        *p++ = '-';
    if (decpt <= -4 || decpt > 16) {
        *p++ = digits[0];
        if (nd > 1) {
            *p++ = '.';
            memcpy(p, digits + 1, (size_t)(nd - 1));
            p += nd - 1;
        }
        /* |decpt - 1| < 100 on the fast path */
        int x = decpt - 1;
        *p++ = 'e';
        *p++ = x < 0 ? '-' : '+';
        x = x < 0 ? -x : x;
        *p++ = (char)('0' + x / 10);
        *p++ = (char)('0' + x % 10);
    }
    else if (decpt <= 0) {
        *p++ = '0';
        *p++ = '.';
        memset(p, '0', (size_t)-decpt);
        p += -decpt;
        memcpy(p, digits, (size_t)nd);
        p += nd;
    }
    else if (decpt < nd) {
        memcpy(p, digits, (size_t)decpt);
        p += decpt;
        *p++ = '.';
        memcpy(p, digits + decpt, (size_t)(nd - decpt));
        p += nd - decpt;
    }
    else {
        memcpy(p, digits, (size_t)nd);
        p += nd;
        memset(p, '0', (size_t)(decpt - nd));
        p += decpt - nd;
        *p++ = '.';
        *p++ = '0';
    }
    return (int)(p - out);
}

/* Writes repr(x) of the double with these bits into out (room for 32) and
   returns its length, or returns 0 where x is outside the fast path. */
static int
repr_fast(uint64_t bits, char *out)
{
    const int E = (int)(bits >> 52 & 0x7ff) - 1023;
    if (E < REPR_MIN_EXP || E > REPR_MAX_EXP)
        return 0;
    const uint64_t frac = bits & (((uint64_t)1 << 52) - 1), m4 = (frac | (uint64_t)1 << 52) << 2;
    /* floor(E*log10(2)) <= log10|x|, with Ryu's product (exact for |E| <= 1650) */
    const int k = E >= 0 ? E * 78913 >> 18 : -((-E * 78913 + (1 << 18) - 1) >> 18);
    const int j = 16 - k, s = 54 - E - j;
    const u128 p5 = j < 28 ? (u128)POW5[j] : (u128)POW5[27] * POW5[j - 27];
    const u128 mask = ((u128)1 << s) - 1;
    const u128 nx = m4 * p5, nlo = (m4 - (frac ? 2 : 1)) * p5, nhi = (m4 + 2) * p5;
    const int open = (m4 >> 2) & 1;
    /* l and h: the least and the greatest integer in the interval, below
       2**58, and then the least and greatest multiple of 10**t over 10**t,
       for the largest t with one; q = floor(x / 10**t), last the digit
       dropped last and rest whether anything below it is not 0 */
    uint64_t l = (uint64_t)(nlo >> s) + (open || (nlo & mask) != 0);
    uint64_t h = (uint64_t)(nhi >> s) - (open && (nhi & mask) == 0);
    uint64_t q = (uint64_t)(nx >> s);
    int t = 0, last = 0, rest = (nx & mask) != 0;
    while ((l + 9) / 10 <= h / 10) {
        rest |= last != 0;
        last = (int)(q % 10);
        q /= 10;
        l = (l + 9) / 10;
        h /= 10;
        t++;
    }
    /* the sign of (x - q * 10**t) - 10**t / 2 */
    int half;
    if (t == 0) {
        const u128 f2 = (nx & mask) << 1;
        half = f2 >> s ? (f2 & mask) != 0 : -1;
    }
    else
        half = last != 5 ? (last > 5 ? 1 : -1) : rest;
    /* of the multiples q and q + 1 around x, the one in [l, h], or the
       nearer if both are, ties to the even one */
    const uint64_t d = q < l || (q < h && (half > 0 || (half == 0 && (q & 1)))) ? q + 1 : q;
    char digits[20];
    int nd = 0;
    for (uint64_t r = d; r; r /= 10)
        digits[19 - nd++] = (char)('0' + r % 10);
    return repr_layout(out, (int)(bits >> 63), digits + 20 - nd, nd, nd + t - j);
}

/* Takes a 1-D float64 buffer, strided or not, and returns the list of
   repr(float(x)) of its values. */
static PyObject *
float_reprs(PyObject *self, PyObject *arg)
{
    Py_buffer v;
    if (PyObject_GetBuffer(arg, &v, PyBUF_STRIDES | PyBUF_FORMAT) < 0)
        return NULL;
    if (v.ndim != 1 || v.itemsize != sizeof(double) || strcmp(v.format, "d") != 0) {
        PyErr_SetString(PyExc_ValueError, "values must be a 1-D float64 buffer");
        PyBuffer_Release(&v);
        return NULL;
    }
    const Py_ssize_t n = v.shape[0], stride = v.strides[0];
    PyObject *list = PyList_New(n);
    for (Py_ssize_t i = 0; list && i < n; i++) {
        double x;
        uint64_t bits;
        memcpy(&x, (const char *)v.buf + i * stride, sizeof x);
        memcpy(&bits, &x, sizeof bits);
        char text[32];
        const int len = repr_fast(bits, text);
        PyObject *item;
        if (len) {
            item = PyUnicode_New(len, 127);
            if (item)
                memcpy(PyUnicode_1BYTE_DATA(item), text, (size_t)len);
        }
        else {
            char *slow = PyOS_double_to_string(x, 'r', 0, Py_DTSF_ADD_DOT_0, NULL);
            item = slow ? PyUnicode_FromString(slow) : NULL;
            PyMem_Free(slow);
        }
        if (!item)
            Py_CLEAR(list);
        else
            PyList_SET_ITEM(list, i, item);
    }
    PyBuffer_Release(&v);
    return list;
}

static PyMethodDef methods[] = {
    {"dwell_times", dwell_times, METH_VARARGS,
     "dwell_times(levels, switch_times, t_grid, scale, out): time at the high "
     "level in [0, t] per trajectory and grid time, into float64 out."},
    {"levels_at_times", levels_at_times, METH_VARARGS,
     "levels_at_times(levels, switch_times, t_grid, scale, out): level bit at "
     "each grid time per trajectory, into uint8 out."},
    {"block_sums", block_sums, METH_VARARGS,
     "block_sums(levels, switch_times, t_grid, scale, v, out): adds the stretch "
     "terms of z = exp(-i*v*dwell) shifted by 1 to the (10, m + 1) difference "
     "arrays in float64 out, without the (n, m) array."},
    {"sample", sample, METH_VARARGS,
     "sample(seed, start, cut, cdf, levels, times): draws the epoch times at "
     "or below the cut (below 2**32) of the telegraph trajectories, counts "
     "inverted against the non-decreasing table cdf, with their "
     "level bits into uint8 levels, and returns the widest row's count k; if "
     "it fits, writes the +inf-padded (n, k) epoch times into the front of "
     "float64 times."},
    {"exp_minus_i", exp_minus_i_vector, METH_VARARGS,
     "exp_minus_i(theta, out): (cos theta, sin(-theta)) of each value of 1-D "
     "float64 theta into the rows of float64 out, shape (n, 2)."},
    {"float_reprs", float_reprs, METH_O,
     "float_reprs(values): the list of repr(float(x)) of the values of a 1-D "
     "float64 buffer, strided or not."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_core",
    .m_doc = "Compiled trajectory-batch kernels and float formatter.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__core(void)
{
#ifdef RTDEPH_AVX2_LANES
    __builtin_cpu_init();
    avx2_lanes = __builtin_cpu_supports("avx2") != 0;
#endif
    PyObject *mod = PyModule_Create(&module);
    if (mod && (PyModule_AddStringConstant(mod, "SOURCE_SHA256", RTDEPH_SOURCE_SHA256) < 0
                || PyModule_AddStringConstant(mod, "PHILOX_LANES",
                                              avx2_lanes ? "avx2" : "portable") < 0)) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
