/* Native ports of the repro hot kernels.
 *
 * Every function reproduces its NumPy reference (repro/kernels/_numpy.py)
 * bit for bit: each reduction accumulates SEQUENTIALLY in the documented
 * order (row order for scatters, d = 0..dim-1 for inner products), and
 * every elementwise operation is the same correctly-rounded IEEE-754
 * operation NumPy performs.  Nothing here may be compiled with
 * -ffast-math / -fassociative-math: reassociating any accumulation
 * breaks the bit-parity contract the differential suite
 * (tests/test_kernels.py) enforces.
 *
 * All entry points are pure C on caller-owned buffers (no Python API;
 * the only allocation is pairwise's scratch tile), so the cffi ABI-mode
 * caller releases the GIL for the duration of every call.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* out[ids[r], :] += grads[r, :], sequentially in row order (the order
 * np.bincount accumulates composite (item, dim) indices in). `out` is
 * (num_items, dim), zero-initialised by the caller. */
void repro_scatter_sum_f64(const int64_t *ids, const double *grads,
                           int64_t rows, int64_t dim, double *out)
{
    for (int64_t r = 0; r < rows; r++) {
        double *dst = out + ids[r] * dim;
        const double *src = grads + r * dim;
        for (int64_t d = 0; d < dim; d++)
            dst[d] += src[d];
    }
}

/* out[r] = vals[r] / max(lengths[s], 1) for every row r of segment s —
 * the fused form of vals / repeat(maximum(lengths, 1), lengths). */
void repro_segment_div_f64(const double *vals, const int64_t *lengths,
                           int64_t num_segments, double *out)
{
    int64_t r = 0;
    for (int64_t s = 0; s < num_segments; s++) {
        int64_t len = lengths[s];
        double divisor = (double)(len > 1 ? len : 1);
        for (int64_t k = 0; k < len; k++, r++)
            out[r] = vals[r] / divisor;
    }
}

void repro_segment_div_f32(const float *vals, const int64_t *lengths,
                           int64_t num_segments, float *out)
{
    int64_t r = 0;
    for (int64_t s = 0; s < num_segments; s++) {
        int64_t len = lengths[s];
        float divisor = (float)(len > 1 ? len : 1);
        for (int64_t k = 0; k < len; k++, r++)
            out[r] = vals[r] / divisor;
    }
}

/* out[s, :] = sum over segment s's rows, accumulated row by row (the
 * sequential outer-axis order of np.add.reduce(axis=0) per segment). */
void repro_segment_sums_f64(const double *rows_, const int64_t *lengths,
                            int64_t num_segments, int64_t dim, double *out)
{
    const double *src = rows_;
    for (int64_t s = 0; s < num_segments; s++) {
        double *dst = out + s * dim;
        int64_t len = lengths[s];
        /* np.add.reduce(axis=0) seeds with the additive identity +0.0
         * (so a segment of -0.0 rows sums to +0.0 — identity + first
         * row flips the sign bit), then accumulates row by row. */
        for (int64_t d = 0; d < dim; d++)
            dst[d] = 0.0;
        for (int64_t k = 0; k < len; k++, src += dim)
            for (int64_t d = 0; d < dim; d++)
                dst[d] += src[d];
    }
}

void repro_segment_sums_f32(const float *rows_, const int64_t *lengths,
                            int64_t num_segments, int64_t dim, float *out)
{
    const float *src = rows_;
    for (int64_t s = 0; s < num_segments; s++) {
        float *dst = out + s * dim;
        int64_t len = lengths[s];
        for (int64_t d = 0; d < dim; d++)
            dst[d] = 0.0f;
        for (int64_t k = 0; k < len; k++, src += dim)
            for (int64_t d = 0; d < dim; d++)
                dst[d] += src[d];
    }
}

/* Pairwise squared distances per group: dists[g, i, j] =
 * (dot(i,i) + dot(j,j)) - 2 * dot(i,j) with every dot accumulated
 * sequentially over d, and +inf on each diagonal.  Each dot is seeded
 * with the d=0 term — the same seeding the NumPy reference uses — so
 * leading -0.0 products keep their sign bit.  dot(i,j) == dot(j,i)
 * exactly (IEEE multiplication commutes, addition order is identical),
 * so only the upper triangle is computed: first its dots (the squared
 * norms on the diagonal), then the distances, mirrored. */
static void upper_dots_scalar(const double *base, int64_t n, int64_t dim,
                              double *dists)
{
    for (int64_t i = 0; i < n; i++) {
        const double *xi = base + i * dim;
        for (int64_t j = i; j < n; j++) {
            const double *xj = base + j * dim;
            double dot = dim > 0 ? xi[0] * xj[0] : 0.0;
            for (int64_t d = 1; d < dim; d++)
                dot = dot + xi[d] * xj[d];
            dists[i * n + j] = dot;
        }
    }
}

/* Two doubles: one SSE2 register, x86-64's baseline vector. */
typedef double v2d __attribute__((vector_size(16)));

enum { LANES = 8, LANE_MIN_N = 16 };

/* upper_dots_scalar's dots, eight j lanes at a time.  `tile` holds the
 * group transposed, tile[d][j] = x_j[d], in rows `width` (n rounded up
 * to LANES) wide and zero past n.  Each lane is one pair's own
 * accumulator, seeded with x_i[0] * x_j[0] and then added x_i[d] * x_j[d]
 * for d = 1..dim-1 in order, operands in the scalar loop's order: every
 * pair's dot has the scalar loop's bits.  The lanes only run pairs side
 * by side; no sum crosses a lane. */
static void upper_dots_lanes(const double *base, int64_t n, int64_t dim,
                             int64_t width, v2d *tile, double *dists)
{
    const int64_t vwidth = width / 2;
    for (int64_t j = 0; j < width; j++)
        for (int64_t d = 0; d < dim; d++)
            tile[d * vwidth + j / 2][j % 2] = j < n ? base[j * dim + d] : 0.0;
    for (int64_t i = 0; i < n; i++) {
        const double *xi = base + i * dim;
        for (int64_t jb = i - i % LANES; jb < n; jb += LANES) {
            const v2d *t = tile + jb / 2;
            v2d s = {xi[0], xi[0]};
            v2d acc[LANES / 2];
            for (int k = 0; k < LANES / 2; k++)
                acc[k] = s * t[k];
            for (int64_t d = 1; d < dim; d++) {
                t += vwidth;
                s = (v2d){xi[d], xi[d]};
                for (int k = 0; k < LANES / 2; k++)
                    acc[k] = acc[k] + s * t[k];
            }
            for (int64_t k = i > jb ? i - jb : 0; k < LANES && jb + k < n; k++)
                dists[i * n + jb + k] = acc[k / 2][k % 2];
        }
    }
}

/* Groups of at least LANE_MIN_N rows take the lanes, through one tile
 * of dim x width doubles allocated for the call; smaller groups (or a
 * failed allocation) take the scalar loop.  Both give the same bits. */
void repro_pairwise_sq_dists_f64(const double *flat, int64_t groups,
                                 int64_t n, int64_t dim, double *out)
{
    const int64_t width = (n + LANES - 1) / LANES * LANES;
    v2d *tile = NULL;
    if (n >= LANE_MIN_N && dim > 0)
        tile = aligned_alloc(64, (size_t)(dim * width) * sizeof(double));
    for (int64_t g = 0; g < groups; g++) {
        const double *base = flat + g * n * dim;
        double *dists = out + g * n * n;
        if (tile != NULL)
            upper_dots_lanes(base, n, dim, width, tile, dists);
        else
            upper_dots_scalar(base, n, dim, dists);
        for (int64_t i = 0; i < n; i++) {
            for (int64_t j = i + 1; j < n; j++) {
                double dist = (dists[i * n + i] + dists[j * n + j]) -
                              2.0 * dists[i * n + j];
                dists[i * n + j] = dist;
                dists[j * n + i] = dist;
            }
        }
        for (int64_t i = 0; i < n; i++)
            dists[i * n + i] = INFINITY;
    }
    free(tile);
}

/* Row-stacked bounded-step attack gradients: per row, delta = new - old,
 * clipped to max_step by its sequential-sum L2 norm, re-encoded as
 * (old - (old + delta)) / server_lr. */
void repro_stacked_step_gradients_f64(const double *old_rows,
                                      const double *new_rows,
                                      double server_lr, double max_step,
                                      int64_t rows, int64_t dim, double *out)
{
    for (int64_t r = 0; r < rows; r++) {
        const double *o = old_rows + r * dim;
        const double *w = new_rows + r * dim;
        double *res = out + r * dim;
        for (int64_t d = 0; d < dim; d++)
            res[d] = w[d] - o[d];
        if (max_step > 0 && dim > 0) {
            double acc = res[0] * res[0];
            for (int64_t d = 1; d < dim; d++)
                acc = acc + res[d] * res[d];
            double norm = sqrt(acc);
            if (norm > max_step) {
                double scale = max_step / norm;
                for (int64_t d = 0; d < dim; d++)
                    res[d] = res[d] * scale;
            }
        }
        for (int64_t d = 0; d < dim; d++)
            res[d] = (o[d] - (o[d] + res[d])) / server_lr;
    }
}

/* out[r] = || a[r, :] - b[r, :] ||_2 with the squared differences
 * accumulated sequentially over d (the mining-ledger Delta-Norm). */
void repro_row_diff_norms_f64(const double *a, const double *b,
                              int64_t rows, int64_t dim, double *out)
{
    for (int64_t r = 0; r < rows; r++) {
        const double *ar = a + r * dim;
        const double *br = b + r * dim;
        double first = dim > 0 ? ar[0] - br[0] : 0.0;
        double acc = first * first;
        for (int64_t d = 1; d < dim; d++) {
            double diff = ar[d] - br[d];
            acc = acc + diff * diff;
        }
        out[r] = sqrt(acc);
    }
}
