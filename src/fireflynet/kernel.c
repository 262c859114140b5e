/* The swarm's move pass and spacing settle, weight synthesis after its exp,
 * and the weight rows' fixed-point solve and Euler step, for firefly.py and
 * plasticity.py: kernel.py builds this file, declares each entry point and
 * hands arrays over by address through ctypes.  Positions are (x, y) pairs,
 * agent after agent; the swarm's calls update them in place.  The results
 * equal, bit for bit, the plain loops and the numpy code in tests/oracles.py:
 * every expression keeps their grouping and order, the build neither fuses
 * nor reorders floating-point operations (-ffp-contract=off, no -ffast-math),
 * and exp, cos and sin are libm's, as math's are.  Row sums mirror numpy's
 * pairwise_sum, so their bits depend on that order: the oracle tests check it. */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* numpy's bitgen_t (numpy/random/bitgen.h): a generator's state and draws. */
typedef struct { void *state; uint64_t (*next_uint64)(void *); uint32_t (*next_uint32)(void *);
                 double (*next_double)(void *); uint64_t (*next_raw)(void *); } bitgen_t;

/* Off the unit square, inf and nan included: each entry point returns -1 - i
 * for such an agent i, before it writes a position or draws. */
static int off_square(double x, double y) { return !(x >= 0.0 && x <= 1.0 && y >= 0.0 && y <= 1.0); }

/* A cell index along a side, as GridLayout.nearest_cell takes it: floor, cast, clamp. */
static long cell(double at, long side)
{
    double k = floor(at * side);
    return k >= side ? side - 1 : k >= 0.0 ? (long)k : 0;
}

/* One in-place move pass; an agent's brightness is the activity of its
 * cell.  Agent i, in ascending order, moves toward each strictly brighter
 * agent j in ascending order and sees the moves made earlier in the pass:
 * x_i += b exp(-gamma r^2) (x_j - x_i) + eta (u - 1/2) per coordinate, u
 * one next_double draw, x then y per move, then clips into the unit square. */
long swarm_move(double *pos, long count, bitgen_t *rng, double *bright, const double *activity,
                long rows, long cols, double b, double neg_gamma, double eta)
{
    for (long i = 0; i < count; i++) {
        if (off_square(pos[2 * i], pos[2 * i + 1]))
            return -1 - i;
        bright[i] = activity[cell(pos[2 * i + 1], rows) * cols + cell(pos[2 * i], cols)];
    }
    for (long i = 0; i < count; i++) {
        double xi = pos[2 * i], yi = pos[2 * i + 1];
        for (long j = 0; j < count; j++) {
            if (!(bright[j] > bright[i]))
                continue;
            double dx = pos[2 * j] - xi, dy = pos[2 * j + 1] - yi;
            double attract = b * exp(neg_gamma * (dx * dx + dy * dy));
            xi += attract * dx + eta * (rng->next_double(rng->state) - 0.5);
            yi += attract * dy + eta * (rng->next_double(rng->state) - 0.5);
            xi = xi < 0.0 ? 0.0 : xi > 1.0 ? 1.0 : xi;
            yi = yi < 0.0 ? 0.0 : yi > 1.0 ? 1.0 : yi;
        }
        pos[2 * i] = xi;
        pos[2 * i + 1] = yi;
    }
    return 0;
}

struct push { long i, j; double x, y; };

/* The spacing settle: at most max_sweeps Jacobi sweeps over all pairs
 * i < j in row-major order.  A pair nearer than too_close is pushed apart
 * by (s / d) * ((reach - d) * 0.5), s = pos_j - pos_i; a touching pair
 * (d < 1e-15) takes the unit vector (cos t, sin t), t = 2 pi u, u one
 * next_double draw per touching pair in pair order: the stream
 * 2 pi rng.random(k) reads.
 *
 * For each i, the j > i with sx^2 + sy^2 below far are collected first,
 * without a branch, and only they reach the sqrt, in ascending j.
 *
 * Each agent's shift sums, into a zero, its pushes as the lower-index end
 * (negated) in pair order, then its pushes as the higher-index end in pair
 * order: the order numpy's bincount summed them in, which fixes the bits.
 * The position plus the shift is clipped with max 0, then min 1.
 *
 * Returns 0 when a sweep finds no violation; 1 when clipping cancels a
 * sweep (no coordinate moves 1e-12) or the sweeps run out; 2 when memory
 * runs out. */
long swarm_settle(double *pos, long count, bitgen_t *rng, double too_close, double reach, long max_sweeps)
{
    for (long i = 0; i < count; i++) /* apart from the pair loop, which may draw first */
        if (off_square(pos[2 * i], pos[2 * i + 1]))
            return -1 - i;
    /* far, one ulp above too_close^2 rounded, is at least the exact square,
     * so a pair with sx^2 + sy^2 >= far has a correctly rounded sqrt of at
     * least too_close: skipping it before the sqrt changes no decision. */
    double far = nextafter(too_close * too_close, INFINITY);
    long status = 1;
    double *shift = malloc(2 * count * sizeof *shift);
    long *near = malloc(count * sizeof *near);
    struct push *pushes = malloc((count * (count - 1) / 2 + 1) * sizeof *pushes); /* never malloc(0) */
    if (!shift || !near || !pushes)
        max_sweeps = 0, status = 2;
    for (long sweep = 0; sweep < max_sweeps; sweep++) {
        long bad = 0;
        for (long i = 0; i < count; i++) {
            long found = 0;
            for (long j = i + 1; j < count; j++) {
                double sx = pos[2 * j] - pos[2 * i], sy = pos[2 * j + 1] - pos[2 * i + 1];
                near[found] = j;
                found += sx * sx + sy * sy < far;
            }
            for (long *at = near; at < near + found; at++) {
                long j = *at;
                double sx = pos[2 * j] - pos[2 * i], sy = pos[2 * j + 1] - pos[2 * i + 1];
                double d = sqrt(sx * sx + sy * sy), half = (reach - d) * 0.5, ux, uy;
                if (!(d < too_close))
                    continue;
                if (d >= 1e-15) {
                    ux = sx / d, uy = sy / d;
                } else {
                    double angle = 2.0 * M_PI * rng->next_double(rng->state);
                    ux = cos(angle), uy = sin(angle);
                }
                pushes[bad++] = (struct push){i, j, ux * half, uy * half};
            }
        }
        if (!bad) {
            status = 0;
            break;
        }
        for (long a = 0; a < 2 * count; a++)
            shift[a] = 0.0;
        for (struct push *p = pushes; p < pushes + bad; p++)
            shift[2 * p->i] += -p->x, shift[2 * p->i + 1] += -p->y;
        for (struct push *p = pushes; p < pushes + bad; p++)
            shift[2 * p->j] += p->x, shift[2 * p->j + 1] += p->y;
        int stuck = 1;
        for (long a = 0; a < 2 * count; a++) {
            double moved = shift[a] + pos[a];
            moved = moved < 0.0 ? 0.0 : moved > 1.0 ? 1.0 : moved;
            stuck &= fabs(moved - pos[a]) < 1e-12;
            pos[a] = moved;
        }
        if (stuck)
            break; /* wall deadlock: clipping cancelled every push */
    }
    free(shift);
    free(near);
    free(pushes);
    return status;
}

/* np.add.reduce of a contiguous row: 0.0 plus numpy's pairwise_sum
 * (loops_utils.h.src): a plain loop below 8 terms, eight accumulators up to
 * 128, else halves split at a multiple of 8. */
static double pairwise(const double *a, long n)
{
    double r[8], res = -0.0;
    long i = 0, half = n / 2 - n / 2 % 8;
    if (n > 128)
        return pairwise(a, half) + pairwise(a + half, n - half);
    if (n >= 8) {
        for (; i < n - n % 8; i++)
            r[i % 8] = i < 8 ? a[i] : r[i % 8] + a[i];
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    }
    for (; i < n; i++)
        res += a[i];
    return res;
}

/* np.maximum and np.minimum: a nan kept, b on a tie; np.clip is the max with lo, then the min with hi. */
static double maximum(double a, double b) { return a != a || a > b ? a : b; }
static double minimum(double a, double b) { return a != a || a < b ? a : b; }
static double clip(double x, double lo, double hi) { return minimum(maximum(x, lo), hi); }

/* Row i's tensor tz (zero diagonal), beta tz, weights c and products to sum. */
struct row { const double *tz, *bt; double *c, *prod; long n, i; double alpha, beta, floor; };

/* g(lam) = sum_j c_j tz_j - lam, leaving in c the weights at lam:
 * alpha / max(n alpha + beta lam - beta tz_j, alpha / v), 0 on the diagonal. */
static double row_g(const struct row *r, double lam)
{
    double base = r->n * r->alpha + r->beta * lam;
    for (long j = 0; j < r->n; j++) {
        double c = base - r->bt[j];
        r->c[j] = j == r->i ? 0.0 : r->alpha / (c < r->floor ? r->floor : c);
        r->prod[j] = r->c[j] * r->tz[j];
    }
    return (0.0 + pairwise(r->prod, r->n)) - lam;
}

/* plasticity.row_fixed_points' search, row by row, into the n x n out: from
 * the row's own lambda, steps toward the sign of g from |g| / 8, doubling,
 * within [lo, hi] until g changes sign, then at most 100 Illinois regula falsi
 * steps, to |g| <= tol.  Returns 0, or 2 when memory runs out. */
long row_fixed_points(const double *w, const double *t, double *out, long n,
                      double alpha, double beta, double v, double tol)
{
    double *tz = malloc(4 * n * sizeof *tz);
    if (!tz)
        return 2;
    double *bt = tz + n, *neg = tz + 2 * n, *pos = tz + 3 * n;
    struct row r = {tz, bt, out, pos, n, 0, alpha, beta, alpha / v};
    for (; r.i < n; r.i++, r.c += n) {
        for (long j = 0; j < n; j++) {
            tz[j] = j == r.i ? 0.0 : t[r.i * n + j];
            bt[j] = beta * tz[j], neg[j] = tz[j] < 0.0 ? tz[j] : 0.0, pos[j] = tz[j] > 0.0 ? tz[j] : 0.0;
            r.c[j] = w[r.i * n + j] * tz[j]; /* the start's products, until g writes the weights */
        }
        double lo = v * (0.0 + pairwise(neg, n)), hi = v * (0.0 + pairwise(pos, n));
        double x = clip(0.0 + pairwise(r.c, n), lo, hi), a = x, ga = row_g(&r, x), gx = ga;
        double side = ga > 0.0 ? 1.0 : ga < 0.0 ? -1.0 : 0.0, step = fabs(ga) / 8.0, edge = ga > 0.0 ? hi : lo;
        for (int search = fabs(ga) > tol; search; step = 2.0 * step) {
            a = x, ga = gx;
            x = clip(x + side * step, lo, hi);
            gx = row_g(&r, x);
            search = side * gx > tol && x != edge;
        }
        for (int k = 0, live = side * gx < -tol; live && k < 100; k++) {
            double nx = x - gx * (x - a) / (gx - ga), ng = row_g(&r, nx);
            ga = ng * gx < 0.0 ? (a = x, gx) : 0.5 * ga;
            live = fabs(ng) > tol && nx != x;
            x = nx, gx = ng;
        }
        for (long j = 0; j < n; j++) /* c holds the weights at x, where g was last evaluated */
            r.c[j] = r.c[j] > v ? v : r.c[j];
    }
    free(tz);
    return 0;
}

/* One step of plasticity.evolve_weights from the n x n weights w into next:
 * the rate f = alpha (1 - n w) + (beta w) (T - rowsum(w T)), 0 on the
 * diagonal, then next = min(max(0, w + dt f), v).  stats gets the trace row,
 * max |f| then the min, sum / n and max of next's row sums, and those n sums
 * after it.  Returns max |next - w|.  Allocates nothing, as synthesize. */
double euler_step(const double *w, const double *t, double *f, double *next, double *stats,
                  long n, double alpha, double beta, double dt, double v)
{
    double *sums = stats + 4, top = 0.0, change = 0.0, lo = 0.0, hi = 0.0;
    for (long i = 0; i < n; i++) {
        const double *wi = w + i * n, *ti = t + i * n;
        double *fi = f + i * n, *ni = next + i * n;
        for (long j = 0; j < n; j++)
            fi[j] = wi[j] * ti[j];
        double coop = 0.0 + pairwise(fi, n);
        for (long j = 0; j < n; j++) {
            fi[j] = j == i ? 0.0 : alpha * (1.0 - n * wi[j]) + (beta * wi[j]) * (ti[j] - coop);
            ni[j] = minimum(maximum(0.0, wi[j] + dt * fi[j]), v);
            top = maximum(top, fabs(fi[j]));
            change = maximum(change, fabs(ni[j] - wi[j]));
        }
        double s = sums[i] = 0.0 + pairwise(ni, n);
        lo = i ? minimum(lo, s) : s, hi = i ? maximum(hi, s) : s;
    }
    stats[0] = top, stats[1] = lo, stats[2] = (0.0 + pairwise(sums, n)) / n, stats[3] = hi;
    return change;
}

/* firefly.synthesize_weights after numpy's exp, into the zeroed n x n w, n =
 * rows cols: agent k adds its deposits strength[i * count + k] into the column
 * of its cell (found as swarm_move finds it), in agent order as np.add.at adds;
 * each row, its diagonal zeroed, is divided by the max of 1 and the sum of its
 * positive parts (held in scratch) and clipped into [-v/2, v]. */
void synthesize(const double *pos, long count, const double *strength, double *w, double *scratch,
                long rows, long cols, double v)
{
    long n = rows * cols;
    for (long k = 0; k < count; k++)
        for (long i = 0, c = cell(pos[2 * k + 1], rows) * cols + cell(pos[2 * k], cols); i < n; i++)
            w[i * n + c] += strength[i * count + k];
    for (long i = 0; i < n; i++) {
        double *wi = w + i * n;
        wi[i] = 0.0;
        for (long j = 0; j < n; j++)
            scratch[j] = maximum(wi[j], 0.0);
        double scale = maximum(0.0 + pairwise(scratch, n), 1.0);
        for (long j = 0; j < n; j++)
            wi[j] = clip(wi[j] / scale, -0.5 * v, v);
    }
}
