/* Exact weighted 1-d fused lasso by message passing (Johnson 2013, JCGS),
   the exact weighted trend filter by a dual active-set method, and the
   envelope MM loops built on them.

   fused_lasso_dp minimizes sum_i (w_i/2)(z_i - b_i)^2 +
   sum_i u_i |b_{i+1} - b_i| and writes the minimizer to beta[0..n-1].
   This is envopt.solvers._fused_lasso_dp operation for operation; built
   without floating-point contraction, it returns the same bits.  The
   caller validates the inputs (n >= 2, w > 0, u >= 0, all finite).
   Returns 0, or 1 when the work arrays cannot be allocated.

   trend_filter_dual minimizes sum_i (w_i/2)(z_i - b_i)^2 +
   sum_j lam_j |(D b)_j|, D the difference operator of order k + 1,
   through its dual box QP (see tf_solve); envopt.solvers._tf_solve and
   _tf_primal repeat its arithmetic operation for operation.

   envelope_fused_lasso_path runs the whole majorize/minimize loop whose
   subproblem is one of those two, for one of five envelopes: the Huber
   location shift, the logit's Polya-Gamma weights, the Polya-Gamma
   weights together with the log penalty's edge weights (the fused
   double-Pareto fit) and the squared loss, which is exact in one map, all
   with the fused lasso; and the check loss's variance-mean weights (the
   quantile trend filter), with the trend filter of order k + 1.  The
   iterative envelopes are extrapolated by safeguarded SQUAREM.  One
   call runs a warm-started path of such fits over a grid of penalty
   scales, each fit starting at the previous fit's iterate; a single fit
   is the path of one scale 1.  For each fit it returns the iterate and
   its objective trace, the fit's df, the run record (maps, SQUAREM steps,
   rejected extrapolations, inner iterations, capped inner solves and
   rising maps) and the final envelope variables; see its comment
   below. */

#include <math.h>
#include <stdlib.h>
#include <string.h>

/* The DP on the caller's work array x of 8n - 2 doubles. */
static void dp(const double *z, const double *w, const double *u, long n,
               double *beta, double *x)
{
    double *a = x + 2 * n, *b = a + 2 * n, *tm = b + 2 * n, *tp = tm + (n - 1);
    long l = n - 1, r = n, lo, hi, k;
    double alo, blo, ahi, bhi, afirst, bfirst, alast, blast;

    tm[0] = z[0] - u[0] / w[0];
    tp[0] = z[0] + u[0] / w[0];
    x[l] = tm[0];
    x[r] = tp[0];
    a[l] = w[0];
    b[l] = -w[0] * z[0] + u[0];
    a[r] = -w[0];
    b[r] = w[0] * z[0] + u[0];
    afirst = w[1];
    bfirst = -w[1] * z[1] - u[0];
    alast = -w[1];
    blast = w[1] * z[1] - u[0];

    for (k = 1; k < n - 1; k++) {
        /* leftward knot: derivative crosses -u[k] */
        alo = afirst;
        blo = bfirst;
        for (lo = l; lo <= r && alo * x[lo] + blo <= -u[k]; lo++) {
            alo += a[lo];
            blo += b[lo];
        }
        tm[k] = (-u[k] - blo) / alo;
        /* rightward knot: derivative crosses +u[k] (coefficients negated) */
        ahi = alast;
        bhi = blast;
        for (hi = r; hi >= lo && -(ahi * x[hi] + bhi) >= u[k]; hi--) {
            ahi += a[hi];
            bhi += b[hi];
        }
        tp[k] = (u[k] + bhi) / (-ahi);
        l = lo - 1;
        r = hi + 1;
        x[l] = tm[k];
        x[r] = tp[k];
        a[l] = alo;
        b[l] = blo + u[k];
        a[r] = ahi;
        b[r] = bhi + u[k];
        afirst = w[k + 1];
        bfirst = -w[k + 1] * z[k + 1] - u[k];
        alast = -w[k + 1];
        blast = w[k + 1] * z[k + 1] - u[k];
    }

    /* last coefficient: derivative of the full message crosses zero */
    alo = afirst;
    blo = bfirst;
    for (lo = l; lo <= r && alo * x[lo] + blo <= 0.0; lo++) {
        alo += a[lo];
        blo += b[lo];
    }
    beta[n - 1] = -blo / alo;
    for (k = n - 2; k >= 0; k--) {
        double nxt = beta[k + 1];
        if (nxt > tp[k])
            beta[k] = tp[k];
        else if (nxt < tm[k])
            beta[k] = tm[k];
        else
            beta[k] = nxt;
    }
}

int fused_lasso_dp(const double *z, const double *w, const double *u,
                   long n, double *beta)
{
    double *x = calloc((size_t)(8 * n - 2), sizeof(double));
    if (!x)
        return 1;
    dp(z, w, u, n, beta, x);
    free(x);
    return 0;
}

/* The work arrays of the dual trend-filter solve for n points and order
   k: m = n - k - 1 dual rows, half-bandwidth w = k + 1 and the stencil of
   D, p = k + 2 entries, row j of D being s[0..p-1] from column j on. */
typedef struct {
    long n, m, w, p;
    double *s;       /* the stencil */
    double *ss;      /* ss[e * p + j] = s[j] s[j - e], e = 0..w, j = e..p-1 */
    double *winv;    /* 1 / omega (n) */
    double *ab;      /* A = D diag(winv) D': ab[i * (w + 1) + e] = A[i][i + e] */
    double *c;       /* the same bands of A restricted to the free rows */
    double *u;       /* the banded Cholesky factor of c */
    double *b;       /* D z */
    double *x, *d, *e, *h, *g;  /* face minimum, step, projected step,
                                   scratch, gradient */
    long *idx;       /* the free rows */
    signed char *st; /* 1 or -1 at that bound, 0 free, 2 fixed at 0 (lam = 0) */
} tfdual;

/* Allocates the work arrays; returns 0, or 1 when they cannot be. */
static int tf_alloc(tfdual *t, long n, long k)
{
    long m = n - k - 1, w = k + 1, p = k + 2, i, j, e;
    size_t doubles = (size_t)(p + (w + 1) * p + n + 3 * m * (w + 1) + 6 * m);
    t->n = n;
    t->m = m;
    t->w = w;
    t->p = p;
    t->s = calloc(doubles, sizeof(double));
    t->idx = calloc((size_t)m, sizeof(long) + 1);
    if (!t->s || !t->idx) {
        free(t->s);
        free(t->idx);
        return 1;
    }
    t->st = (signed char *)(t->idx + m);
    t->ss = t->s + p;
    t->winv = t->ss + (w + 1) * p;
    t->ab = t->winv + n;
    t->c = t->ab + m * (w + 1);
    t->u = t->c + m * (w + 1);
    t->b = t->u + m * (w + 1);
    t->x = t->b + m;
    t->d = t->x + m;
    t->e = t->d + m;
    t->h = t->e + m;
    t->g = t->h + m;
    /* (k + 1) times: s <- s * (1, -1), from s = (1) */
    t->s[0] = 1.0;
    for (i = 1; i < p; i++)
        for (j = i; j >= 0; j--)
            t->s[j] = (j < i ? t->s[j] : 0.0) - (j > 0 ? t->s[j - 1] : 0.0);
    for (e = 0; e <= w; e++)
        for (j = e; j < p; j++)
            t->ss[e * p + j] = t->s[j] * t->s[j - e];
    return 0;
}

static void tf_free(tfdual *t)
{
    free(t->s);
    free(t->idx);
}

/* The problem of one solve: 1/omega, the bands of A = D diag(1/omega) D'
   and b = D z. */
static void tf_bands(tfdual *t, const double *z, const double *omega)
{
    long i, j, e, m = t->m, w = t->w, p = t->p;
    for (i = 0; i < t->n; i++)
        t->winv[i] = 1.0 / omega[i];
    for (i = 0; i < m; i++) {
        double acc = 0.0;
        for (j = 0; j < p; j++)
            acc += t->s[j] * z[i + j];
        t->b[i] = acc;
        for (e = 0; e <= w; e++) {
            acc = 0.0;
            if (i + e < m)
                for (j = e; j < p; j++)
                    acc += t->ss[e * p + j] * t->winv[i + j];
            t->ab[i * (w + 1) + e] = acc;
        }
    }
}

/* out = C y for the symmetric banded C of nr rows (c[a * (w + 1) + e] =
   C[a][a + e]): the diagonal term, then the upper, then the lower ones. */
static void band_matvec(const double *c, long nr, long w, const double *y, double *out)
{
    long a, e;
    for (a = 0; a < nr; a++) {
        double acc = c[a * (w + 1)] * y[a];
        for (e = 1; e <= w; e++)
            if (a + e < nr)
                acc += c[a * (w + 1) + e] * y[a + e];
        for (e = 1; e <= w; e++)
            if (a - e >= 0)
                acc += c[(a - e) * (w + 1) + e] * y[a - e];
        out[a] = acc;
    }
}

/* A pivot of the banded Cholesky at or below this fraction of its row's
   diagonal marks the row as numerically dependent on the rows before it.
   A long run of free dual rows makes A numerically singular (its
   condition grows as the run length to the power 2k + 2), and rounding
   then leaves pivots near or below zero. */
#define PIVOT_FLOOR 1e-12

/* The banded Cholesky factor U (C = U'U, same layout) of the banded C of
   nr rows, with every dependent row (see PIVOT_FLOOR) dropped: its row of
   U is 0, so that U'U is the factorization of C without that row and
   column. */
static void band_cholesky(const double *c, double *u, long nr, long w)
{
    long a, e, l;
    for (a = 0; a < nr; a++)
        for (e = 0; e <= w && a + e < nr; e++) {
            double val = c[a * (w + 1) + e];
            for (l = 1; l <= w - e && l <= a; l++)
                val -= u[(a - l) * (w + 1) + l] * u[(a - l) * (w + 1) + l + e];
            if (e == 0)
                u[a * (w + 1)] = val > PIVOT_FLOOR * c[a * (w + 1)] ? sqrt(val) : 0.0;
            else
                u[a * (w + 1) + e] = u[a * (w + 1)] > 0.0 ? val / u[a * (w + 1)] : 0.0;
        }
}

/* Solves U'U x = r in place (x holds r on entry), with x = 0 in the
   dropped rows of U. */
static void band_solve(const double *u, long nr, long w, double *x)
{
    long a, l;
    for (a = 0; a < nr; a++) {
        double val = x[a];
        for (l = 1; l <= w && l <= a; l++)
            val -= u[(a - l) * (w + 1) + l] * x[a - l];
        x[a] = u[a * (w + 1)] > 0.0 ? val / u[a * (w + 1)] : 0.0;
    }
    for (a = nr - 1; a >= 0; a--) {
        double val = x[a];
        for (l = 1; l <= w && a + l < nr; l++)
            val -= u[a * (w + 1) + l] * x[a + l];
        x[a] = u[a * (w + 1)] > 0.0 ? val / u[a * (w + 1)] : 0.0;
    }
}

static double dot(const double *x, const double *y, long len)
{
    double acc = 0.0;
    long i;
    for (i = 0; i < len; i++)
        acc += x[i] * y[i];
    return acc;
}

/* The dual of the weighted trend filter on the problem of tf_bands:
   minimize q(v) = v'Av/2 - b'v subject to |v_j| <= lam_j, by a feasible
   active-set method.  Row j is fixed at 0 when lam_j = 0, held at a bound
   when v_j is there on entry (v is clipped into the box) and free
   otherwise.  Each iteration factors A on the free rows, a banded matrix
   of half-bandwidth at most w, and solves A_FF d = -g for the step d to
   the face minimum x = v + d, g = Av - b on the free rows and the bound
   rows held (a free row that the factorization finds dependent, see
   PIVOT_FLOOR, is held too).  When x lies in the box, v moves there, and
   every bound whose multiplier (the gradient Av - b) has the wrong sign
   beyond tol * max(|b|_inf, |Av|_inf) is freed; the solve ends when none
   is.  Otherwise v takes whichever of two feasible steps lowers q more,
   each change t g'd + t^2 d'Ad/2 computed exactly: the step t d cut at
   the first blocking bound, after which that bound is held; or the
   projected full step e = P(x) - v, after which every row it clips is
   held.

   v holds the start on entry and the last iterate on return; *iters
   receives the iterations run (factorizations) and *active the rows at a
   bound or fixed.  Returns 1 when the solve ended as above, or 0 when it
   reached max_iters or a face minimum that is not finite (then v is the
   last feasible iterate). */
static int tf_solve(tfdual *t, const double *lam, double tol, long max_iters,
                    double *v, long *iters, long *active)
{
    long m = t->m, w = t->w, W = w + 1, i, a, l, nf, blk, it = 0;
    const double *ab = t->ab, *b = t->b;
    double *c = t->c, *x = t->x, *d = t->d, *e = t->e, *h = t->h, *g = t->g;
    long *idx = t->idx;
    signed char *st = t->st;
    double top = 0.0;
    int done = 0;

    for (i = 0; i < m; i++) {
        top = fmax(top, fabs(b[i]));
        if (lam[i] == 0.0) {
            st[i] = 2;
            v[i] = 0.0;
        } else if (v[i] >= lam[i]) {
            st[i] = 1;
            v[i] = lam[i];
        } else if (v[i] <= -lam[i]) {
            st[i] = -1;
            v[i] = -lam[i];
        } else {
            st[i] = 0;
        }
    }
    while (!done && it < max_iters) {
        int inside = 1;
        it++;
        /* the face: the free rows, their bands and b minus the bound terms */
        nf = 0;
        for (i = 0; i < m; i++)
            if (!st[i])
                idx[nf++] = i;
        for (a = 0; a < nf; a++) {
            double r;
            i = idx[a];
            r = b[i];
            for (l = 1; l <= w; l++)
                if (i + l < m && st[i + l])
                    r -= ab[i * W + l] * v[i + l];
            for (l = 1; l <= w; l++)
                if (i - l >= 0 && st[i - l])
                    r -= ab[(i - l) * W + l] * v[i - l];
            x[a] = r;
            h[a] = v[i];
            c[a * W] = ab[i * W];
            for (l = 1; l <= w; l++) {
                long o = a + l < nf ? idx[a + l] - i : W;
                c[a * W + l] = o <= w ? ab[i * W + o] : 0.0;
            }
        }
        /* the face gradient g = A v - b and the step d to the face minimum
           x, from v_F = h */
        band_matvec(c, nf, w, h, g);
        for (a = 0; a < nf; a++) {
            g[a] -= x[a];
            d[a] = -g[a];
        }
        band_cholesky(c, t->u, nf, w);
        band_solve(t->u, nf, w, d);
        for (a = 0; a < nf; a++) {
            x[a] = h[a] + d[a];
            if (!(fabs(x[a]) < HUGE_VAL))
                break;
            inside &= fabs(x[a]) <= lam[idx[a]];
        }
        if (a < nf)
            break;
        if (inside) {
            double thr = top;
            for (a = 0; a < nf; a++)
                v[idx[a]] = x[a];
            band_matvec(ab, m, w, v, g);
            for (i = 0; i < m; i++)
                thr = fmax(thr, fabs(g[i]));
            thr *= tol;
            done = 1;
            for (i = 0; i < m; i++) {
                double grad = g[i] - b[i];
                if ((st[i] == 1 && grad > thr) || (st[i] == -1 && grad < -thr)) {
                    st[i] = 0;
                    done = 0;
                }
            }
            continue;
        }
        /* the face minimum leaves the box: the cut and the projected step */
        double tcut = 1.0, dcut, dproj;
        blk = -1;
        for (a = 0; a < nf; a++) {
            i = idx[a];
            e[a] = (x[a] > lam[i] ? lam[i] : x[a] < -lam[i] ? -lam[i] : x[a]) - v[i];
            if (x[a] > lam[i] || x[a] < -lam[i]) {
                double r = ((x[a] > lam[i] ? lam[i] : -lam[i]) - v[i]) / d[a];
                if (blk < 0 || r < tcut) {
                    tcut = r;
                    blk = a;
                }
            }
        }
        tcut = fmin(fmax(tcut, 0.0), 1.0);
        band_matvec(c, nf, w, d, h);
        dcut = tcut * dot(g, d, nf) + 0.5 * tcut * tcut * dot(d, h, nf);
        band_matvec(c, nf, w, e, h);
        dproj = dot(g, e, nf) + 0.5 * dot(e, h, nf);
        if (dproj < dcut) {
            for (a = 0; a < nf; a++) {
                i = idx[a];
                if (x[a] > lam[i]) {
                    v[i] = lam[i];
                    st[i] = 1;
                } else if (x[a] < -lam[i]) {
                    v[i] = -lam[i];
                    st[i] = -1;
                } else {
                    v[i] = x[a];
                }
            }
        } else {
            for (a = 0; a < nf; a++) {
                i = idx[a];
                v[i] = fmin(fmax(v[i] + tcut * d[a], -lam[i]), lam[i]);
            }
            i = idx[blk];
            st[i] = d[blk] > 0.0 ? 1 : -1;
            v[i] = st[i] * lam[i];
        }
    }
    *iters = it;
    *active = 0;
    for (i = 0; i < m; i++)
        *active += st[i] != 0;
    return done;
}

/* The primal of a dual v: beta = z - diag(1/omega) D'v. */
static void tf_primal(tfdual *t, const double *z, const double *v, double *beta)
{
    long i, j, m = t->m, p = t->p;
    for (i = 0; i < t->n; i++) {
        double acc = 0.0;
        for (j = 0; j < p; j++)
            if (i - j >= 0 && i - j < m)
                acc += t->s[j] * v[i - j];
        beta[i] = z[i] - t->winv[i] * acc;
    }
}

/* One weighted trend filter (n >= k + 2, omega > 0, lam >= 0, all
   finite, max_iters >= 1, as the caller validates), warm-started from the
   dual v (m = n - k - 1 values), which receives the last dual iterate;
   beta receives the primal and info[0..2] the iterations, whether the
   solve ended on its test (0/1) and the rows at a bound.  Returns 0, or 1
   when the work arrays cannot be allocated. */
int trend_filter_dual(const double *z, const double *omega, const double *lam,
                      long n, long k, double tol, long max_iters, double *v,
                      double *beta, double *info)
{
    tfdual t;
    long iters, active;
    int done;
    if (tf_alloc(&t, n, k))
        return 1;
    tf_bands(&t, z, omega);
    done = tf_solve(&t, lam, tol, max_iters, v, &iters, &active);
    tf_primal(&t, z, v, beta);
    tf_free(&t);
    info[0] = (double)iters;
    info[1] = done;
    info[2] = (double)active;
    return 0;
}

/* The envelopes of envelope_fused_lasso_path. */
enum { HUBER_SHIFT = 0, POLYA_GAMMA = 1, SQUARED = 2, LOG_PENALTY = 3, CHECK = 4 };

/* The variance-mean weights 1/|r| are clamped at this value, which exact
   fits reach (envopt.losses.variance_mean_update). */
#define WEIGHT_CLAMP 1e6

/* One envelope loop: its problem, the work arrays of a map and the run
   record.  The problem is the data y (and trial counts m), the penalties
   u of the rows of D (n - 1 edges; n - k - 1 rows of the order-(k + 1)
   operator for CHECK), for LOG_PENALTY the scale a and for CHECK the
   quantile q.  A map writes the weights w, the working responses z and,
   for LOG_PENALTY, the DP's edge weights ue; x is the DP's work array.
   CHECK solves the trend filter on tf, warm-started from the dual v, with
   inner_tol and inner_max; inner_iters and capped count its iterations
   and the solves that ended without meeting their test, and act receives
   the rows at a bound of the last map's solve.  maps counts the maps run
   and, when record is nonzero (for every envelope but SQUARED), trace[t]
   receives the objective after map t. */
typedef struct {
    int envelope, coupled, record;
    const double *y, *m, *u;
    double a, q;
    long n, rows, maps;
    double *w, *z, *ue, *x, *trace;
    tfdual *tf;
    double *v, inner_tol;
    long inner_max, inner_iters, capped, act;
} loop;

static int logit_loss(int envelope)
{
    return envelope == POLYA_GAMMA || envelope == LOG_PENALTY;
}

/* Data loss plus penalty: the Huber loss (threshold 1) of y - b, the
   binomial logit loss m log(1 + e^b) - y b with log(1 + e^b) evaluated as
   numpy's logaddexp(0, b), the squared loss (1/2)(y - b)^2 or the check
   loss |r| + (2q - 1) r of r = y - b; plus sum_i u_i |d_i| on the
   differences d_i = b_{i+1} - b_i, for LOG_PENALTY the log penalty
   sum_i u_i log(1 + |d_i|/a), and for CHECK sum_j u_j |(D b)_j|. */
static double objective(const loop *s, const double *beta)
{
    const double *y = s->y, *m = s->m, *u = s->u;
    double loss = 0.0, pen = 0.0;
    long i, j;
    for (i = 0; i < s->n; i++) {
        double b = beta[i];
        if (s->envelope == HUBER_SHIFT) {
            double r = fabs(y[i] - b);
            loss += r < 1.0 ? 0.5 * r * r : r - 0.5;
        } else if (s->envelope == SQUARED) {
            double r = y[i] - b;
            loss += 0.5 * r * r;
        } else if (s->envelope == CHECK) {
            double r = y[i] - b;
            loss += fabs(r) + (2.0 * s->q - 1.0) * r;
        } else {
            double softplus;
            if (b == 0.0)
                softplus = log(2.0);
            else if (b < 0.0)
                softplus = log1p(exp(b));
            else
                softplus = b + log1p(exp(-b));
            loss += m[i] * softplus - y[i] * b;
        }
    }
    if (s->envelope == CHECK) {
        for (i = 0; i < s->rows; i++) {
            double acc = 0.0;
            for (j = 0; j < s->tf->p; j++)
                acc += s->tf->s[j] * beta[i + j];
            pen += u[i] * fabs(acc);
        }
        return loss + pen;
    }
    for (i = 0; i < s->n - 1; i++) {
        double d = fabs(beta[i + 1] - beta[i]);
        pen += u[i] * (s->envelope == LOG_PENALTY ? log1p(d / s->a) : d);
    }
    return loss + pen;
}

/* The Huber location shift soft(y - b, 1), as numpy's
   sign(r) * max(|r| - 1, 0) up to the sign of a zero. */
static double huber_shift(double y, double b)
{
    double r = y - b;
    return r > 1.0 ? r - 1.0 : r < -1.0 ? r + 1.0 : 0.0;
}

/* The log penalty's edge weights at beta: u_i / (a + |b_{i+1} - b_i|),
   its derivative, whose linearization majorizes the concave penalty and
   touches it at beta. */
static void log_penalty_weights(const loop *s, const double *beta, double *ue)
{
    long i;
    for (i = 0; i < s->n - 1; i++)
        ue[i] = s->u[i] / (s->a + fabs(beta[i + 1] - beta[i]));
}

/* The closed-form envelope update at beta: the weights w (constant 1 for
   the Huber shift and the squared loss, set by the caller) and the
   working responses z, and for LOG_PENALTY the edge weights ue.  Huber
   shift: z = y - soft(y - b, 1).  Squared loss: z = y.  Polya-Gamma (and
   LOG_PENALTY): w = (m/2b) tanh(b/2), the mean of the Polya-Gamma mixing
   variable, with its limit m/4 at b = 0, and z = (y - m/2)/w.  Check
   loss: w = min(1/|y - b|, WEIGHT_CLAMP) and z = y - (1 - 2q)/w.  Returns
   0, or 2 when a weight is not positive and finite or a working response
   is not finite. */
static int update(loop *s, const double *beta)
{
    const double *y = s->y, *m = s->m;
    double *w = s->w, *z = s->z;
    long i;
    for (i = 0; i < s->n; i++) {
        if (s->envelope == HUBER_SHIFT) {
            z[i] = y[i] - huber_shift(y[i], beta[i]);
        } else if (s->envelope == SQUARED) {
            z[i] = y[i];
        } else if (s->envelope == CHECK) {
            w[i] = 1.0 / fabs(y[i] - beta[i]);
            if (!(w[i] < WEIGHT_CLAMP))
                w[i] = WEIGHT_CLAMP;
            if (!(w[i] > 0.0))
                return 2;
            z[i] = y[i] - (1.0 - 2.0 * s->q) / w[i];
        } else {
            double h = 0.5 * beta[i];
            double ratio = fabs(h) < 1e-6 ? 1.0 - h * h / 3.0 : tanh(h) / h;
            w[i] = 0.25 * m[i] * ratio;
            if (!(w[i] > 0.0 && w[i] < HUGE_VAL))
                return 2;
            z[i] = (y[i] - m[i] / 2.0) / w[i];
        }
        if (!(fabs(z[i]) < HUGE_VAL))
            return 2;
    }
    if (s->envelope == LOG_PENALTY)
        log_penalty_weights(s, beta, s->ue);
    return 0;
}

/* The trend filter on (z, s->w) with the row penalties s->u into to,
   warm-started from s->v, counted in the run record. */
static void trend_filter(loop *s, const double *z, double *to)
{
    long iters;
    tf_bands(s->tf, z, s->w);
    s->capped += !tf_solve(s->tf, s->u, s->inner_tol, s->inner_max, s->v, &iters, &s->act);
    s->inner_iters += iters;
    tf_primal(s->tf, z, s->v, to);
}

/* One MM map: the envelope update at from, then the exact weighted fused
   lasso on (z, w) with the edge weights (or for CHECK the trend filter)
   into to (which may be from) and its objective into *obj.  When no u_i
   couples two coefficients the fused lasso returns z itself, as the
   Python wrapper of the DP does.  Returns 0, or 2 when the update or the
   objective is not finite. */
static int map(loop *s, const double *from, double *to, double *obj)
{
    int status = update(s, from);
    if (status)
        return status;
    if (s->envelope == CHECK)
        trend_filter(s, s->z, to);
    else if (s->coupled)
        dp(s->z, s->w, s->envelope == LOG_PENALTY ? s->ue : s->u, s->n, to, s->x);
    else
        memcpy(to, s->z, (size_t)s->n * sizeof(double));
    *obj = objective(s, to);
    return fabs(*obj) < HUGE_VAL ? 0 : 2;
}

/* Appends the objective after one more map to the run record. */
static void count_map(loop *s, double obj)
{
    s->maps++;
    if (s->record)
        s->trace[s->maps] = obj;
}

/* One plain map from -> to.  *obj holds the objective at from on entry
   and at to on return; *next receives the value the map reached.
   Returns 0, the status of map, or 3 when *next rises above *obj by more
   than 1e-10 relative (then *obj is left as it was). */
static int plain_map(loop *s, const double *from, double *to, double *obj,
                     double *next)
{
    int status = map(s, from, to, next);
    if (status)
        return status;
    if (*next > *obj + 1e-10 * fmax(1.0, fabs(*obj)))
        return 3;
    *obj = *next;
    count_map(s, *obj);
    return 0;
}

/* One safeguarded SQUAREM step (Varadhan & Roland 2008, Scand. J.
   Statist. 35:335-353) from beta, whose objective is *obj: two plain maps
   b1 = F(beta) and b2 = F(b1), the steplength
   alpha = min(-|r|/|v|, -1) with r = b1 - beta and v = b2 - 2 b1 + beta
   (-1 when v = 0), and one map at bx = beta - 2 alpha r + alpha^2 v,
   which is b2 itself at alpha = -1.  That third map is kept when its
   objective is at most f(b2); otherwise, or when bx or the map is not
   finite, the step ends at b2, the third map's record repeats f(b2) and
   *rejected counts it.  b1, b2 and bx are work vectors; *act receives the
   rows at a bound of the map that gave beta (CHECK).  When the second
   plain map rises, beta becomes b1, the last iterate accepted.  Returns 0
   or the status of a plain map. */
static int squarem_step(loop *s, double *beta, double *b1, double *b2,
                        double *bx, double *obj, double *next, long *rejected,
                        long *act)
{
    long i, n = s->n, act1;
    double rr = 0.0, vv = 0.0, alpha = -1.0, fx = 0.0;
    int status = plain_map(s, beta, b1, obj, next), finite = 1;
    if (status)
        return status;
    act1 = s->act;
    status = plain_map(s, b1, b2, obj, next);
    if (status == 3) {
        memcpy(beta, b1, (size_t)n * sizeof(double));
        *act = act1;
    }
    if (status)
        return status;
    *act = s->act;
    for (i = 0; i < n; i++) {
        double r = b1[i] - beta[i], v = b2[i] - 2.0 * b1[i] + beta[i];
        rr += r * r;
        vv += v * v;
    }
    if (vv > 0.0 && rr > vv)
        alpha = -sqrt(rr / vv);
    if (alpha == -1.0) {
        memcpy(bx, b2, (size_t)n * sizeof(double));
    } else {
        for (i = 0; i < n; i++) {
            double r = b1[i] - beta[i], v = b2[i] - 2.0 * b1[i] + beta[i];
            bx[i] = beta[i] - 2.0 * alpha * r + alpha * alpha * v;
            finite &= fabs(bx[i]) < HUGE_VAL;
        }
    }
    if (finite && !map(s, bx, bx, &fx) && fx <= *obj) {
        *obj = fx;
        *act = s->act;
        memcpy(beta, bx, (size_t)n * sizeof(double));
    } else {
        ++*rejected;
        memcpy(beta, b2, (size_t)n * sizeof(double));
    }
    count_map(s, *obj);
    return 0;
}

/* Distinct levels of beta: 1 plus the adjacent differences above
   1e-6 * max(1, max_i |b_i|), as envopt.solvers.distinct_levels. */
static long distinct_levels(const double *beta, long n)
{
    double top = 1.0, tol;
    long i, levels = 1;
    for (i = 0; i < n; i++)
        top = fmax(top, fabs(beta[i]));
    tol = 1e-6 * top;
    for (i = 0; i < n - 1; i++)
        levels += fabs(beta[i + 1] - beta[i]) > tol;
    return levels;
}

/* Scales the dual v into the box |v_j| <= pen_j by the largest t <= 1
   that fits it there: over the rows with pen_j > 0, t is the least
   pen_j / |v_j|, and a row that attains it lands on its bound exactly; a
   row with pen_j = 0 is set to 0.  Across a decreasing penalty grid this
   is the scaling by lam_new / lam_old of a dual with a row at a bound. */
static void scale_dual(double *v, const double *pen, long rows)
{
    long i;
    double t = 1.0;
    for (i = 0; i < rows; i++)
        if (pen[i] > 0.0 && v[i] != 0.0 && pen[i] / fabs(v[i]) < t)
            t = pen[i] / fabs(v[i]);
    for (i = 0; i < rows; i++) {
        if (!(pen[i] > 0.0))
            v[i] = 0.0;
        else if (v[i] != 0.0 && pen[i] / fabs(v[i]) <= t)
            v[i] = copysign(pen[i], v[i]);
        else
            v[i] *= t;
    }
}

/* The values of a fit's info row (see fit()). */
enum { INFO = 10 };

/* One fit of a path: the majorize/minimize loop whose map F(beta) is the
   envelope update at beta, then the exact weighted fused lasso (or for
   CHECK the trend filter), then the objective, with the row penalties
   s->u; it is envopt.solvers._envelope_mm_python map for map.  The
   envelopes are the Huber location shift (m, a and q unused), the
   Polya-Gamma weights (a and q unused), the Polya-Gamma weights together
   with the log penalty's edge weights u_i / (a + |b_{i+1} - b_i|)
   recomputed from beta in each map (LOG_PENALTY), the squared loss (m, a
   and q unused), which is exact in one map: it runs that map from no
   start, and its record is that map's objective alone; and the check
   loss's variance-mean weights (CHECK, m and a unused).  A CHECK fit with
   cold set starts at the trend filter of y with unit weights (not a map;
   its solve is counted with the others), and every CHECK solve starts at
   the dual of the one before it.

   The iterative envelopes run safeguarded SQUAREM steps of three maps
   each (squarem_step) while at least three maps remain in max_iters,
   then plain maps.  A plain map whose objective rises beyond 1e-10
   relative stops the loop: that is a failure, except for CHECK, whose
   clamped weights need not majorize the loss, where the fit ends at the
   last iterate accepted and counts the rise.  The loop converges when
   the relative change |f_0 - f_1| / max(1, |f_0|) over a whole step (or
   plain map) falls to tol, or for CHECK when the map that rose did so by
   at most tol relative; a CHECK fit converges only when, besides, each of
   its trend-filter solves met its test.

   beta holds the start on entry (unread for SQUARED and for CHECK with
   cold set) and the last iterate on return; b1, b2 and bx are work
   vectors.  s->trace[0] is the starting objective (for SQUARED the
   objective of its one map) and, when s->record is nonzero, s->trace[t]
   the objective after map t; a rejected extrapolation repeats its step's
   plain value.  envvar receives the final envelope variables: for
   HUBER_SHIFT the shift soft(y - beta, 1) (n values), for LOG_PENALTY
   the edge weights at the last iterate (n - 1 values), for CHECK the
   weights w and then the working responses z at the last iterate (2n
   values); other envelopes leave it unread.  info[0..9] are the maps
   run, converged (0/1), the last accepted objective, after a rise the
   objective that rose, the df of the last iterate (its distinct levels,
   or for CHECK k + 1 plus the rows at a bound of the dual that gave it,
   or of the start dual when no solve did),
   the SQUAREM steps, the rejected extrapolations, the trend-filter
   iterations, the trend-filter solves that did not meet their test and
   the rising maps (0 or 1).  Returns 0, or the status of a plain map. */
static int fit(loop *s, double tol, long max_iters, int cold, double *beta,
               double *b1, double *b2, double *bx, double *envvar, double *info)
{
    long i, n = s->n, steps = 0, rejected = 0, rises = 0, act = 0;
    int status = 0, converged = 0;
    double obj = 0.0, next = 0.0, start;

    s->maps = 0;
    s->inner_iters = 0;
    s->capped = 0;
    s->coupled = 0;
    for (i = 0; i < s->rows; i++)
        s->coupled |= s->u[i] != 0.0;
    if (s->envelope == CHECK) {
        /* until a solve gives beta, df counts the bounds of the start dual */
        for (i = 0; i < s->rows; i++)
            act += !(fabs(s->v[i]) < s->u[i]);
        if (cold) {
            for (i = 0; i < n; i++)
                s->w[i] = 1.0;
            trend_filter(s, s->y, beta);
            act = s->act;
        }
    }
    if (s->envelope == SQUARED) {
        s->maps = 1;
        converged = 1;
        status = map(s, beta, beta, &obj);
        next = obj;
        s->trace[0] = obj;
    } else {
        obj = objective(s, beta);
        next = obj;
        s->trace[0] = obj;
        if (!(fabs(obj) < HUGE_VAL))
            status = 2;
    }
    while (!status && !converged && s->maps < max_iters) {
        start = obj;
        if (max_iters - s->maps >= 3) {
            steps++;
            status = squarem_step(s, beta, b1, b2, bx, &obj, &next, &rejected, &act);
        } else {
            /* into b1, so that a map that rises leaves beta as it was */
            status = plain_map(s, beta, b1, &obj, &next);
            if (!status) {
                memcpy(beta, b1, (size_t)n * sizeof(double));
                act = s->act;
            }
        }
        converged = !status && fabs(start - obj) <= tol * fmax(1.0, fabs(start));
    }
    if (s->envelope == CHECK) {
        if (status == 3) {
            status = 0;
            rises = 1;
            converged = next - obj <= tol * fmax(1.0, fabs(obj));
        }
        converged &= !s->capped;
        if (!status) {
            update(s, beta);
            memcpy(envvar, s->w, (size_t)n * sizeof(double));
            memcpy(envvar + n, s->z, (size_t)n * sizeof(double));
            memcpy(envvar + 2 * n, s->v, (size_t)s->rows * sizeof(double));
        }
    }
    if (s->envelope == HUBER_SHIFT)
        for (i = 0; i < n; i++)
            envvar[i] = huber_shift(s->y[i], beta[i]);
    if (s->envelope == LOG_PENALTY)
        log_penalty_weights(s, beta, envvar);
    info[0] = (double)s->maps;
    info[1] = converged;
    info[2] = obj;
    info[3] = next;
    info[4] = (double)(s->envelope == CHECK ? act + s->tf->w : distinct_levels(beta, n));
    info[5] = (double)steps;
    info[6] = (double)rejected;
    info[7] = (double)s->inner_iters;
    info[8] = (double)s->capped;
    info[9] = (double)rises;
    return status;
}

/* A warm-started path of fits: fit l (l = 0 .. fits - 1) is the loop of
   fit() with the row penalties lams[l] * u_j, started at the last iterate
   of fit l - 1 (fit 0 at the given start, or for CHECK with a cold start
   at that).  A single fit is the path of one fit with lams[0] = 1, since
   lam * 1 is exact.  The work arrays are allocated once per path.

   check holds the parameters of the CHECK envelope: q, the order k, the
   trend filter's inner_tol and inner_max_iters, 1 for the cold start (0
   for the given start), then the dual of fit 0's first trend filter
   (n - k - 1 values), which each fit scales into its box (scale_dual)
   before it runs, and which is carried from fit to fit; other envelopes
   do not read it (it may be NULL), and for them k is 0.  u holds the
   penalties of the n - k - 1 rows of the difference operator of order
   k + 1 (the n - 1 edges for k = 0).  beta is a fits x n block whose row
   0 holds the start on entry (unread for SQUARED and for a cold CHECK
   start); row l receives fit l's last iterate.  trace receives the fits'
   traces one after another: fit l's maps + 1 values (room for fits x
   (max_iters + 1) values), except for SQUARED, whose trace is its one
   value (fits values).  envvar is a fits x n block
   (HUBER_SHIFT), a fits x (n - 1) block (LOG_PENALTY) or a fits x
   (3n - k - 1) block (CHECK: w, z and the last dual) of the final
   envelope variables, unread by the other envelopes (it may be NULL).
   info is fits x INFO values, row l the info of fit l (see fit()), then
   one value: the index of the last fit run, which is the failing fit when
   the return value is 2 or 3.  The caller validates the inputs (n >= 1,
   y finite, 0 <= y <= m with m >= 1 for the logit envelopes, u >= 0 and
   lams >= 0 with every product lams[l] * u_j finite, a > 0 and finite for
   LOG_PENALTY, 0 < q < 1, k >= 0 and n >= k + 2 for CHECK, the start
   finite, max_iters >= 1, inner_max_iters >= 1, fits >= 1).  Returns 0;
   1 when the work arrays cannot be allocated; 2 when a weight, a working
   response or the objective of a plain map is not finite; 3 when the
   objective of a plain map rises (not for CHECK).  A fit that fails
   stops the path. */
int envelope_fused_lasso_path(int envelope, const double *y, const double *m,
                              const double *u, const double *lams, long fits,
                              double a, long n, double tol, long max_iters,
                              double *beta, double *trace,
                              double *envvar, double *info, const double *check)
{
    int chk = envelope == CHECK, cold = chk && check[4] != 0.0, status = 0;
    int record = envelope != SQUARED;
    long i, l, k = chk ? (long)check[1] : 0, rows = n - k - 1;
    long nv = envelope == HUBER_SHIFT ? n : chk ? 2 * n + rows : n - 1;
    tfdual tf;
    double *work = calloc((size_t)(15 * n + (chk ? rows : 0)), sizeof(double));
    if (!work)
        return 1;
    if (chk && tf_alloc(&tf, n, k)) {
        free(work);
        return 1;
    }
    double *b1 = work + 3 * n, *b2 = b1 + n, *bx = b2 + n, *pen = bx + 9 * n;
    loop s = {envelope, 0, record, y, m, pen, a, chk ? check[0] : 0.0, n, rows, 0,
              work, work + n, work + 2 * n, bx + n, trace,
              &tf, pen + n, chk ? check[2] : 0.0, chk ? (long)check[3] : 0, 0, 0, 0};

    if (!logit_loss(envelope) && !chk)
        for (i = 0; i < n; i++)
            s.w[i] = 1.0;
    if (chk)
        memcpy(s.v, check + 5, (size_t)rows * sizeof(double));
    for (l = 0; l < fits && !status; l++) {
        double *b = beta + l * n;
        if (l > 0)
            memcpy(b, b - n, (size_t)n * sizeof(double));
        for (i = 0; i < rows; i++)
            pen[i] = lams[l] * u[i];
        if (chk)
            scale_dual(s.v, pen, rows);
        s.trace = trace;
        status = fit(&s, tol, max_iters, cold && l == 0, b, b1, b2, bx,
                     envvar ? envvar + l * nv : NULL, info + INFO * l);
        trace += record ? s.maps + 1 : 1;
    }
    info[INFO * fits] = (double)(l - 1);
    if (chk)
        tf_free(&tf);
    free(work);
    return status;
}

/* grid_scan is the inner step of envopt.duality._zoom_min, the grid
   search behind every grid oracle.  For each of the rows i < nrows it
   forms the coupled values v_j of row rows[i] on grid row grp[i] - g0
   (the grid g and the values f of a point-only function there, count
   points each) and writes the first minimum over the finite v_j to
   vals[i] and its index to idx[i], or +inf and 0 when no v_j is finite.
   The coupling kinds are envopt.duality.Coupling's, in the order of its
   _KINDS, with a = a[rows[i]] and b = b[rows[i]]:

     0  f - a*g                  3  b*(a-g)^2 + f     6  (0.5*g)*(a-b/g)^2 - f
     1  a*g - f                  4  b*(a-g)^2 - f
     2  (0.5*g)*a - f            5  f + (a-g)^2/b

   Each value is that expression operation for operation, as numpy forms
   it; built without contraction it has the same bits.  Four lanes keep
   their own first minimum, lane l the indices l, l+4, ... of the body and
   lane 0 the tail; merged by (value, index) they give the sequential
   scan's first minimum, -0.0 and +0.0 counting as equal.  A comparison
   v < best already skips NaN and +inf, so the scan tests for -inf only
   when a row's minimum is -inf, and then scans that row again.  The
   caller validates every index (rows[i] < the length of a and b,
   0 <= grp[i] - g0 < the number of grid rows). */
#define SCAN(EXPR, FINITE)                                              \
    do {                                                                \
        for (l = 0; l < 4; l++) {                                       \
            best[l] = INFINITY;                                         \
            at[l] = 0;                                                  \
        }                                                               \
        for (j = 0; j + 4 <= count; j += 4)                             \
            for (l = 0; l < 4; l++) {                                   \
                const double gv = g[j + l], fv = f[j + l], v = (EXPR);  \
                if (v < best[l] && (!(FINITE) || v > -INFINITY)) {      \
                    best[l] = v;                                        \
                    at[l] = j + l;                                      \
                }                                                       \
            }                                                           \
        for (; j < count; j++) {                                        \
            const double gv = g[j], fv = f[j], v = (EXPR);              \
            if (v < best[0] && (!(FINITE) || v > -INFINITY)) {         \
                best[0] = v;                                            \
                at[0] = j;                                              \
            }                                                           \
        }                                                               \
        for (l = 1; l < 4; l++)                                         \
            if (best[l] < best[0] || (best[l] == best[0] && at[l] < at[0])) { \
                best[0] = best[l];                                      \
                at[0] = at[l];                                          \
            }                                                           \
    } while (0)

#define SCAN_ROWS(EXPR)                                                 \
    for (i = 0; i < nrows; i++) {                                       \
        const double *g = grid + (grp[i] - g0) * count;                 \
        const double *f = fvals + (grp[i] - g0) * count;                \
        const double ar = a[rows[i]], br = b[rows[i]];                  \
        (void)ar;                                                       \
        (void)br;                                                       \
        SCAN(EXPR, 0);                                                  \
        if (best[0] == -INFINITY)                                       \
            SCAN(EXPR, 1);                                              \
        vals[i] = best[0];                                              \
        idx[i] = at[0]; /* 0 when no value is finite */                 \
    }

void grid_scan(int kind, const double *grid, const double *fvals, long count,
               long nrows, const long *rows, const long *grp, long g0,
               const double *a, const double *b, double *vals, long *idx)
{
    double best[4];
    long at[4], i, j, l;
    switch (kind) {
    case 0:
        SCAN_ROWS(fv - ar * gv)
        break;
    case 1:
        SCAN_ROWS(ar * gv - fv)
        break;
    case 2:
        SCAN_ROWS(0.5 * gv * ar - fv)
        break;
    case 3:
        SCAN_ROWS(br * ((ar - gv) * (ar - gv)) + fv)
        break;
    case 4:
        SCAN_ROWS(br * ((ar - gv) * (ar - gv)) - fv)
        break;
    case 5:
        SCAN_ROWS(fv + (ar - gv) * (ar - gv) / br)
        break;
    default:
        SCAN_ROWS(0.5 * gv * ((ar - br / gv) * (ar - br / gv)) - fv)
        break;
    }
}
