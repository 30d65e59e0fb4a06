/* The envelope majorize/minimize loops of envopt.solvers, and their two
   exact subproblems: the weighted 1-d fused lasso and the weighted trend
   filter by a dual active-set method, whose face solves keep the factor
   and forward values of the free rows before the least row whose status
   changed, and whose steps out of the box are projected searches
   (tf_solve).  Each map of an iterative envelope first solves its fused
   lasso in closed form on the runs of the map's input, the fused groups
   the solution keeps near convergence, and accepts the levels when they
   pass the KKT conditions in one cumulative-sum pass (certified; Hoefling
   2010, JCGS); otherwise, and for the squared loss's one solve, the
   fused lasso is solved by message passing (dp; Johnson 2013, JCGS).
   Both take edge penalties clamped at a bound they cannot bind
   (solve_penalties), which keeps the DP exact at huge penalties.  A
   certified map's objective is summed in the same pass, as each run's
   level is written; near convergence the iterates are a few long runs,
   so the envelope update and the objective evaluate tanh and the
   softplus once per run of bit-equal values, and the penalty once per
   jump, with the bits of a per-point evaluation.

   envelope_fused_lasso_path runs the whole loop for one of five
   envelopes: the Huber location shift, the logit's Polya-Gamma weights,
   the Polya-Gamma weights together with the log penalty's edge weights
   (the fused double-Pareto fit), the squared loss with per-point
   weights, which is exact in one map, and the check loss's variance-mean
   weights (the quantile trend filter).  Each map's subproblem is the
   weighted trend filter with the difference operator of order k + 1 when
   the caller passes a check block, and the fused lasso otherwise; the
   squared loss with the trend filter is the one-solve fit behind
   envopt.solvers.weighted_trend_filter.  The other export,
   fused_lasso_solve, is a front of a few lines that runs the squared
   loss's one-solve fused lasso through envelope_fused_lasso_path with
   every result in the caller's one buffer; it is the solve of
   envopt.solvers.weighted_fused_lasso and
   envopt.applications.fused_lasso_gaussian.  The iterative envelopes are
   extrapolated by safeguarded SQUAREM, which with a trend filter also
   hands a rejected extrapolation's successor the dual of the iterate it
   keeps.  One call runs a warm-started path of such fits over a grid of
   penalty scales, each fit starting at the previous fit's iterate; a
   single fit is the path of one scale 1.  For each fit it returns the
   iterate and its objective trace, the fit's df, the run record (maps,
   SQUAREM steps, rejected extrapolations, inner iterations, capped inner
   solves, rising maps and the maps whose fused lasso ran the DP) and the
   final envelope variables; see its comment below.
   The tests' reference (tests/envelope_reference.py) repeats the loops
   operation for operation, except that its trend filter refactors every
   free row in each face solve, where tf_solve keeps rows that a fresh
   factorization would give the same bits; built without floating-point
   contraction, the two return the same bits.  The trend filter's
   functions take the half-bandwidth w = k + 1 as a parameter, and
   trend_filter passes a literal for k = 0, 1 and 2, which gives one copy
   of the solve per order with constant loop bounds; k >= 3 reads w at
   run time. */

#include <math.h>
#include <stdlib.h>
#include <string.h>

/* The fused-lasso DP: the minimizer of sum_i (w_i/2)(z_i - b_i)^2 +
   sum_i u_i |b_{i+1} - b_i| into beta[0..n-1], on the caller's work array
   x of 8n - 2 doubles, for n >= 2, w > 0 and u >= 0, all finite.  This is
   fused_lasso_dp of the tests' reference operation for operation. */
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

/* A breakpoint of the projected search in tf_solve: the step t at which
   face row a reaches its bound. */
typedef struct {
    double t;
    long a;
} breakpoint;

/* The work arrays of the dual trend-filter solve for n points and order
   k: m = n - k - 1 dual rows, half-bandwidth w = k + 1 and the stencil of
   D, p = w + 1 entries, row j of D being s[0..p-1] from column j on.  The
   face arrays (c, u, r, y, indexed by position in the free list idx) are
   kept from one iteration of tf_solve to the next. */
typedef struct {
    long n, m, w;
    double *s;       /* the stencil */
    double *ss;      /* ss[e * p + j] = s[j] s[j - e], e = 0..w, j = e..p-1 */
    double *winv;    /* 1 / omega (n) */
    double *ab;      /* A = D diag(winv) D': ab[i * (w + 1) + e] = A[i][i + e] */
    double *c;       /* the same bands of A restricted to the free rows */
    double *u;       /* the banded Cholesky factor of c */
    double *b;       /* D z */
    double *r;       /* the face's right-hand side */
    double *y;       /* its forward values, U'y = r */
    double *x, *d, *h, *g;  /* face minimum (then the search's v), step, C D, gradient */
    double *ch;      /* C H of the projected search (see tf_solve) */
    breakpoint *br;  /* the search's breakpoints */
    long *idx;       /* the free rows */
    signed char *st; /* 1 or -1 at that bound, 0 free, 2 fixed at 0 (lam = 0) */
} tfdual;

static void tf_free(tfdual *t)
{
    free(t->s);
    free(t->idx);
    free(t->br);
}

/* Allocates the work arrays; returns 0, or 1 when they cannot be. */
static int tf_alloc(tfdual *t, long n, long k)
{
    long m = n - k - 1, w = k + 1, p = k + 2, i, j, e;
    size_t doubles = (size_t)(p + (w + 1) * p + n + 3 * m * (w + 1) + 8 * m);
    t->n = n;
    t->m = m;
    t->w = w;
    t->s = calloc(doubles, sizeof(double));
    t->idx = calloc((size_t)m, sizeof(long) + 1);
    t->br = calloc((size_t)m, sizeof(breakpoint));
    if (!t->s || !t->idx || !t->br) {
        tf_free(t);
        return 1;
    }
    t->st = (signed char *)(t->idx + m);
    t->ss = t->s + p;
    t->winv = t->ss + (w + 1) * p;
    t->ab = t->winv + n;
    t->c = t->ab + m * (w + 1);
    t->u = t->c + m * (w + 1);
    t->b = t->u + m * (w + 1);
    t->r = t->b + m;
    t->y = t->r + m;
    t->x = t->y + m;
    t->d = t->x + m;
    t->h = t->d + m;
    t->g = t->h + m;
    t->ch = t->g + m;
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

/* The problem of one solve: 1/omega, the bands of A = D diag(1/omega) D'
   and b = D z. */
static void tf_bands(tfdual *t, const double *z, const double *omega, long w)
{
    long i, j, e, m = t->m, p = w + 1;
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

/* Whether face row a was found dependent: its row of U is 0. */
static int dependent(const tfdual *t, long a, long w)
{
    return !(t->u[a * (w + 1)] > 0.0);
}

/* Face rows from .. nf - 1 of the free rows idx: the right-hand side r,
   b minus the terms of the rows at a bound or fixed within w of the row,
   and the bands c of A on the free rows.  The dependent rows among the w
   before from then move their terms into these right-hand sides, as
   tf_factor moved them when it met them. */
static void tf_face(tfdual *t, long from, long nf, const double *v, long w)
{
    long m = t->m, W = w + 1, a, i, l;
    const double *ab = t->ab;
    for (a = from; a < nf; a++) {
        double r;
        i = t->idx[a];
        r = t->b[i];
        for (l = 1; l <= w; l++)
            if (i + l < m && t->st[i + l])
                r -= ab[i * W + l] * v[i + l];
        for (l = 1; l <= w; l++)
            if (i - l >= 0 && t->st[i - l])
                r -= ab[(i - l) * W + l] * v[i - l];
        t->r[a] = r;
        t->c[a * W] = ab[i * W];
        for (l = 1; l <= w; l++) {
            long o = a + l < nf ? t->idx[a + l] - i : W;
            t->c[a * W + l] = o <= w ? ab[i * W + o] : 0.0;
        }
    }
    for (a = from > w ? from - w : 0; a < from; a++)
        if (dependent(t, a, w))
            for (l = from - a; l <= w && a + l < nf; l++)
                t->r[a + l] -= t->c[a * W + l] * v[t->idx[a]];
}

/* The forward value of face row a, from r and the rows before it: row a
   of U'y = r, and 0 in a dependent row. */
static double tf_forward(const tfdual *t, long a, long w)
{
    long W = w + 1, l;
    double val = t->r[a];
    for (l = 1; l <= w && l <= a; l++)
        val -= t->u[(a - l) * W + l] * t->y[a - l];
    return dependent(t, a, w) ? 0.0 : val / t->u[a * W];
}

/* Factors face rows from .. nf - 1 by the banded Cholesky C = U'U, each
   row then forward-substituted, given rows 0 .. from - 1 of U and y.  A
   dependent row (see PIVOT_FLOOR) gets a row of U of 0, which factors C
   without that row and column, and is held at its value v: its column
   times that value moves into the right-hand sides of the w rows before
   it and the w after it, and the rows before it take new forward
   values. */
static void tf_factor(tfdual *t, long from, long nf, const double *v, long w)
{
    long W = w + 1, a, e, l;
    const double *c = t->c;
    double *u = t->u;
    for (a = from; a < nf; a++) {
        for (e = 0; e <= w && a + e < nf; e++) {
            double val = c[a * W + e];
            for (l = 1; l <= w - e && l <= a; l++)
                val -= u[(a - l) * W + l] * u[(a - l) * W + l + e];
            if (e == 0)
                u[a * W] = val > PIVOT_FLOOR * c[a * W] ? sqrt(val) : 0.0;
            else
                u[a * W + e] = u[a * W] > 0.0 ? val / u[a * W] : 0.0;
        }
        if (dependent(t, a, w)) {
            double va = v[t->idx[a]];
            for (l = 1; l <= w && l <= a; l++)
                t->r[a - l] -= c[(a - l) * W + l] * va;
            for (l = 1; l <= w && a + l < nf; l++)
                t->r[a + l] -= c[a * W + l] * va;
            for (l = a < w ? a : w; l >= 1; l--)
                t->y[a - l] = tf_forward(t, a - l, w);
        }
        t->y[a] = tf_forward(t, a, w);
    }
}

/* Whether breakpoint e comes before f in the order (t, position): by t,
   ties to the lower face position. */
static int before(const breakpoint *e, const breakpoint *f)
{
    return e->t < f->t || (e->t == f->t && e->a < f->a);
}

/* Moves br[at] down the binary heap br[0 .. n - 1] (each entry before
   its two children, br[2 at + 1] and br[2 at + 2]) until neither child
   comes before it. */
static void sift_down(breakpoint *br, long at, long n)
{
    const breakpoint e = br[at];
    long child;
    while ((child = 2 * at + 1) < n) {
        if (child + 1 < n && before(&br[child + 1], &br[child]))
            child++;
        if (!before(&br[child], &e))
            break;
        br[at] = br[child];
        at = child;
    }
    br[at] = e;
}

/* The dual of the weighted trend filter on the problem of tf_bands:
   minimize q(v) = v'Av/2 - b'v subject to |v_j| <= lam_j, by a feasible
   active-set method.  Row j is fixed at 0 when lam_j = 0, held at a bound
   when v_j is there on entry (v is clipped into the box) and free
   otherwise.  Each iteration solves for the face minimum x, the minimum
   over the free rows with the bound rows held, directly from the face's
   own right-hand side: x = A_FF^-1 r_F by the banded Cholesky of A on the
   free rows (half-bandwidth at most w) and a forward and a back
   substitution (tf_factor), and the step is d = x - v.  A free row that
   the factorization finds dependent (see PIVOT_FLOOR) is held at its
   value.  When x lies in the box, v moves there, and every bound whose
   multiplier (the gradient Av - b) has the wrong sign beyond
   tol * max(|b|_inf, |Av|_inf) is freed; the solve ends when none is.

   Otherwise v takes a projected search along the arc P(v + t d), P the
   projection onto the box (More & Toraldo 1991, SIAM J. Optim.
   1:93-113).  Each free row a that x leaves the box on has the
   breakpoint t_a = (+-lam_a - v_a) / d_a at which it reaches its bound;
   they are taken in the order (t_a, position), ties to the lower face
   position, from a binary heap built in one pass: the search usually
   holds a few of them, and a sort would order them all.  The search
   holds the first one's row, as a cut at the first blocking bound
   would, then goes on while the slope of q along the arc is negative,
   holding each row it passes.  With the rows held so far, the arc is
   p(t) = t D + H on the face (D is d with those rows zeroed, H holds
   t_b d_b in each held row b), so q'(t) = g'D + t D'CD + D'CH, C the
   face's bands and g the gradient at v computed directly (not -C d,
   which assumes x is the exact face minimum; on long ill-conditioned
   faces it is not).  Holding row a updates g'D, D'CD and D'CH from
   (CD)_a, (CH)_a and C_aa, and the vectors CD and CH in the 2w + 1 rows
   of column a.  The search stops at the first root of q', at most t = 1
   (which is P(x)); the free rows move to clip(v + t d) and the passed
   rows to their bounds.  It lowers q at least as much as the cut, and
   costs one pass over the face, which forms the gradient, C d, g'd and
   d'Cd together, each sum in the order of a banded product (band_matvec)
   or a dot product over the rows.

   A step changes the status of some rows, and the face rows whose index
   is more than w below the least of them (lo) keep their bands, right-hand
   side, row of U and forward value.  So an iteration keeps that prefix of
   the free list from the last one and rebuilds, refactors and
   forward-substitutes only the rows after it; the back substitution runs
   over the whole face.  The prefix ends w rows before the old end of the
   free list when its length changed (the entries of U past the old end
   were never formed), and w rows before a dependent row that follows it
   (that row moved its term into the prefix's right-hand sides).  The kept
   rows have the bits a fresh factorization would give them.

   v holds the start on entry and the last iterate on return; *iters
   receives the iterations run (face solves) and *active the rows at a
   bound or fixed.  Returns 1 when the solve ended as above, or 0 when it
   reached max_iters or a face minimum that is not finite (then v is the
   last feasible iterate). */
static int tf_solve(tfdual *t, const double *lam, double tol, long max_iters,
                    double *v, long *iters, long *active, long w)
{
    long m = t->m, W = w + 1, i, a, l, nf = 0, old, keep, lo = 0, nb, held, it = 0;
    const double *b = t->b, *c = t->c, *u = t->u, *y = t->y;
    double *r = t->r, *x = t->x, *d = t->d, *h = t->h, *g = t->g, *ch = t->ch;
    breakpoint *br = t->br;
    long *idx = t->idx;
    signed char *st = t->st;
    double top = 0.0, gd, dcd, dch, step;
    int done = 0;

    for (i = 0; i < m; i++) {
        top = fabs(b[i]) > top ? fabs(b[i]) : top;
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
        /* the face: the kept prefix (lo is the least row whose status
           changed), then the free list and the rows after the prefix */
        for (keep = 0; keep < nf && idx[keep] < lo - w; keep++)
            ;
        old = nf;
        nf = 0;
        for (i = 0; i < m; i++)
            if (!st[i])
                idx[nf++] = i;
        if (nf != old && keep > old - w)
            keep = old > w ? old - w : 0;
        for (a = (keep + w < old ? keep + w : old) - 1; a >= keep; a--)
            if (dependent(t, a, w))
                keep = a > w ? a - w : 0;
        tf_face(t, keep, nf, v, w);
        tf_factor(t, keep, nf, v, w);
        /* the back substitution U x = y, with x = 0 in the dependent rows,
           which then take their held value */
        for (a = nf - 1; a >= 0; a--) {
            double val = y[a];
            for (l = 1; l <= w && a + l < nf; l++)
                val -= u[a * (w + 1) + l] * x[a + l];
            x[a] = dependent(t, a, w) ? 0.0 : val / u[a * (w + 1)];
        }
        for (a = 0; a < nf; a++) {
            i = idx[a];
            if (dependent(t, a, w))
                x[a] = v[i];
            d[a] = x[a] - v[i];
            if (!(fabs(x[a]) < HUGE_VAL))
                break;
            inside &= fabs(x[a]) <= lam[i];
        }
        if (a < nf)
            break;
        if (inside) {
            double thr = top;
            for (a = 0; a < nf; a++)
                v[idx[a]] = x[a];
            band_matvec(t->ab, m, w, v, g);
            for (i = 0; i < m; i++)
                thr = fabs(g[i]) > thr ? fabs(g[i]) : thr;
            thr *= tol;
            done = 1;
            for (i = 0; i < m; i++) {
                double grad = g[i] - b[i];
                if ((st[i] == 1 && grad > thr) || (st[i] == -1 && grad < -thr)) {
                    if (done)
                        lo = i;
                    st[i] = 0;
                    done = 0;
                }
            }
            continue;
        }
        /* the face minimum leaves the box: the projected search along
           P(v + t d), its breakpoints a binary heap in the order
           (t, position); x, read for the last time, takes each row's
           value in the face gradient: v, or 0 in a dependent row */
        nb = 0;
        for (a = 0; a < nf; a++) {
            i = idx[a];
            if (x[a] > lam[i] || x[a] < -lam[i]) {
                br[nb].t = ((x[a] > lam[i] ? lam[i] : -lam[i]) - v[i]) / d[a];
                br[nb++].a = a;
            }
            x[a] = dependent(t, a, w) ? 0.0 : v[i];
        }
        for (a = nb / 2 - 1; a >= 0; a--)
            sift_down(br, a, nb);
        /* in one pass over the face, each sum in the order of
           band_matvec and of rows: the face gradient g = A v - b at v,
           from r, which carries the terms of the dependent rows; C D
           into h, with D = d and H = 0 before any row is held; g'D and
           D'CD */
        gd = 0.0;
        dcd = 0.0;
        for (a = 0; a < nf; a++) {
            double cv = c[a * W] * x[a], cd = c[a * W] * d[a];
            for (l = 1; l <= w; l++)
                if (a + l < nf) {
                    cv += c[a * W + l] * x[a + l];
                    cd += c[a * W + l] * d[a + l];
                }
            for (l = 1; l <= w; l++)
                if (a - l >= 0) {
                    cv += c[(a - l) * W + l] * x[a - l];
                    cd += c[(a - l) * W + l] * d[a - l];
                }
            g[a] = cv - r[a];
            h[a] = cd;
            ch[a] = 0.0;
            gd += g[a] * d[a];
            dcd += d[a] * cd;
        }
        dch = 0.0;
        for (held = 0;;) {
            /* hold the row a of the first breakpoint, which leaves the
               heap for its end, so that the held rows are
               br[nb - held .. nb - 1]: D_a becomes 0 and H_a t_a d_a */
            breakpoint first = br[0];
            double ta = first.t, da, ha, caa, slope, next;
            held++;
            br[0] = br[nb - held];
            br[nb - held] = first;
            sift_down(br, 0, nb - held);
            a = first.a;
            da = d[a];
            ha = ta * da;
            caa = c[a * W];
            gd -= g[a] * da;
            dch = dch + ha * h[a] - da * ch[a] - ha * da * caa;
            dcd = dcd - 2.0 * da * h[a] + da * da * caa;
            h[a] -= da * caa;
            ch[a] += ha * caa;
            for (l = 1; l <= w; l++) {
                if (a + l < nf) {
                    h[a + l] -= da * c[a * W + l];
                    ch[a + l] += ha * c[a * W + l];
                }
                if (a - l >= 0) {
                    h[a - l] -= da * c[(a - l) * W + l];
                    ch[a - l] += ha * c[(a - l) * W + l];
                }
            }
            /* q'(t) = g'D + t D'CD + D'CH on the segment up to the next
               breakpoint (or t = 1, P(x)): stop where it is not negative
               or at its root */
            step = ta;
            next = held < nb ? br[0].t : 1.0;
            slope = gd + step * dcd + dch;
            if (!(slope < 0.0))
                break;
            if (dcd > 0.0) {
                double root = -(gd + dch) / dcd;
                if (root < next) {
                    if (root > step)
                        step = root;
                    break;
                }
            }
            if (held == nb) {
                step = 1.0;
                break;
            }
        }
        for (a = 0; a < nf; a++) {
            const double vi = v[idx[a]] + step * d[a], hi = lam[idx[a]];
            v[idx[a]] = vi < -hi ? -hi : vi > hi ? hi : vi;
        }
        /* the passed rows at their bounds; lo is the least of them */
        lo = m;
        for (l = nb - held; l < nb; l++) {
            a = br[l].a;
            i = idx[a];
            st[i] = d[a] > 0.0 ? 1 : -1;
            v[i] = st[i] * lam[i];
            if (i < lo)
                lo = i;
        }
    }
    *iters = it;
    *active = 0;
    for (i = 0; i < m; i++)
        *active += st[i] != 0;
    return done;
}

/* The primal of a dual v: beta = z - diag(1/omega) D'v. */
static void tf_primal(tfdual *t, const double *z, const double *v, double *beta, long w)
{
    long i, j, m = t->m, p = w + 1;
    for (i = 0; i < t->n; i++) {
        double acc = 0.0;
        for (j = 0; j < p; j++)
            if (i - j >= 0 && i - j < m)
                acc += t->s[j] * v[i - j];
        beta[i] = z[i] - t->winv[i] * acc;
    }
}

/* The envelopes of envelope_fused_lasso_path. */
enum { HUBER_SHIFT = 0, POLYA_GAMMA = 1, SQUARED = 2, LOG_PENALTY = 3, CHECK = 4 };

/* The variance-mean weights 1/|r| are clamped at this value, which exact
   fits reach (envopt.losses.variance_mean_update). */
#define WEIGHT_CLAMP 1e6

/* One envelope loop: its problem, the work arrays of a map and the run
   record.  The problem is the data y (and trial counts m, or for SQUARED
   per-point weights), the penalties u of the rows of D (n - 1 edges;
   n - k - 1 rows of the order-(k + 1) operator with a trend filter), for
   LOG_PENALTY the scale a and for CHECK the quantile q; umax is the
   largest of u, set with them (fit() turns it into a bound on every edge
   weight of a map).  A map writes the weights w, the working responses z
   and, for LOG_PENALTY, the fused lasso's edge weights ue, which also
   receives the clamped penalties of solve_penalties; x is the work array
   of the fused-lasso solves, and dp_calls counts the maps whose solve ran
   the DP.  When tf is not NULL, each map
   solves the trend filter on tf instead of the DP, warm-started from the
   dual v, with inner_tol and inner_max (v2 holds the dual of a SQUAREM
   step's second map, see squarem_step); inner_iters and capped count its
   iterations and the solves that ended without meeting their test, and
   act receives the rows at a bound of the last map's solve (tf is NULL
   when the caller passed no check block).  maps counts the maps run
   and, for every envelope but SQUARED, trace[t] receives the objective
   after map t. */
typedef struct {
    int envelope, coupled;
    const double *y, *m, *u;
    double a, q, umax;
    long n, rows, maps, dp_calls;
    double *w, *z, *ue, *x, *trace;
    tfdual *tf;
    double *v, *v2, inner_tol;
    long inner_max, inner_iters, capped, act;
} loop;

/* log(1 + e^b) as numpy's logaddexp(0, b) evaluates it. */
static double softplus(double b)
{
    if (b == 0.0)
        return log(2.0);
    if (b < 0.0)
        return log1p(exp(b));
    return b + log1p(exp(-b));
}

/* The penalty term of edge i at the jump d = |b_{i+1} - b_i|: u_i d, for
   LOG_PENALTY u_i log(1 + d/a). */
static double edge_penalty(const loop *s, long i, double d)
{
    return s->u[i] * (s->envelope == LOG_PENALTY ? log1p(d / s->a) : d);
}

/* Data loss plus penalty: the Huber loss (threshold 1) of y - b, the
   binomial logit loss m softplus(b) - y b, the weighted squared loss
   (w/2)(y - b)^2 or the check loss |r| + (2q - 1) r of r = y - b; plus
   sum_i u_i |d_i| on the differences d_i = b_{i+1} - b_i, for LOG_PENALTY
   the log penalty sum_i u_i log(1 + |d_i|/a), and with a trend filter
   sum_j u_j |(D b)_j|.  Each sum runs in order.  The switch on the
   envelope sits outside the loops, so each envelope has a loop of its
   own.  The softplus is evaluated once per run of bit-equal b (+0 and -0
   compare equal and give the same value), and an edge whose jump is 0 is
   skipped: its term is +0, which leaves a sum that starts at +0 as it
   is. */
static double objective(const loop *s, const double *beta)
{
    const double *y = s->y, *m = s->m, *u = s->u;
    double loss = 0.0, pen = 0.0, sp = 0.0;
    long i, j, n = s->n;
    switch (s->envelope) {
    case HUBER_SHIFT:
        for (i = 0; i < n; i++) {
            double r = fabs(y[i] - beta[i]);
            loss += r < 1.0 ? 0.5 * r * r : r - 0.5;
        }
        break;
    case SQUARED:
        for (i = 0; i < n; i++) {
            double r = y[i] - beta[i];
            loss += 0.5 * s->w[i] * r * r;
        }
        break;
    case CHECK:
        for (i = 0; i < n; i++) {
            double r = y[i] - beta[i];
            loss += fabs(r) + (2.0 * s->q - 1.0) * r;
        }
        break;
    default:
        for (i = 0; i < n; i++) {
            if (i == 0 || beta[i] != beta[i - 1])
                sp = softplus(beta[i]);
            loss += m[i] * sp - y[i] * beta[i];
        }
        break;
    }
    if (s->tf) {
        for (i = 0; i < s->rows; i++) {
            double acc = 0.0;
            for (j = 0; j <= s->tf->w; j++)
                acc += s->tf->s[j] * beta[i + j];
            pen += u[i] * fabs(acc);
        }
    } else {
        for (i = 0; i < n - 1; i++) {
            double d = fabs(beta[i + 1] - beta[i]);
            if (d != 0.0)
                pen += edge_penalty(s, i, d);
        }
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

/* The closed-form envelope update at beta: the weights w (constant, set
   by the caller, for the Huber shift and the squared loss) and the
   working responses z, and for LOG_PENALTY the edge weights ue.  Huber
   shift: z = y - soft(y - b, 1).  Squared loss: z = y.  Polya-Gamma (and
   LOG_PENALTY): w = (m/2b) tanh(b/2), the mean of the Polya-Gamma mixing
   variable, with its limit m/4 at b = 0, and z = (y - m/2)/w; the ratio
   tanh(h)/h is evaluated once per run of bit-equal b (at +0 and -0 it is
   1).  Check loss: w = min(1/|y - b|, WEIGHT_CLAMP) and
   z = y - (1 - 2q)/w.  As in objective, each envelope has a loop of its
   own.  Returns 0, or 2 when a weight is not positive and finite or a
   working response is not finite. */
static int update(loop *s, const double *beta)
{
    const double *y = s->y, *m = s->m;
    double *w = s->w, *z = s->z, ratio = 0.0;
    long i, n = s->n;
    switch (s->envelope) {
    case HUBER_SHIFT:
        for (i = 0; i < n; i++) {
            z[i] = y[i] - huber_shift(y[i], beta[i]);
            if (!(fabs(z[i]) < HUGE_VAL))
                return 2;
        }
        return 0;
    case SQUARED:
        for (i = 0; i < n; i++) {
            z[i] = y[i];
            if (!(fabs(z[i]) < HUGE_VAL))
                return 2;
        }
        return 0;
    case CHECK:
        for (i = 0; i < n; i++) {
            w[i] = 1.0 / fabs(y[i] - beta[i]);
            if (!(w[i] < WEIGHT_CLAMP))
                w[i] = WEIGHT_CLAMP;
            if (!(w[i] > 0.0))
                return 2;
            z[i] = y[i] - (1.0 - 2.0 * s->q) / w[i];
            if (!(fabs(z[i]) < HUGE_VAL))
                return 2;
        }
        return 0;
    }
    for (i = 0; i < n; i++) {
        if (i == 0 || beta[i] != beta[i - 1]) {
            double h = 0.5 * beta[i];
            ratio = fabs(h) < 1e-6 ? 1.0 - h * h / 3.0 : tanh(h) / h;
        }
        w[i] = 0.25 * m[i] * ratio;
        if (!(w[i] > 0.0 && w[i] < HUGE_VAL))
            return 2;
        z[i] = (y[i] - m[i] / 2.0) / w[i];
        if (!(fabs(z[i]) < HUGE_VAL))
            return 2;
    }
    if (s->envelope == LOG_PENALTY)
        log_penalty_weights(s, beta, s->ue);
    return 0;
}

/* The certified solve of the fused lasso of dp on (s->z, s->w) with the
   edge penalties u: the solution when its fused groups are the runs of
   hint (maximal stretches of bit-equal values) and each jump between runs
   keeps its sign, into beta (which may be hint), with s->x as the work
   array of dp.  Each run st..e takes the level
   b = (sum_i w_i z_i - u_{st-1} sig_{st-1} + u_e sig_e) / sum_i w_i,
   sig_j the sign of hint's jump on edge j, each sum taken in order; then
   the KKT conditions (Hoefling 2010, JCGS 19:984-1006) are tested without
   slack: every jump keeps its sign strictly, and the running sum
   g_j = sum_{i <= j} w_i (z_i - b_i) has |g_j| <= u_j on every fused edge.
   With w > 0 the minimizer is unique, so a level vector that passes is
   it.  It serves the iterative fused-lasso envelopes (the Huber shift and
   the logit's two), and sums their objective in the same pass: as each
   run's level is written, its points' losses are added in order, the
   softplus once per run, and each jump's edge_penalty with the unclamped
   s->u, so that *obj receives objective(s, beta) term for term (a fused
   edge's term is +0, which objective skips).  Returns 1 when the levels pass
   (beta and *obj hold them), 0 when a test fails (beta is then
   overwritten by the caller's dp, and *obj is not written). */
static int certified(const loop *s, const double *u, const double *hint,
                     double *beta, double *obj)
{
    const double *z = s->z, *w = s->w, *y = s->y, *m = s->m;
    double *x = s->x, g = 0.0, prev = 0.0, loss = 0.0, pen = 0.0;
    long i, st, e, n = s->n;
    /* the signs of hint's jumps, before beta (which may be hint) is written */
    for (i = 0; i < n - 1; i++)
        x[i] = hint[i + 1] > hint[i] ? 1.0 : hint[i + 1] < hint[i] ? -1.0 : 0.0;
    for (st = 0; st < n; st = e + 1) {
        double swz = w[st] * z[st], sw = w[st], b;
        for (e = st; e < n - 1 && x[e] == 0.0; e++) {
            swz += w[e + 1] * z[e + 1];
            sw += w[e + 1];
        }
        if (st > 0)
            swz -= u[st - 1] * x[st - 1];
        if (e < n - 1)
            swz += u[e] * x[e];
        b = swz / sw;
        if (st > 0 && !(x[st - 1] > 0.0 ? b > prev : b < prev))
            return 0;
        for (i = st; i <= e; i++) {
            beta[i] = b;
            g += w[i] * (z[i] - b);
            if (i < e && !(fabs(g) <= u[i]))
                return 0;
        }
        if (s->envelope == HUBER_SHIFT) {
            for (i = st; i <= e; i++) {
                double r = fabs(y[i] - b);
                loss += r < 1.0 ? 0.5 * r * r : r - 0.5;
            }
        } else {
            double sp = softplus(b);
            for (i = st; i <= e; i++)
                loss += m[i] * sp - y[i] * b;
        }
        if (st > 0)
            pen += edge_penalty(s, st - 1, fabs(b - prev));
        prev = b;
    }
    *obj = loss + pen;
    return 1;
}

/* The trend filter on (z, s->w) with the row penalties s->u into to,
   warm-started from s->v, counted in the run record, for the
   half-bandwidth w = k + 1. */
static void tf_run(loop *s, const double *z, double *to, long w)
{
    long iters;
    tf_bands(s->tf, z, s->w, w);
    s->capped += !tf_solve(s->tf, s->u, s->inner_tol, s->inner_max, s->v, &iters, &s->act, w);
    s->inner_iters += iters;
    tf_primal(s->tf, z, s->v, to, w);
}

/* tf_run with w a literal for k = 0, 1 and 2, so that the compiler
   builds one copy of the solve per order with constant loop bounds (GCC
   12 at -O3 inlines the k = 0 and k = 1 copies here and makes the k = 2
   copy the clone tf_solve.constprop.0, which nm lists); k >= 3 runs the
   solve with w read at run time.  The copies do the same operations in
   the same order, so the bits do not depend on which one runs. */
static void trend_filter(loop *s, const double *z, double *to)
{
    switch (s->tf->w) {
    case 1:
        tf_run(s, z, to, 1);
        break;
    case 2:
        tf_run(s, z, to, 2);
        break;
    case 3:
        tf_run(s, z, to, 3);
        break;
    default:
        tf_run(s, z, to, s->tf->w);
        break;
    }
}

/* The edge penalties pen of a fused-lasso solve on (s->z, s->w), clamped
   at G = 2 n max_i |z_i| max_i w_i when s->umax, a bound on every penalty
   of the fit, exceeds G; the clamped copy goes to s->ue.  The solution
   lies in [min z, max z], so the running sum g_j of certified is at most
   min(sum_{i <= j} w_i, sum_{i > j} w_i) (max z - min z) <= max |z| sum w
   <= G / 2 in size, and a penalty of G exceeds it by a margin at the
   scale of the data, which rounding does not reach: the clamped solve
   fuses the edges that the exact solution fuses.  It keeps the DP's knots
   and messages at that scale; unclamped, a penalty of 1e12 cost the DP 7
   of its digits and one of 1e18 all of them.  The two maxima do not
   depend on the order of their terms, and four running maxima each keep
   the pass off one chain of dependent comparisons. */
static const double *solve_penalties(loop *s, const double *pen)
{
    const double *z = s->z, *w = s->w;
    double top[4] = {0.0, 0.0, 0.0, 0.0}, wmax[4] = {0.0, 0.0, 0.0, 0.0}, cap;
    long i, j, n = s->n;
    for (i = 0; i < n; i += 4)
        for (j = 0; j < 4 && i + j < n; j++) {
            top[j] = fabs(z[i + j]) > top[j] ? fabs(z[i + j]) : top[j];
            wmax[j] = w[i + j] > wmax[j] ? w[i + j] : wmax[j];
        }
    for (j = 1; j < 4; j++) {
        top[0] = top[j] > top[0] ? top[j] : top[0];
        wmax[0] = wmax[j] > wmax[0] ? wmax[j] : wmax[0];
    }
    cap = 2.0 * (double)n * top[0] * wmax[0];
    if (!(s->umax > cap))
        return pen;
    for (i = 0; i < n - 1; i++)
        s->ue[i] = pen[i] > cap ? cap : pen[i];
    return s->ue;
}

/* One MM map: the envelope update at from, then the exact weighted fused
   lasso on (z, w) with the edge weights (or, with tf, the trend filter)
   into to (which may be from) and its objective into *obj.  The fused
   lasso of an iterative envelope is first the certified solve on the runs
   of from (certified), which also gives the objective, and the DP
   (counted in s->dp_calls) only when its test fails; the squared loss's
   one solve, whose from is not read, is the DP.  Both take the penalties
   of solve_penalties.  When no u_i couples two coefficients the fused
   lasso returns a copy of z (as the tests' reference does); objective
   gives the objective of every solve but a certified one.  Returns 0, or
   2 when the update or the objective is not finite. */
static int map(loop *s, const double *from, double *to, double *obj)
{
    int status = update(s, from);
    if (status)
        return status;
    if (s->tf) {
        trend_filter(s, s->z, to);
    } else if (!s->coupled) {
        memcpy(to, s->z, (size_t)s->n * sizeof(double));
    } else {
        const double *u = solve_penalties(s, s->envelope == LOG_PENALTY ? s->ue : s->u);
        if (s->envelope != SQUARED && certified(s, u, from, to, obj))
            return fabs(*obj) < HUGE_VAL ? 0 : 2;
        dp(s->z, s->w, u, s->n, to, s->x);
        s->dp_calls++;
    }
    *obj = objective(s, to);
    return fabs(*obj) < HUGE_VAL ? 0 : 2;
}

/* Appends the objective after one more map to the run record (SQUARED,
   whose trace is its one map's objective, never comes here). */
static void count_map(loop *s, double obj)
{
    s->maps++;
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
   rows at a bound of the map that gave beta (trend filter).  With a trend
   filter the dual after b2's solve is saved in s->v2, and a rejected
   third map puts it back, so that the next solve starts from the dual
   that gave the kept iterate b2, not from the rejected map's.  When the
   second plain map rises, beta becomes b1, the last iterate accepted.
   Returns 0 or the status of a plain map. */
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
    if (s->tf)
        memcpy(s->v2, s->v, (size_t)s->rows * sizeof(double));
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
        if (s->tf)
            memcpy(s->v, s->v2, (size_t)s->rows * sizeof(double));
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
        top = fabs(beta[i]) > top ? fabs(beta[i]) : top;
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
enum { INFO = 11 };

/* One fit of a path: the majorize/minimize loop whose map F(beta) is the
   envelope update at beta, then the exact weighted fused lasso (or, when
   s->tf is set, the trend filter), then the objective, with the row
   penalties s->u; it is the tests' reference envelope_fit map for map.
   The envelopes are the Huber location shift (m, a and q unused), the
   Polya-Gamma weights (a and q unused), the Polya-Gamma weights together
   with the log penalty's edge weights u_i / (a + |b_{i+1} - b_i|)
   recomputed from beta in each map (LOG_PENALTY), the squared loss with
   the weights s->w (a and q unused), which is exact in one map: it runs
   that map from no start, and its record is that map's objective alone;
   and the check loss's variance-mean weights (CHECK, m and a unused).  A
   CHECK fit with cold set starts at the trend filter of y with unit
   weights (not a map; its solve is counted with the others), and every
   trend filter starts at the dual of the one before it.

   The iterative envelopes run safeguarded SQUAREM steps of three maps
   each (squarem_step) while at least three maps remain in max_iters,
   then plain maps.  A plain map whose objective rises beyond 1e-10
   relative stops the loop: that is a failure, except for CHECK, whose
   clamped weights need not majorize the loss, where the fit ends at the
   last iterate accepted and counts the rise.  The loop converges when
   the relative change |f_0 - f_1| / max(1, |f_0|) over a whole step (or
   plain map) falls to tol, or for CHECK when the map that rose did so by
   at most tol relative; a fit with trend filters converges only when,
   besides, each of its solves met its test.

   beta holds the start on entry (unread for SQUARED and for CHECK with
   cold set) and the last iterate on return; b1, b2 and bx are work
   vectors.  s->trace[0] is the starting objective (for SQUARED the
   objective of its one map) and, for the iterative envelopes, s->trace[t]
   the objective after map t; a rejected extrapolation repeats its step's
   plain value.  envvar receives the final envelope variables: for
   HUBER_SHIFT the shift soft(y - beta, 1) (n values), for LOG_PENALTY
   the edge weights at the last iterate (n - 1 values), with a trend
   filter the weights w, the working responses z at the last iterate and
   the last dual, s->v (2n + rows values); otherwise it is unread.
   info[0..10] are the maps run, converged (0/1), the last accepted
   objective, after a rise the objective that rose, the df of the last
   iterate (its distinct levels, or with a trend filter k + 1 plus the
   rows at a bound of the dual that gave it, or of the start dual when no
   solve did), the SQUAREM steps, the rejected extrapolations, the
   trend-filter iterations, the trend-filter solves that did not meet
   their test, the rising maps (0 or 1) and the maps whose fused lasso ran
   the DP.  Returns 0, or the status of a plain map. */
static int fit(loop *s, double tol, long max_iters, int cold, double *beta,
               double *b1, double *b2, double *bx, double *envvar, double *info)
{
    long i, n = s->n, steps = 0, rejected = 0, rises = 0, act = 0;
    int status = 0, converged = 0;
    double obj = 0.0, next = 0.0, start;

    s->maps = 0;
    s->dp_calls = 0;
    s->inner_iters = 0;
    s->capped = 0;
    s->coupled = s->umax > 0.0;
    /* the log penalty's edge weights u_i / (a + |d_i|) are at most u_i / a */
    if (s->envelope == LOG_PENALTY)
        s->umax /= s->a;
    if (s->tf) {
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
        act = s->act;
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
    if (s->envelope == CHECK && status == 3) {
        status = 0;
        rises = 1;
        converged = next - obj <= tol * fmax(1.0, fabs(obj));
    }
    if (s->tf) {
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
    info[4] = (double)(s->tf ? act + s->tf->w : distinct_levels(beta, n));
    info[5] = (double)steps;
    info[6] = (double)rejected;
    info[7] = (double)s->inner_iters;
    info[8] = (double)s->capped;
    info[9] = (double)rises;
    info[10] = (double)s->dp_calls;
    return status;
}

/* A warm-started path of fits: fit l (l = 0 .. fits - 1) is the loop of
   fit() with the row penalties lams[l] * u_j, started at the last iterate
   of fit l - 1 (fit 0 at the given start, or for CHECK with a cold start
   at that).  A single fit is the path of one fit with lams[0] = 1, since
   lam * 1 is exact.  The work arrays are allocated once per path.

   m holds the trial counts of the logit envelopes and, for SQUARED, the
   per-point weights of its loss (1 when m is NULL); the other envelopes
   do not read it (it may be NULL).  check, when not NULL, makes every
   subproblem the trend filter of order k (difference operator of order
   k + 1) and holds q (read by CHECK alone), k, the trend filter's
   inner_tol and inner_max_iters, 1 for CHECK's cold start (0 for the
   given start), then the dual of fit 0's first trend filter (n - k - 1
   values), which each fit scales into its box (scale_dual) before it
   runs, and which is carried from fit to fit; when check is NULL the
   subproblem is the fused-lasso DP and k is 0.  u holds the penalties of
   the n - k - 1 rows of the difference operator of order k + 1 (the n - 1
   edges for k = 0), each 1 when u is NULL.  beta is a fits x n block
   whose row 0 holds the start on entry (unread for SQUARED and for a
   cold CHECK start); row l receives fit l's last iterate.  trace
   receives the fits' traces one after another: fit l's maps + 1 values
   (room for fits x (max_iters + 1) values), except for SQUARED, whose
   trace is its one value (fits values).  envvar is a fits x n block
   (HUBER_SHIFT), a fits x (n - 1) block (LOG_PENALTY) or, with check,
   a fits x (3n - k - 1) block (w, z
   and the last dual) of the final envelope variables, unread otherwise
   (it may be NULL).  info is fits x INFO values, row l the info of fit l
   (see fit()), then one value: the index of the last fit run, which is
   the failing fit when the return value is 2 or 3.  The caller passes m
   and check as its table _KINDS says and validates the values (n >= 1,
   y finite, 0 <= y <= m with m >= 1 for the logit envelopes, m > 0 and
   finite for SQUARED, u >= 0 and lams >= 0 with every product
   lams[l] * u_j finite, a > 0 and finite for LOG_PENALTY, 0 < q < 1 for
   CHECK, k >= 0 and n >= k + 2 with check, the start finite, max_iters
   >= 1, inner_max_iters >= 1, fits >= 1).  Returns 0;
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
    int cold = envelope == CHECK && check[4] != 0.0, status = 0;
    long i, l, k = check ? (long)check[1] : 0, rows = n - k - 1;
    long nv = envelope == HUBER_SHIFT ? n : check ? 2 * n + rows : n - 1;
    tfdual tf;
    double *work = malloc(sizeof(double) * (size_t)(15 * n + (check ? 2 * rows : 0)));
    if (!work)
        return 1;
    if (check && tf_alloc(&tf, n, k)) {
        free(work);
        return 1;
    }
    double *b1 = work + 3 * n, *b2 = b1 + n, *bx = b2 + n, *pen = bx + 9 * n;
    loop s = {envelope, 0, y, m, pen, a, check ? check[0] : 0.0, 0.0, n, rows, 0, 0,
              work, work + n, work + 2 * n, bx + n, trace,
              check ? &tf : NULL, pen + n, pen + n + rows, check ? check[2] : 0.0,
              check ? (long)check[3] : 0, 0, 0, 0};

    /* the weights of the envelopes that do not update them */
    if (envelope == HUBER_SHIFT || envelope == SQUARED)
        for (i = 0; i < n; i++)
            s.w[i] = envelope == SQUARED && m ? m[i] : 1.0;
    if (check)
        memcpy(s.v, check + 5, (size_t)rows * sizeof(double));
    for (l = 0; l < fits && !status; l++) {
        double *b = beta + l * n;
        if (l > 0)
            memcpy(b, b - n, (size_t)n * sizeof(double));
        s.umax = 0.0;
        for (i = 0; i < rows; i++) {
            pen[i] = lams[l] * (u ? u[i] : 1.0);
            s.umax = pen[i] > s.umax ? pen[i] : s.umax;
        }
        if (check)
            scale_dual(s.v, pen, rows);
        s.trace = trace;
        status = fit(&s, tol, max_iters, cold && l == 0, b, b1, b2, bx,
                     envvar ? envvar + l * nv : NULL, info + INFO * l);
        trace += envelope == SQUARED ? 1 : s.maps + 1;
    }
    info[INFO * fits] = (double)(l - 1);
    if (check)
        tf_free(&tf);
    free(work);
    return status;
}

/* The one-solve fit of the weighted squared loss sum_i (w_i/2)(y_i -
   b_i)^2 + sum_i lam u_i |b_{i+1} - b_i| (w_i = 1 when w is NULL, u_i = 1
   when u is NULL): the SQUARED fit of envelope_fused_lasso_path on the
   one scale lam, whose results go to the one buffer out of n + INFO + 2
   values: beta, the fit's info row (see fit()), the index 0 of the last
   fit run and the one-value trace.  The caller validates the values as
   for envelope_fused_lasso_path, lam * u_i finite.  Returns its status:
   0, 1 or 2. */
int fused_lasso_solve(const double *y, const double *w, const double *u,
                      double lam, long n, double *out)
{
    return envelope_fused_lasso_path(SQUARED, y, w, u, &lam, 1, 1.0, n, 0.0,
                                     1, out, out + n + INFO + 1, NULL,
                                     out + n, NULL);
}
