/* Exact weighted 1-d fused lasso by message passing (Johnson 2013, JCGS),
   and the envelope MM loops built on it.

   fused_lasso_dp minimizes sum_i (w_i/2)(z_i - b_i)^2 +
   sum_i u_i |b_{i+1} - b_i| and writes the minimizer to beta[0..n-1].
   This is envopt.solvers._fused_lasso_dp operation for operation; built
   without floating-point contraction, it returns the same bits.  The
   caller validates the inputs (n >= 2, w > 0, u >= 0, all finite).
   Returns 0, or 1 when the work arrays cannot be allocated.

   envelope_fused_lasso_path runs the whole majorize/minimize loop whose
   subproblem is that fused lasso, for one of four envelopes: the Huber
   location shift, the logit's Polya-Gamma weights, the Polya-Gamma
   weights together with the log penalty's edge weights (the fused
   double-Pareto fit), or the squared loss, which is exact in one map.
   The iterative envelopes are extrapolated by safeguarded SQUAREM.  One
   call runs a warm-started path of such fits over a grid of penalty
   scales, each fit starting at the previous fit's iterate; a single fit
   is the path of one scale 1.  For each fit it returns the iterate and
   its objective trace, the fit's distinct levels (df), the SQUAREM steps
   and rejected extrapolations, and the final envelope variables (the
   Huber shift or the log-penalty edge weights); see its comment below. */

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

/* The envelopes of envelope_fused_lasso_path. */
enum { HUBER_SHIFT = 0, POLYA_GAMMA = 1, SQUARED = 2, LOG_PENALTY = 3 };

/* One envelope loop: its problem, the work arrays of a map and the run
   record.  The problem is the data y (and trial counts m), the edge
   penalties u and, for LOG_PENALTY, the scale a.  A map writes the
   weights w, the working responses z and, for LOG_PENALTY, the DP's edge
   weights ue; x is the DP's work array.  maps counts the maps run and,
   when record is nonzero, trace[t] receives the objective after map t. */
typedef struct {
    int envelope, coupled, record;
    const double *y, *m, *u;
    double a;
    long n, maps;
    double *w, *z, *ue, *x, *trace;
} loop;

static int logit_loss(int envelope)
{
    return envelope == POLYA_GAMMA || envelope == LOG_PENALTY;
}

/* Data loss plus penalty: the Huber loss (threshold 1) of y - b, the
   binomial logit loss m log(1 + e^b) - y b with log(1 + e^b) evaluated as
   numpy's logaddexp(0, b), or the squared loss (1/2)(y - b)^2; plus
   sum_i u_i |d_i| on the differences d_i = b_{i+1} - b_i, or for
   LOG_PENALTY the log penalty sum_i u_i log(1 + |d_i|/a). */
static double objective(const loop *s, const double *beta)
{
    const double *y = s->y, *m = s->m, *u = s->u;
    double loss = 0.0, pen = 0.0;
    long i;
    for (i = 0; i < s->n; i++) {
        double b = beta[i];
        if (s->envelope == HUBER_SHIFT) {
            double r = fabs(y[i] - b);
            loss += r < 1.0 ? 0.5 * r * r : r - 0.5;
        } else if (s->envelope == SQUARED) {
            double r = y[i] - b;
            loss += 0.5 * r * r;
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
   variable, with its limit m/4 at b = 0, and z = (y - m/2)/w.  Returns 0,
   or 2 when a weight is not positive and finite or a working response is
   not finite. */
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

/* One MM map: the envelope update at from, then the exact weighted fused
   lasso on (z, w) with the edge weights into to (which may be from) and
   its objective into *obj.  When no u_i couples two coefficients the
   solve returns z itself, as the Python wrapper of the DP does.  Returns
   0, or 2 when the update or the objective is not finite. */
static int map(loop *s, const double *from, double *to, double *obj)
{
    int status = update(s, from);
    if (status)
        return status;
    if (s->coupled)
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
   *rejected counts it.  b1, b2 and bx are work vectors.  Returns 0 or
   the status of a plain map. */
static int squarem_step(loop *s, double *beta, double *b1, double *b2,
                        double *bx, double *obj, double *next, long *rejected)
{
    long i, n = s->n;
    double rr = 0.0, vv = 0.0, alpha = -1.0, fx = 0.0;
    int status = plain_map(s, beta, b1, obj, next), finite = 1;
    if (!status)
        status = plain_map(s, b1, b2, obj, next);
    if (status)
        return status;
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

/* One fit of a path: the majorize/minimize loop whose map F(beta) is the
   envelope update at beta, then the exact weighted fused lasso, then the
   objective, with the edge penalties s->u; it is
   envopt.solvers._envelope_mm_python map for map.  The envelopes are the
   Huber location shift (m and a unused), the Polya-Gamma weights (a
   unused), the Polya-Gamma weights together with the log penalty's edge
   weights u_i / (a + |b_{i+1} - b_i|) recomputed from beta in each map
   (LOG_PENALTY), and the squared loss (m and a unused), which is exact in
   one map: it runs that map from no start, and its record is that map's
   objective alone.

   The iterative envelopes run safeguarded SQUAREM steps of three maps
   each (squarem_step) while at least three maps remain in max_iters,
   then plain maps.  A plain map whose objective rises beyond 1e-10
   relative stops the loop.  It converges when the relative change
   |f_0 - f_1| / max(1, |f_0|) over a whole step (or plain map) falls to
   tol.

   beta holds the start on entry (unread for SQUARED) and the last
   iterate on return; b1, b2 and bx are work vectors.  s->trace[0] is the
   starting objective (for SQUARED the objective of its one map) and, when
   s->record is nonzero, s->trace[t] the objective after map t; a rejected
   extrapolation repeats its step's plain value.  envvar receives the
   final envelope variables: for HUBER_SHIFT the shift soft(y - beta, 1)
   (n values), for LOG_PENALTY the edge weights at the last iterate
   (n - 1 values); other envelopes leave it unread.  info[0..6] are the
   maps run, converged (0/1), the last accepted objective, after a rise
   the objective that rose, the distinct levels of the last iterate (df),
   the SQUAREM steps and the rejected extrapolations.  Returns 0, or the
   status of a plain map. */
static int fit(loop *s, double tol, long max_iters, double *beta, double *b1,
               double *b2, double *bx, double *envvar, double *info)
{
    long i, n = s->n, steps = 0, rejected = 0;
    int status = 0, converged = 0;
    double obj = 0.0, next = 0.0, start;

    s->maps = 0;
    s->coupled = 0;
    for (i = 0; i < n - 1; i++)
        s->coupled |= s->u[i] != 0.0;
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
            status = squarem_step(s, beta, b1, b2, bx, &obj, &next, &rejected);
        } else {
            status = plain_map(s, beta, beta, &obj, &next);
        }
        converged = !status && fabs(start - obj) <= tol * fmax(1.0, fabs(start));
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
    info[4] = (double)distinct_levels(beta, n);
    info[5] = (double)steps;
    info[6] = (double)rejected;
    return status;
}

/* A warm-started path of fits: fit l (l = 0 .. fits - 1) is the loop of
   fit() with the edge penalties lams[l] * u_i, started at the last
   iterate of fit l - 1 (fit 0 at the given start).  A single fit is the
   path of one fit with lams[0] = 1, since lam * 1 is exact.  The work
   arrays are allocated once per path.

   beta is a fits x n block whose row 0 holds the start on entry (unread
   for SQUARED); row l receives fit l's last iterate.  trace receives the
   fits' traces one after another: when record is nonzero, fit l's maps + 1
   values (room for fits x (max_iters + 1) values), and otherwise the
   first value of each fit (fits values); SQUARED, whose trace is its one
   value, runs with record = 0.  envvar is a fits x n block
   (HUBER_SHIFT) or a fits x (n - 1) block (LOG_PENALTY) of the final
   envelope variables, unread by the other envelopes (it may be NULL).
   info is fits x 7 values, row l the info of fit l (see fit()), then one
   value: the index of the last fit run, which is the failing fit when the
   return value is 2 or 3.  The caller validates the inputs (n >= 1, y
   finite, 0 <= y <= m with m >= 1 for the logit envelopes, u >= 0 and
   lams >= 0 with every product lams[l] * u_i finite, a > 0 and finite for
   LOG_PENALTY, the start finite, max_iters >= 1, fits >= 1).  Returns 0;
   1 when the work arrays cannot be allocated; 2 when a weight, a working
   response or the objective of a plain map is not finite; 3 when the
   objective of a plain map rises.  A fit that fails stops the path. */
int envelope_fused_lasso_path(int envelope, const double *y, const double *m,
                              const double *u, const double *lams, long fits,
                              double a, long n, double tol, long max_iters,
                              int record, double *beta, double *trace,
                              double *envvar, double *info)
{
    long i, l, nv = envelope == HUBER_SHIFT ? n : n - 1;
    int status = 0;
    double *work = calloc((size_t)(15 * n), sizeof(double));
    if (!work)
        return 1;
    double *b1 = work + 3 * n, *b2 = b1 + n, *bx = b2 + n, *pen = bx + 9 * n;
    loop s = {envelope, 0, record, y, m, pen, a, n, 0,
              work, work + n, work + 2 * n, bx + n, trace};

    if (!logit_loss(envelope))
        for (i = 0; i < n; i++)
            s.w[i] = 1.0;
    for (l = 0; l < fits && !status; l++) {
        double *b = beta + l * n;
        if (l > 0)
            memcpy(b, b - n, (size_t)n * sizeof(double));
        for (i = 0; i < n - 1; i++)
            pen[i] = lams[l] * u[i];
        s.trace = trace;
        status = fit(&s, tol, max_iters, b, b1, b2, bx,
                     envvar ? envvar + l * nv : NULL, info + 7 * l);
        trace += record ? s.maps + 1 : 1;
    }
    info[7 * fits] = (double)(l - 1);
    free(work);
    return status;
}
