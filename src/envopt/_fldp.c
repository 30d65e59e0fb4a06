/* Exact weighted 1-d fused lasso by message passing (Johnson 2013, JCGS),
   and the envelope MM loops built on it.

   fused_lasso_dp minimizes sum_i (w_i/2)(z_i - b_i)^2 +
   sum_i u_i |b_{i+1} - b_i| and writes the minimizer to beta[0..n-1].
   This is envopt.solvers._fused_lasso_dp operation for operation; built
   without floating-point contraction, it returns the same bits.  The
   caller validates the inputs (n >= 2, w > 0, u >= 0, all finite).
   Returns 0, or 1 when the work arrays cannot be allocated.

   envelope_fused_lasso_mm runs a whole majorize/minimize loop whose
   subproblem is that fused lasso, for one of three envelopes: the Huber
   location shift, the logit's Polya-Gamma weights, or the squared loss,
   which is exact in one cycle.  Besides the iterate and its objective
   trace it returns the fit's distinct levels (df) and, for the Huber
   shift, the final shift; see its comment below. */

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

/* The envelopes of envelope_fused_lasso_mm. */
enum { HUBER_SHIFT = 0, POLYA_GAMMA = 1, SQUARED = 2 };

/* Data loss plus sum_i u_i |b_{i+1} - b_i|: the Huber loss (threshold 1)
   of y - b, the binomial logit loss m log(1 + e^b) - y b with
   log(1 + e^b) evaluated as numpy's logaddexp(0, b), or the squared
   loss (1/2)(y - b)^2. */
static double objective(int envelope, const double *y, const double *m,
                        const double *u, long n, const double *beta)
{
    double loss = 0.0, pen = 0.0;
    long i;
    for (i = 0; i < n; i++) {
        double b = beta[i];
        if (envelope == HUBER_SHIFT) {
            double r = fabs(y[i] - b);
            loss += r < 1.0 ? 0.5 * r * r : r - 0.5;
        } else if (envelope == SQUARED) {
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
    for (i = 0; i < n - 1; i++)
        pen += u[i] * fabs(beta[i + 1] - beta[i]);
    return loss + pen;
}

/* The Huber location shift soft(y - b, 1), as numpy's
   sign(r) * max(|r| - 1, 0) up to the sign of a zero. */
static double huber_shift(double y, double b)
{
    double r = y - b;
    return r > 1.0 ? r - 1.0 : r < -1.0 ? r + 1.0 : 0.0;
}

/* The closed-form envelope update at beta: the weights w (constant 1 for
   the Huber shift and the squared loss, set by the caller) and the
   working responses z.  Huber shift: z = y - soft(y - b, 1).  Squared
   loss: z = y.  Polya-Gamma: w = (m/2b) tanh(b/2), the mean of the
   Polya-Gamma mixing variable, with its limit m/4 at b = 0, and
   z = (y - m/2)/w.  Returns 0, or 2 when a weight is not positive and
   finite or a working response is not finite. */
static int update(int envelope, const double *y, const double *m, long n,
                  const double *beta, double *w, double *z)
{
    long i;
    for (i = 0; i < n; i++) {
        if (envelope == HUBER_SHIFT) {
            z[i] = y[i] - huber_shift(y[i], beta[i]);
        } else if (envelope == SQUARED) {
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
    return 0;
}

/* One cycle: the envelope update at beta, the exact weighted fused lasso
   on (z, w, u) into beta and its objective into *obj.  When no u_i
   couples two coefficients the solve returns z itself, as the Python
   wrapper of the DP does.  Returns 0, or 2 when the update or the
   objective is not finite. */
static int cycle(int envelope, const double *y, const double *m,
                 const double *u, long n, int coupled, double *beta,
                 double *w, double *z, double *x, double *obj)
{
    int status = update(envelope, y, m, n, beta, w, z);
    if (status)
        return status;
    if (coupled)
        dp(z, w, u, n, beta, x);
    else
        memcpy(beta, z, (size_t)n * sizeof(double));
    *obj = objective(envelope, y, m, u, n, beta);
    return fabs(*obj) < HUGE_VAL ? 0 : 2;
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

/* One majorize/minimize loop: each cycle is the envelope update at beta,
   then the exact weighted fused lasso on (z, w, u), then the objective.
   This is envopt.solvers.mm_driver with the update and solve of
   envopt.solvers.envelope_fused_lasso_mm for the Huber shift (u_i = lam,
   m unused) and the Polya-Gamma weights, cycle for cycle: a rise of the
   objective beyond 1e-10 relative stops the loop, and it converges when
   the relative change |f_t - f_{t+1}| / max(1, |f_t|) falls to tol.
   The squared loss (m unused) is exact in one cycle: it runs that cycle
   from no start, and its record is that cycle's objective alone.

   beta holds the start on entry (unread for SQUARED) and the last
   iterate on return.  trace[0] is the starting objective (for SQUARED
   the objective of its one cycle) and, when record is nonzero, trace[t]
   the objective after cycle t (room for max_iters + 1 values).  For
   HUBER_SHIFT, shift[0..n-1] receives soft(y - beta, 1) at the last
   iterate; other envelopes leave shift unread (it may be NULL).
   info[0..4] are the cycles run, converged (0/1), the last accepted
   objective, after a rise the objective that rose, and the distinct
   levels of the last iterate (df).  The caller validates the inputs
   (n >= 1, y finite, 0 <= y <= m with m >= 1 for POLYA_GAMMA, u >= 0
   and finite, beta finite, max_iters >= 1).  Returns 0; 1 when the work
   arrays cannot be allocated; 2 when a weight, a working response or the
   objective is not finite; 3 when the objective rises. */
int envelope_fused_lasso_mm(int envelope, const double *y, const double *m,
                            const double *u, long n, double tol,
                            long max_iters, int record, double *beta,
                            double *trace, double *shift, double *info)
{
    long i, it, cycles = 0;
    int status = 0, converged = 0, coupled = 0;
    double obj = 0.0, next = 0.0;
    double *w = calloc((size_t)(10 * n - 2), sizeof(double));
    if (!w)
        return 1;
    double *z = w + n, *x = z + n;

    for (i = 0; i < n - 1; i++)
        coupled |= u[i] != 0.0;
    if (envelope != POLYA_GAMMA)
        for (i = 0; i < n; i++)
            w[i] = 1.0;
    if (envelope == SQUARED) {
        cycles = 1;
        converged = 1;
        status = cycle(envelope, y, m, u, n, coupled, beta, w, z, x, &obj);
        next = obj;
        trace[0] = obj;
    } else {
        obj = objective(envelope, y, m, u, n, beta);
        trace[0] = obj;
        if (!(fabs(obj) < HUGE_VAL))
            status = 2;
    }
    for (it = 1; it <= max_iters && !status && !converged; it++) {
        cycles = it;
        status = cycle(envelope, y, m, u, n, coupled, beta, w, z, x, &next);
        if (status)
            break;
        if (next > obj + 1e-10 * fmax(1.0, fabs(obj))) {
            status = 3;
            break;
        }
        if (record)
            trace[it] = next;
        converged = fabs(obj - next) <= tol * fmax(1.0, fabs(obj));
        obj = next;
    }
    if (envelope == HUBER_SHIFT)
        for (i = 0; i < n; i++)
            shift[i] = huber_shift(y[i], beta[i]);
    info[0] = (double)cycles;
    info[1] = converged;
    info[2] = obj;
    info[3] = next;
    info[4] = (double)distinct_levels(beta, n);
    free(w);
    return status;
}
