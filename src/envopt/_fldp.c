/* Exact weighted 1-d fused lasso by message passing (Johnson 2013, JCGS).

   Minimizes sum_i (w_i/2)(z_i - b_i)^2 + sum_i u_i |b_{i+1} - b_i| and
   writes the minimizer to beta[0..n-1].  This is envopt.solvers.
   _fused_lasso_dp operation for operation; built without floating-point
   contraction, it returns the same bits.  The caller validates the
   inputs (n >= 2, w > 0, u >= 0, all finite).  Returns 0, or 1 when
   the work arrays cannot be allocated. */

#include <stdlib.h>

int fused_lasso_dp(const double *z, const double *w, const double *u,
                   long n, double *beta)
{
    double *x = calloc((size_t)(8 * n - 2), sizeof(double));
    if (!x)
        return 1;
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
    free(x);
    return 0;
}
