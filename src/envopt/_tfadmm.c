/* Weighted trend filtering by ADMM on the split alpha = D beta.

   Minimizes sum_i (omega_i/2)(z_i - b_i)^2 + sum_j lam_j |(D b)_j|, where
   D is the difference operator of order k+1 (m = n-k-1 rows, each the
   stencil s[0..k+1] starting at its own column).  This is the loop of
   envopt.solvers.weighted_trend_filter step for step: the banded Cholesky
   beta-step on diag(omega) + rho D'D, soft thresholding at lam/rho, dual
   ascent on w, the stopping test on the primal and dual residual norms,
   and rho rebalancing by factors of 2 at most every 20 iterations.  Only
   the rounding differs from the Python loop: sums run in another order
   and the triangular solves multiply by precomputed reciprocals.  Unlike
   the Python loop, it forms the dual residual and its tolerance (two D'
   products and two norms) only in the iterations that read them: when the primal test
   passes, when a rebalance is due and in the last one.

   gram holds the upper bands of D'D as scipy's cholesky_banded takes
   them, row-major (k+2) x n: gram[(k+1-lag)*n + j] = (D'D)[j-lag, j].
   alpha, w and info[0] (rho) are read as the warm start and overwritten
   with the final iterate; on return info[1..5] are the iterations run,
   converged (0/1), the primal and dual residual norms and the largest
   primal residual.  The caller validates the inputs (n >= k+2, omega > 0,
   lam >= 0, all finite, max_iters >= 1).  Returns 0, 1 when the work
   arrays cannot be allocated, or 2 when a factorization meets a
   non-positive pivot. */

#include <math.h>
#include <stdlib.h>

/* The loop is inlined once per common order k, so that the stencil
   length is a constant there and the short inner loops unroll. */
#if defined(__GNUC__)
#define INLINE static inline __attribute__((always_inline))
#else
#define INLINE static inline
#endif

/* Banded Cholesky A = U'U of A = diag(omega) + rho * gram, bandwidth u,
   stored for the two triangular solves: with d_j = 1/U[j][j],
   c[j*(u+1)] = d_j, c[j*(u+1) + e] = d_j U[j][j+e] (backward sweep) and
   f[j*u + e-1] = d_j U[j-e][j] (forward sweep), so that a row of the
   forward sweep is x_j = d_j b_j - sum_e f[j*u + e-1] x_{j-e} and one of
   the backward sweep x_j = d_j x_j - sum_e c[j*(u+1) + e] x_{j+e}.  Also
   sets the soft-threshold levels thr = lam/rho. */
static int factor(const double *omega, const double *gram, const double *lam,
                  double rho, long n, long m, long u, double *c, double *f,
                  double *thr)
{
    long j, d, e, i;
    for (j = 0; j < n; j++) {
        for (d = 0; d <= u && j + d < n; d++) {
            long col = j + d;
            double v = rho * gram[(u - d) * n + col];
            if (d == 0)
                v += omega[j];
            /* subtract U[i][j] * U[i][col] over rows i < j, farthest
               first, and scale by 1/U[j][j] below, in the order of
               LAPACK's dpbtf2 */
            for (e = (u - d < j ? u - d : j); e >= 1; e--) {
                i = j - e;
                v -= c[i * (u + 1) + e] * c[i * (u + 1) + e + d];
            }
            if (d == 0) {
                if (!(v > 0.0))
                    return 2;
                c[j * (u + 1)] = sqrt(v);
            } else {
                c[j * (u + 1) + d] = v * (1.0 / c[j * (u + 1)]);
            }
        }
    }
    for (j = 0; j < n; j++) {
        double dj = 1.0 / c[j * (u + 1)];
        for (e = 1; e <= u; e++)
            f[j * u + e - 1] = e <= j ? dj * c[(j - e) * (u + 1) + e] : 0.0;
    }
    for (j = 0; j < n; j++) {
        double dj = 1.0 / c[j * (u + 1)];
        c[j * (u + 1)] = dj;
        for (e = 1; e <= u && j + e < n; e++)
            c[j * (u + 1) + e] *= dj;
    }
    for (i = 0; i < m; i++)
        thr[i] = lam[i] / rho;
    return 0;
}

/* Solve U'U x = b in place.  The previous row's value stays in a
   register and its term is subtracted last, so a row waits on its
   neighbour for one multiply and one subtract. */
INLINE void solve(const double *c, const double *f, long n, long u, double *x)
{
    long j, e;
    double prev = 0.0;
    for (j = 0; j < n; j++) {
        double v = c[j * (u + 1)] * x[j];
        for (e = (u < j ? u : j); e >= 2; e--)
            v -= f[j * u + e - 1] * x[j - e];
        x[j] = prev = v - f[j * u] * prev;
    }
    prev = 0.0;
    for (j = n - 1; j >= 0; j--) {
        double v = c[j * (u + 1)] * x[j];
        for (e = (u < n - 1 - j ? u : n - 1 - j); e >= 2; e--)
            v -= c[j * (u + 1) + e] * x[j + e];
        x[j] = prev = v - (j + 1 < n ? c[j * (u + 1) + 1] : 0.0) * prev;
    }
}

/* out[0..m-1] = D v */
INLINE void apply_d(const double *s, long p, long m, const double *v, double *out)
{
    long i, j;
    for (i = 0; i < m; i++) {
        double acc = 0.0;
        for (j = 0; j < p; j++)
            acc += v[i + j] * s[j];
        out[i] = acc;
    }
}

/* (D' v)[t] for t in 0..m+p-2 */
INLINE double dt_at(const double *s, long p, long m, const double *v, long t)
{
    long j, jlo = t - m + 1 > 0 ? t - m + 1 : 0, jhi = t < p - 1 ? t : p - 1;
    double acc = 0.0;
    for (j = jlo; j <= jhi; j++)
        acc += v[t - j] * s[j];
    return acc;
}

/* out = scale * D' v, n = m+p-1 entries; rows away from the two ends
   take the whole stencil */
INLINE void apply_dt(const double *s, long p, long m, double scale,
                     const double *v, double *out)
{
    long t, j, n = m + p - 1, mid_hi = m < p - 1 ? p - 1 : m;
    for (t = 0; t < p - 1; t++)
        out[t] = scale * dt_at(s, p, m, v, t);
    for (t = p - 1; t < m; t++) {
        double acc = 0.0;
        for (j = 0; j < p; j++)
            acc += v[t - j] * s[j];
        out[t] = scale * acc;
    }
    for (t = mid_hi; t < n; t++)
        out[t] = scale * dt_at(s, p, m, v, t);
}

/* Euclidean norm; four partial sums keep the adds from waiting on
   each other. */
static double norm2(const double *v, long len)
{
    double acc[4] = {0.0, 0.0, 0.0, 0.0};
    long i;
    for (i = 0; i + 4 <= len; i += 4) {
        acc[0] += v[i] * v[i];
        acc[1] += v[i + 1] * v[i + 1];
        acc[2] += v[i + 2] * v[i + 2];
        acc[3] += v[i + 3] * v[i + 3];
    }
    for (; i < len; i++)
        acc[0] += v[i] * v[i];
    return sqrt((acc[0] + acc[1]) + (acc[2] + acc[3]));
}

INLINE int admm(const double *z, const double *omega, const double *lam,
                const double *stencil, const double *gram, long n, long k,
                double tol, long max_iters,
                double *beta, double *alpha, double *w, double *info)
{
    long p = k + 2, u = k + 1, m = n - k - 1, i, it, iters = 0, last_balance = 0;
    double rho = info[0], r_norm = 0.0, s_norm = 0.0, r_inf = 0.0;
    int converged = 0;
    double *c = malloc(sizeof(double) * (size_t)(n * (2 * u + 1) + 3 * n + 3 * m));
    if (!c)
        return 1;
    double *f = c + n * (u + 1), *wz = f + n * u, *vn = wz + n, *vw = vn + n;
    double *db = vw + n, *vm = db + m, *thr = vm + m;

    if (factor(omega, gram, lam, rho, n, m, u, c, f, thr)) {
        free(c);
        return 2;
    }
    for (i = 0; i < n; i++)
        wz[i] = omega[i] * z[i];
    for (it = 1; it <= max_iters; it++) {
        iters = it;
        /* beta-step: (diag(omega) + rho D'D) beta = omega*z + rho D'(alpha - w) */
        for (i = 0; i < m; i++)
            vm[i] = alpha[i] - w[i];
        apply_dt(stencil, p, m, rho, vm, beta);
        for (i = 0; i < n; i++)
            beta[i] += wz[i];
        solve(c, f, n, u, beta);
        apply_d(stencil, p, m, beta, db);
        /* alpha-step, dual update and primal residual in one pass; vm
           keeps the alpha change for the dual residual */
        double db_sq = 0.0, a_sq = 0.0, r_sq = 0.0;
        r_inf = 0.0;
        for (i = 0; i < m; i++) {
            /* soft thresholding without branches: one of hi, lo is kept */
            double y = db[i] + w[i], hi = y - thr[i], lo = y + thr[i];
            double a = (hi > 0.0 ? hi : 0.0) + (lo < 0.0 ? lo : 0.0);
            double r = db[i] - a;
            vm[i] = a - alpha[i];
            alpha[i] = a;
            w[i] = w[i] + db[i] - a;
            db_sq += db[i] * db[i];
            a_sq += a * a;
            r_sq += r * r;
            r_inf = fabs(r) > r_inf ? fabs(r) : r_inf;
        }
        double db_norm = sqrt(db_sq), a_norm = sqrt(a_sq);
        r_norm = sqrt(r_sq);
        double eps_pri = sqrt((double)m) * tol + tol * (db_norm > a_norm ? db_norm : a_norm);
        /* the dual residual is read only by the stopping test once the
           primal one passes, by a rebalance and by the last iteration's
           record, and its tolerance by the stopping test alone */
        int primal_ok = r_norm <= eps_pri;
        if (primal_ok || it - last_balance >= 20 || it == max_iters) {
            apply_dt(stencil, p, m, rho, vm, vn);
            s_norm = norm2(vn, n);
        }
        if (primal_ok) {
            apply_dt(stencil, p, m, rho, w, vw);
            double eps_dual = sqrt((double)n) * tol + tol * norm2(vw, n);
            if (s_norm <= eps_dual) {
                converged = 1;
                break;
            }
        }
        /* residual balancing with a dwell period so rho cannot flap */
        if (it - last_balance >= 20) {
            double scale = 0.0;
            if (r_norm > 10.0 * s_norm && rho < 1e12)
                scale = 2.0;
            else if (s_norm > 10.0 * r_norm && rho > 1e-10)
                scale = 0.5;
            if (scale != 0.0) {
                rho *= scale;
                for (i = 0; i < m; i++)
                    w[i] = w[i] / scale;
                if (factor(omega, gram, lam, rho, n, m, u, c, f, thr)) {
                    free(c);
                    return 2;
                }
                last_balance = it;
            }
        }
    }
    free(c);
    info[0] = rho;
    info[1] = (double)iters;
    info[2] = converged;
    info[3] = r_norm;
    info[4] = s_norm;
    info[5] = r_inf;
    return 0;
}

int trend_filter_admm(const double *z, const double *omega, const double *lam,
                      const double *stencil, const double *gram, long n, long k,
                      double tol, long max_iters,
                      double *beta, double *alpha, double *w, double *info)
{
    switch (k) {
    case 0:
        return admm(z, omega, lam, stencil, gram, n, 0, tol, max_iters, beta, alpha, w, info);
    case 1:
        return admm(z, omega, lam, stencil, gram, n, 1, tol, max_iters, beta, alpha, w, info);
    case 2:
        return admm(z, omega, lam, stencil, gram, n, 2, tol, max_iters, beta, alpha, w, info);
    default:
        return admm(z, omega, lam, stencil, gram, n, k, tol, max_iters, beta, alpha, w, info);
    }
}
