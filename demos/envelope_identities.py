"""Walk through the envelope identities behind every solver in the package.

Each penalty/loss in the catalog can be written as the infimum over an
auxiliary variable of a simple coupled objective.  This script evaluates
those identities numerically: for each member it compares the closed-form
target against a grid-refined minimization of the joint term, and checks
that the closed-form auxiliary update matches the numeric argmin.
"""

from envopt.checks import envelope_suite
from envopt.duality import EXPONENTIAL, GridSpec, envelope_argmin_numeric
from envopt.losses import logit_scale_lambda
from envopt.penalties import PenaltySpec, lambda_hat, penalty_dual

print("=" * 72)
print("Envelope identity report (gap = |target - min over the grid|)")
print("=" * 72)
for r in envelope_suite():
    flag = "ok " if r["passed"] else "BAD"
    print(f"[{flag}] {r['name']:42s} max gap {r['max_gap']:.2e}   "
          f"update-rule deviation {r['max_lambda_dev']:.2e}")

print()
print("A closer look at one member: the log penalty (double Pareto).")
dp = PenaltySpec("double-pareto", gamma=1.0, a=1.0)
grid = GridSpec(0.0, 10.0, 401, 3)
for x in (0.5, 1.0, 2.0, 4.0):
    numeric = envelope_argmin_numeric(EXPONENTIAL,
                                      lambda t: penalty_dual(dp, t), x, grid)
    closed = lambda_hat(dp, x, EXPONENTIAL)
    print(f"  x={x:4.1f}  numeric argmin {numeric:.6f}   "
          f"closed-form derivative {closed:.6f}")

print()
print("The logistic-likelihood scale update (m/2x) tanh(x/2):")
for x in (0.0, 1.0, 2.0, 4.0):
    print(f"  x={x:4.1f}  update {logit_scale_lambda(x, 1.0):.6f}"
          f"   (limit 0.25 at x = 0)")
