import warnings

import numpy as np
import pytest

from envopt.checks import acceptance_x_grid
from envopt.duality import (
    EXPONENTIAL,
    GAUSSIAN_LOCATION,
    GAUSSIAN_SCALE,
    GridSpec,
    check_envelope_identity,
    conjugate_numeric,
)
from envopt.errors import CapabilityError, ValidationError
from envopt.penalties import (
    PENALTY_KINDS,
    PenaltySpec,
    lambda_hat,
    location_dual,
    penalty_deriv,
    penalty_dual,
    penalty_value,
    prox,
    scale_dual,
)


def test_spec_validation():
    with pytest.raises(ValidationError):
        PenaltySpec("unknown")
    with pytest.raises(ValidationError):
        PenaltySpec("mcp", gamma=1.0, a=-1.0)
    with pytest.raises(ValidationError):
        PenaltySpec("l1", weight=-0.5)
    # degenerate gamma = 0 is the no-penalty case and allowed
    PenaltySpec("double-pareto", gamma=0.0, a=1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field", ["gamma", "a", "weight"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_spec_rejects_non_finite_parameters(field, value):
    for kind in ("l1", "ridge", "double-pareto", "mcp", "limited-translation"):
        with pytest.raises(ValidationError, match="finite"):
            PenaltySpec(kind, **{field: value})


def test_values():
    dp = PenaltySpec("double-pareto", gamma=1.0, a=1.0)
    assert penalty_value(dp, 0.0) == 0.0
    mcp = PenaltySpec("mcp", gamma=1.0, a=3.0)
    assert penalty_value(mcp, 4.0) == pytest.approx(1.5)  # a*gamma^2/2
    lt = PenaltySpec("limited-translation")
    assert penalty_value(lt, 0.5) == pytest.approx(0.125)
    assert penalty_value(lt, 10.0) == 1.0


def test_symmetry_and_monotonicity():
    xs = np.linspace(0.0, 6.0, 61)
    for kind in ("l1", "ridge", "double-pareto", "mcp", "limited-translation"):
        p = PenaltySpec(kind, gamma=1.3, a=0.8, weight=1.1)
        np.testing.assert_allclose(penalty_value(p, -xs), penalty_value(p, xs))
        vals = penalty_value(p, xs)
        assert np.all(np.diff(vals) >= -1e-12)
        assert penalty_value(p, 0.0) == 0.0


def test_derivatives():
    dp = PenaltySpec("double-pareto", gamma=1.0, a=1.0)
    assert penalty_deriv(dp, 1.0) == pytest.approx(0.5)
    mcp = PenaltySpec("mcp", gamma=1.0, a=3.0)
    assert penalty_deriv(mcp, 1.5) == pytest.approx(0.5)
    assert penalty_deriv(mcp, 4.0) == 0.0
    # right derivative at the origin
    assert penalty_deriv(dp, 0.0) == pytest.approx(1.0)       # gamma/a
    assert penalty_deriv(mcp, 0.0) == pytest.approx(1.0)      # gamma
    assert penalty_deriv(PenaltySpec("l1", weight=2.0), 0.0) == 2.0
    with pytest.raises(CapabilityError):
        penalty_deriv(PenaltySpec("psi-specified"), 1.0)


def test_finite_difference_consistency():
    rng = np.random.Generator(np.random.PCG64(5))
    h = 1e-6
    kinks = {"limited-translation": (0.0, np.sqrt(2.0)), "mcp": (0.0,),
             "l1": (0.0,), "double-pareto": (0.0,), "ridge": ()}
    for kind, bad in kinks.items():
        p = PenaltySpec(kind, gamma=1.4, a=1.1, weight=0.9)
        xs = rng.uniform(-4, 4, size=40)
        xs = np.array([x for x in xs
                       if all(abs(abs(x) - b) > 1e-3 for b in bad)])
        fd = (penalty_value(p, xs + h) - penalty_value(p, xs - h)) / (2 * h)
        np.testing.assert_allclose(penalty_deriv(p, xs), fd, atol=1e-5)


def test_duals():
    mcp = PenaltySpec("mcp", gamma=1.0, a=3.0)
    assert penalty_dual(mcp, 0.5) == pytest.approx(-0.375)
    assert penalty_dual(mcp, 2.0) == 0.0
    dp = PenaltySpec("double-pareto", gamma=1.0, a=1.0)
    assert penalty_dual(dp, 1.0) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValidationError):
        penalty_dual(dp, -0.1)


@pytest.mark.parametrize("kind", ["ridge", "limited-translation", "psi-specified"])
def test_dual_needs_an_exponential_envelope(kind):
    # ridge's concave dual is -inf at every lam: no grid edge stands in for it
    with pytest.raises(CapabilityError):
        penalty_dual(PenaltySpec(kind), 1.0)
    with pytest.raises(CapabilityError):
        lambda_hat(PenaltySpec(kind), 1.0, EXPONENTIAL)


def test_mcp_dual_matches_grid_oracle():
    mcp = PenaltySpec("mcp", gamma=1.0, a=3.0)
    lams = np.linspace(0.0, 2.0, 81)
    closed = penalty_dual(mcp, lams)
    numeric = conjugate_numeric(lambda x: penalty_value(mcp, x), lams,
                                GridSpec(0.0, 40.0, 801, 3), sense="concave")
    np.testing.assert_allclose(closed, numeric, atol=1e-6)


@pytest.mark.parametrize("kind", ["double-pareto", "mcp"])
@pytest.mark.parametrize("gamma, a, weight", [(1.0, 1.0, 1.0), (2.0, 1.5, 0.5), (0.7, 3.0, 2.0),
                                              (1.0, 3.0, 1.0)])
def test_scale_dual_closed_form_meets_envelope_oracle(kind, gamma, a, weight):
    # the grid infimum of lam x^2/2 - scale_dual(lam) is phi(x), attained
    # at the scale update phi'(x)/x
    p = PenaltySpec(kind, gamma=gamma, a=a, weight=weight)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_envelope_identity(
            GAUSSIAN_SCALE, scale_dual(p), lambda x: penalty_value(p, x), acceptance_x_grid(),
            lambda_hat=lambda x: lambda_hat(p, x, GAUSSIAN_SCALE))
    assert report.max_gap <= 1e-10 and report.lambda_agrees, report


@pytest.mark.parametrize("kind", ["double-pareto", "mcp"])
def test_scale_dual_domain(kind):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dual = scale_dual(PenaltySpec(kind, gamma=1.0, a=2.0))
        assert dual(-0.5) == -np.inf and dual(np.inf) == 0.0
        assert dual(0.0) == (-1.0 if kind == "mcp" else -np.inf)  # MCP: -a gamma^2 / 2
        # gamma = 0 or weight = 0 is no penalty: theta = 0
        for none in (PenaltySpec(kind, gamma=0.0), PenaltySpec(kind, weight=0.0)):
            np.testing.assert_array_equal(scale_dual(none)(np.array([-1.0, 0.0, 3.0])),
                                          [-np.inf, 0.0, 0.0])


def test_lambda_hat_rules():
    dp = PenaltySpec("double-pareto", gamma=1.0, a=1.0)
    assert lambda_hat(dp, 1.0, EXPONENTIAL) == pytest.approx(0.5)
    lt = PenaltySpec("limited-translation")
    assert lambda_hat(lt, 3.0, GAUSSIAN_LOCATION) == pytest.approx(3.0)
    ridge = PenaltySpec("ridge", weight=0.7)
    assert lambda_hat(ridge, 2.0, GAUSSIAN_SCALE) == pytest.approx(0.7)
    assert lambda_hat(ridge, 0.0, GAUSSIAN_SCALE) == pytest.approx(0.7)
    # diverging scale update at the origin is capped
    assert lambda_hat(dp, 0.0, GAUSSIAN_SCALE) == 1e8
    with pytest.raises(CapabilityError):
        lambda_hat(PenaltySpec("l1"), 1.0, GAUSSIAN_LOCATION)
    with pytest.raises(CapabilityError):
        lambda_hat(PenaltySpec("psi-specified"), 1.0, EXPONENTIAL)


def test_prox_examples():
    l1 = PenaltySpec("l1", weight=2.0)
    assert prox(l1, 5.0, 1.0) == pytest.approx(3.0)
    dp = PenaltySpec("double-pareto", gamma=1.0, a=1.0)
    assert prox(dp, 3.0, 1.0) == pytest.approx(1.0 + np.sqrt(3.0), abs=1e-12)
    assert prox(dp, 0.0, 1.0) == 0.0
    with pytest.raises(CapabilityError):
        prox(PenaltySpec("psi-specified"), 1.0, 1.0)
    with pytest.raises(ValidationError):
        prox(l1, 1.0, 0.0)


def test_prox_matches_brute_force():
    from envopt.checks import prox_suite
    (res,) = prox_suite()
    assert res["passed"], res
    # the row reports the argument gap its pass rule reads: every draw's
    # argument agrees within the rule's 1e-4, so no draw needed the
    # objective fallback
    assert set(res) == {"name", "failures", "max_gap", "max_arg_gap", "tol", "passed"}
    assert 0.0 < res["max_arg_gap"] <= 1e-4


@pytest.mark.parametrize("kind", ["l1", "ridge", "double-pareto", "mcp",
                                  "limited-translation"])
def test_prox_rejects_nonfinite_u_and_s(kind):
    p = PenaltySpec(kind, gamma=1.3, a=2.5, weight=0.9)
    bad = [(np.nan, 1.0), (np.inf, 1.0), (-np.inf, 1.0), (1.0, np.inf), (1.0, np.nan),
           (np.array([1.0, np.nan]), 1.0), (np.array([1.0, 2.0]), np.array([1.0, np.inf]))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u, s in bad:
            with pytest.raises(ValidationError):
                prox(p, u, s)
        assert np.isfinite(prox(p, np.array([-2.0, 3.0]), np.array([0.5, 2.0]))).all()


@pytest.mark.parametrize("kind", ["l1", "ridge", "double-pareto", "mcp",
                                  "limited-translation"])
def test_prox_rejects_shapes_that_do_not_broadcast(kind):
    # a step per element must broadcast against u: numpy's own error was a
    # bare ValueError
    p = PenaltySpec(kind, gamma=1.3, a=2.5, weight=0.9)
    for u, s in [(np.ones(2), np.ones(3)), (np.ones((2, 3)), np.ones(2))]:
        with pytest.raises(ValidationError, match="broadcast"):
            prox(p, u, s)
    # shapes that broadcast give the broadcast shape
    assert prox(p, np.ones(3), np.ones((2, 1))).shape == (2, 3)
    assert prox(p, 1.0, np.ones(2)).shape == (2,)


def test_prox_oracle_one_search_matches_one_row_searches():
    # the suite's 200 draws: the one search whose term holds each row's
    # own penalty gives the bits of a one-row search per draw
    from envopt import duality
    from envopt.checks import _prox_draws, _prox_oracle

    draws = _prox_draws()
    args, vals = _prox_oracle(draws)
    assert len({p.kind for p, _, _ in draws}) == 5
    for (p, u, s), arg, val in zip(draws, args, vals):
        def term(rows, x, _):
            return 0.5 * s * (u - x) ** 2 + penalty_value(p, x)

        one = duality._zoom_min(np.zeros_like, term,
                                np.array([-abs(u) - 5.0]), np.array([abs(u) + 5.0]), 5000, 3)
        assert one[1, 0].tobytes() == arg.tobytes()
        assert one[0, 0].tobytes() == val.tobytes()


def test_prox_monotone_shrinkage():
    rng = np.random.Generator(np.random.PCG64(9))
    for kind in ("l1", "ridge", "double-pareto", "mcp"):
        for _ in range(50):
            p = PenaltySpec(kind, gamma=float(rng.uniform(0.2, 3)),
                            a=float(rng.uniform(0.3, 4)),
                            weight=float(rng.uniform(0.2, 3)))
            u = float(rng.uniform(-9, 9))
            s = float(rng.uniform(0.1, 5))
            x = prox(p, u, s)
            assert abs(x) <= abs(u) + 1e-12
            assert np.sign(x) in (0.0, np.sign(u))


def test_prox_vectorized():
    dp = PenaltySpec("double-pareto", gamma=1.0, a=1.0)
    u = np.array([-3.0, 0.0, 3.0])
    out = prox(dp, u, 1.0)
    np.testing.assert_allclose(out, [-(1 + np.sqrt(3)), 0.0, 1 + np.sqrt(3)])


def test_prox_vector_step_matches_scalar_calls():
    rng = np.random.Generator(np.random.PCG64(12))
    u = rng.uniform(-6, 6, size=40)
    s = rng.uniform(0.1, 5, size=40)
    for kind in PENALTY_KINDS:
        if kind == "psi-specified":
            continue
        p = PenaltySpec(kind, gamma=1.3, a=2.5, weight=0.9)
        out = prox(p, u, s)
        ref = [prox(p, ui, si) for ui, si in zip(u, s)]
        np.testing.assert_array_equal(out, ref)
        # the step broadcasts against u, in either direction
        np.testing.assert_array_equal(prox(p, u.reshape(4, 10), s[:10]),
                                      [[prox(p, ui, si) for ui, si in zip(row, s[:10])]
                                       for row in u.reshape(4, 10)])
        np.testing.assert_array_equal(prox(p, u[0], s[:3]),
                                      [prox(p, u[0], si) for si in s[:3]])
    l1 = PenaltySpec("l1", weight=1.0)
    np.testing.assert_array_equal(
        prox(l1, np.array([3.0, -2.0, 0.5]), np.array([1.0, 2.0, 4.0])), [2.0, -1.5, 0.25])


def test_psi_specified_value_only():
    p = PenaltySpec("psi-specified")
    assert penalty_value(p, 0.0) == pytest.approx(0.0, abs=1e-12)
    # quadratic-like near the origin: the envelope at small x is about
    # x^2/2 (the dual's slope at 0 is 1/2, so the exact value is a bit
    # below); brute-force a reference
    x = 0.3
    lam = np.linspace(0.0, 5.0, 400001)
    ref = float(np.min(0.5 * (x - lam) ** 2 + lam / (2 * (1 + lam))))
    assert penalty_value(p, x) == pytest.approx(ref, abs=1e-9)


@pytest.mark.parametrize("weight", [0.0, 0.3, 0.7, 1.0, 1.5, 3.0])
def test_limited_translation_location_dual_matches_brute_force(weight):
    # the zoom search that the closed form replaced took the wrong one of
    # the near-tied kinks x = +-sqrt(2) at weight 1.5 and |lam| <= 0.01,
    # off by 2 sqrt(2) |lam|
    lt = PenaltySpec("limited-translation", weight=weight)
    lams = np.concatenate([np.linspace(-5.0, 5.0, 21), [-0.01, -0.005, 0.005, 0.01]])
    x = np.linspace(-12.0, 12.0, 1_200_001)  # step 2e-5; the kinks are off the grid
    phi = penalty_value(lt, x)
    brute = np.array([np.max(phi - 0.5 * (x - lam) ** 2) for lam in lams])
    got = location_dual(lt)(lams)
    # the grid misses the sup by at most its slope (below 11) times half a step
    assert np.all(got >= brute - 1e-12)
    assert np.all(got - brute <= 1.2e-4)
    assert location_dual(lt)(np.array([np.inf, -np.inf])).tolist() == [weight, weight]
