import warnings

import numpy as np
import pytest

from envopt import duality, solvers
from envopt.duality import (
    EXPONENTIAL,
    GAUSSIAN_LOCATION,
    GAUSSIAN_SCALE,
    EnvelopeFamily,
    GridSpec,
    check_envelope_identity,
    conjugate_numeric,
    conjugate_numeric_rowwise,
    default_lambda_grid,
    envelope_argmin_numeric,
    envelope_integrand,
    variance_mean,
)
from envopt.errors import ValidationError
from envopt.losses import (
    check_variance_mean_dual,
    huber,
    huber_location_dual,
    logcosh_scale_dual,
)
from envopt.operators import moreau_envelope_numeric
from envopt.penalties import PenaltySpec, location_dual, penalty_dual, penalty_value


def test_family_invariants():
    with pytest.raises(ValidationError):
        EnvelopeFamily("exponential", drift=1.0)
    with pytest.raises(ValidationError):
        EnvelopeFamily("variance-mean")  # drift required
    with pytest.raises(ValidationError):
        EnvelopeFamily("multivariate-location", step=-1.0)
    with pytest.raises(ValidationError):
        EnvelopeFamily("nonsense")


def test_gridspec_invariants():
    with pytest.raises(ValidationError):
        GridSpec(1.0, 0.0)
    with pytest.raises(ValidationError):
        GridSpec(0.0, 1.0, count=2)
    with pytest.raises(ValidationError):
        GridSpec(0.0, 1.0, refinement_rounds=-1)


def test_integrand_exponential_absolute_value():
    # phi = |.| has zero dual on its effective domain; at lam=1, x=2 the
    # joint term is lam*|x| = 2
    val = envelope_integrand(EXPONENTIAL, lambda lam: 0.0 * lam, 2.0, 1.0)
    assert val == 2.0


def test_integrand_location_zero_case():
    psi = huber_location_dual(1.0)
    assert envelope_integrand(GAUSSIAN_LOCATION, psi, 0.0, 0.0) == 0.0


def test_integrand_variance_mean_quantile():
    # q=0.9 so drift = -0.8; at x=1, lam=1 the coupling term is
    # 0.5*(1.8)^2 = 1.62 and psi(1) = (0.64-1)/2 = -0.18
    fam = variance_mean(-0.8)
    psi = check_variance_mean_dual(0.9)
    val = envelope_integrand(fam, psi, 1.0, 1.0)
    assert val == pytest.approx(1.80, abs=1e-12)
    # and the infimum over lam reproduces |x| + (2q-1)x
    lam_grid = np.linspace(1e-6, 50.0, 200001)
    integ = 0.5 * lam_grid * (1.0 - (-0.8) / lam_grid) ** 2 - psi(lam_grid)
    assert integ.min() == pytest.approx(1.80, abs=1e-9)


def test_integrand_rejects_negative_lambda():
    with pytest.raises(ValidationError):
        envelope_integrand(EXPONENTIAL, lambda lam: 0.0 * lam, 1.0, -0.5)


def test_conjugate_half_square_self_conjugate():
    grid = GridSpec(-10.0, 10.0, 401, 3)
    val = conjugate_numeric(lambda x: 0.5 * x**2, 1.0, grid, sense="convex")
    assert val == pytest.approx(0.5, abs=1e-9)


def test_conjugate_double_pareto_concave():
    # stationarity x = gamma/lam - a gives gamma*log(lam) - lam*a + C with
    # C = gamma - gamma*log(gamma) + gamma*log(a); frozen via the dense
    # brute-force oracle below
    xs = np.linspace(0.0, 60.0, 1_200_001)
    brute = float(np.min(0.5 * xs - np.log1p(xs)))
    expected = np.log(0.5) - 0.5 + 1.0
    assert brute == pytest.approx(expected, abs=1e-9)
    grid = GridSpec(0.0, 60.0, 801, 3)
    val = conjugate_numeric(lambda x: np.log1p(np.abs(x)), 0.5, grid,
                            sense="concave")
    assert val == pytest.approx(expected, abs=1e-9)


def test_conjugate_mcp_concave():
    p = PenaltySpec("mcp", gamma=1.0, a=3.0)
    grid = GridSpec(0.0, 40.0, 801, 3)
    val = conjugate_numeric(lambda x: penalty_value(p, x), 0.5, grid,
                            sense="concave")
    assert val == pytest.approx(-0.375, abs=1e-9)


def test_argmin_double_pareto_matches_derivative():
    dp = PenaltySpec("double-pareto", gamma=1.0, a=1.0)
    grid = GridSpec(0.0, 10.0, 401, 3)
    lam = envelope_argmin_numeric(EXPONENTIAL, lambda t: penalty_dual(dp, t),
                                  1.0, grid)
    assert lam == pytest.approx(0.5, abs=1e-6)


def test_argmin_huber_location():
    grid = GridSpec(-10.0, 10.0, 401, 3)
    lam = envelope_argmin_numeric(GAUSSIAN_LOCATION, huber_location_dual(1.0),
                                  3.0, grid)
    assert lam == pytest.approx(2.0, abs=1e-6)


def test_argmin_logcosh_scale():
    dual = logcosh_scale_dual(1.0)
    grid = GridSpec(0.0, 10.0, 401, 3)
    lam = envelope_argmin_numeric(EnvelopeFamily("gaussian-scale"), dual, 2.0,
                                  grid)
    assert lam == pytest.approx(0.25 * np.tanh(1.0), abs=1e-5)


def test_check_identity_limited_translation():
    # the closed-form dual is tight at and below weight 1 (above it,
    # x^2/2 - phi is not convex and phi no location envelope)
    for weight in (1.0, 0.5):
        lt = PenaltySpec("limited-translation", weight=weight)
        report = check_envelope_identity(
            GAUSSIAN_LOCATION, location_dual(lt),
            lambda x: penalty_value(lt, x), np.linspace(-3.0, 3.0, 121))
        assert report.max_gap <= 1e-6, weight


def test_check_identity_l1_exact():
    l1 = PenaltySpec("l1", weight=1.0)
    x_grid = np.linspace(-4.0, 4.0, 81)
    x_grid = x_grid[x_grid != 0]
    report = check_envelope_identity(
        EXPONENTIAL, lambda lam: penalty_dual(l1, lam),
        lambda x: penalty_value(l1, x), x_grid,
        lambda_hat=lambda x: np.ones_like(np.asarray(x, dtype=float)))
    assert report.max_gap <= 1e-12
    assert report.lambda_agrees


def test_default_lambda_grid_without_nonzero_x():
    # lambda_hat is read at the smallest nonzero |x|; with none, the
    # bracket is the one used without lambda_hat
    bracket = default_lambda_grid(EXPONENTIAL, [0.0, 0.0], lambda x: 1 / abs(x))
    assert bracket == default_lambda_grid(EXPONENTIAL, [0.0, 0.0])
    assert bracket == GridSpec(0.0, 10.0, 401, 3)
    l1 = PenaltySpec("l1", weight=1.0)
    report = check_envelope_identity(
        EXPONENTIAL, lambda lam: penalty_dual(l1, lam),
        lambda x: penalty_value(l1, x), [0.0],
        lambda_hat=lambda x: np.ones_like(np.asarray(x, dtype=float)))
    assert report.max_gap <= 1e-12


def test_check_identity_check_loss():
    q = 0.9
    fam = variance_mean(1.0 - 2.0 * q)
    x_grid = np.linspace(-3.0, 3.0, 61)
    x_grid = x_grid[x_grid != 0]
    from envopt.losses import check_lambda_hat, check_value
    report = check_envelope_identity(
        fam, check_variance_mean_dual(q), lambda x: check_value(x, q),
        x_grid, lambda_hat=check_lambda_hat)
    assert report.max_gap <= 1e-6
    assert report.lambda_agrees


def test_multivariate_location_integrand():
    # with f = 0.5||x||^2 (L = 1, c = 1) the dual is psi(lam) =
    # theta*(lam) - ||lam||^2/2 with theta = 0, i.e. the indicator of 0;
    # encode psi via its finite branch at lam fixed
    fam = EnvelopeFamily("multivariate-location", step=1.0)
    x = np.array([1.0, 2.0])
    lam = np.array([0.5, 0.5])
    val = envelope_integrand(fam, lambda v: 0.0, x, lam)
    assert val == pytest.approx(0.5 * ((0.5) ** 2 + (1.5) ** 2))


def test_oracle_determinism():
    grid = GridSpec(0.0, 20.0, 301, 3)
    lam = np.linspace(0.1, 3.0, 17)
    a = conjugate_numeric(lambda x: huber(x), lam, grid, sense="convex")
    b = conjugate_numeric(lambda x: huber(x), lam, grid, sense="convex")
    assert np.array_equal(a, b)
    lt = PenaltySpec("limited-translation")
    xg = np.linspace(-2.0, 2.0, 41)
    r1 = check_envelope_identity(GAUSSIAN_LOCATION, location_dual(lt),
                                 lambda x: penalty_value(lt, x), xg)
    r2 = check_envelope_identity(GAUSSIAN_LOCATION, location_dual(lt),
                                 lambda x: penalty_value(lt, x), xg)
    assert r1 == r2


def test_row_blocks_do_not_change_results(monkeypatch):
    """The grid oracles split their grids and rows into blocks; one block
    of all rows must give the same bits."""
    from envopt import duality
    from envopt.checks import conjugate_suite, envelope_suite

    lam = np.linspace(0.01, 2.0, 200)
    dp = PenaltySpec("double-pareto", gamma=1.0, a=1.0)

    def run():
        conj = conjugate_numeric(lambda x: penalty_value(dp, x), lam,
                                 GridSpec(0.0, 250.0, 801, 3), sense="concave")
        double = [row for row in conjugate_suite()
                  if row["name"].startswith("double conjugation")]
        return conj, envelope_suite(), double

    conj, envelope, double = run()
    assert len(double) == 4
    assert 200 * 801 > duality._BLOCK_ELEMS and 240 * 241 > duality._BLOCK_ELEMS
    monkeypatch.setattr(duality, "_BLOCK_ELEMS", 10**9)
    conj_whole, envelope_whole, double_whole = run()
    assert np.array_equal(conj, conj_whole)
    assert repr(envelope) == repr(envelope_whole)
    assert double == double_whole


def _per_row_min(f, couple, lo, hi, count, rounds, grids=None):
    """The zoom search one row at a time, on the row's own grid:
    ``couple(i, grid, f(grid))`` gives row i's values, and non-finite
    ones warn no more than in the search.  ``grids``, when
    given, is a list of one set per round that collects the bytes of the
    grid rows searched."""
    t = np.linspace(0.0, 1.0, count)
    out = np.empty((3, lo.shape[0]))
    for i in range(lo.shape[0]):
        a, b = lo[i], hi[i]
        for r in range(rounds + 1):
            g = (a + (b - a) * t)[None, :]
            if grids is not None:
                grids[r].add(g.tobytes())
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                v = couple(i, g, f(g))[0]
            v = np.where(np.isfinite(v), v, np.inf)
            j = int(np.argmin(v))
            if r == rounds:
                break
            h = (b - a) / (count - 1)
            a, b = max(a, g[0, j] - 2.0 * h), min(b, g[0, j] + 2.0 * h)
        out[:, i] = v[j], g[0, j], (b - a) / (count - 1)
    return out


def _grid_problem(rng, rows):
    """A separable objective with NaN, -inf or only +inf values in some
    rows, and slopes from a short list so that rows share grids."""
    slope = rng.choice([-1.5, -0.25, 0.0, 0.5, 2.0], size=rows)
    kind = rng.integers(0, 4, size=rows)

    def f(g):
        with np.errstate(invalid="ignore"):
            return (g - 0.3) ** 2 + np.sqrt(g + 1.0)  # NaN below -1

    def couple(rows, g, fg):
        v = fg - slope[rows, None] * g
        v = np.where((kind[rows, None] == 1) & (g > 0.6), np.nan, v)
        v = np.where((kind[rows, None] == 2) & (np.abs(g - 0.2) < 0.05), -np.inf, v)
        return np.where(kind[rows, None] == 3, np.inf, v)

    return f, couple


def _brackets(rng, rows, shared):
    if shared:
        return np.full(rows, -2.0), np.full(rows, 2.0)
    lo = rng.uniform(-2.0, 0.0, size=rows)
    return lo, lo + rng.uniform(0.5, 3.0, size=rows)


@pytest.mark.parametrize("rows", [0, 1, 7, 200])
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-row"])
def test_grouped_search_matches_per_row_search(rows, shared):
    from envopt import duality

    rng = np.random.Generator(np.random.PCG64(rows + 1000 * shared))
    f, couple = _grid_problem(rng, rows)
    lo, hi = _brackets(rng, rows, shared)
    got = duality._zoom_min(f, couple, lo, hi, 101, 3)  # 81 rows a block
    want = _per_row_min(f, couple, lo, hi, 101, 3)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-row"])
def test_grouped_search_in_small_blocks_matches_per_row_search(monkeypatch, shared):
    # 5 grid rows or 5 searched rows a block: in the shared case the groups
    # of a round span several blocks of groups, a group's rows span
    # several row blocks, and a row block spans several groups
    from envopt import duality

    monkeypatch.setattr(duality, "_BLOCK_ELEMS", 5 * 101)
    rng = np.random.Generator(np.random.PCG64(7 + shared))
    f, couple = _grid_problem(rng, 200)
    lo, hi = _brackets(rng, 200, shared)
    f_rows = []

    def counting_f(g):
        f_rows.append(g.shape[0])
        return f(g)

    got = duality._zoom_min(counting_f, couple, lo, hi, 101, 3)
    want = _per_row_min(f, couple, lo, hi, 101, 3)
    assert got.tobytes() == want.tobytes()
    assert max(f_rows) == 5 and len(f_rows) > 4  # more calls than rounds


def test_grouped_search_bounds_blocks_and_evaluates_each_grid_once():
    """With 5025 lam rows of one bracket and 201 points, no call of f or
    couple gets more than _BLOCK_ELEMS floats, and f sees each distinct
    grid row of a round once: one row in round 0, then one per (group,
    argmin) pair."""
    from envopt import duality

    count, rounds = 201, 3
    lam = np.linspace(-8.0, 8.0, 5025)
    lo, hi = np.full(lam.shape, -14.0), np.full(lam.shape, 14.0)

    def theta(x):
        return 0.5 * x**2 - huber(x, 1.0)

    def couple(rows, g, fg):
        return fg - lam[rows, None] * g

    f_calls = []

    def recording_f(g):
        assert g.size <= duality._BLOCK_ELEMS
        f_calls.append(g.copy())
        return theta(g)

    def recording_couple(rows, g, fg):
        assert rows.size * count <= duality._BLOCK_ELEMS
        assert g.size <= duality._BLOCK_ELEMS and fg.shape == g.shape
        return couple(rows, g, fg)

    got = duality._zoom_min(recording_f, recording_couple, lo, hi, count, rounds)
    grids = [set() for _ in range(rounds + 1)]
    want = _per_row_min(theta, couple, lo, hi, count, rounds, grids)
    assert got.tobytes() == want.tobytes()

    assert len(grids[0]) == 1 and f_calls[0].shape == (1, count)
    seen = [[] for _ in range(rounds + 1)]
    for g in f_calls:
        rnd = [r for r in range(rounds + 1) if g[0].tobytes() in grids[r]]
        assert len(rnd) == 1
        seen[rnd[0]].extend(row.tobytes() for row in g)
    assert len(seen[0]) == 1
    for r in range(1, rounds + 1):
        assert sorted(seen[r]) == sorted(grids[r])  # each grid row once
    assert len(grids[rounds]) > 1000


def _row_term(center, slope):
    """A term that holds each row's own function of the grid point,
    ``(g - center)**2 - slope*g``, with ``f`` returning zeros."""
    def term(rows, g, _):
        return (g - center[rows, None]) ** 2 - slope[rows, None] * g

    return term


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-row"])
@pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "numpy"])
def test_row_point_term_gives_each_row_its_own_parameters(monkeypatch, shared, kernel):
    # a term with a center per row: every row gets its own objective, even
    # where all brackets are equal and rows share grids, with the bits of a
    # one-row search per row; 5 rows a block, so blocks hold several rows.
    # The search runs in numpy alone, so it gives these bits whether or
    # not the kernel library loads.
    from envopt import duality

    if not kernel:
        monkeypatch.setattr(solvers, "_kernel", lambda: None)
    monkeypatch.setattr(duality, "_BLOCK_ELEMS", 5 * 101)
    rng = np.random.Generator(np.random.PCG64(11 + shared))
    rows = 23
    center = rng.uniform(-1.0, 1.0, size=rows)
    slope = rng.uniform(-0.5, 0.5, size=rows)
    lo, hi = _brackets(rng, rows, shared)
    term = _row_term(center, slope)
    calls = []

    def counting_term(at, g, fg):
        assert g.shape[1] == 101 and g.shape[0] in (1, at.size) and not fg.any()
        calls.append(at.size)
        return term(at, g, fg)

    got = duality._zoom_min(np.zeros_like, counting_term, lo, hi, 101, 3)
    assert max(calls) == 5 and sum(calls) == rows * 4  # each row once a round
    for i in range(rows):
        one = duality._zoom_min(np.zeros_like, _row_term(center[i:i + 1], slope[i:i + 1]),
                                lo[i:i + 1], hi[i:i + 1], 101, 3)
        assert got[:, i].tobytes() == one[:, 0].tobytes()
    # the minimizer of (g - c)^2 - slope g is c + slope/2, inside [-2, 2]:
    # the search lands within a final grid step of it
    if shared:
        assert np.all(np.abs(got[1] - (center + 0.5 * slope)) <= got[2])


@pytest.mark.parametrize("block", [5 * 101, 8192], ids=["small-blocks", "default-blocks"])
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-row"])
def test_search_without_a_grid_function(monkeypatch, shared, block):
    # f=None: the term gets None for the grid function's values, and the
    # search gives the bits of a one-row search per row
    from envopt import duality

    monkeypatch.setattr(duality, "_BLOCK_ELEMS", block)
    rng = np.random.Generator(np.random.PCG64(17 + shared))
    rows = 23
    center = rng.uniform(-1.0, 1.0, size=rows)
    slope = rng.uniform(-0.5, 0.5, size=rows)
    lo, hi = _brackets(rng, rows, shared)
    term = _row_term(center, slope)
    seen = []

    def no_f_term(at, g, fg):
        seen.append(fg)
        return term(at, g, 0.0)

    got = duality._zoom_min(None, no_f_term, lo, hi, 101, 3)
    assert seen and all(fg is None for fg in seen)
    assert got.tobytes() == _per_row_min(np.zeros_like, term, lo, hi, 101, 3).tobytes()


@pytest.mark.parametrize("call", [
    lambda: conjugate_numeric(lambda x: x**2, [], GridSpec(-5.0, 5.0, 101, 3)),
    lambda: conjugate_numeric_rowwise(lambda x: x**2, [], -5.0, 5.0),
    lambda: moreau_envelope_numeric(np.abs, 1.0, [], GridSpec(-5.0, 5.0, 101, 3)),
    lambda: penalty_value(PenaltySpec("psi-specified"), []),
    lambda: location_dual(PenaltySpec("limited-translation", weight=0.5))([]),
    lambda: envelope_argmin_numeric(GAUSSIAN_LOCATION, huber_location_dual(1.0), [],
                                    GridSpec(-5.0, 5.0, 101, 3)),
], ids=["conjugate", "conjugate-rowwise", "moreau", "psi-specified-value",
        "limited-translation-dual", "envelope-argmin"])
def test_grid_oracles_map_no_points_to_no_values(call):
    out = call()
    assert isinstance(out, np.ndarray) and out.shape == (0,)


@pytest.mark.parametrize("grid", [None, GridSpec(-5.0, 5.0, 101, 3)], ids=["default", "given"])
def test_envelope_identity_rejects_empty_x_grid(grid):
    with pytest.raises(ValidationError, match="x_grid must not be empty"):
        check_envelope_identity(GAUSSIAN_LOCATION, huber_location_dual(1.0), huber, [],
                                grid=grid)


_X = np.array([[-1.5, 0.25, 2.0], [0.5, -0.75, 3.0]])
_LOC = GridSpec(-8.0, 8.0, 101, 3)


@pytest.mark.parametrize("x", [_X, _X[0, 1], _X[:1]], ids=["2-d", "scalar", "1-row"])
@pytest.mark.parametrize("oracle", [
    lambda x: envelope_argmin_numeric(GAUSSIAN_LOCATION, huber_location_dual(1.0), x, _LOC),
    lambda x: moreau_envelope_numeric(np.abs, 0.7, x, _LOC),
    lambda x: conjugate_numeric(lambda t: 0.5 * t**2, x, _LOC),
], ids=["envelope-argmin", "moreau", "conjugate"])
def test_grid_oracles_keep_the_shape_of_x(oracle, x):
    # one value per point, in the shape of x, with the bits of the flat
    # search; a scalar gives a float
    got = oracle(x)
    flat = oracle(np.ravel(x))
    if np.ndim(x) == 0:
        assert isinstance(got, float) and got == flat[0]
    else:
        assert got.shape == np.shape(x) and got.tobytes() == flat.tobytes()


@pytest.mark.parametrize("x_grid", [_X, _X[0, 1], [_X[0, 1]]], ids=["2-d", "scalar", "one"])
def test_envelope_identity_takes_any_shape_of_x_grid(x_grid):
    report = check_envelope_identity(GAUSSIAN_LOCATION, huber_location_dual(1.0), huber,
                                     x_grid, lambda_hat=lambda x: x - np.clip(x, -1.0, 1.0))
    want = check_envelope_identity(GAUSSIAN_LOCATION, huber_location_dual(1.0), huber,
                                   np.ravel(x_grid),
                                   lambda_hat=lambda x: x - np.clip(x, -1.0, 1.0))
    assert report == want and report.max_gap <= 1e-6 and report.lambda_agrees


@pytest.mark.parametrize("make", [
    lambda: variance_mean(np.nan), lambda: variance_mean(np.inf),
    lambda: variance_mean(-np.inf), lambda: EnvelopeFamily("multivariate-location", step=np.inf),
    lambda: EnvelopeFamily("multivariate-location", step=np.nan),
], ids=["drift-nan", "drift-inf", "drift-minus-inf", "step-inf", "step-nan"])
def test_family_constants_must_be_finite(make):
    # unchecked, the integrand is NaN everywhere and the identity check
    # reports an infinite gap
    with pytest.raises(ValidationError):
        make()


@pytest.mark.parametrize("family", [EXPONENTIAL, GAUSSIAN_LOCATION], ids=lambda f: f.tag)
@pytest.mark.parametrize("x_grid", [[], [1.0, np.nan], [np.inf, 1.0]],
                         ids=["empty", "nan", "inf"])
def test_default_lambda_grid_rejects_bad_x_grid(family, x_grid):
    # the rule of check_envelope_identity: before, an empty grid raised a
    # bare numpy error for the location families and a NaN was ignored
    with pytest.raises(ValidationError, match="x_grid must not be empty|must not be NaN"):
        default_lambda_grid(family, x_grid)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
def test_default_lambda_grid_rejects_a_non_finite_lambda_hat(value):
    # the bracket covers ten times lambda_hat at the smallest nonzero |x|:
    # max(10.0, nan) is 10.0, so a NaN there used to give [0, 10] silently
    with pytest.raises(ValidationError, match="lambda_hat at the smallest nonzero"):
        default_lambda_grid(EXPONENTIAL, [1.0, 2.0], lambda x: value)


@pytest.mark.parametrize("call", [
    lambda: conjugate_numeric(lambda x: x**2, [1.0, np.nan], GridSpec(-5.0, 5.0, 101, 3)),
    lambda: conjugate_numeric_rowwise(lambda x: x**2, [1.0, np.nan], -5.0, 5.0),
    lambda: moreau_envelope_numeric(np.abs, 1.0, [0.5, np.nan], GridSpec(-5.0, 5.0, 101, 3)),
    lambda: penalty_value(PenaltySpec("psi-specified"), [1.0, np.nan]),
    lambda: location_dual(PenaltySpec("limited-translation", weight=0.5))([0.0, np.nan]),
    lambda: check_envelope_identity(GAUSSIAN_LOCATION, huber_location_dual(1.0), huber,
                                    [0.5, np.nan], GridSpec(-5.0, 5.0, 101, 3)),
    lambda: envelope_argmin_numeric(GAUSSIAN_LOCATION, huber_location_dual(1.0), np.nan,
                                    GridSpec(-5.0, 5.0, 101, 3)),
], ids=["conjugate", "conjugate-rowwise", "moreau", "psi-specified-value",
        "limited-translation-dual", "envelope-identity", "envelope-argmin"])
def test_grid_oracles_reject_nan_points(call):
    with pytest.raises(ValidationError, match="must not be NaN"):
        call()


@pytest.mark.parametrize("call", [
    lambda: conjugate_numeric(lambda x: 0.5 * x**2, np.inf, GridSpec(-1.0, 1.0)),
    lambda: check_envelope_identity(GAUSSIAN_LOCATION, huber_location_dual(1.0), huber,
                                    [0.5, np.inf]),
    lambda: envelope_argmin_numeric(GAUSSIAN_LOCATION, huber_location_dual(1.0), np.inf,
                                    GridSpec(-5.0, 5.0, 101, 3)),
    lambda: conjugate_numeric_rowwise(lambda x: x**2, [1.0, 2.0], [0.0, 3.0], [1.0, 2.0]),
    lambda: conjugate_numeric_rowwise(lambda x: x**2, [1.0, 2.0], [0.0, np.nan], 5.0),
    lambda: conjugate_numeric_rowwise(lambda x: x**2, [1.0, 2.0], -5.0, [5.0, np.inf]),
    lambda: conjugate_numeric_rowwise(lambda x: x**2, [1.0, 2.0], -5.0, 5.0, count=1),
    lambda: conjugate_numeric_rowwise(lambda x: x**2, [1.0, 2.0], -5.0, 5.0, count=2),
    lambda: conjugate_numeric_rowwise(lambda x: x**2, [1.0, 2.0], -5.0, 5.0, rounds=-1),
    lambda: conjugate_numeric_rowwise(lambda x: x**2, [1.0, 2.0, 3.0], [0.0, -1.0], 5.0),
    lambda: conjugate_numeric_rowwise(lambda x: x**2, [1.0, 2.0], -5.0, 5.0, count=11.0),
    lambda: conjugate_numeric_rowwise(lambda x: x**2, [1.0, 2.0], -5.0, 5.0, rounds=1.5),
    lambda: GridSpec(-np.inf, 1.0),
    lambda: GridSpec(0.0, np.inf),
    lambda: GridSpec(-1.0, 1.0, 401.0),
    lambda: GridSpec(-1.0, 1.0, 11, 2.5),
    lambda: GridSpec(-1.0, 1.0, 11, True),
], ids=["conjugate-inf-lam", "envelope-identity-inf-x", "envelope-argmin-inf-x",
        "rowwise-lo-above-hi", "rowwise-nan-bracket", "rowwise-inf-bracket",
        "rowwise-count-1", "rowwise-count-2", "rowwise-negative-rounds",
        "rowwise-bracket-length", "rowwise-float-count", "rowwise-float-rounds",
        "gridspec-infinite-lo", "gridspec-infinite-hi", "gridspec-float-count",
        "gridspec-float-rounds", "gridspec-bool-rounds"])
def test_grid_oracles_reject_bad_input(call):
    # unchecked, an infinite point reports -inf, NaN or a bracket end, a
    # bad bracket searches an empty or degenerate grid, a float count or
    # rounds fails in the first search with a TypeError, and a bool rounds
    # runs as one round
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError):
            call()


@pytest.mark.parametrize("call", [
    lambda: moreau_envelope_numeric(np.abs, 1.0, [0.5, -np.inf], GridSpec(-5.0, 5.0, 101, 3)),
    lambda: penalty_value(PenaltySpec("psi-specified"), [1.0, np.inf]),
    lambda: conjugate_numeric_rowwise(lambda x: x**2, [1.0, np.inf], -5.0, 5.0),
], ids=["moreau", "psi-specified-value", "conjugate-rowwise"])
def test_grid_oracles_reject_infinite_points(call):
    with pytest.raises(ValidationError, match="must not be NaN or infinite"):
        call()


@pytest.mark.parametrize("family", [
    EXPONENTIAL, GAUSSIAN_SCALE, GAUSSIAN_LOCATION, variance_mean(-0.8)], ids=lambda f: f.tag)
def test_integrand_is_the_family_expression(family):
    # each family's integrand is the expression of the table in the
    # module docstring, bit for bit (lam = 0 included)
    x = np.array([-2.5, -0.0, 0.3, 4.0])[:, None]
    lam = np.array([0.0, 0.25, 1.0, 7.5])[None, :]
    dual = lambda lam: np.log1p(np.asarray(lam, dtype=float))  # noqa: E731
    d = dual(lam)
    want = {"exponential": lambda: lam * np.abs(x) - d,
            "gaussian-scale": lambda: 0.5 * lam * x**2 - d,
            "gaussian-location": lambda: 0.5 * (x - lam) ** 2 + d,
            "variance-mean": lambda: 0.5 * lam * (x - family.drift / lam) ** 2 - d}
    with np.errstate(divide="ignore", invalid="ignore"):
        want = want[family.tag]()
    got = envelope_integrand(family, dual, x, lam)
    assert got.tobytes() == want.tobytes()


_POOL = np.array([0.0, -0.0, 1.5, -2.0, 0.75, 1e300, -1e300, np.nan, np.inf, -np.inf])


# The shapes of the grid oracles' own terms, as expressions of the row's
# a and b, the grid point g and the grid function's value f there: the
# conjugates (the first two), the scale, location and variance-mean
# integrands, the Moreau envelope and the prox oracle.  On the values
# below, the terms themselves make NaN and infinities (b/g at g = 0,
# 0*inf, overflow).
_FORMS = {
    "f-ag": lambda a, b, g, f: f - a * g,
    "ag-f": lambda a, b, g, f: a * g - f,
    "g/2*a-f": lambda a, b, g, f: 0.5 * g * a - f,
    "b*(a-g)^2+f": lambda a, b, g, f: b * (a - g) ** 2 + f,
    "b*(a-g)^2-f": lambda a, b, g, f: b * (a - g) ** 2 - f,
    "f+(a-g)^2/b": lambda a, b, g, f: f + (a - g) ** 2 / b,
    "g/2*(a-b/g)^2-f": lambda a, b, g, f: 0.5 * g * (a - b / g) ** 2 - f,
}


def _form_term(form, a, b):
    """The expression ``form`` with each row's own ``a`` and ``b``, as the
    plain term of a search."""
    expr = _FORMS[form]

    def term(rows, g, f):
        return expr(a[rows, None], b[rows, None], g, f)

    return term


def _search_and_reference(form, f, a, b, lo, hi, count, rounds):
    """``_zoom_min`` of the term ``form`` and the one-row-at-a-time search
    of the same term."""
    term = _form_term(form, a, b)
    return (duality._zoom_min(f, term, lo, hi, count, rounds),
            _per_row_min(f, term, lo, hi, count, rounds))


def _table_f(table, lo):
    """An f that returns row i of ``table`` on the grid row that starts at
    ``lo[i]``: the values of each searched grid row are chosen outright."""
    by_start = {float(start): row for start, row in zip(lo, table)}

    def f(g):
        return np.array([by_start[float(row[0])] for row in g])

    return f


def _special_table(rng, rows, count):
    """Values from a short pool of specials and random numbers, so that rows
    hold NaN, +-inf, equal minima and -0.0/+0.0 ties; row 0 has no finite
    value, row 1 ties its minimum across lanes and the tail, row 2 puts
    -0.0 before +0.0 and row 3 +0.0 before -0.0."""
    table = np.where(rng.random((rows, count)) < 0.6,
                     rng.choice(_POOL, size=(rows, count)),
                     rng.normal(size=(rows, count)))
    table[0] = rng.choice([np.nan, np.inf, -np.inf], size=count)
    if rows > 3:
        table[1:4] = 5.0
        table[1, [count - 1, 2, 5] if count > 5 else [count - 1, 0]] = -3.0
        table[2, [1, count - 2]] = [-0.0, 0.0]
        table[3, [1, count - 2]] = [0.0, -0.0]
    return table


@pytest.mark.parametrize("count", [3, 4, 7, 13, 101, 9001])
@pytest.mark.parametrize("form", list(_FORMS))
def test_compiled_scan_matches_numpy_coupling(form, count):
    # one round on chosen values: the search of each term shape keeps the
    # bits of the one-row-at-a-time search, with one row per grid row
    # (per-row brackets) and with many rows on one grid (a shared one);
    # at 9001 points one row is more than a block
    rng = np.random.Generator(np.random.PCG64(count))
    rows = 1 if count > duality._BLOCK_ELEMS else 40
    a = rng.choice(np.array([0.0, -0.0, 0.5, -1.25, 3.0]), size=rows)
    b = np.where(rng.random(rows) < 0.3, rng.normal(size=rows),
                 rng.choice(np.array([-0.0, 0.5, 2.0, 1e-300]), size=rows))
    table = _special_table(rng, rows, count)
    # grids start at 0 (variance-mean's b/g is infinite there) or above it
    lo = np.arange(rows) * 0.5
    hi = lo + 1.0
    got, want = _search_and_reference(form, _table_f(table, lo), a, b, lo, hi, count, 0)
    assert got.tobytes() == want.tobytes()
    shared = np.zeros(rows), np.ones(rows)
    for i in range(min(rows, 4)):
        f = _table_f(table[i:i + 1], [0.0])
        got, want = _search_and_reference(form, f, a, b, *shared, count, 0)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("count", [3, 7, 13, 9001])
def test_compiled_scan_first_minimum_semantics(count):
    # a term that returns each row's values outright, so the selected
    # value and index can be read off the table: the first minimum over
    # the finite values, +inf at index 0 when none is finite, and -0.0 or
    # +0.0 as it comes first; with per-row brackets and with one shared
    # bracket (one grid, whose values differ by row)
    rng = np.random.Generator(np.random.PCG64(5))
    rows = 4 if count > duality._BLOCK_ELEMS else 30
    table = _special_table(rng, rows, count)

    def term(at, g, fg):
        return table[at]

    t = np.linspace(0.0, 1.0, count)
    first = 2 if count > 5 else 0
    for lo in (1.0 + np.arange(rows), np.ones(rows)):
        out = duality._zoom_min(np.zeros_like, term, lo, lo + 1.0, count, 0)
        for i, row in enumerate(table):
            finite = np.flatnonzero(np.isfinite(row))
            j = finite[np.argmin(row[finite])] if finite.size else 0
            want = row[j] if finite.size else np.inf
            assert np.float64(out[0, i]).tobytes() == np.float64(want).tobytes(), i
            assert out[1, i] == lo[i] + 1.0 * t[j], i
        assert (out[0, 0], out[1, 0]) == (np.inf, lo[0])
        assert out[1, 1] == lo[1] + t[first]
        if count > 3:  # at 3 points the two zeros share an index
            assert np.signbit(out[0, 2]) and not np.signbit(out[0, 3])


@pytest.mark.parametrize("form", list(_FORMS))
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-row"])
def test_compiled_zoom_search_matches_numpy_search(monkeypatch, form, shared):
    # the whole zoom search of each term shape, whose later rounds scan
    # blocks that mix groups of several rows and of one row, in blocks of
    # 5 grid rows, keeps the bits of the one-row-at-a-time search
    monkeypatch.setattr(duality, "_BLOCK_ELEMS", 5 * 101)
    rng = np.random.Generator(np.random.PCG64(11 + shared))
    rows = 120
    a = rng.choice([-1.5, -0.25, 0.0, 0.5, 2.0], size=rows)
    b = rng.choice([0.5, 1.0, 2.0], size=rows)

    def f(g):
        with np.errstate(invalid="ignore", divide="ignore"):
            v = (g - 0.3) ** 2 + np.sqrt(g + 1.0)  # NaN below -1
        return np.where(np.abs(g - 1.2) < 0.05, -np.inf, v)

    lo, hi = _brackets(rng, rows, shared)
    got, want = _search_and_reference(form, f, a, b, lo, hi, 101, 3)
    assert got.tobytes() == want.tobytes()


def _monotone_chain(x, y):
    """The lower hull's vertex indices by the sequential monotone chain:
    each point pops the last vertex while that vertex lies on or above
    the chord from the one before it to the point."""
    hx, hy, at = [], [], []
    for i, (xi, yi) in enumerate(zip(x.tolist(), y.tolist())):
        while len(hx) > 1 and ((hy[-1] - hy[-2]) * (xi - hx[-2])
                               >= (yi - hy[-2]) * (hx[-1] - hx[-2])):
            hx.pop()
            hy.pop()
            at.pop()
        hx.append(xi)
        hy.append(yi)
        at.append(i)
    return np.array(at)


def test_vectorized_hull_matches_the_monotone_chain():
    # the passes that drop every vertex on or above its neighbours' chord
    # keep the vertices of the sequential chain: on the four catalog theta,
    # on 1.2*huber (a concave stretch on [-1, 1] between convex ones, whose
    # bridge takes many passes) and on random nonconvex samples with
    # collinear runs
    from envopt.checks import _THETA_SAMPLES, _lower_hull
    from envopt.losses import logcosh

    lt = PenaltySpec("limited-translation")
    phis = {"huber": lambda x: huber(x, 1.0), "limited-translation": lambda x: penalty_value(lt, x),
            "logcosh(m=1)": lambda x: logcosh(x, 1), "logcosh(m=4)": lambda x: logcosh(x, 4),
            "1.2*huber": lambda x: 1.2 * huber(x, 1.0)}
    x = _THETA_SAMPLES
    cases = {name: (x, 0.5 * x**2 - phi(x)) for name, phi in phis.items()}
    rng = np.random.Generator(np.random.PCG64(28))
    for n in (3, 50, 2000):
        x = np.sort(rng.uniform(-5.0, 5.0, size=n))
        y = rng.normal(size=n) + 0.1 * x**2
        y[n // 3:n // 2] = 0.25 * x[n // 3:n // 2]  # a collinear run
        cases[f"random({n})"] = (x, y)
    for name, (x, y) in cases.items():
        want = _monotone_chain(x, y)
        got = _lower_hull(x, y)
        assert np.array_equal(got, want), name
    # the logcosh theta are strictly convex, so every sample is a vertex;
    # 1.2*huber loses its concave stretch
    assert _lower_hull(*cases["logcosh(m=1)"]).size == cases["logcosh(m=1)"][0].size
    assert _lower_hull(*cases["1.2*huber"]).size < _lower_hull(*cases["huber"]).size


def test_double_conjugation_gap_is_the_hull_depth():
    # a convex theta = x^2/2 - phi reproduces its samples, so the four
    # catalog rows read rounding alone; at 1.2*huber theta is concave on
    # [-1, 1], and its convex hull lies 0.12 below theta(0) = 0 (the hull
    # joins the minima theta(+-1.2) = -0.12)
    from envopt.checks import _double_conjugation_gap, conjugate_suite

    rows = [row for row in conjugate_suite() if row["name"].startswith("double conjugation")]
    assert len(rows) == 4
    assert all(row["max_gap"] <= 1e-12 for row in rows)
    assert abs(_double_conjugation_gap(lambda x: 1.2 * huber(x, 1.0)) - 0.12) <= 1e-3


@pytest.mark.skipif(solvers.FUSED_LASSO_KERNEL != "c", reason="no C kernel here")
def test_check_suites_same_rows_without_kernel(monkeypatch):
    from envopt.checks import run_suite

    rows = run_suite("all")
    monkeypatch.setattr(solvers, "_kernel", lambda: None)
    assert repr(run_suite("all")) == repr(rows)  # repr keeps every bit of a float
    assert len(rows) == 24
