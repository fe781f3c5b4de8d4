"""The bounds engine: formulas, orderings, windows, delayed recursion."""
import math

import numpy as np
import pytest

from fptrack import bounds as bnd
from fptrack.bounds import BoundInputs
from fptrack.errors import LengthMismatchError, PreconditionError
from fptrack.norms import L2, LINF, Norm

NL2, NINF = Norm(L2), Norm(LINF)


# ---------------------------------------------------------------------------
# contraction products and per-step bounds
# ---------------------------------------------------------------------------


def pure_decay(lipschitz_series, t):
    """The per-step bound after t steps from error 1, with no map error or drift:
    the product of the first t contraction factors."""
    return bnd.per_step_bound_series(1.0, [0.0] * t, [0.0] * t, lipschitz_series, t)[t]


def test_contraction_product_at_equal_indices_is_one():
    assert pure_decay([0.3] * 5, 0) == 1.0


def test_contraction_product_constant_series():
    assert abs(pure_decay([0.5, 0.5, 0.5], 3) - 0.125) < 1e-15


def test_contraction_product_mixed_series():
    assert abs(pure_decay((0.3, 0.6, 0.9), 3) - 0.162) < 1e-15


def test_contraction_product_bounded_by_sup_power():
    rng = np.random.default_rng(0)
    series = rng.uniform(0.1, 0.9, 10)
    sup = series.max()
    for tau in range(11):
        assert pure_decay(series[tau:], 10 - tau) <= sup ** (10 - tau) + 1e-15


def test_contraction_product_index_errors():
    with pytest.raises(PreconditionError):
        bnd.per_step_bound_series(1.0, [], [], [], -1)
    with pytest.raises(LengthMismatchError):
        pure_decay([0.5] * 3, 6)


def test_per_step_bound_step_count_is_an_integer_not_truncated():
    with pytest.raises(PreconditionError, match="t 2.9 is not an integer"):
        bnd.per_step_bound_series(1.0, [0.0] * 3, [0.0] * 3, [0.5] * 3, 2.9)
    assert bnd.per_step_bound_series(1.0, [0.0] * 3, [0.0] * 3, [0.5] * 3, np.int64(2))[2] == 0.25


def test_per_step_bound_pure_decay():
    val = bnd.per_step_bound_series(1.0, [0.0] * 4, [0.0] * 4, [0.5] * 4, 4)[4]
    assert abs(val - 0.0625) < 1e-15


def test_per_step_bound_single_unrolling():
    val = bnd.per_step_bound_series(1.0, [0.1], [0.2], [0.5], 1)[1]
    assert abs(val - 0.8) < 1e-15


def test_per_step_bound_equals_recursion_oracle():
    rng = np.random.default_rng(1)
    t = 40
    e = rng.uniform(0, 0.2, t)
    s = rng.uniform(0, 0.3, t)
    L = rng.uniform(0.1, 0.95, t)
    b = 0.7
    oracle = [b]
    for k in range(t):  # direct recursion, independently coded
        oracle.append(L[k] * oracle[-1] + e[k] + s[k])
    assert np.allclose(bnd.per_step_bound_series(b, e, s, L, t), oracle, rtol=0, atol=1e-12)


def test_per_step_bound_matches_product_sum_form():
    rng = np.random.default_rng(2)
    t = 12
    e = rng.uniform(0, 0.2, t)
    s = rng.uniform(0, 0.3, t)
    L = rng.uniform(0.1, 0.95, t)
    b0 = 1.3
    # product-weighted unrolled form: step tau's input decays by L over steps tau+1..t
    total = np.prod(L) * b0
    for tau in range(1, t + 1):
        total += np.prod(L[tau:t]) * (e[tau - 1] + s[tau - 1])
    assert abs(bnd.per_step_bound_series(b0, e, s, L, t)[t] - total) < 1e-12


def per_step_numpy_scalars(initial_error, e, s, L, t):
    """The per-step bounds as a loop over numpy scalars, the form before Python floats."""
    out = np.empty(t + 1)
    out[0] = float(initial_error)
    for k in range(t):
        out[k + 1] = L[k] * out[k] + e[k] + s[k]
    return out


def test_per_step_bound_equals_the_numpy_scalar_loop_bitwise():
    rng = np.random.default_rng(8)
    for t in (0, 1, 7, 500):
        n = t + 3  # series may be longer than the steps they cover
        e = rng.exponential(1e-3, n)
        s = rng.exponential(1e-2, n)
        L = rng.uniform(0.0, 1.2, n)
        for series in (e, s, L):
            series[rng.integers(n)] = np.inf
        L[rng.integers(n)] = 0.0  # after an inf, 0 * inf
        for initial in (0.0, 2.5, np.inf):
            with np.errstate(over="ignore", invalid="ignore"):
                oracle = per_step_numpy_scalars(initial, e, s, L, t)
            got = bnd.per_step_bound_series(initial, e, s, L, t)
            assert got.dtype == np.float64 and got.shape == (t + 1,)
            assert got.tobytes() == oracle.tobytes()


def test_per_step_bound_length_mismatch():
    with pytest.raises(LengthMismatchError):
        bnd.per_step_bound_series(1.0, [0.1], [0.1, 0.2], [0.5, 0.5], 2)


# ---------------------------------------------------------------------------
# asymptotic bounds
# ---------------------------------------------------------------------------


def test_sync_bound_zero_inputs():
    assert bnd.tracking_bound_sync(BoundInputs(lipschitz=0.5)) == 0.0


def test_sync_bound_arithmetic():
    v = bnd.tracking_bound_sync(BoundInputs(lipschitz=0.5, map_error=0.01, drift=0.1))
    assert abs(v - 0.22) < 1e-15


def test_sync_bound_requires_contraction():
    with pytest.raises(PreconditionError):
        bnd.tracking_bound_sync(BoundInputs(lipschitz=1.0, drift=0.1))


def test_async_inf_zero_delay_reduces_to_sync():
    a = BoundInputs(lipschitz=0.5, map_error=0.02, drift=0.1, max_delay=0, norm=NINF)
    s = BoundInputs(lipschitz=0.5, map_error=0.02, drift=0.1)
    assert abs(bnd.tracking_bound_async_inf(a) - bnd.tracking_bound_sync(s)) < 1e-15


def test_async_inf_arithmetic():
    v = bnd.tracking_bound_async_inf(
        BoundInputs(lipschitz=0.5, drift=0.1, max_delay=3, dim=4, norm=NINF)
    )
    assert abs(v - 0.5) < 1e-15
    v2 = bnd.tracking_bound_async_inf(
        BoundInputs(lipschitz=0.5, map_error=0.05, drift=0.1, max_delay=3, dim=4, norm=NINF)
    )
    assert abs(v2 - 0.6) < 1e-15


def test_async_inf_rejects_l2_norm():
    with pytest.raises(PreconditionError):
        bnd.tracking_bound_async_inf(BoundInputs(lipschitz=0.5, norm=NL2))


def test_l2_equiv_dimension_one_matches_max_norm_form():
    a = BoundInputs(lipschitz=0.5, drift=0.1, max_delay=2, dim=1, norm=NL2)
    b = BoundInputs(lipschitz=0.5, drift=0.1, max_delay=2, dim=1, norm=NINF)
    assert abs(
        bnd.tracking_bound_async_l2_equiv(a) - bnd.tracking_bound_async_inf(b)
    ) < 1e-15


def test_l2_equiv_boundary_fails():
    with pytest.raises(PreconditionError, match=">= 1"):
        bnd.tracking_bound_async_l2_equiv(
            BoundInputs(lipschitz=0.5, drift=0.1, dim=4, norm=NL2)
        )


def test_l2_equiv_arithmetic():
    v = bnd.tracking_bound_async_l2_equiv(
        BoundInputs(lipschitz=0.4, drift=0.1, max_delay=2, dim=4, norm=NL2)
    )
    assert abs(v - 1.3) < 1e-12


def test_l2_refined_zero_stale_matches_max_norm_form():
    v = bnd.tracking_bound_async_l2_refined(
        BoundInputs(lipschitz=0.5, map_error=0.02, drift=0.1, max_delay=3,
                    max_stale=0, dim=6, norm=NL2)
    )
    expected = (0.02 + 0.1 * (1 + 0.5 * 3)) / 0.5
    assert abs(v - expected) < 1e-15


def test_l2_refined_boundary_fails():
    with pytest.raises(PreconditionError):
        bnd.tracking_bound_async_l2_refined(
            BoundInputs(lipschitz=0.5, drift=0.1, max_stale=3, dim=6, norm=NL2)
        )


def test_l2_refined_arithmetic():
    v = bnd.tracking_bound_async_l2_refined(
        BoundInputs(lipschitz=0.4, drift=0.1, max_delay=2, max_stale=1, dim=4, norm=NL2)
    )
    root2 = math.sqrt(2.0)
    expected = 0.1 * (1 + 0.4 * root2 * 2) / (1 - 0.4 * root2)
    assert abs(v - expected) < 1e-12


def test_max_stale_bounded_by_dimension():
    with pytest.raises(PreconditionError):
        BoundInputs(lipschitz=0.3, max_stale=4, dim=4)


def test_bounds_monotone_in_every_input():
    base = dict(lipschitz=0.3, map_error=0.02, drift=0.05, max_delay=2,
                max_stale=1, dim=8)
    fns = {
        "sync": (bnd.tracking_bound_sync, NL2),
        "inf": (bnd.tracking_bound_async_inf, NINF),
        "equiv": (bnd.tracking_bound_async_l2_equiv, NL2),
        "refined": (bnd.tracking_bound_async_l2_refined, NL2),
    }
    bumps = {"lipschitz": 0.02, "map_error": 0.01, "drift": 0.01, "max_delay": 1,
             "max_stale": 1}
    for name, (fn, norm) in fns.items():
        v0 = fn(BoundInputs(norm=norm, **base))
        for key, bump in bumps.items():
            upd = dict(base)
            upd[key] = upd[key] + bump
            v1 = fn(BoundInputs(norm=norm, **upd))
            assert v1 >= v0 - 1e-12, (name, key)


def test_bound_ordering_sync_below_async_and_refined_below_equiv():
    grid_L = [0.1, 0.2, 0.3]
    grid_delay = [0, 1, 3]
    grid_stale = [0, 1, 2]
    for L in grid_L:
        for d in grid_delay:
            s = bnd.tracking_bound_sync(BoundInputs(lipschitz=L, map_error=0.01, drift=0.1))
            a = bnd.tracking_bound_async_inf(
                BoundInputs(lipschitz=L, map_error=0.01, drift=0.1, max_delay=d, norm=NINF)
            )
            a_more = bnd.tracking_bound_async_inf(
                BoundInputs(lipschitz=L, map_error=0.01, drift=0.1, max_delay=d + 2, norm=NINF)
            )
            assert s <= a + 1e-15 <= a_more + 1e-15
            for ns in grid_stale:
                inp = BoundInputs(lipschitz=L, map_error=0.01, drift=0.1, max_delay=d,
                                  max_stale=ns, dim=8, norm=NL2)
                refined = bnd.tracking_bound_async_l2_refined(inp)
                equiv = bnd.tracking_bound_async_l2_equiv(inp)
                assert refined <= equiv + 1e-12


def test_reduction_chain_collapses_to_sync_bound():
    for L in np.linspace(0.05, 0.45, 9):
        for e in (0.0, 0.02):
            for s in (0.0, 0.1):
                sync = bnd.tracking_bound_sync(
                    BoundInputs(lipschitz=L, map_error=e, drift=s)
                )
                inf0 = bnd.tracking_bound_async_inf(
                    BoundInputs(lipschitz=L, map_error=e, drift=s, max_delay=0, norm=NINF)
                )
                ref0 = bnd.tracking_bound_async_l2_refined(
                    BoundInputs(lipschitz=L, map_error=e, drift=s, max_delay=0,
                                max_stale=0, dim=4, norm=NL2)
                )
                assert abs(inf0 - sync) < 1e-14
                assert abs(ref0 - sync) < 1e-14


# ---------------------------------------------------------------------------
# step-size windows
# ---------------------------------------------------------------------------


def test_min_regularization_values():
    assert bnd.min_regularization(1.0, 0) == 0.0
    assert abs(bnd.min_regularization(1.0, 3) - 0.5) < 1e-15
    assert abs(bnd.min_regularization(2.0, 8) - 2.0) < 1e-15


def test_window_no_staleness_is_zero_to_two_over_curvature():
    lo, hi = bnd.gradient_step_window(1.0, 0.5, 0)
    assert lo == 0.0
    assert abs(hi - 2.0 / 1.5) < 1e-15


def test_window_arithmetic():
    lo, hi = bnd.gradient_step_window(1.0, 1.0, 3)
    assert abs(lo - 0.5) < 1e-15
    assert abs(hi - 0.75) < 1e-15


def test_stale_contraction_threshold_takes_a_nonnegative_integer():
    assert bnd.stale_contraction_threshold(0) == 1.0
    assert bnd.stale_contraction_threshold(np.int64(3)) == 0.5
    for stale in (-1, -2):
        with pytest.raises(PreconditionError, match="max_stale must be nonnegative"):
            bnd.stale_contraction_threshold(stale)
    with pytest.raises(PreconditionError, match="max_stale 1.7 is not an integer"):
        bnd.stale_contraction_threshold(1.7)


def test_bound_inputs_counts_are_integers_not_truncated():
    with pytest.raises(PreconditionError, match="max_delay 2.5 is not an integer"):
        BoundInputs(lipschitz=0.5, max_stale=1.7, max_delay=2.5, dim=3)
    with pytest.raises(PreconditionError, match="max_stale 1.7 is not an integer"):
        BoundInputs(lipschitz=0.5, max_stale=1.7, max_delay=2, dim=3)
    with pytest.raises(PreconditionError, match="dim 3.0 is not an integer"):
        BoundInputs(lipschitz=0.5, dim=3.0)
    assert BoundInputs(lipschitz=0.5, max_stale=np.int64(1), max_delay=np.int64(2), dim=3).dim == 3


def test_min_regularization_stale_count_is_an_integer_not_truncated():
    with pytest.raises(PreconditionError, match="max_stale 1.7 is not an integer"):
        bnd.min_regularization(1.0, 1.7)
    assert bnd.min_regularization(1.0, np.int64(3)) == 0.5


def test_gradient_step_window_stale_count_is_an_integer_not_truncated():
    with pytest.raises(PreconditionError, match="max_stale 1.7 is not an integer"):
        bnd.gradient_step_window(1.0, 1.0, 1.7)
    assert bnd.gradient_step_window(1.0, 1.0, np.int64(3)) == (0.5, 0.75)


def test_window_empty_below_min_regularization():
    assert bnd.gradient_step_window(1.0, 0.4, 3) is None


def test_window_nonempty_iff_regularization_exceeds_threshold():
    rng = np.random.default_rng(4)
    for _ in range(200):
        m = float(rng.uniform(0.2, 5.0))
        stale = int(rng.integers(0, 9))
        thresh = bnd.min_regularization(m, stale)
        for eta in (thresh * 0.9 + 1e-6, thresh + 1e-6, thresh * 1.2 + 1e-6):
            window = bnd.gradient_step_window(m, eta, stale)
            if eta > thresh + 1e-12:
                assert window is not None
                assert window[0] <= window[1]
            elif eta < thresh - 1e-12:
                assert window is None


def test_projected_gradient_contraction_values():
    assert abs(bnd.projected_gradient_contraction(0.5, 1.0, 1.0) - 0.5) < 1e-15
    # balanced step equalizes both magnitudes
    m, eta = 1.7, 0.4
    a = 2.0 / (m + 2 * eta)
    assert abs(abs(1 - a * eta) - abs(1 - a * (m + eta))) < 1e-15


def test_window_interior_beats_stale_threshold():
    rng = np.random.default_rng(8)
    for _ in range(100):
        m = float(rng.uniform(0.3, 4.0))
        stale = int(rng.integers(0, 9))
        eta = bnd.min_regularization(m, stale) * 1.5 + 0.05
        lo, hi = bnd.gradient_step_window(m, eta, stale)
        for u in np.linspace(0.02, 0.98, 7):
            a = lo + u * (hi - lo)
            if a <= 0.0:
                continue
            L = bnd.projected_gradient_contraction(a, m, eta)
            assert L * math.sqrt(stale + 1) < 1.0 + 1e-12


# ---------------------------------------------------------------------------
# delayed geometric recursion
# ---------------------------------------------------------------------------


def test_delayed_recursion_unit_lag_sits_at_equilibrium():
    res = bnd.delayed_recursion_check(1.0, 0.5, 1, [1], 2000)
    assert res.passed
    assert abs(res.empirical_limsup - 2.0) < 1e-9


def test_delayed_recursion_vanishing_decay_approaches_offset():
    res = bnd.delayed_recursion_check(1.0, 1e-12, 1, [1], 500)
    assert res.passed
    assert abs(res.empirical_limsup - 1.0) < 1e-9


def test_delayed_recursion_alternating_lags():
    res = bnd.delayed_recursion_check(1.0, 0.5, 2, [1, 2], 10_000)
    assert res.passed
    assert res.empirical_limsup <= 2.0 + 1e-9


def test_delayed_recursion_decaying_start_from_above():
    # start above the equilibrium; the tail must have contracted below it
    res = bnd.delayed_recursion_check(
        1.0, 0.6, 3, [3, 1, 2], 5000, initial=[4.0, 4.0, 4.0]
    )
    assert res.passed


def test_delayed_recursion_invalid_decay():
    with pytest.raises(PreconditionError):
        bnd.delayed_recursion_check(1.0, 1.0, 1, [1], 100)


def test_delayed_recursion_lag_out_of_range():
    with pytest.raises(PreconditionError):
        bnd.delayed_recursion_check(1.0, 0.5, 2, [3], 100)


@pytest.mark.parametrize("max_lag,horizon,what", [(1.5, 100, "max_lag 1.5"),
                                                   (1, 20.9, "horizon 20.9")])
def test_delayed_recursion_lag_and_horizon_are_integers_not_truncated(max_lag, horizon, what):
    with pytest.raises(PreconditionError, match=f"{what} is not an integer"):
        bnd.delayed_recursion_check(1.0, 0.5, max_lag, [1], horizon)
    assert bnd.delayed_recursion_check(1.0, 0.5, np.int64(1), [1], np.int64(20)).horizon == 20


def test_delayed_recursion_lags_are_integers_not_truncated():
    with pytest.raises(PreconditionError, match="lags must be integers; got entries of type float"):
        bnd.delayed_recursion_check(1.0, 0.5, 2, [1.9, 2.6], 100)
    assert bnd.delayed_recursion_check(1.0, 0.5, 2, np.array([1, 2], dtype=np.int32), 100).passed


def test_stale_ratio_identity_with_min_regularization():
    # min regularization equals kappa/(1-kappa) times the smoothness
    for stale in (0, 1, 3, 8, 15):
        root = math.sqrt(stale + 1.0)
        kappa = (root - 1.0) / (root + 1.0)
        for m in (0.5, 1.0, 2.5):
            assert abs(bnd.min_regularization(m, stale) - kappa / (1 - kappa + 1e-300) * m) < 1e-12
