"""Unit tests for the GMM fit and the threshold optimisation (Section V)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compat import HAVE_NUMPY, np
from repro.core.gmm import GaussianMixture
from repro.core.threshold import ThresholdOptimizer, fit_extra_time_distribution
from repro.exceptions import LearningError
from tests.conftest import make_order

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="this module tests numpy-only subsystems"
)


def _bimodal_samples(seed=0, size=600):
    rng = np.random.default_rng(seed)
    low = rng.normal(60.0, 10.0, size // 2)
    high = rng.normal(300.0, 40.0, size // 2)
    return np.clip(np.concatenate([low, high]), 0.0, None)


class TestGaussianMixture:
    def test_requires_at_least_one_component(self):
        with pytest.raises(LearningError):
            GaussianMixture(n_components=0)

    def test_requires_enough_samples(self):
        with pytest.raises(LearningError):
            GaussianMixture(n_components=3).fit([1.0, 2.0])

    def test_unfitted_mixture_rejects_queries(self):
        with pytest.raises(LearningError):
            GaussianMixture().cdf(1.0)

    def test_fit_recovers_bimodal_means(self):
        mixture = GaussianMixture(n_components=2, seed=1).fit(_bimodal_samples())
        means = sorted(component.mean for component in mixture.components)
        assert means[0] == pytest.approx(60.0, abs=15.0)
        assert means[1] == pytest.approx(300.0, abs=30.0)

    def test_weights_sum_to_one(self):
        mixture = GaussianMixture(n_components=3, seed=2).fit(_bimodal_samples())
        assert sum(c.weight for c in mixture.components) == pytest.approx(1.0)

    def test_log_likelihood_is_non_decreasing(self):
        mixture = GaussianMixture(n_components=2, seed=3).fit(_bimodal_samples())
        history = mixture.log_likelihood_history
        assert len(history) >= 2
        assert all(b >= a - 1e-6 for a, b in zip(history, history[1:]))

    def test_cdf_monotone_and_bounded(self):
        mixture = GaussianMixture(n_components=2, seed=4).fit(_bimodal_samples())
        xs = np.linspace(-100.0, 600.0, 50)
        cdf = mixture.cdf(xs)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf.min() >= 0.0
        assert cdf.max() <= 1.0

    def test_cdf_limits(self):
        mixture = GaussianMixture(n_components=2, seed=5).fit(_bimodal_samples())
        assert mixture.cdf(-1e6) == pytest.approx(0.0, abs=1e-9)
        assert mixture.cdf(1e6) == pytest.approx(1.0, abs=1e-9)

    def test_pdf_non_negative(self):
        mixture = GaussianMixture(n_components=2, seed=6).fit(_bimodal_samples())
        xs = np.linspace(0.0, 500.0, 40)
        assert np.all(mixture.pdf(xs) >= 0.0)

    def test_mean_matches_sample_mean(self):
        samples = _bimodal_samples(seed=7)
        mixture = GaussianMixture(n_components=2, seed=7).fit(samples)
        assert mixture.mean() == pytest.approx(float(samples.mean()), rel=0.1)

    def test_sampling_roundtrip(self):
        mixture = GaussianMixture(n_components=2, seed=8).fit(_bimodal_samples())
        draws = mixture.sample(2000, seed=8)
        assert draws.shape == (2000,)
        assert float(draws.mean()) == pytest.approx(mixture.mean(), rel=0.15)


class TestFitExtraTimeDistribution:
    def test_rejects_empty_history(self):
        with pytest.raises(LearningError):
            fit_extra_time_distribution([])

    def test_clips_negative_samples(self):
        mixture = fit_extra_time_distribution([-5.0, -1.0, 3.0, 10.0, 20.0] * 10)
        assert mixture.cdf(0.0) >= 0.0

    def test_reduces_components_for_small_samples(self):
        mixture = fit_extra_time_distribution([5.0, 6.0, 7.0, 8.0, 9.0])
        assert len(mixture.components) >= 1


class TestThresholdOptimizer:
    @pytest.fixture
    def optimizer(self):
        mixture = GaussianMixture(n_components=2, seed=9).fit(_bimodal_samples())
        return ThresholdOptimizer(mixture)

    def test_threshold_stays_in_bounds(self, optimizer):
        for penalty in (10.0, 100.0, 500.0, 2000.0):
            theta = optimizer.optimal_threshold(penalty)
            assert 0.0 <= theta <= penalty

    def test_zero_penalty_gives_zero_threshold(self, optimizer):
        assert optimizer.optimal_threshold(0.0) == 0.0
        assert optimizer.optimal_threshold(-5.0) == 0.0

    def test_threshold_is_near_the_grid_optimum(self, optimizer):
        penalty = 800.0
        theta = optimizer.optimal_threshold(penalty)
        grid = np.linspace(0.0, penalty, 400)
        best_grid = max(grid, key=lambda t: optimizer.objective(t, penalty))
        # the optimiser must reach at least 99.5% of the fine-grid optimum
        assert optimizer.objective(theta, penalty) >= 0.995 * optimizer.objective(
            best_grid, penalty
        )

    def test_expected_loss_identity(self, optimizer):
        penalty = 500.0
        theta = 120.0
        assert optimizer.expected_loss(theta, penalty) == pytest.approx(
            penalty - optimizer.objective(theta, penalty)
        )

    def test_larger_penalty_never_decreases_threshold_value(self, optimizer):
        small = optimizer.objective(
            optimizer.optimal_threshold(200.0), 200.0
        )
        large = optimizer.objective(
            optimizer.optimal_threshold(800.0), 800.0
        )
        assert large >= small

    def test_optimal_thresholds_for_orders(self, optimizer, small_network):
        orders = [make_order(small_network, 0, 5), make_order(small_network, 1, 20)]
        thresholds = optimizer.optimal_thresholds(orders)
        assert set(thresholds) == {order.order_id for order in orders}
        for order in orders:
            assert 0.0 <= thresholds[order.order_id] <= order.penalty

    def test_provider_protocol_uses_cache(self, optimizer, small_network):
        order = make_order(small_network, 0, 5)
        first = optimizer.threshold(order, 0.0)
        second = optimizer.threshold(order, 100.0)
        assert first == second


# ---------------------------------------------------------------------------
# bit-identity with the original per-point implementation
# ---------------------------------------------------------------------------


def _reference_cdf(mixture, x):
    """The mixture CDF as first written: one ``np.vectorize`` per component."""
    values = np.asarray(x, dtype=float)
    result = np.zeros_like(values, dtype=float)
    for component in mixture.components:
        std = math.sqrt(component.variance)
        z = (values - component.mean) / (std * math.sqrt(2.0))
        result = result + component.weight * 0.5 * (1.0 + np.vectorize(math.erf)(z))
    result = np.clip(result, 0.0, 1.0)
    return float(result) if np.isscalar(x) else result


def _reference_optimal_threshold(mixture, penalty):
    """The threshold search as first written: one scalar CDF per grid point."""

    def objective(theta):
        return (penalty - theta) * float(_reference_cdf(mixture, theta))

    if penalty <= 0:
        return 0.0
    grid = np.linspace(0.0, penalty, 64)
    _, best = max((objective(theta), theta) for theta in grid)
    theta = float(best)
    step = 0.1 * penalty
    eps = max(penalty * 1e-4, 1e-6)
    for _ in range(25):
        gradient = (objective(theta + eps) - objective(theta - eps)) / (2.0 * eps)
        candidate = theta + step * gradient / max(penalty, 1e-9)
        candidate = min(max(candidate, 0.0), penalty)
        if objective(candidate) >= objective(theta):
            theta = candidate
        else:
            step *= 0.5
    return theta


def _random_mixture(seed, components):
    rng = np.random.default_rng(seed)
    modes = rng.uniform(0.0, 900.0, components)
    spreads = rng.uniform(1.0, 120.0, components)
    samples = np.concatenate(
        [rng.normal(mode, spread, 40) for mode, spread in zip(modes, spreads)]
    )
    return GaussianMixture(n_components=components, seed=seed).fit(samples)


def _bits(value):
    return float(value).hex()


_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
_COMPONENTS = st.integers(min_value=1, max_value=4)


class TestBitIdentity:
    @settings(max_examples=40, deadline=None)
    @given(_SEEDS, _COMPONENTS)
    def test_scalar_cdf_matches_array_cdf(self, seed, components):
        mixture = _random_mixture(seed, components)
        rng = np.random.default_rng(seed)
        floats = np.concatenate(
            [rng.uniform(-200.0, 1500.0, 40), [0.0, -0.0, 1e-300, 1e9, -1e9]]
        )
        ints = [-50, 0, 1, 17, 300, 2000]
        array = mixture.cdf(floats)
        for x, want in zip(floats, array):
            assert _bits(mixture.cdf(float(x))) == _bits(want)
            assert _bits(mixture.cdf(np.float64(x))) == _bits(want)
            assert _bits(_reference_cdf(mixture, float(x))) == _bits(want)
        for x, want in zip(ints, mixture.cdf(np.asarray(ints))):
            assert _bits(mixture.cdf(x)) == _bits(want)
            assert _bits(_reference_cdf(mixture, x)) == _bits(want)

    def test_scalar_cdf_returns_a_python_float(self):
        mixture = _random_mixture(1, 2)
        assert type(mixture.cdf(3.0)) is float
        assert type(mixture.cdf(3)) is float
        assert type(mixture.cdf(np.float64(3.0))) is float
        assert mixture.cdf(np.array([3.0])).shape == (1,)

    @settings(max_examples=30, deadline=None)
    @given(
        _SEEDS,
        _COMPONENTS,
        st.lists(
            st.one_of(
                st.floats(min_value=1e-6, max_value=5000.0),
                st.integers(min_value=-10, max_value=5000),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_optimal_threshold_matches_the_original_loop(
        self, seed, components, penalties
    ):
        mixture = _random_mixture(seed, components)
        optimizer = ThresholdOptimizer(mixture)
        for penalty in penalties:
            assert _bits(optimizer.optimal_threshold(penalty)) == _bits(
                _reference_optimal_threshold(mixture, penalty)
            )

    def test_flat_objective_keeps_the_last_grid_maximiser(self):
        # All mass far above a tiny penalty: F is exactly 0 on the whole
        # grid, every grid point ties, and the largest theta wins.
        mixture = GaussianMixture(n_components=1).fit([500.0, 510.0, 520.0])
        optimizer = ThresholdOptimizer(mixture)
        penalty = 1e-3
        grid = np.linspace(0.0, penalty, 64)
        assert not np.any((penalty - grid) * mixture.cdf(grid))
        want = _reference_optimal_threshold(mixture, penalty)
        assert want == penalty
        assert _bits(optimizer.optimal_threshold(penalty)) == _bits(want)

    def test_non_positive_penalties(self):
        optimizer = ThresholdOptimizer(_random_mixture(2, 2))
        for penalty in (0, 0.0, -0.0, -3.5, -7):
            assert optimizer.optimal_threshold(penalty) == 0.0
            assert _reference_optimal_threshold(optimizer.mixture, penalty) == 0.0
