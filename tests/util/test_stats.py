"""Tests for summary statistics."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from repro.util.stats import (
    Histogram,
    bimodal_modes,
    median,
    pearson,
    percentile,
    ratio,
    spearman,
)

FLOATS = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestPearson:
    def test_perfect_positive(self):
        xs = [1, 2, 3, 4, 5]
        ys = [2, 4, 6, 8, 10]
        assert pearson(xs, ys) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_independent_near_zero(self):
        rng = random.Random(5)
        xs = [rng.random() for _ in range(5000)]
        ys = [rng.random() for _ in range(5000)]
        assert abs(pearson(xs, ys)) < 0.05

    def test_degenerate_constant(self):
        assert pearson([1, 1, 1], [1, 2, 3]) == 0.0

    def test_too_short(self):
        assert pearson([1], [2]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1])

    @given(st.lists(st.tuples(FLOATS, FLOATS), min_size=2, max_size=100))
    def test_bounded(self, pairs):
        xs = [p[0] for p in pairs]
        ys = [p[1] for p in pairs]
        assert -1.0 - 1e-9 <= pearson(xs, ys) <= 1.0 + 1e-9


class TestSpearman:
    def test_monotone_nonlinear_is_one(self):
        xs = [1, 2, 3, 4, 5]
        ys = [math.exp(x) for x in xs]
        assert spearman(xs, ys) == pytest.approx(1.0)

    def test_ties_handled(self):
        assert -1.0 <= spearman([1, 1, 2, 2], [3, 3, 4, 4]) <= 1.0


class TestPercentile:
    def test_median_odd(self):
        assert percentile([3, 1, 2], 50) == 2

    def test_interpolation(self):
        assert percentile([0, 10], 50) == 5.0

    def test_extremes(self):
        values = [5, 1, 9]
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 9

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1], 101)

    @given(st.lists(FLOATS, min_size=1, max_size=100),
           st.floats(min_value=0, max_value=100))
    def test_within_bounds(self, values, p):
        result = percentile(values, p)
        assert min(values) <= result <= max(values)

    def test_median_helper(self):
        assert median([1, 2, 3]) == 2


class TestRatioAndMean:
    def test_ratio(self):
        assert ratio(1, 4) == 0.25

    def test_ratio_zero_denominator(self):
        assert ratio(1, 0) == 0.0


class TestHistogram:
    def test_basic_binning(self):
        hist = Histogram(0, 10, 10)
        hist.add(0.5)
        hist.add(9.5)
        assert hist.counts[0] == 1
        assert hist.counts[9] == 1

    def test_underflow_overflow(self):
        hist = Histogram(0, 10, 5)
        hist.add(-1)
        hist.add(10)
        assert hist.underflow == 1
        assert hist.overflow == 1
        assert hist.total == 2

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            Histogram(10, 0, 5)

    def test_nan_counted_not_binned(self):
        hist = Histogram(0, 10, 5)
        hist.add(float("nan"))
        hist.add(float("nan"), weight=3)
        assert hist.nan == 4
        assert hist.underflow == 0 and hist.overflow == 0
        assert all(c == 0 for c in hist.counts)
        assert hist.total == 4

    def test_infinities_are_under_overflow(self):
        hist = Histogram(0, 10, 5)
        hist.add(float("inf"))
        hist.add(float("-inf"))
        assert hist.overflow == 1
        assert hist.underflow == 1
        assert hist.nan == 0
        assert hist.total == 2

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True),
                    max_size=100))
    def test_total_conserved_with_nonfinite(self, values):
        hist = Histogram(0, 10, 5)
        for v in values:
            hist.add(v)
        assert hist.total == len(values)

    @given(st.lists(st.floats(min_value=0, max_value=9.99), max_size=100))
    def test_total_conserved(self, values):
        hist = Histogram(0, 10, 7)
        for v in values:
            hist.add(v)
        assert hist.total == len(values)


class TestBimodalModes:
    def test_detects_two_modes(self):
        rng = random.Random(11)
        low = [rng.lognormvariate(math.log(50), 0.2) for _ in range(400)]
        high = [rng.lognormvariate(math.log(6000), 0.2) for _ in range(400)]
        modes = bimodal_modes(low + high)
        assert len(modes) == 2
        assert 20 < modes[0] < 150
        assert 2500 < modes[1] < 15000

    def test_single_mode(self):
        rng = random.Random(11)
        data = [rng.lognormvariate(math.log(100), 0.1) for _ in range(500)]
        modes = bimodal_modes(data)
        assert len(modes) >= 1
        assert 50 < modes[0] < 200

    def test_empty(self):
        assert bimodal_modes([]) == []

    def test_constant(self):
        assert bimodal_modes([5.0] * 10) == [5.0]
