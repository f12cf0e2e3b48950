"""Tests for deterministic RNG streams."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from repro.util.rng import (
    RngStreams,
    derive_seed,
    poisson,
    seed_prefix,
    weighted_choice,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", "b") == derive_seed(42, "a", "b")

    def test_differs_by_name(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_differs_by_root(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_path_is_not_concatenation(self):
        # ("ab",) and ("a", "b") must not collide.
        assert derive_seed(42, "ab") != derive_seed(42, "a", "b")

    @given(st.integers(min_value=0, max_value=2 ** 63), st.text(max_size=50))
    def test_always_in_64bit_range(self, root, name):
        seed = derive_seed(root, name)
        assert 0 <= seed < 2 ** 64


class TestSeedPrefix:
    @given(st.integers(min_value=0, max_value=2 ** 64 - 1),
           st.lists(st.text(max_size=12), max_size=3), st.text(max_size=12))
    def test_copy_plus_name_is_derive_seed(self, root, names, name):
        h = seed_prefix(root, *names).copy()
        h.update(name.encode("utf-8"))
        assert int.from_bytes(h.digest(), "big") == \
            derive_seed(root, *names, name)

    def test_prefix_is_reusable(self):
        # The crawl copies one prefix per domain for every day.
        prefix = seed_prefix(1234567)
        for day in ("1614556800", "1614643200", "1614556800"):
            h = prefix.copy()
            h.update(day.encode("utf-8"))
            assert int.from_bytes(h.digest(), "big") == \
                derive_seed(1234567, day)


def _knuth_reference(rng, lam):
    """Knuth's sampler written out plainly: the draw contract of
    :func:`poisson`, which the telescope goldens depend on."""
    if lam <= 0:
        return 0
    if lam > 1000:
        return max(0, int(round(rng.gauss(lam, math.sqrt(lam)))))
    limit = math.exp(-lam)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= limit:
            return k
        k += 1


class TestPoisson:
    @pytest.mark.parametrize("lam", [0.0, -1.0, 0.3, 4.5, 60.0, 999.0,
                                     1000.5, 40_000.0])
    def test_draws_the_reference_sequence(self, lam):
        ours, ref = random.Random(7), random.Random(7)
        assert [poisson(ours, lam) for _ in range(50)] == \
            [_knuth_reference(ref, lam) for _ in range(50)]
        # Same counts *and* the same number of uniforms consumed.
        assert ours.getstate() == ref.getstate()

    @pytest.mark.xfail(strict=True, reason=(
        "known deviation #6: exp(-lam) is subnormal above lam~708 and "
        "0.0 above lam~745, so the Knuth loop stops near 745 draws"))
    def test_mean_holds_at_high_rate(self):
        rng = random.Random(3)
        draws = [poisson(rng, 900.0) for _ in range(2000)]
        # The sample mean's standard error is sqrt(900 / 2000) ~ 0.67.
        assert sum(draws) / len(draws) == pytest.approx(900.0, abs=5.0)


class TestRngStreams:
    def test_same_stream_object_returned(self):
        streams = RngStreams(42)
        assert streams.stream("x") is streams.stream("x")

    def test_streams_independent(self):
        # Drawing from one stream must not disturb another.
        a = RngStreams(42)
        b = RngStreams(42)
        _ = [a.stream("noise").random() for _ in range(100)]
        assert a.stream("data").random() == b.stream("data").random()

    def test_spawn_seed_stable(self):
        assert RngStreams(7).spawn_seed("x") == RngStreams(7).spawn_seed("x")


class TestWeightedChoice:
    def test_single_item(self, rng):
        assert weighted_choice(rng, ["a"], [1.0]) == "a"

    def test_zero_weight_never_chosen(self, rng):
        picks = {weighted_choice(rng, ["a", "b"], [1.0, 0.0])
                 for _ in range(200)}
        assert picks == {"a"}

    def test_roughly_proportional(self, rng):
        n = 10_000
        count = sum(1 for _ in range(n)
                    if weighted_choice(rng, ["a", "b"], [3.0, 1.0]) == "a")
        assert 0.70 < count / n < 0.80

    def test_rejects_mismatched_lengths(self, rng):
        with pytest.raises(ValueError):
            weighted_choice(rng, ["a"], [1.0, 2.0])

    def test_rejects_empty(self, rng):
        with pytest.raises(ValueError):
            weighted_choice(rng, [], [])

    def test_rejects_zero_total(self, rng):
        with pytest.raises(ValueError):
            weighted_choice(rng, ["a"], [0.0])
