"""Feed hardening (``FaultInjector.harden_feed``): retries, dead
letters, the circuit breaker, and a pin of its outcome on fixed feeds."""

import hashlib

import pytest

from repro.chaos import ChaosConfig, DeadLetter, FaultInjector, FaultPolicy
from repro.chaos.injector import (
    BREAKER_FAILURE_THRESHOLD,
    BREAKER_RECOVERY_RECORDS,
    FEED_RETRIES,
)
from repro.obs import RunTelemetry
from repro.telescope.rsdos import InferredAttack, attack_problem


def attacks(n):
    return [InferredAttack(victim_ip=i + 1, start=i * 100, end=i * 100 + 600,
                           n_packets=100, max_ppm=50.0, max_slash16=3,
                           n_unique_sources=40, proto=6, first_port=53,
                           n_ports=1, n_windows=4)
            for i in range(n)]


def scripted(failures=None, fail=None):
    """An injector with an armed ``processor`` surface whose faults are
    scripted: the record at offset ``i`` faults on its first
    ``failures[i]`` attempts, or on every attempt when ``fail(i)``."""
    injector = FaultInjector(ChaosConfig(
        seed=0, processor=FaultPolicy(exception_p=0.5)),
        telemetry=RunTelemetry.create())
    left = dict(failures or {})
    injector.attempts = []

    def fire(surface, kind, p, rng, policy, detail=""):
        offset = int(detail.split("=")[1])
        injector.attempts.append(offset)
        if (fail is not None and fail(offset)) or left.get(offset, 0) > 0:
            left[offset] = left.get(offset, 0) - 1
            return True
        return False

    injector._fire = fire
    return injector


def counter(injector, name):
    counters = injector.telemetry.snapshot()["metrics"]["counters"]
    return counters[f"repro.stream.{name}{{job=feed-validate}}"]


class TestRetries:
    def test_transient_failures_retried_to_success(self):
        feed = attacks(3)
        injector = scripted({1: 2})
        assert injector.harden_feed(feed) == feed
        assert injector.attempts == [0, 1, 1, 1, 2]
        assert injector.dead_letters == []
        assert counter(injector, "retries") == 2

    def test_exhausted_retries_dead_letter(self):
        feed = attacks(3)
        injector = scripted({1: 99})
        assert injector.harden_feed(feed) == [feed[0], feed[2]]
        (letter,) = injector.dead_letters
        assert isinstance(letter, DeadLetter)
        assert letter.value == feed[1]
        assert letter.offset == 1
        assert letter.reason == f"{1 + FEED_RETRIES} attempts faulted"
        # the first try and every retry faulted
        assert injector.attempts.count(1) == 1 + FEED_RETRIES
        assert counter(injector, "retries") == FEED_RETRIES


class TestPoisonRouting:
    def test_type_mismatch_goes_to_dlq_without_retries(self):
        feed = [attacks(1)[0], "two", attacks(1)[0]]
        injector = scripted()
        assert injector.harden_feed(feed) == [feed[0], feed[2]]
        (letter,) = injector.dead_letters
        assert letter.reason == "not an InferredAttack: str"
        assert letter.offset == 1
        assert injector.attempts == [0, 1, 2]
        assert counter(injector, "retries") == 0

    def test_check_function_rejection_reason_preserved(self):
        (good,) = attacks(1)
        bad = InferredAttack(**dict(vars(good), n_packets=-1))
        injector = scripted()
        assert injector.harden_feed([good, bad]) == [good]
        (letter,) = injector.dead_letters
        assert letter.reason == attack_problem(bad)

    def test_poison_does_not_trip_breaker(self):
        n = 2 * BREAKER_FAILURE_THRESHOLD
        injector = scripted()
        injector.harden_feed(["s"] * n)
        assert len(injector.dead_letters) == n
        assert counter(injector, "flagged") == 0
        assert counter(injector, "breaker_opens") == 0


class TestAccounting:
    def test_flagged_records_that_fail_validation_are_dead_lettered(self):
        config = ChaosConfig(seed=1, feed=FaultPolicy(corrupt_p=0.3),
                             processor=FaultPolicy(exception_p=1.0))
        feed = attacks(300)
        faulted = FaultInjector(config).wrap_feed(feed)
        injector = FaultInjector(config)
        survivors = injector.harden_feed(feed)
        assert len(faulted) == len(survivors) + len(injector.dead_letters)
        flagged_out = [letter for letter in injector.dead_letters
                       if letter.reason.startswith("breaker open: ")]
        assert len(flagged_out) == 78
        for letter in flagged_out:
            assert letter.reason == \
                f"breaker open: {attack_problem(letter.value)}"
            assert repr(letter.value) == repr(faulted[letter.offset])


class TestCircuitBreaker:
    THRESHOLD = BREAKER_FAILURE_THRESHOLD
    RECOVERY = BREAKER_RECOVERY_RECORDS

    def test_opens_after_threshold_and_flags(self):
        n = self.THRESHOLD + self.RECOVERY
        feed = attacks(n)
        injector = scripted(fail=lambda offset: True)
        survivors = injector.harden_feed(feed)
        # THRESHOLD failures open the breaker; the next RECOVERY records
        # pass through unattempted, checked only by attack_problem.
        assert [letter.offset for letter in injector.dead_letters] == \
            list(range(self.THRESHOLD))
        assert survivors == feed[self.THRESHOLD:]
        assert set(injector.attempts) == set(range(self.THRESHOLD))
        assert counter(injector, "flagged") == self.RECOVERY
        assert counter(injector, "breaker_opens") == 1

    def test_half_open_recovery_closes_breaker(self):
        # Fail the first THRESHOLD records, then recover; one later
        # record faults once, which only a closed breaker retries.
        n = self.THRESHOLD + self.RECOVERY + 5
        late = self.THRESHOLD + self.RECOVERY + 2
        injector = scripted({late: 1},
                            fail=lambda offset: offset < self.THRESHOLD)
        survivors = injector.harden_feed(attacks(n))
        # the failures open it; RECOVERY flagged pass-throughs follow;
        # the next record is the half-open trial, succeeds, and closes
        # the breaker; the rest are attempted normally.
        assert len(survivors) == n - self.THRESHOLD
        assert counter(injector, "flagged") == self.RECOVERY
        assert counter(injector, "retries") == \
            self.THRESHOLD * FEED_RETRIES + 1
        assert set(injector.attempts) == \
            set(range(self.THRESHOLD)) | set(range(n - 5, n))

    def test_half_open_failure_reopens(self):
        n = self.THRESHOLD + 2 * (self.RECOVERY + 1)
        injector = scripted(fail=lambda offset: True)
        injector.harden_feed(attacks(n))
        # each failed trial re-opens the breaker for another RECOVERY
        # pass-throughs
        assert counter(injector, "breaker_opens") == 3
        assert counter(injector, "flagged") == 2 * self.RECOVERY
        assert len(injector.dead_letters) == self.THRESHOLD + 2


def _digest(items):
    """The first 16 hex digits of the sha256 over the items' reprs."""
    return hashlib.sha256(
        "\n".join(map(repr, items)).encode()).hexdigest()[:16]


#: The configurations the feed pin runs: every preset at seeds 1-3, and
#: processor-heavy policies that open the circuit breaker.
PIN_CONFIGS = {
    f"{level}-{seed}": ChaosConfig.preset(level, seed=seed)
    for level in ("light", "moderate", "heavy") for seed in (1, 2, 3)}
PIN_CONFIGS.update({
    "p1": ChaosConfig(seed=1, feed=FaultPolicy(corrupt_p=0.3),
                      processor=FaultPolicy(exception_p=1.0)),
    "p2": ChaosConfig(seed=2, processor=FaultPolicy(exception_p=0.9)),
    "p3": ChaosConfig(seed=3, feed=FaultPolicy(corrupt_p=0.1, truncate_p=0.1),
                      processor=FaultPolicy(exception_p=0.9)),
    "p4": ChaosConfig(seed=4, feed=FaultPolicy(corrupt_p=0.1),
                      processor=FaultPolicy(exception_p=0.05, burst_len=40)),
    "p5": ChaosConfig(seed=5, feed=FaultPolicy(drop_p=0.1, duplicate_p=0.1,
                                               reorder_p=0.1, corrupt_p=0.2),
                      processor=FaultPolicy(exception_p=0.6, burst_len=3)),
    "p6": ChaosConfig(seed=6, processor=FaultPolicy(exception_p=1.0)),
})

#: (feed, config) -> (survivors digest, dead letters, flagged records
#: that failed validation, fault-log digest, retries, flagged records).
#: Recorded before the stream-job layer was deleted, when the flagged
#: records that failed validation vanished: they are dead letters now,
#: so the dead-letter count is the sum of the first two counts.
FEED_PIN = {
    ("synthetic", "light-1"):
        ("604c4c951d9f9960", 4, 0, "01b94b8ebade9b97", 1, 0),
    ("synthetic", "light-2"):
        ("da7250da8187f78a", 7, 0, "818164e01be335af", 2, 0),
    ("synthetic", "light-3"):
        ("d303dea54637f385", 3, 0, "a92b477441663545", 4, 0),
    ("synthetic", "moderate-1"):
        ("c731e4b90c509f22", 8, 0, "9b644218bb14c8b5", 3, 0),
    ("synthetic", "moderate-2"):
        ("84fb541085c0a29b", 8, 0, "48e9c6395ab5463d", 5, 0),
    ("synthetic", "moderate-3"):
        ("7b1a6a42158a015a", 9, 0, "58c433eb777aaccf", 6, 0),
    ("synthetic", "heavy-1"):
        ("7e530bf1459c4e47", 19, 0, "3691fb9f017ee736", 11, 0),
    ("synthetic", "heavy-2"):
        ("6d593a7301b3cf23", 25, 0, "87553600666adbd2", 18, 0),
    ("synthetic", "heavy-3"):
        ("3359d673be996419", 10, 0, "cbcd287595457af7", 18, 0),
    ("synthetic", "p1"):
        ("7c7c38667a4db2b4", 19, 78, "d406334c06818d31", 57, 281),
    ("synthetic", "p2"):
        ("784d79dee09ead08", 61, 0, "6e9022f929280af8", 226, 208),
    ("synthetic", "p3"):
        ("828588fdb5cbe6ff", 149, 17, "a3f28a4c0e9bde5f", 515, 80),
    ("synthetic", "p4"):
        ("fe1de45a4b9e1466", 19, 34, "331fe532b0c4861e", 54, 264),
    ("synthetic", "p5"):
        ("cb78c4a8c18da26f", 85, 27, "195563b176d2f3a4", 290, 140),
    ("synthetic", "p6"):
        ("96d9755f5d9652d2", 19, 0, "ce822d96a2b79d76", 57, 281),
    ("tiny_study", "light-1"):
        ("2f2cc9227dcaf9e1", 3, 0, "1cddd6af7187cf0e", 0, 0),
    ("tiny_study", "light-2"):
        ("ad0870e0146f5137", 2, 0, "471a8ceb6ee85536", 2, 0),
    ("tiny_study", "light-3"):
        ("494df6328f0abed3", 1, 0, "0392a1f6de31dec5", 2, 0),
    ("tiny_study", "moderate-1"):
        ("484a6a3d7808edf1", 4, 0, "82d559df4abfb4c6", 1, 0),
    ("tiny_study", "moderate-2"):
        ("64e062f27827cc40", 3, 0, "44c5da7302382b7e", 4, 0),
    ("tiny_study", "moderate-3"):
        ("0f32e08e0c4b4a4d", 2, 0, "a93c8aa0439bd4fc", 2, 0),
    ("tiny_study", "heavy-1"):
        ("bd258568eec4f599", 7, 0, "6415161e2976d21f", 4, 0),
    ("tiny_study", "heavy-2"):
        ("69cafbfcb5ca8e4c", 5, 0, "97c026acba2598e4", 11, 0),
    ("tiny_study", "heavy-3"):
        ("7e91fdfd2a89533f", 3, 0, "f14991e54fd807af", 8, 0),
    ("tiny_study", "p1"):
        ("acd91a5b90672df8", 9, 25, "429daf622b890dcc", 27, 90),
    ("tiny_study", "p2"):
        ("a7a796446a87d1d5", 27, 0, "45b975839621b4cd", 96, 58),
    ("tiny_study", "p3"):
        ("2877c6130cdf8b93", 65, 0, "93dd984cacebd689", 233, 0),
    ("tiny_study", "p4"):
        ("29a4b02e99415131", 9, 10, "10a81dd6e669307d", 24, 73),
    ("tiny_study", "p5"):
        ("fc85de30ba7bb3eb", 33, 7, "527afc1da2cb7376", 97, 40),
    ("tiny_study", "p6"):
        ("9d01797867321115", 9, 0, "ac8ed70741445aa4", 27, 90),
}


class TestFeedPin:
    """``harden_feed`` on fixed feeds, pinned to the recorded outcome."""

    @pytest.fixture(scope="class")
    def feeds(self, tiny_study):
        return {"synthetic": attacks(300),
                "tiny_study": list(tiny_study.feed.attacks)}

    @pytest.mark.parametrize("key", sorted(FEED_PIN),
                             ids=lambda key: "-".join(key))
    def test_matches_pin(self, feeds, key):
        feed_name, config_name = key
        survivors_digest, dead, flagged_invalid, log_digest, retries, \
            flagged = FEED_PIN[key]
        config = PIN_CONFIGS[config_name]
        feed = feeds[feed_name]
        injector = FaultInjector(config)
        survivors = injector.harden_feed(feed)
        n_faulted = len(FaultInjector(config).wrap_feed(feed))
        assert _digest(survivors) == survivors_digest
        assert _digest(injector.events) == log_digest
        assert len(injector.dead_letters) == dead + flagged_invalid
        assert n_faulted == len(survivors) + len(injector.dead_letters)
        assert sum(letter.reason.startswith("breaker open: ")
                   for letter in injector.dead_letters) == flagged_invalid
        assert f"flagged={flagged} retries={retries}" in injector.summary()
