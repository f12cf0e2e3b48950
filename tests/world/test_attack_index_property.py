"""Property tests: AttackIndex lookups and the per-NSSet busy spans
and dense days vs a brute-force oracle."""

from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from repro.attacks.model import Attack, AttackVector, ImpairmentProfile
from repro.net.ip import slash24_of
from repro.util.timeutil import DAY, Window, day_start
from repro.world import WorldConfig, build_world
from repro.world.simulation import AttackIndex

VICTIMS = st.integers(min_value=0x0A000000, max_value=0x0A0003FF)
STARTS = st.integers(min_value=0, max_value=10 ** 6)
DURATIONS = st.integers(min_value=60, max_value=100_000)
AFTERMATHS = st.integers(min_value=0, max_value=50_000)

ATTACK = st.builds(
    lambda victim, start, duration, aftermath: Attack(
        victim_ip=victim,
        window=Window(start, start + duration),
        vectors=[AttackVector.udp_flood(53, 100.0)],
        impairment=ImpairmentProfile(
            aftermath_s=aftermath,
            aftermath_load=0.5 if aftermath else 0.0)),
    VICTIMS, STARTS, DURATIONS, AFTERMATHS)


def brute_force_active(attacks, ip, ts):
    return sorted(
        (id(a) for a in attacks
         if a.victim_ip == ip and a.impact_window.contains(ts)))


@settings(max_examples=50, deadline=None)
@given(st.lists(ATTACK, max_size=25),
       st.lists(st.tuples(VICTIMS, STARTS), min_size=1, max_size=20))
def test_active_on_ip_matches_brute_force(attacks, queries):
    index = AttackIndex(tracked_s24s=())
    for attack in attacks:
        index.add(attack)
    index.freeze()
    for ip, ts in queries:
        got = sorted(id(a) for a in index.active_on_ip(ip, ts))
        assert got == brute_force_active(attacks, ip, ts)


@pytest.fixture(scope="module")
def span_world():
    """A private tiny world whose schedule each example replaces."""
    return build_world(WorldConfig.tiny())


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_day_index_covers_impact_windows(span_world, data):
    world = span_world
    ips = sorted({ip for _, members in world.directory.nssets.items()
                  for ip in members})
    # Members and their /24 neighbours (not always nameservers).
    victims = st.builds(lambda ip, flip: ip ^ flip,
                        st.sampled_from(ips), st.sampled_from((0, 1)))
    offsets = st.integers(min_value=0, max_value=31 * DAY)
    attacks = data.draw(st.lists(st.builds(
        lambda victim, start, duration, aftermath: Attack(
            victim_ip=victim,
            window=Window(start, start + duration),
            vectors=[AttackVector.udp_flood(53, 100.0)],
            impairment=ImpairmentProfile(
                aftermath_s=aftermath,
                aftermath_load=0.5 if aftermath else 0.0)),
        victims, offsets.map(lambda o: world.timeline.start + o),
        DURATIONS, AFTERMATHS), max_size=25))
    world.replace_attacks(attacks)

    tracked = {slash24_of(ip) for ip in world.nameservers_by_ip}
    for nsset_id, members in world.directory.nssets.items():
        s24s = {slash24_of(ip) for ip in members} & tracked
        near = [a.impact_window for a in attacks
                if a.victim_ip in members or a.victim_slash24 in s24s]
        # Every near attack's days, plus a recovery day, are dense.
        days = set()
        for window in near:
            day = day_start(window.start)
            while day <= day_start(window.end) + DAY:
                days.add(day)
                day += DAY
        assert world.dense_days_of(nsset_id) == days
        # The spans are the merged union of the near impact windows.
        bounds = world.busy_spans_of(nsset_id)
        assert len(bounds) % 2 == 0
        assert all(bounds[i] < bounds[i + 1]
                   for i in range(1, len(bounds) - 1, 2))
        assert all(bounds[i] <= bounds[i + 1]
                   for i in range(0, len(bounds), 2))
        for window in near:
            for ts in (window.start - 1, window.start, window.end - 1,
                       window.end):
                assert (bisect_right(bounds, ts) % 2 == 1) == any(
                    w.contains(ts) for w in near)


@settings(max_examples=30, deadline=None)
@given(st.lists(ATTACK, max_size=20), VICTIMS, STARTS)
def test_active_on_s24_superset_of_ip(attacks, ip, ts):
    s24 = ip & 0xFFFFFF00
    index = AttackIndex(tracked_s24s={s24})
    for attack in attacks:
        index.add(attack)
    index.freeze()
    on_ip = {id(a) for a in index.active_on_ip(ip, ts)}
    on_s24 = {id(a) for a in index.active_on_s24(s24, ts)}
    assert on_ip <= on_s24
