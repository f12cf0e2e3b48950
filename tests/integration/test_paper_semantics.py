"""Cross-cutting tests that pin paper-specific semantics.

These encode interpretation decisions that would be easy to regress
silently: which events the §6.3 threshold admits, how aftermath windows
shape the measurement, and what the analyses may and may not consume.
"""

from repro.core.events import EVENT_MIN_DOMAINS
from repro.util.timeutil import DAY


class TestEventSemantics:
    def test_milru_is_case_study_not_event(self):
        """The paper's mil.ru NSSet hosts 3 domains: a §5 case study but
        below the 5-domain §6 event threshold."""
        from repro import WorldConfig, run_study

        study = run_study(WorldConfig(
            seed=11, start="2022-03-01", end_exclusive="2022-04-01",
            n_domains=1200, n_selfhosted_providers=10,
            n_filler_providers=8, attacks_per_month=100))
        milru = study.world.directory.get_by_name("mil.ru")
        event_nssets = {e.nsset_id for e in study.events}
        assert milru.nsset_id not in event_nssets
        # But the attack itself is in the feed and the join.
        mod_ips = set(study.world.providers["Russian MoD"].ns_ips)
        joined = [c for c in study.join.dns_direct_attacks
                  if c.victim_ip in mod_ips]
        assert joined

    def test_events_use_attack_window_not_impact_window(self, tiny_study):
        for event in tiny_study.events:
            assert event.series.window.start == event.attack.start
            assert event.series.window.end == event.attack.end

    def test_event_threshold_counts_domains_not_queries(self, tiny_study):
        # An NSSet with fewer than 5 hosted domains can never be an
        # event, no matter how many measurements oversampling yields.
        for event in tiny_study.events:
            assert event.info.n_domains >= EVENT_MIN_DOMAINS


class TestAftermathSemantics:
    def test_dense_days_cover_aftermath(self, tiny_world):
        """December-style aftermath extends the dense recording window,
        not the telescope-visible attack."""
        transip = tiny_world.providers["TransIP"]
        ip = transip.nameservers[0].ip
        attacks = [a for a in tiny_world.attacks if a.victim_ip == ip]
        for attack in attacks:
            if attack.impairment.aftermath_s:
                aftermath_day = (attack.window.end
                                 + attack.impairment.aftermath_s) // DAY * DAY
                for nsset_id in tiny_world.directory.nssets_of_ip(ip):
                    if tiny_world.dense_days_of(nsset_id):
                        assert aftermath_day in \
                            tiny_world.dense_days_of(nsset_id)

    def test_aftermath_invisible_to_telescope(self, tiny_study):
        """Backscatter stops at the attack end even when the impact
        (aftermath) continues — the December TransIP signature."""
        transip_ips = set(tiny_study.world.providers["TransIP"].ns_ips)
        for attack in tiny_study.world.attacks:
            if attack.victim_ip not in transip_ips:
                continue
            if not attack.impairment.aftermath_s:
                continue
            inferred = [a for a in tiny_study.feed.attacks
                        if a.victim_ip == attack.victim_ip
                        and a.start < attack.window.end
                        and attack.window.start < a.end]
            for match in inferred:
                # The inferred end may be quantized up one window but
                # never extends into the aftermath.
                assert match.end <= attack.window.end + 600


class TestAnalysisPurity:
    def test_join_uses_only_datasets(self, tiny_study):
        """The join is reconstructible from the feed + directory alone
        (no world access)."""
        from repro.core.join import join_datasets

        rebuilt = join_datasets(tiny_study.feed.attacks,
                                tiny_study.world.directory,
                                tiny_study.open_resolvers)
        assert len(rebuilt) == len(tiny_study.join)
        assert ([c.klass for c in rebuilt.classified]
                == [c.klass for c in tiny_study.join.classified])

    def test_nsset_metadata_census_driven(self, tiny_study):
        """Anycast labels come from the (lower-bound) census, not from
        ground truth: a census-missed anycast /24 must degrade the
        label, never upgrade it."""
        truth_anycast = tiny_study.world.anycast_ips()
        for nsset_id, ips in tiny_study.world.directory.nssets.items():
            info = tiny_study.metadata.info(
                nsset_id, tiny_study.world.timeline.start)
            if info.anycast_label == "anycast":
                assert all(ip in truth_anycast or
                           tiny_study.world.nameservers_by_ip[ip].is_misconfig_target
                           for ip in ips if ip in tiny_study.world.nameservers_by_ip)

    def test_feed_never_contains_invisible_attacks(self, tiny_study):
        invisible_victims = {
            a.victim_ip for a in tiny_study.world.attacks
            if not a.telescope_visible}
        visible_victims = {
            a.victim_ip for a in tiny_study.world.attacks
            if a.telescope_visible}
        only_invisible = invisible_victims - visible_victims
        feed_victims = {a.victim_ip for a in tiny_study.feed.attacks}
        assert not (feed_victims & only_invisible)
