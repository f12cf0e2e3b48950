"""Tests for deterministic phase fingerprints and key chaining."""

import dataclasses
import json

import pytest

from repro.artifacts import fingerprint
from repro.artifacts.fingerprint import (PHASES, canonical_config,
                                         config_fingerprint, phase_key,
                                         study_keys)
from repro.world.config import WorldConfig


class TestCanonicalConfig:
    def test_is_valid_json_with_class_names(self):
        doc = json.loads(canonical_config(WorldConfig.tiny()))
        assert doc["config"]["__class__"] == "WorldConfig"
        assert set(doc["config"]) == {"__class__"} | {
            f.name for f in dataclasses.fields(WorldConfig)}
        assert doc["install_scenarios"] is True

    def test_identical_configs_canonicalize_identically(self):
        assert canonical_config(WorldConfig.tiny()) == \
            canonical_config(WorldConfig.tiny())

    def test_rejects_unserializable_values(self):
        with pytest.raises(TypeError):
            fingerprint._canonical(object())


class TestConfigFingerprint:
    def test_deterministic(self):
        assert config_fingerprint(WorldConfig.tiny()) == \
            config_fingerprint(WorldConfig.tiny())

    def test_seed_changes_fingerprint(self):
        assert config_fingerprint(WorldConfig.tiny(seed=1)) != \
            config_fingerprint(WorldConfig.tiny(seed=2))

    def test_install_scenarios_changes_fingerprint(self):
        cfg = WorldConfig.tiny()
        assert config_fingerprint(cfg, install_scenarios=True) != \
            config_fingerprint(cfg, install_scenarios=False)


class TestStudyKeys:
    def test_covers_every_phase_with_distinct_keys(self):
        keys = study_keys(WorldConfig.tiny())
        assert set(keys) == set(PHASES)
        assert len(set(keys.values())) == len(PHASES)

    def test_deterministic_across_calls(self):
        assert study_keys(WorldConfig.tiny()) == study_keys(WorldConfig.tiny())

    def test_config_change_invalidates_every_phase(self):
        a = study_keys(WorldConfig.tiny(seed=1))
        b = study_keys(WorldConfig.tiny(seed=2))
        for phase in PHASES:
            assert a[phase] != b[phase]

    def test_upstream_key_chains_into_downstream(self):
        base = config_fingerprint(WorldConfig.tiny())
        join_a = phase_key("join", base, upstream=("tele-a",))
        join_b = phase_key("join", base, upstream=("tele-b",))
        assert join_a != join_b

    def test_schema_version_bump_invalidates_phase_and_downstream(
            self, monkeypatch):
        cfg = WorldConfig.tiny()
        before = study_keys(cfg)
        monkeypatch.setitem(fingerprint.SCHEMA_VERSIONS, "telescope", 99)
        after = study_keys(cfg)
        assert after["telescope"] != before["telescope"]
        # join chains telescope; events chains join.
        assert after["join"] != before["join"]
        assert after["events"] != before["events"]
        # crawl does not consume the telescope: unaffected.
        assert after["crawl"] == before["crawl"]

    def test_keys_are_sha256_hex(self):
        for key in study_keys(WorldConfig.tiny()).values():
            assert len(key) == 64
            int(key, 16)  # parses as hex


class TestScenarioPackFingerprint:
    """Pack identity + params are part of every fingerprint."""

    def test_pack_name_changes_config_fingerprint(self):
        base = WorldConfig.tiny()
        amplified = dataclasses.replace(base, scenario_pack="amplification")
        assert config_fingerprint(base) != config_fingerprint(amplified)

    def test_pack_params_change_config_fingerprint(self):
        from repro.attacks.amplification import AmplificationParams

        a = dataclasses.replace(WorldConfig.tiny(),
                                scenario_pack="amplification")
        b = dataclasses.replace(a,
                                pack_params=AmplificationParams(n_attacks=9))
        assert config_fingerprint(a) != config_fingerprint(b)

    def test_pack_selection_invalidates_every_phase_key(self):
        base = study_keys(WorldConfig.tiny())
        packed = study_keys(dataclasses.replace(
            WorldConfig.tiny(), scenario_pack="defense"))
        for phase in PHASES:
            assert base[phase] != packed[phase]

    def test_canonical_config_carries_the_pack(self):
        doc = json.loads(canonical_config(WorldConfig.tiny()))
        assert doc["config"]["scenario_pack"] == "volumetric"
        assert doc["config"]["pack_params"] is None


class TestAttackDigestRegression:
    """The satellite contract: attack digests track every scenario and
    vector field — amplification fields included — while untouched days
    keep byte-identical keys after a pack edit."""

    @staticmethod
    def _amplified(start: int, victim: int = 0x0A000001, **overrides):
        from repro.attacks.model import (AmplificationProfile, Attack,
                                         AttackVector, Spoofing)
        from repro.net.ports import PORT_DNS, PROTO_UDP
        from repro.util.timeutil import Window

        fields = dict(n_amplifiers=5_000, mean_baf=30.0,
                      query_pps=20_000.0, list_darknet_share=0.004,
                      qtype="ANY")
        fields.update(overrides)
        return Attack(
            victim_ip=victim, window=Window(start, start + 1_800),
            vectors=[AttackVector(PROTO_UDP, (PORT_DNS,), 40_000.0,
                                  Spoofing.AMPLIFIED, 1024)],
            amplification=AmplificationProfile(**fields))

    def test_canonical_attack_includes_amplification_fields(self):
        row = fingerprint.canonical_attack(self._amplified(0))
        assert row[-1] == [5_000, 30.0, 20_000.0, 0.004, "ANY"]
        from repro.attacks.model import Attack, AttackVector
        from repro.net.ports import PORT_DNS
        from repro.util.timeutil import Window

        plain = Attack(victim_ip=1, window=Window(0, 600),
                       vectors=[AttackVector.udp_flood(PORT_DNS, 100.0)])
        assert fingerprint.canonical_attack(plain)[-1] is None

    @pytest.mark.parametrize("overrides", [
        {"n_amplifiers": 6_000},
        {"mean_baf": 31.0},
        {"query_pps": 21_000.0},
        {"list_darknet_share": 0.005},
        {"qtype": "TXT"},
    ])
    def test_every_amplification_field_changes_the_digest(self, overrides):
        base = fingerprint._attack_digest([self._amplified(0)])
        edited = fingerprint._attack_digest(
            [self._amplified(0, **overrides)])
        assert base != edited

    def test_day_keys_change_only_on_the_touched_day(self):
        from repro.artifacts.fingerprint import day_keys
        from repro.util.timeutil import DAY, parse_ts

        config = WorldConfig.tiny()
        day0 = parse_ts(config.start)
        edit_day = day0 + 10 * DAY
        schedule = [self._amplified(day0 + 2 * DAY + 3600),
                    self._amplified(edit_day + 3600, victim=0x0A000002)]
        before = day_keys(config, schedule)
        edited = list(schedule)
        edited[1] = self._amplified(edit_day + 3600, victim=0x0A000002,
                                    mean_baf=55.0)
        after = day_keys(config, edited)
        changed = {day for day in before if before[day] != after[day]}
        assert changed  # the pack edit reached the keys
        for day in changed:
            # Only the edited day's neighbourhood moved (crawl bleeds
            # one settling day past the impact window).
            assert edit_day - DAY <= day <= edit_day + 2 * DAY
        untouched = set(before) - changed
        assert untouched
        for day in untouched:
            assert before[day] == after[day]  # byte-identical blobs
