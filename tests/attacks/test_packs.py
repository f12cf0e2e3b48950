"""Tests for the scenario-pack plugin layer (registry + pack hooks)."""

import dataclasses

import pytest

from repro import WorldConfig, build_world
from repro.attacks.amplification import (
    AmplificationPack,
    AmplificationParams,
)
from repro.attacks.model import Spoofing
from repro.attacks.packs import (
    DEFAULT_PACK,
    ScenarioPack,
    UnknownPackError,
    VolumetricPack,
    available_packs,
    get_pack,
    validate_pack_name,
)
from repro.attacks.wartime import (
    GAP_DAYS,
    INTENSITY_PPS,
    N_EXTRA_ORGS,
    N_WAVES,
    REFLECTED_SHARE,
    WAVE_DAYS,
    WartimeParams,
)


class TestRegistry:
    def test_builtins_are_available(self):
        names = available_packs()
        assert {"volumetric", "amplification", "wartime",
                "defense"} <= set(names)
        assert names == sorted(names)

    def test_default_pack_is_volumetric(self):
        assert DEFAULT_PACK == "volumetric"
        assert isinstance(get_pack(DEFAULT_PACK), VolumetricPack)

    def test_get_pack_lazily_resolves_builtins(self):
        pack = get_pack("amplification")
        assert pack.name == "amplification"
        assert isinstance(pack.params, AmplificationParams)

    def test_unknown_name_raises_with_listing(self):
        with pytest.raises(UnknownPackError) as exc:
            get_pack("slowloris")
        message = str(exc.value)
        assert "unknown scenario pack 'slowloris'" in message
        for name in available_packs():
            assert name in message

    def test_validate_pack_name_accepts_builtins_without_import(self):
        for name in ("volumetric", "amplification", "wartime", "defense"):
            assert validate_pack_name(name) == name
        with pytest.raises(UnknownPackError):
            validate_pack_name("nope")

    def test_every_registry_row_names_its_own_pack(self):
        from repro.attacks.packs import _BUILTIN

        for name in _BUILTIN:
            pack = get_pack(name)
            assert isinstance(pack, ScenarioPack)
            assert pack.name == name

    def test_params_override(self):
        params = AmplificationParams(n_attacks=2)
        pack = get_pack("amplification", params)
        assert pack.params is params


class TestWorldConfigIntegration:
    def test_config_carries_pack_name(self):
        config = WorldConfig.tiny()
        assert config.scenario_pack == "volumetric"
        assert config.pack_params is None

    def test_config_rejects_unknown_pack(self):
        with pytest.raises(UnknownPackError):
            dataclasses.replace(WorldConfig.tiny(), scenario_pack="nope")

    def test_build_world_attaches_the_pack(self, tiny_world):
        assert isinstance(tiny_world.pack, VolumetricPack)

    def test_pack_rng_isolation(self, tiny_config, tiny_world):
        """Selecting a pack must not perturb the background schedule:
        packs draw only from their own ``pack:<name>`` streams."""
        config = dataclasses.replace(
            tiny_config, scenario_pack="amplification",
            pack_params=AmplificationParams(n_attacks=3))
        world = build_world(config)
        amplified = [a for a in world.attacks if a.amplification is not None]
        background = [a for a in world.attacks if a.amplification is None]
        assert len(amplified) == 3
        assert len(background) == len(tiny_world.attacks)
        for ours, theirs in zip(background, tiny_world.attacks):
            assert ours.victim_ip == theirs.victim_ip
            assert ours.window == theirs.window
            assert ours.total_pps == theirs.total_pps


class TestVolumetricPack:
    def test_every_hook_is_a_noop(self, tiny_world):
        pack = VolumetricPack()
        assert pack.generate_attacks(tiny_world) == []
        assert pack.observe_darknet(tiny_world, tiny_world.attacks) is None
        assert pack.has_counterfactuals is False
        assert pack.counterfactuals(tiny_world, []) is None
        assert pack.reflector_queries is False


class TestAmplificationPack:
    def test_signature_declares_reflector_queries(self):
        assert get_pack("amplification").reflector_queries is True

    def test_response_vector_math(self):
        # BAF 32 * 64 B = 2048 B -> 2 fragments of 1024 B.
        vector = AmplificationPack._response_vector(10_000.0, 32.0)
        assert vector.spoofing is Spoofing.AMPLIFIED
        assert vector.pps == 20_000.0
        assert vector.packet_bytes == 1024
        # A small response stays one packet at its full size.
        small = AmplificationPack._response_vector(10_000.0, 4.0)
        assert small.pps == 10_000.0
        assert small.packet_bytes == 256

    def test_generated_attacks_are_reflector_visible_only(self, tiny_config):
        config = dataclasses.replace(
            tiny_config, scenario_pack="amplification")
        world = build_world(config)
        amplified = [a for a in world.attacks if a.amplification is not None]
        assert len(amplified) == AmplificationParams().n_attacks
        for attack in amplified:
            assert attack.reflector_visible
            assert not attack.telescope_visible  # no backscatter
            assert attack.victim_ip in world.nameservers_by_ip

    def test_params_validation(self):
        with pytest.raises(ValueError):
            AmplificationParams(n_attacks=-1)


class TestWartimePack:
    @pytest.fixture(scope="class")
    def wartime_world(self, tiny_config):
        return build_world(dataclasses.replace(
            tiny_config, scenario_pack="wartime",
            pack_params=WartimeParams(start_day=2)))

    def test_enrichment_orgs_installed(self, wartime_world):
        sector_providers = [
            prov for prov in wartime_world.providers.values()
            if prov.org is not None and prov.org.name.startswith("RU ")]
        assert len(sector_providers) == N_EXTRA_ORGS
        for prov in sector_providers:
            assert prov.org.country == "RU"
            assert prov.nameservers

    def test_waves_hit_every_target_country_org(self, wartime_world):
        pack = wartime_world.pack
        providers = pack._target_providers(wartime_world)
        target_ips = {ns.ip for prov in providers
                      for ns in prov.nameservers}
        # Scripted RU providers (mil.ru, RZD) join the enrichment orgs.
        names = {prov.name for prov in providers}
        assert "Russian MoD" in names and "RZD" in names
        wave_attacks = [a for a in wartime_world.attacks
                        if a.victim_ip in target_ips]
        assert wave_attacks
        hit_orgs = {wartime_world.nameservers_by_ip[a.victim_ip]
                    .provider_name for a in wave_attacks}
        assert len(hit_orgs) >= N_EXTRA_ORGS

    def test_spoofing_mix_includes_invisible_attacks(self, wartime_world):
        pack = wartime_world.pack
        providers = pack._target_providers(wartime_world)
        target_ips = {ns.ip for prov in providers
                      for ns in prov.nameservers}
        hits = [a for a in wartime_world.attacks
                if a.victim_ip in target_ips]
        visible = [a for a in hits if a.telescope_visible]
        assert 0 < len(visible) < len(hits)

    def test_params_validation(self):
        # The schedule needs a wave, and the spoofing mix a share.
        assert N_WAVES >= 1 and WAVE_DAYS >= 1 and GAP_DAYS >= 0
        assert INTENSITY_PPS > 0 and 0 <= REFLECTED_SHARE <= 1


class TestDefensePack:
    def test_declares_counterfactuals(self):
        pack = get_pack("defense")
        assert pack.has_counterfactuals is True
        assert pack.generate_attacks(None) == []

    def test_schedule_untouched(self, tiny_config, tiny_world):
        config = dataclasses.replace(tiny_config, scenario_pack="defense")
        world = build_world(config)
        assert len(world.attacks) == len(tiny_world.attacks)
        assert [a.victim_ip for a in world.attacks] == \
            [a.victim_ip for a in tiny_world.attacks]

