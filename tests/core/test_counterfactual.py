"""Tests for the layered-defense counterfactual machinery."""

import pytest

from repro.core.counterfactual import (
    DEFAULT_LAYERS,
    AttackDelta,
    DefenseReport,
    MitigationLayer,
    NEUTRALIZED_IMPACT,
    _impact_of,
    evaluate_defenses,
)


class TestMitigationLayer:
    def test_validation(self):
        with pytest.raises(ValueError):
            MitigationLayer("")
        with pytest.raises(ValueError):
            MitigationLayer("x", filter_efficiency=1.5)
        with pytest.raises(ValueError):
            MitigationLayer("x", capacity_factor=0.0)
        with pytest.raises(ValueError):
            MitigationLayer("x", anycast_sites=-1)

    def test_effective_capacity_composes_surge_and_scaleout(self):
        layer = MitigationLayer("both", capacity_factor=3.0,
                                anycast_sites=6)
        assert layer.effective_capacity_factor == 21.0
        assert MitigationLayer("plain").effective_capacity_factor == 1.0

    def test_default_stack_ends_with_the_layered_combo(self):
        names = [layer.name for layer in DEFAULT_LAYERS]
        assert names == ["filtering", "capacity-surge",
                         "anycast-scaleout", "layered"]
        layered = DEFAULT_LAYERS[-1]
        assert layered.filter_efficiency > 0
        assert layered.capacity_factor > 1
        assert layered.anycast_sites > 0


class TestImpactMath:
    @pytest.fixture(scope="class")
    def victim(self, tiny_world):
        for attack in tiny_world.attacks:
            ns = tiny_world.nameservers_by_ip.get(attack.victim_ip)
            if ns is None or ns.is_misconfig_target or ns.anycast:
                continue
            if _impact_of(tiny_world, ns, attack, None) > 2.0:
                return ns, attack
        pytest.skip("tiny world produced no harmful unicast attack")

    def test_every_layer_reduces_impact(self, tiny_world, victim):
        ns, attack = victim
        baseline = _impact_of(tiny_world, ns, attack, None)
        for layer in DEFAULT_LAYERS:
            assert _impact_of(tiny_world, ns, attack, layer) <= baseline

    def test_layered_combo_dominates_single_levers(self, tiny_world,
                                                   victim):
        ns, attack = victim
        impacts = {layer.name: _impact_of(tiny_world, ns, attack, layer)
                   for layer in DEFAULT_LAYERS}
        assert impacts["layered"] <= min(
            impacts["filtering"], impacts["capacity-surge"],
            impacts["anycast-scaleout"])

    def test_impact_floor_is_one(self, tiny_world, victim):
        ns, attack = victim
        total = MitigationLayer("absorb", filter_efficiency=1.0)
        assert _impact_of(tiny_world, ns, attack, total) == 1.0


class TestEvaluateDefenses:
    @pytest.fixture(scope="class")
    def report(self, tiny_world):
        return evaluate_defenses(tiny_world)

    def test_covers_unicast_nameserver_attacks_only(self, tiny_world,
                                                    report):
        assert report.n_attacks > 0
        for row in report.rows:
            ns = tiny_world.nameservers_by_ip[row.victim_ip]
            assert ns.anycast is None
            assert not ns.is_misconfig_target
            assert set(row.impacts) == {l.name for l in report.layers}

    def test_report_statistics(self, report):
        harmful = report.harmful_rows()
        for row in harmful:
            assert row.baseline_impact > NEUTRALIZED_IMPACT
        if not harmful:
            pytest.skip("no harmful attacks in the tiny world")
        assert report.mean_impact() >= report.mean_impact("layered")
        assert report.mean_delta("layered") >= \
            report.mean_delta("filtering") - 1e-9
        assert 0.0 <= report.neutralized_share("layered") <= 1.0
        assert report.best_layer() in {l.name for l in report.layers}

    def test_empty_report_degrades_gracefully(self):
        report = DefenseReport(layers=DEFAULT_LAYERS, rows=[])
        assert report.mean_impact() == 1.0
        assert report.mean_delta("layered") == 0.0
        assert report.neutralized_share("layered") == 0.0

    def test_attack_delta_accessors(self):
        row = AttackDelta(attack_id=1, victim_ip=2,
                          baseline_impact=50.0,
                          impacts={"layered": 1.0, "filtering": 20.0})
        assert row.delta("layered") == 49.0
        assert row.neutralized("layered")
        assert not row.neutralized("filtering")
