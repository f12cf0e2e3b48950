"""Ablation: the previous-day nameserver view in the join (§4.2).

The paper joins RSDoS victims against the nameservers observed the day
BEFORE the attack "to minimize the chance of missing a nameserver that
is unreachable due to an attack". This bench quantifies the alternative:
joining against only the nameservers *successfully measured during* the
attack loses exactly the hard-hit (unreachable) nameservers.
"""

from repro.util.tables import Table


def regenerate(study):
    # Per attacked nameserver, look at what its NSSets measured during
    # the attack window: the previous-day view keeps a victim whenever
    # its domains were measured at all; the same-day view keeps it only
    # if a measurement SUCCEEDED — which is exactly what an attack that
    # knocks the deployment out prevents.
    prevday = set()
    sameday = set()
    fail_rate = {}
    for classified in study.join.dns_direct_attacks:
        attack = classified.attack
        measured = ok = 0
        for nsset_id in classified.nsset_ids:
            for _, agg in study.store.buckets_in(nsset_id, attack.start,
                                                 attack.end):
                measured += agg.n
                ok += agg.ok_n
        if measured == 0:
            continue
        prevday.add(classified.victim_ip)
        if ok > 0:
            sameday.add(classified.victim_ip)
        rate = 1.0 - ok / measured
        fail_rate[classified.victim_ip] = max(
            fail_rate.get(classified.victim_ip, 0.0), rate)

    lost = prevday - sameday
    lost_hard_hit = {ip for ip in lost if fail_rate[ip] > 0.5}
    return prevday, sameday, lost, lost_hard_hit


def test_ablation_join_day(benchmark, study, emit):
    prevday, sameday, lost, lost_hard_hit = benchmark.pedantic(
        regenerate, args=(study,), rounds=1, iterations=1)

    table = Table(["join view", "attacked nameservers found"],
                  title="Ablation - previous-day vs same-day nameserver "
                        "view in the join (§4.2)")
    table.add_row(["previous-day (paper's choice)", len(prevday)])
    table.add_row(["same-day successful-measurement view", len(sameday)])
    table.add_row(["lost by same-day view", len(lost)])
    table.add_row(["...of which hard-hit (>50% failure)", len(lost_hard_hit)])
    table.caption = ("the same-day view loses exactly the nameservers an "
                     "effective attack made unreachable — the paper's "
                     "rationale for the previous-day join")
    emit("ablation_join_day", table.render())

    assert sameday <= prevday
    # The same-day view loses victims, and the lost ones skew hard-hit.
    assert lost
    assert lost_hard_hit
