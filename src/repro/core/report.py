"""Textual study report: every table and key takeaway in one document."""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.core.correlation import duration_impact_buckets
from repro.core.events import EVENT_MIN_DOMAINS
from repro.core.resilience import complete_failure_prefix_shares
from repro.core.topasn import top_attacked_asns, top_attacked_ips
from repro.net.ports import PORT_DNS, PORT_HTTP, PORT_HTTPS, PROTO_ICMP, PROTO_TCP, PROTO_UDP
from repro.util.tables import Table, format_count, format_pct

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pipeline import Study


def render_report(study: "Study") -> str:
    """Render the full study report as plain text."""
    sections = [
        _header(study),
        _monthly_table(study),
        _ports_section(study),
        _failure_section(study),
        _impact_section(study),
        _correlation_section(study),
        _resilience_section(study),
        _top_targets_section(study),
        _visibility_section(study),
    ]
    # The scenario pack's extra section appears only when the pack has
    # one (the default volumetric pack returns None), so default-path
    # reports stay byte-identical to the pre-pack pipeline.
    section = study.pack.report_section(study)
    if section:
        sections.append(section)
    return "\n\n".join(sections)


def _header(study: "Study") -> str:
    config = study.config
    lines = [
        "DDoS impact on DNS infrastructure - study report",
        "=" * 48,
        f"window     : {config.start} .. {config.end_exclusive} (exclusive)",
        f"domains    : {format_count(len(study.world.directory))}",
        f"attacks    : {format_count(len(study.feed.attacks))} inferred "
        f"(of {format_count(len(study.world.attacks))} ground truth)",
        f"events     : {format_count(len(study.events))} "
        f"(NSSets with >= {EVENT_MIN_DOMAINS} measured domains)",
        f"measurements: {format_count(study.store.n_measurements)}",
    ]
    # Chaos/degradation flags appear only when they apply, so a clean
    # run's report is unchanged — and a zero-probability chaos run stays
    # byte-identical to a clean one — but a faulted run is visibly marked.
    if study.chaos is not None and (study.chaos.events
                                    or study.chaos.dead_letters):
        injector = study.chaos
        lines.append(
            f"chaos      : {len(injector.events)} faults injected "
            f"(seed {injector.config.seed}, "
            f"{len(injector.dead_letters)} feed records dead-lettered)")
    if study.degraded:
        lines.append(
            f"degraded   : YES - {len(study.degraded_events)}/"
            f"{len(study.events)} events degraded, "
            f"{len(study.join.rejected)} join rejects, "
            f"{study.store.n_rejected} store rejects")
    return "\n".join(lines)


def _monthly_table(study: "Study") -> str:
    table = Table(["month", "#DNS attacks", "#other", "total",
                   "DNS IPs", "other IPs", "unique IPs"],
                  title="Monthly attack activity (Table 3)")
    for row in study.monthly.rows:
        table.add_row([
            f"{row.year}-{row.month:02d}",
            f"{row.dns_attacks} ({format_pct(row.dns_attack_share)})",
            row.other_attacks, row.total_attacks,
            f"{len(row.dns_ips)} ({format_pct(row.dns_ip_share)})",
            len(row.other_ips), row.total_ips])
    summary = study.monthly
    lo, hi = summary.dns_share_range()
    table.caption = (f"total: {format_count(summary.total_attacks)} attacks, "
                     f"DNS share {format_pct(summary.dns_attack_share)} "
                     f"(monthly {format_pct(lo)}..{format_pct(hi)})")
    return table.render()


def _ports_section(study: "Study") -> str:
    ports = study.ports
    ok = study.successful_ports
    lines = [
        "Targeted services (Figure 6 / §6.2)",
        f"  single-port attacks : {format_pct(ports.single_port_share)} (paper 80.7%)",
        f"  TCP / UDP / ICMP    : {format_pct(ports.proto_share(PROTO_TCP))} / "
        f"{format_pct(ports.proto_share(PROTO_UDP))} / "
        f"{format_pct(ports.proto_share(PROTO_ICMP))} (paper 90.4/8.4/1.2%)",
        f"  TCP port 80 / 53    : "
        f"{format_pct(ports.port_share_within_proto(PROTO_TCP, PORT_HTTP))} / "
        f"{format_pct(ports.port_share_within_proto(PROTO_TCP, PORT_DNS))} "
        f"(paper 37/30%)",
        f"  UDP port 53         : "
        f"{format_pct(ports.port_share_within_proto(PROTO_UDP, PORT_DNS))} "
        f"(paper ~33%)",
    ]
    if ok.n_attacks:
        lines.append(
            f"  successful attacks  : port 53 {format_pct(ok.port_share(PORT_DNS))}, "
            f"port 80 {format_pct(ok.port_share(PORT_HTTP))}, "
            f"port 443 {format_pct(ok.port_share(PORT_HTTPS))} (paper 49/31/11%)")
    return "\n".join(lines)


def _failure_section(study: "Study") -> str:
    f = study.failures
    return "\n".join([
        "Resolution failures (Figure 7 / §6.3.1)",
        f"  events with failures : {f.n_failing_events}/{f.n_events} "
        f"({format_pct(f.failing_share)}; paper ~1%)",
        f"  failure split        : timeout {format_pct(f.timeout_share_of_failures)}, "
        f"servfail {format_pct(f.servfail_share_of_failures)} (paper 92/8%)",
        f"  failing on unicast   : {format_pct(f.unicast_share_of_failing)} (paper 99%)",
        f"  failing single-ASN   : {format_pct(f.single_asn_share_of_failing)} (paper 81%)",
        f"  failing single-/24   : {format_pct(f.single_prefix_share_of_failing)} (paper 60%)",
    ])


def _impact_section(study: "Study") -> str:
    imp = study.impact
    lines = [
        "RTT impact (Figure 8 / §6.3.2)",
        f"  events >=10x  : {imp.over_10x} "
        f"({format_pct(imp.over_10x_share)}; paper ~5%)",
        f"  of those >=100x: {imp.over_100x} "
        f"({format_pct(imp.over_100x_share_of_10x)}; paper ~1/3)",
    ]
    table = Table(["company", "impact"], title="Most affected companies (Table 6)")
    for company, impact in study.top_companies(10):
        table.add_row([company, f"{impact:.0f}x"])
    return "\n".join(lines) + "\n\n" + table.render()


def _correlation_section(study: "Study") -> str:
    corr = study.correlation
    lines = [
        "Correlations (Figures 9-10 / §6.4-6.5)",
        f"  {corr.summary()}",
    ]
    table = Table(["duration", "events", ">=10x impact"],
                  title="Impact by attack duration (Figure 10)")
    for label, n, high in duration_impact_buckets(study.events):
        table.add_row([label, n, high])
    if corr.longest_high_impact:
        company, duration, impact = corr.longest_high_impact
        lines.append(f"  longest high-impact event: {company}, "
                     f"{duration / 3600:.1f} h, {impact:.0f}x "
                     f"(paper: Contabo, 19 h, 30x)")
    return "\n".join(lines) + "\n\n" + table.render()


def _resilience_section(study: "Study") -> str:
    res = study.resilience
    table = Table(["stratum", "events", "median", ">=10x", ">=100x", "failing"],
                  title="Resilience efficacy (Figures 11-13)")

    def fmt(stats) -> List:
        median = f"{stats.median_impact:.2f}x" if stats.median_impact else "-"
        return [stats.label, stats.n_events, median,
                format_pct(stats.over_10x_share), stats.over_100x,
                format_pct(stats.failing_share)]

    for label in ("anycast", "partial", "unicast"):
        if label in res.by_anycast:
            table.add_row(fmt(res.by_anycast[label]))
    table.add_separator()
    for label in sorted(res.by_asn_count):
        table.add_row(fmt(res.by_asn_count[label]))
    table.add_separator()
    for label in sorted(res.by_prefix_count):
        table.add_row(fmt(res.by_prefix_count[label]))
    shares = complete_failure_prefix_shares(study.events)
    caption = ", ".join(f"{k}: {format_pct(v)}" for k, v in shares.items())
    table.caption = f"complete failures by prefix diversity: {caption or 'none'}"
    return table.render()


def _top_targets_section(study: "Study") -> str:
    asn_table = Table(["ASN", "#attacks", "company"],
                      title="Top attacked ASNs (Table 4)")
    for ranked in top_attacked_asns(study.join, study.metadata, 10):
        asn_table.add_row([ranked.asn, ranked.n_attacks, ranked.company])
    ip_table = Table(["IP", "#attacks", "type"],
                     title="Top attacked IPs (Table 5)")
    for ranked in top_attacked_ips(study.join, study.metadata,
                                   study.open_resolvers, 10):
        marker = " (open resolver)" if ranked.is_open_resolver else ""
        ip_table.add_row([ranked.ip_text, ranked.n_attacks,
                          ranked.label + marker])
    return asn_table.render() + "\n\n" + ip_table.render()


def _visibility_section(study: "Study") -> str:
    report = study.visibility
    lines = ["Telescope visibility (§4.3, ground-truth oracle)"]
    for name, (detected, total) in sorted(report.by_class.items()):
        share = detected / total if total else 0.0
        lines.append(f"  {name:38s}: {detected}/{total} "
                     f"({format_pct(share)})")
    if report.multivector_underestimate is not None:
        lines.append(f"  multi-vector rate seen: "
                     f"{format_pct(report.multivector_underestimate)} of truth")
    return "\n".join(lines)
