"""Figure 6: protocol and destination-port distribution of DNS attacks.

Paper: 80.7% single-port; protocol mix TCP 90.4% / UDP 8.4% / ICMP 1.2%;
within TCP, port 80 (37%) > port 53 (30%) > 443; one third of UDP
attacks target port 53. Plus §6.3.1: successful attacks skew to port 53
(49% vs 30%).
"""

from repro.core.ports import analyze_ports, analyze_successful_ports
from repro.net.ports import (
    PORT_DNS,
    PORT_HTTP,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
)
from repro.util.tables import Table, format_pct


def regenerate(study):
    return analyze_ports(study.join), analyze_successful_ports(study.events)


def test_fig6_port_distribution(benchmark, study, emit):
    ports, successful = benchmark(regenerate, study)

    table = Table(["metric", "paper", "measured"],
                  title="Figure 6 - targeted services")
    rows = [
        ("single-port attacks", "80.7%", format_pct(ports.single_port_share)),
        ("TCP share", "90.4%", format_pct(ports.proto_share(PROTO_TCP))),
        ("UDP share", "8.4%", format_pct(ports.proto_share(PROTO_UDP))),
        ("ICMP share", "1.2%", format_pct(ports.proto_share(PROTO_ICMP))),
        ("TCP port 80", "37%",
         format_pct(ports.port_share_within_proto(PROTO_TCP, PORT_HTTP))),
        ("TCP port 53", "30%",
         format_pct(ports.port_share_within_proto(PROTO_TCP, PORT_DNS))),
        ("UDP port 53", "~33%",
         format_pct(ports.port_share_within_proto(PROTO_UDP, PORT_DNS))),
        ("successful on port 53", "49%",
         format_pct(successful.port_share(PORT_DNS))),
        ("successful on port 80", "31%",
         format_pct(successful.port_share(PORT_HTTP))),
    ]
    for row in rows:
        table.add_row(row)
    emit("fig6_port_distribution", table.render())

    # Single-port dominance.
    assert 0.70 < ports.single_port_share < 0.95
    # TCP >> UDP >> ICMP ordering with TCP strongly dominant.
    assert ports.proto_share(PROTO_TCP) > 0.7
    assert ports.proto_share(PROTO_UDP) > ports.proto_share(PROTO_ICMP)
    # Within TCP, HTTP is the most-hit port, DNS second (paper's finding
    # that most attacks do NOT target port 53).
    tcp_top = ports.top_ports(proto=PROTO_TCP, n=2)
    assert {name for _, name, _, _ in tcp_top} >= {"HTTP"}
    assert ports.port_share_within_proto(PROTO_TCP, PORT_HTTP) > \
        ports.port_share_within_proto(PROTO_TCP, PORT_DNS)
    # The §6.3.1 contrast: successful attacks skew toward port 53.
    if successful.n_attacks:
        assert successful.port_share(PORT_DNS) > ports.port_share(PORT_DNS)
