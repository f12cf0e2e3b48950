"""The ``repro obs`` toolbox: inspect journals, snapshots, baselines.

Four subcommands over the observability artifacts a run leaves behind:

``repro obs summary FILE``
    One-screen digest of a run journal (JSONL) or a telemetry snapshot
    (JSON) — run identity, per-phase durations, record/metric counts,
    degradations and faults. The file kind is auto-detected.
``repro obs tail FILE [-n N]``
    The last N journal records, one per line (envelope + fields) —
    ``tail -f``-style triage for what a run did right before it ended.
``repro obs diff A B``
    Compare two telemetry snapshots metric by metric; exits 1 when
    they differ (``diff``-style), 0 when identical.
``repro obs bench-diff FRESH BASELINE``
    Compare fresh ``BENCH_*.json`` benchmark snapshots against the
    committed baselines, flagging regressions with direction-aware
    heuristics: wall-clock style gauges (``*wall*``, ``*_s``,
    ``*_ms``) must not grow, rate style gauges (``*speedup*``,
    ``*throughput*``) must not shrink, anything else is reported but
    never fails. ``--report-only`` keeps the exit code 0 for CI runs
    on shared hardware where timings are advisory.

Everything here is read-only over files produced elsewhere
(``--journal``, ``--metrics-out``, the benchmark harness); nothing
imports the world or pipeline machinery.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.journal import phase_durations, read_journal
from repro.obs.telemetry import SNAPSHOT_SCHEMA

__all__ = [
    "add_obs_parser",
    "cmd_bench_diff",
    "cmd_diff",
    "cmd_summary",
    "cmd_tail",
    "load_observations",
]

#: Envelope keys every journal record carries (not event payload).
_ENVELOPE = ("seq", "t", "utc", "type")


def load_observations(path: str) -> Tuple[str, object]:
    """Classify and load ``path``: ``("snapshot", dict)`` for a
    telemetry snapshot, ``("journal", records)`` for a run journal.

    A snapshot is one JSON document with a known schema; anything that
    parses line-by-line (including a crashed run's readable prefix) is
    a journal.
    """
    with open(path) as fp:
        text = fp.read()
    try:
        doc = json.loads(text)
    except ValueError:
        return "journal", read_journal(path)
    if isinstance(doc, dict) and doc.get("schema") == SNAPSHOT_SCHEMA:
        return "snapshot", doc
    if isinstance(doc, dict) and doc.get("type") == "journal.open":
        return "journal", [doc]  # a run that died right after opening
    raise ValueError(
        f"{path}: neither a telemetry snapshot ({SNAPSHOT_SCHEMA})"
        f" nor a run journal")


def _fields(record: Dict[str, object]) -> str:
    return " ".join(f"{k}={record[k]}" for k in sorted(record)
                    if k not in _ENVELOPE)


def _format_record(record: Dict[str, object]) -> str:
    return (f"{record.get('t', 0):>10.3f}  {record.get('type', '?'):<18} "
            f"{_fields(record)}").rstrip()


# -- summary ------------------------------------------------------------------


def _phase_lines(durations: Dict[str, float],
                 cached: Dict[str, bool]) -> List[str]:
    if not durations:
        return []
    width = max(len(name) for name in durations)
    lines = ["phases:"]
    for name, dur in durations.items():
        flag = "  (cached)" if cached.get(name) else ""
        lines.append(f"  {name:<{width}}  {dur:>10.3f}s{flag}")
    return lines


def _summarize_journal(records: List[Dict[str, object]]) -> str:
    head = records[0] if records else {}
    lines = []
    if head.get("type") == "journal.open":
        lines.append(f"run {head.get('run_id')}  "
                     f"started {head.get('started_at_utc')}  "
                     f"schema {head.get('schema')}")
    closed = any(r.get("type") == "journal.close" for r in records)
    lines.append(f"{len(records)} records"
                 + ("" if closed else "  (no footer: run died mid-write)"))
    by_type: Dict[str, int] = {}
    for r in records:
        by_type[str(r.get("type"))] = by_type.get(str(r.get("type")), 0) + 1
    lines.append("record types: " + ", ".join(
        f"{t}={n}" for t, n in sorted(by_type.items())))
    cached = {str(r["phase"]): bool(r.get("cached"))
              for r in records if r.get("type") == "phase.finish"}
    lines.extend(_phase_lines(phase_durations(records), cached))
    faults = [r for r in records if r.get("type") == "chaos.fault"]
    if faults:
        lines.append(f"chaos faults: {len(faults)}")
    for r in records:
        if r.get("type") == "degraded":
            lines.append("degraded: " + _fields(r))
        if r.get("type") == "phase.error":
            lines.append(f"phase error: {r.get('phase')} "
                         f"({r.get('error')})")
    return "\n".join(lines)


def _span_durations(spans: Iterable[Dict[str, object]]) -> Dict[str, float]:
    """Top-level phase durations from a snapshot's root span children."""
    out: Dict[str, float] = {}
    for root in spans:
        for child in root.get("children", ()):  # type: ignore[union-attr]
            out[str(child["name"])] = float(child["duration_s"])
    return out


def _summarize_snapshot(snap: Dict[str, object]) -> str:
    lines = [f"snapshot schema {snap.get('schema')}"]
    if snap.get("run_id"):
        lines[0] = (f"run {snap.get('run_id')}  "
                    f"started {snap.get('started_at_utc')}  "
                    f"schema {snap.get('schema')}")
    metrics = snap.get("metrics", {})
    lines.append(", ".join(
        f"{len(metrics.get(kind, {}))} {kind}"  # type: ignore[union-attr]
        for kind in ("counters", "gauges", "histograms")))
    lines.extend(_phase_lines(
        _span_durations(snap.get("spans", ())), {}))  # type: ignore[arg-type]
    return "\n".join(lines)


def cmd_summary(args: argparse.Namespace) -> int:
    kind, doc = load_observations(args.file)
    print(_summarize_journal(doc) if kind == "journal"
          else _summarize_snapshot(doc))
    return 0


def cmd_tail(args: argparse.Namespace) -> int:
    kind, doc = load_observations(args.file)
    if kind != "journal":
        print(f"{args.file} is a telemetry snapshot, not a journal",
              file=sys.stderr)
        return 2
    for record in doc[-args.n:]:
        print(_format_record(record))
    return 0


# -- diff ---------------------------------------------------------------------


def _flat_metrics(snap: Dict[str, object]) -> Dict[str, object]:
    """One comparable value per series: counters/gauges as-is,
    histograms reduced to their (count, sum, nan) identity."""
    metrics = snap.get("metrics", {})
    out: Dict[str, object] = {}
    for name, value in metrics.get("counters", {}).items():  # type: ignore[union-attr]
        out[name] = value
    for name, value in metrics.get("gauges", {}).items():  # type: ignore[union-attr]
        out[name] = value
    for name, h in metrics.get("histograms", {}).items():  # type: ignore[union-attr]
        out[name] = (f"count={h['count']} sum={h['sum']:.6g}"
                     + (f" nan={h['nan']}" if h.get("nan") else ""))
    return out


def _load_snapshot(path: str) -> Dict[str, object]:
    kind, doc = load_observations(path)
    if kind != "snapshot":
        raise ValueError(f"{path} is a run journal; diff wants "
                         f"--metrics-out snapshots")
    return doc  # type: ignore[return-value]


def cmd_diff(args: argparse.Namespace) -> int:
    try:
        a = _flat_metrics(_load_snapshot(args.a))
        b = _flat_metrics(_load_snapshot(args.b))
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    n_diff = 0
    for name in sorted(set(a) | set(b)):
        if name not in a:
            print(f"+ {name} = {b[name]}")
        elif name not in b:
            print(f"- {name} = {a[name]}")
        elif a[name] != b[name]:
            print(f"~ {name}: {a[name]} -> {b[name]}")
        else:
            continue
        n_diff += 1
    if n_diff:
        print(f"{n_diff} series differ", file=sys.stderr)
        return 1
    print("snapshots carry identical metrics", file=sys.stderr)
    return 0


# -- bench-diff ---------------------------------------------------------------


def _direction(name: str) -> Optional[str]:
    """Which way a ``repro.bench.*`` gauge is allowed to move.

    ``lower``: wall-clock style, growth is a regression. ``higher``:
    rate style, shrinkage is a regression. ``None``: shape/config
    values (row counts, repeats, cpus) — reported, never failed on.
    """
    leaf = name.rsplit(".", 1)[-1]
    if "speedup" in leaf or "throughput" in leaf or leaf.endswith("per_s"):
        return "higher"
    if "wall" in leaf or leaf.endswith("_s") or leaf.endswith("_ms"):
        return "lower"
    return None


def _bench_files(path: str) -> Dict[str, str]:
    """``{BENCH_name.json: full path}`` for a directory or single file."""
    if os.path.isfile(path):
        return {os.path.basename(path): path}
    return {name: os.path.join(path, name)
            for name in sorted(os.listdir(path))
            if name.startswith("BENCH_") and name.endswith(".json")}


def cmd_bench_diff(args: argparse.Namespace) -> int:
    fresh = _bench_files(args.fresh)
    base = _bench_files(args.baseline)
    common = sorted(set(fresh) & set(base))
    if not common:
        print(f"no BENCH_*.json names in common between {args.fresh} "
              f"and {args.baseline}", file=sys.stderr)
        return 2
    for name in sorted(set(fresh) - set(base)):
        print(f"{name}: no committed baseline (new benchmark?)",
              file=sys.stderr)
    regressions = []
    for name in common:
        a = _flat_metrics(_load_snapshot(base[name]))
        b = _flat_metrics(_load_snapshot(fresh[name]))
        print(f"== {name}")
        for metric in sorted(set(a) & set(b)):
            old, new = a[metric], b[metric]
            if not (isinstance(old, (int, float))
                    and isinstance(new, (int, float))):
                continue
            direction = _direction(metric)
            rel = (new - old) / old if old else 0.0
            verdict = ""
            if direction == "lower" and rel > args.threshold:
                verdict = "REGRESSED"
            elif direction == "higher" and rel < -args.threshold:
                verdict = "REGRESSED"
            elif direction and abs(rel) > args.threshold:
                verdict = "improved"
            if verdict == "REGRESSED":
                regressions.append((name, metric, rel))
            if direction or verdict:
                print(f"  {metric}: {old:.6g} -> {new:.6g} "
                      f"({rel:+.1%}){'  ' + verdict if verdict else ''}")
    if regressions:
        print(f"{len(regressions)} regression(s) beyond "
              f"{args.threshold:.0%}:", file=sys.stderr)
        for name, metric, rel in regressions:
            print(f"  {name}: {metric} ({rel:+.1%})", file=sys.stderr)
        return 0 if args.report_only else 1
    print("no regressions", file=sys.stderr)
    return 0


# -- parser wiring ------------------------------------------------------------


def add_obs_parser(sub) -> None:
    """Register the ``obs`` subcommand tree on a subparsers object."""
    p_obs = sub.add_parser(
        "obs", help="inspect run journals, snapshots, and baselines")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)

    p_sum = obs_sub.add_parser(
        "summary", help="digest a run journal or telemetry snapshot")
    p_sum.add_argument("file", help="journal (JSONL) or snapshot (JSON)")
    p_sum.set_defaults(func=cmd_summary)

    p_tail = obs_sub.add_parser(
        "tail", help="print the last records of a run journal")
    p_tail.add_argument("file")
    p_tail.add_argument("-n", type=int, default=10, metavar="N",
                        help="records to show (default 10)")
    p_tail.set_defaults(func=cmd_tail)

    p_diff = obs_sub.add_parser(
        "diff", help="compare two telemetry snapshots (exit 1 on change)")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    p_diff.set_defaults(func=cmd_diff)

    p_bench = obs_sub.add_parser(
        "bench-diff",
        help="compare fresh BENCH_*.json against committed baselines")
    p_bench.add_argument("fresh", help="directory (or file) of fresh "
                                       "benchmark snapshots")
    p_bench.add_argument("baseline", help="directory (or file) of "
                                          "committed baselines")
    p_bench.add_argument("--threshold", type=float, default=0.25,
                         metavar="FRAC",
                         help="relative change that counts as a "
                              "regression (default 0.25)")
    p_bench.add_argument("--report-only", action="store_true",
                         help="never fail the exit code on regressions "
                              "(CI on shared hardware)")
    p_bench.set_defaults(func=cmd_bench_diff)
