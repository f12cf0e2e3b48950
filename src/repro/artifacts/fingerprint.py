"""Deterministic phase fingerprints: what makes a cache entry valid.

A phase's cache key is a sha256 over everything its output can depend
on, and *nothing* else:

- the canonicalized :class:`~repro.world.config.WorldConfig` — every
  field, including the scenario pack's parameter dataclass (the world
  and both measurement systems are pure functions of it plus the seed
  it carries). The model's calibration values are module constants, not
  fields: changing one changes code, not keys, so it needs a
  :data:`SCHEMA_VERSIONS` bump for each phase whose output moves (the
  phase-output golden fails until it gets one). Version 2.0.0 dropped
  those constants from the config and version 7.0.0 the
  scenario-install flag beside it, so each changed every key once;
- the phase name and its serializer's schema version (bumping a
  version in :data:`SCHEMA_VERSIONS` invalidates exactly that phase's
  entries — and, through chaining, every phase downstream of it);
- the keys of its upstream phases (``join`` chains ``telescope``;
  ``events`` chains ``join`` and ``crawl``).

Worker count and telemetry are deliberately
absent: the crawl is serial and ignores ``n_workers``, and telemetry
observes without perturbing, so neither can change a phase's output.
Fault schedules need no key either: a chaos run reads and writes only
the phases no fault reaches (the telescope, and the crawl when the
transport is unfaulted), under the clean run's keys, and never caches
its faulted join or events (see :func:`repro.core.pipeline.run_study`).

Keys are pure functions of their inputs — no clocks, no RNG, no
environment — so the same config produces the same keys in any
process on any machine.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, List, Sequence

from repro.util.timeutil import DAY, FIVE_MINUTES, day_start
from repro.world.config import WorldConfig

__all__ = ["SCHEMA_VERSIONS", "PHASES", "canonical_config",
           "config_fingerprint", "phase_key", "study_keys",
           "canonical_attack", "attacks_starting_on",
           "telescope_relevant", "crawl_relevant", "events_crawl_cover",
           "day_keys", "catalog_key"]

#: Serializer schema version per cacheable phase. Bump a version when
#: its artifact format (or the semantics of the phase itself) changes;
#: chaining invalidates everything downstream automatically.
SCHEMA_VERSIONS: Dict[str, int] = {
    # v2: max_ppm jitter moved off the shared rng onto per-(victim,
    # window) derived streams — same artifact format, different bytes.
    # v3: packed columns behind a JSON header line.
    "telescope": 3,
    # v2: columnar store layout (column arrays instead of row dicts).
    # v3: packed columns behind a JSON header line.
    # v4: the unread rtt_min/rtt_max columns went.
    "crawl": 4,
    "join": 1,
    "events": 1,
    # serve-layer domain->NSSet catalog (attack-independent).
    "catalog": 1,
}

#: Cacheable phases in pipeline order.
PHASES = ("telescope", "crawl", "join", "events")


def _canonical(value: object) -> object:
    """Recursively reduce a config value to JSON-stable primitives.

    Dataclasses carry their class name so two structurally-identical
    but semantically-different configs can never collide.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out = {"__class__": type(value).__name__}
        for f in dataclasses.fields(value):
            out[f.name] = _canonical(getattr(value, f.name))
        return out
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(
        f"cannot canonicalize {type(value).__name__!r} for fingerprinting")


def canonical_config(config: WorldConfig) -> str:
    """The canonical JSON form of a world config (stable key order,
    exact floats — ``json`` emits ``repr``-round-trippable literals)."""
    return json.dumps({"config": _canonical(config)}, sort_keys=True,
                      separators=(",", ":"))


def config_fingerprint(config: WorldConfig) -> str:
    """sha256 hex digest of the canonical config — the base every
    phase key chains from."""
    text = canonical_config(config)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def phase_key(phase: str, base: str,
              upstream: Sequence[str] = ()) -> str:
    """The cache key of one phase: hash of (phase, schema version,
    base config fingerprint, upstream phase keys, in order)."""
    version = SCHEMA_VERSIONS[phase]
    h = hashlib.sha256()
    h.update(f"repro.artifacts/{phase}/v{version}\n".encode("utf-8"))
    h.update(f"{base}\n".encode("utf-8"))
    for up in upstream:
        h.update(f"{up}\n".encode("utf-8"))
    return h.hexdigest()


def study_keys(config: WorldConfig) -> Dict[str, str]:
    """The full chained key set of one study configuration.

    ``telescope`` and ``crawl`` hang directly off the config (they are
    independent measurements of the same world); ``join`` consumes the
    telescope's feed, and ``events`` consumes the join and the crawl's
    measurement store — the chain mirrors the §4 dataflow, so
    invalidating an upstream phase invalidates its consumers and only
    its consumers.
    """
    base = config_fingerprint(config)
    telescope = phase_key("telescope", base)
    crawl = phase_key("crawl", base)
    join = phase_key("join", base, upstream=(telescope,))
    events = phase_key("events", base, upstream=(join, crawl))
    return {"telescope": telescope, "crawl": crawl,
            "join": join, "events": events}


# -- per-day keys (the serve layer's sharded store) ---------------------------
#
# The monolithic ``study_keys`` invalidate *everything* when any attack
# changes. The serve layer partitions artifacts by day instead, and each
# day's key digests only the attacks that can influence that partition —
# so editing one day's schedule invalidates only that day's chain (plus
# the neighbours its measurements physically bleed into). Day keys can
# never collide with study keys: they chain through an extra
# ``day:<ts>`` upstream component.


def canonical_attack(attack) -> List:
    """The identity-free canonical row of one ground-truth attack.

    ``attack_id``/``campaign_id`` are excluded on purpose: they come
    from a process-global counter, so two identical schedules built in
    different processes (or orders) would otherwise fingerprint apart.
    """
    imp = attack.impairment
    amp = getattr(attack, "amplification", None)
    return [
        attack.victim_ip,
        attack.window.start,
        attack.window.end,
        attack.response_ratio,
        attack.spoof_pool_size,
        [imp.aftermath_s, imp.aftermath_load, imp.scrub_delay_s,
         imp.scrub_efficiency, imp.blackout_start, imp.blackout_s],
        [[v.proto, list(v.ports), v.pps, v.spoofing.value, v.packet_bytes]
         for v in attack.vectors],
        None if amp is None else
        [amp.n_amplifiers, amp.mean_baf, amp.query_pps,
         amp.list_darknet_share, amp.qtype],
    ]


def _attack_digest(attacks) -> str:
    """sha256 over the sorted canonical rows of ``attacks``."""
    rows = sorted(
        (json.dumps(canonical_attack(a), separators=(",", ":"))
         for a in attacks))
    h = hashlib.sha256()
    for row in rows:
        h.update(row.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def attacks_starting_on(attacks, day: int) -> List:
    """The day-``day`` telescope partition: attacks whose window starts
    within ``[day, day + DAY)`` — each attack belongs to exactly one
    partition."""
    return [a for a in attacks
            if day <= a.window.start < day + DAY]


def telescope_relevant(attacks, day: int) -> List:
    """Every attack that can influence the day-``day`` telescope
    partition: the partition itself, plus any attack whose impact
    window overlaps the partition's observation span (concurrent load
    on a victim's link suppresses backscatter, so neighbours matter)."""
    partition = attacks_starting_on(attacks, day)
    obs_end = day + DAY
    for a in partition:
        obs_end = max(obs_end, a.window.end)
    return [a for a in attacks
            if a.impact_window.start < obs_end
            and a.impact_window.end > day]


def crawl_relevant(attacks, day: int) -> List:
    """Every attack that can influence the day-``day`` crawl partition.

    Matches the world's dense-day padding exactly: an attack marks
    every day from ``day_start(impact.start)`` through
    ``day_start(impact.end) + DAY`` inclusive (5-minute recording plus
    the post-impact settling day), and its load shapes responses on any
    of them.
    """
    out = []
    for a in attacks:
        impact = a.impact_window
        if day_start(impact.start) <= day <= day_start(impact.end) + DAY:
            out.append(a)
    return out


def events_crawl_cover(day: int, partition, timeline) -> List[int]:
    """The crawl days the day-``day`` events partition reads: the day
    before (impact baselines), the day itself, and every later day any
    of the partition's attacks can still be observed on — clamped to
    the timeline."""
    last = day + DAY
    for a in partition:
        last = max(last, day_start(a.window.end + FIVE_MINUTES) + DAY)
    first = max(timeline.window.start, day - DAY)
    last = min(timeline.window.end, last)
    return [d for d in range(first, last, DAY)]


def day_keys(config: WorldConfig, attacks) -> Dict[int, Dict[str, str]]:
    """Chained per-day keys for every day of the config's timeline.

    Layout per day ``D`` (``telescope``/``crawl`` off the base config
    plus a day-scoped attack digest; downstream phases chain exactly
    the partitions they read)::

        telescope@D <- base + digest(telescope_relevant(D))
        crawl@D     <- base + digest(crawl_relevant(D))
        join@D      <- telescope@D
        events@D    <- join@D + crawl@d for d in events_crawl_cover(D)

    ``attacks`` is the *actual* schedule (possibly edited), not the
    config's — which is what lets a what-if edit to one day invalidate
    only that day's chain while the config fingerprint stays fixed.
    """
    base = config_fingerprint(config)
    timeline = config.timeline
    days = list(timeline.days())
    telescope: Dict[int, str] = {}
    crawl: Dict[int, str] = {}
    for day in days:
        telescope[day] = phase_key(
            "telescope", base,
            upstream=(f"day:{day}",
                      _attack_digest(telescope_relevant(attacks, day))))
        crawl[day] = phase_key(
            "crawl", base,
            upstream=(f"day:{day}",
                      _attack_digest(crawl_relevant(attacks, day))))
    out: Dict[int, Dict[str, str]] = {}
    for day in days:
        join = phase_key("join", base, upstream=(f"day:{day}",
                                                 telescope[day]))
        cover = events_crawl_cover(
            day, attacks_starting_on(attacks, day), timeline)
        events = phase_key(
            "events", base,
            upstream=(f"day:{day}", join) + tuple(crawl[d] for d in cover))
        out[day] = {"telescope": telescope[day], "crawl": crawl[day],
                    "join": join, "events": events}
    return out


def catalog_key(config: WorldConfig) -> str:
    """Key of the serve layer's domain->NSSet catalog — a pure function
    of the config (the directory never depends on the attack schedule)."""
    return phase_key("catalog", config_fingerprint(config))
