"""The built world, draw for draw: a sha256 over a canonical dump.

``build_world`` is on every run's path, warm or cold, so it gets
optimised; every such change must keep each random draw, its arguments
and its order. This golden pins the result: the namespace and its
delegations, NSSet ids, providers and nameservers, routes, prefix2AS,
AS2Org, the anycast census and every attack field, for three seeds of
``WorldConfig.tiny()`` with and without the scripted scenarios.

The digests were recorded before the world build was last optimised
and must never be re-recorded to make a world-build change pass. A
change that is *meant* to change drawn values re-records them with::

    PYTHONPATH=src python tests/world/test_world_golden.py --record
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import sys

import pytest

from repro import WorldConfig, build_world
from repro.dns.name import DomainName
from repro.net.ip import IPv4Prefix

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "world_sha256.json")
CASES = [(seed, scenarios) for seed in (1, 2, 3) for scenarios in (True, False)]


def _case_id(seed: int, scenarios: bool) -> str:
    return f"tiny-seed{seed}-{'scenarios' if scenarios else 'background'}"


def _canon(obj):
    """A JSON-able, order-stable view of a world object: floats by
    ``repr`` (exact), containers sorted where unordered."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, enum.Enum):
        return _canon(obj.value)
    if isinstance(obj, (DomainName, IPv4Prefix)):
        return str(obj)
    if dataclasses.is_dataclass(obj):
        return [type(obj).__name__] + [
            [f.name, _canon(getattr(obj, f.name))]
            for f in dataclasses.fields(obj)]
    if isinstance(obj, (list, tuple)):
        return [_canon(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted((_canon(x) for x in obj), key=json.dumps)
    if isinstance(obj, dict):
        return sorted(([_canon(k), _canon(v)] for k, v in obj.items()),
                      key=json.dumps)
    if hasattr(obj, "__dict__"):  # plain classes, e.g. AnycastDeployment
        return [type(obj).__name__, _canon(vars(obj))]
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def _attack_doc(attack, base: int):
    """An attack's fields; its ids come from a process-wide counter, so
    they are pinned relative to the world's first id."""
    doc = _canon(attack)
    for item in doc[1:]:
        if item[0] in ("attack_id", "campaign_id") and item[1] is not None:
            item[1] -= base
    return doc


def world_dump(world) -> dict:
    base = min((a.attack_id for a in world.attacks), default=0)
    return {
        "providers": _canon(world.providers),
        "nameservers": _canon(world.nameservers_by_ip),
        "domains": _canon(world.directory.domains),
        "nssets": _canon(list(world.directory.nssets.items())),
        "routes": _canon([(IPv4Prefix(*prefix), asn) for prefix, asn
                          in world.internet.route_trie().items()]),
        "prefix2as": _canon(list(world.prefix2as.entries())),
        "as2org": _canon(list(world.as2org.items())),
        "census": _canon(world.census.snapshots),
        "open_resolvers": _canon(world.open_resolver_ips),
        "attacks": [_attack_doc(a, base) for a in world.attacks],
    }


def world_digest(world) -> str:
    blob = json.dumps(world_dump(world), separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _build(seed: int, scenarios: bool):
    return build_world(WorldConfig.tiny(seed=seed),
                       install_scenarios=scenarios)


@pytest.mark.parametrize("seed,scenarios", CASES,
                         ids=[_case_id(*case) for case in CASES])
def test_world_matches_golden(seed, scenarios):
    with open(GOLDEN) as fp:
        golden = json.load(fp)
    assert world_digest(_build(seed, scenarios)) == \
        golden[_case_id(seed, scenarios)]


def test_dump_sees_every_attack_field():
    """The digest must move when any drawn attack value moves."""
    world = _build(1, False)
    before = world_digest(world)
    attack = world.attacks[len(world.attacks) // 2]
    attack.response_ratio = attack.response_ratio / 2
    assert world_digest(world) != before


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    digests = {_case_id(*case): world_digest(_build(*case))
               for case in CASES}
    with open(GOLDEN, "w") as fp:
        json.dump(digests, fp, indent=2, sort_keys=True)
        fp.write("\n")
    print(json.dumps(digests, indent=2, sort_keys=True))
