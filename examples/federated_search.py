#!/usr/bin/env python3
"""Federated search: one query over several independent repositories.

"there is no global consistency requirement that must be upheld across
a set of information repositories in the WWW" — so a union of weak
sets needs no coordination at all.  Two library consortia hold
overlapping catalogs; one of them is down tonight.  The federated
query still answers from the other, deduplicating the overlap.

Run:  python examples/federated_search.py
"""

from repro.net import FixedLatency, Network, full_mesh
from repro.sim import Kernel
from repro.store import World
from repro.wan.library import CatalogEntry
from repro.weaksets import DynamicSet, union
from repro.weaksets.query import QueryIterator


def build_two_consortia(seed=4):
    kernel = Kernel(seed=seed)
    nodes = ["client", "east0", "east1", "west0", "west1"]
    net = Network(kernel, full_mesh(nodes, FixedLatency(0.02)))
    world = World(net)
    world.create_collection("catalog-east", primary="east0")
    world.create_collection("catalog-west", primary="west0")

    east_papers = [
        ("larch-book", CatalogEntry("Larch: Languages and Tools", "guttag", 1993)),
        ("subtypes", CatalogEntry("Specifications and Subtypes", "wing", 1993)),
        ("two-tiered", CatalogEntry("A Two-tiered Approach", "wing", 1983)),
    ]
    west_papers = [
        ("subtypes", CatalogEntry("Specifications and Subtypes", "wing", 1993)),
        ("weak-sets", CatalogEntry("Specifying Weak Sets", "wing", 1994)),
        ("dynamic-sets", CatalogEntry("A Case for Dynamic Sets", "steere", 1994)),
    ]
    for name, entry in east_papers:
        world.seed_member("catalog-east", name, value=entry,
                          home=["east0", "east1"][hash(name) % 2])
    for name, entry in west_papers:
        world.seed_member("catalog-west", name, value=entry,
                          home=["west0", "west1"][hash(name) % 2])
    return kernel, net, world


def main() -> None:
    kernel, net, world = build_two_consortia()
    net.crash("east0")          # the east consortium's primary is down
    print("east consortium primary is DOWN tonight\n")

    east = DynamicSet(world, "client", "catalog-east", give_up_after=2.0)
    west = DynamicSet(world, "client", "catalog-west", give_up_after=2.0)

    # the same author query, federated with skip-on-failure semantics
    by_wing = union(east, west)
    filtered = QueryIterator(by_wing,
                             lambda e, v: v is not None and v.author == "wing")

    def search():
        return (yield from filtered.drain())

    result = kernel.run_process(search())
    print(f"papers by wing found (t={kernel.now:.2f}s):")
    for value in result.values:
        print(f"  {value}")
    print()
    if by_wing.failed_sources:
        for source, failure in by_wing.failed_sources:
            print(f"note: source {source.coll_id!r} was unavailable ({failure.reason});"
                  f" results are partial — the weak-set contract")
    print(f"duplicates suppressed across consortia: {by_wing.duplicates_suppressed}")


if __name__ == "__main__":
    main()
