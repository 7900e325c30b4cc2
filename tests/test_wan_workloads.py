"""Tests for the motivating workloads and the generic scenario builder."""


import pytest

from repro.net import FaultPlan
from repro.spec import Returned, check_conformance, spec_by_id
from repro.wan import (
    Mutator,
    ScenarioSpec,
    build_faces,
    build_library,
    build_restaurants,
    build_scenario,
)

from helpers import rotate_menu


# ---------------------------------------------------------------------------
# generic builder
# ---------------------------------------------------------------------------

def test_build_scenario_is_deterministic():
    a = build_scenario(ScenarioSpec(n_members=20), seed=7)
    b = build_scenario(ScenarioSpec(n_members=20), seed=7)
    assert [e.home for e in a.elements] == [e.home for e in b.elements]
    c = build_scenario(ScenarioSpec(n_members=20), seed=8)
    assert [e.home for e in a.elements] != [e.home for e in c.elements]


def test_scenario_placement_skewed_toward_cluster_zero():
    s = build_scenario(ScenarioSpec(n_members=200, placement_skew=1.2), seed=1)
    cluster0 = sum(1 for e in s.elements if e.home.startswith("n0."))
    assert cluster0 > 200 / 4  # far above the uniform share


def test_scenario_client_is_wired_in():
    s = build_scenario(ScenarioSpec(n_members=5), seed=0)
    assert s.net.can_reach(s.client, s.spec.primary)
    assert s.world.true_members(s.coll_id) == frozenset(s.elements)


@pytest.mark.parametrize("dials, shards, replicas", [
    ({"replicas": 2}, (), ("n1.0", "n2.0")),
    ({"n_clusters": 2, "cluster_size": 2, "replicas": 2}, (), ("n1.0", "n0.1")),
    ({"shards": 3, "replicas": 2}, ("n0.0", "n1.0", "n2.0"), ("n3.0", "n0.1")),
    ({"shards": 1, "replicas": 1}, ("n0.0",), ("n1.0",)),
], ids=["classic", "classic-spills-to-slot-1", "sharded", "one-shard"])
def test_collection_nodes_follow_one_slot_major_order(dials, shards, replicas):
    """The registry takes the first ``max(shards, 1)`` slots of n0.0,
    n1.0, …, n0.1, …, and the replicas the next ones."""
    info = build_scenario(ScenarioSpec(n_members=4, **dials)).world \
        .collection_info("collection")
    assert info.primary == "n0.0"
    assert info.replicas == replicas
    assert (info.shard_map.shards if info.shard_map else ()) == shards


@pytest.mark.parametrize("dials, message", [
    ({"replicas": 4}, "1 registry node(s) and 4 replica(s) need 5 nodes; "
                      "2 clusters of 2 have 4"),
    ({"shards": 3, "replicas": 2}, "3 registry node(s) and 2 replica(s) need "
                                   "5 nodes; 2 clusters of 2 have 4"),
    ({"shards": 5}, "5 registry node(s) and 0 replica(s) need 5 nodes; "
                    "2 clusters of 2 have 4"),
], ids=["classic-replicas", "shards-and-replicas", "shards"])
def test_a_scenario_asking_for_more_nodes_than_it_has_is_refused(dials,
                                                                message):
    with pytest.raises(ValueError) as refused:
        build_scenario(ScenarioSpec(n_clusters=2, cluster_size=2, **dials))
    assert str(refused.value) == message


def test_mutator_adds_and_removes():
    s = build_scenario(ScenarioSpec(n_members=10), seed=3)
    mut = Mutator(s, add_rate=2.0, remove_rate=1.0)
    mut.start()
    s.kernel.run(until=20.0)
    assert len(mut.added) > 5
    assert len(mut.removed) > 2
    truth = s.world.true_members(s.coll_id)
    expected = (frozenset(s.elements) | frozenset(mut.added)) - frozenset(mut.removed)
    assert truth == expected


def test_mutator_respects_grow_only_policy():
    s = build_scenario(ScenarioSpec(n_members=10, policy="grow-only"), seed=3)
    mut = Mutator(s, add_rate=1.0, remove_rate=1.0)
    mut.start()
    s.kernel.run(until=20.0)
    assert mut.removed == []          # every remove was rejected
    assert mut.failures > 0
    assert len(mut.added) > 3


# ---------------------------------------------------------------------------
# faces (WWW)
# ---------------------------------------------------------------------------

def test_faces_query_returns_all_faces():
    wl = build_faces(seed=1, n_people=24)

    def proc():
        return (yield from wl.home_page("dynamic").elements().drain())

    result = wl.kernel.run_process(proc())
    assert isinstance(result.outcome, Returned)
    assert len(result.elements) == 24
    assert all(v.bitmap_bytes >= 1024 for v in result.values)


def test_faces_dynamic_conforms_to_fig6():
    wl = build_faces(seed=2, n_people=16)
    ws = wl.home_page("dynamic")

    def proc():
        return (yield from ws.elements().drain())

    wl.kernel.run_process(proc())
    report = check_conformance(ws.last_trace, spec_by_id("fig6"), wl.world)
    assert report.conformant, report.counterexample()


def test_faces_under_failures_still_answers():
    plan = FaultPlan(crash_rate=0.02, mean_downtime=1.0,
                     protected=frozenset({"client", "n0.0"}))
    wl = build_faces(seed=3, n_people=24, fault_plan=plan)

    def proc():
        return (yield from wl.home_page("dynamic").elements().drain())

    result = wl.kernel.run_process(proc())
    assert isinstance(result.outcome, Returned)
    assert len(result.elements) == 24   # optimism waits failures out


# ---------------------------------------------------------------------------
# library (LIS)
# ---------------------------------------------------------------------------

def test_library_author_query():
    wl = build_library(seed=1, n_entries=40)

    def proc():
        return (yield from wl.papers_by("wing").drain())

    result = wl.kernel.run_process(proc())
    expected = {e.oid for e in wl.entries
                if wl.world.server(e.home).objects[e.oid].value.author == "wing"}
    assert {e.oid for e in result.elements} == expected
    assert len(result.elements) > 0


def test_library_query_misses_brand_new_paper_if_added_after_pass():
    """'if the LIS database is not up-to-date, we would not be surprised
    if an author's most recent paper is not listed' — the snapshot
    semantics makes that concrete."""
    wl = build_library(seed=2, n_entries=20)
    from repro.wan.library import CatalogEntry
    query = wl.papers_by("wing", semantics="fig4")

    def proc():
        first = yield from query.invoke()     # snapshot taken
        repo = wl.scenario.repo()
        yield from repo.add(
            "lis-catalog", "paper-new",
            value=CatalogEntry("Hot off the Press", "wing", 1994),
            home="n1.0", size=512,
        )
        rest = yield from query.drain()
        return ([first.element] if first else []) + rest.elements

    got = wl.kernel.run_process(proc())
    assert "paper-new" not in {e.name for e in got}


# ---------------------------------------------------------------------------
# restaurants
# ---------------------------------------------------------------------------

def test_restaurant_cuisine_query():
    wl = build_restaurants(seed=1, n_restaurants=30)

    def proc():
        return (yield from wl.menus_of("chinese").drain())

    result = wl.kernel.run_process(proc())
    assert result.elements
    assert all(v.cuisine == "chinese" for v in result.values)


def test_tourist_stops_after_enough_menus():
    wl = build_restaurants(seed=2, n_restaurants=30)

    def proc():
        return (yield from wl.menus_of("chinese").drain(max_yields=3))

    result = wl.kernel.run_process(proc())
    assert len(result.elements) <= 3


def test_menu_rotation_is_remove_then_add():
    wl = build_restaurants(seed=3, n_restaurants=10)
    victim = wl.menus[0]

    def proc():
        return (yield from rotate_menu(wl, victim))

    fresh = wl.kernel.run_process(proc())
    truth = wl.world.true_members("pgh-restaurants")
    assert victim not in truth
    assert fresh in truth
    new_menu = wl.world.server(fresh.home).objects[fresh.oid].value
    assert new_menu.season == 1
