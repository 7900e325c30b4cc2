"""The Pittsburgh restaurant-menu workload.

"Suppose you are a tourist in Pittsburgh and want to look at the
on-line menus of all Chinese restaurants before choosing where to eat
for dinner. … we would not go hungry if our restaurant search missed
some (but not all) Chinese restaurants in Pittsburgh."

Menus live on each restaurant's own server; a city guide collection
indexes them.  Menus "change weekly or seasonally", which the paper
models as a remove of the old menu followed by an add of the new one
(``Repository.remove`` then ``Repository.add``).  The canonical
query is a cuisine select with an early stop once the tourist has seen
enough menus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..net.failures import FaultPlan
from ..store.elements import Element
from ..weaksets.base import WeakSet
from ..weaksets.factory import make_weak_set
from ..weaksets.query import QueryIterator, select
from .workload import Scenario, ScenarioSpec, build_scenario

__all__ = ["Menu", "RestaurantsWorkload", "build_restaurants", "CUISINES"]

CUISINES = ["chinese", "italian", "thai", "diner", "indian", "ethiopian"]


@dataclass(frozen=True)
class Menu:
    """A restaurant's posted menu."""

    restaurant: str
    cuisine: str
    dishes: tuple[str, ...]
    season: int = 0

    def __str__(self) -> str:
        return f"{self.restaurant} [{self.cuisine}] ({len(self.dishes)} dishes, season {self.season})"


@dataclass
class RestaurantsWorkload:
    scenario: Scenario
    menus: list[Element]

    @property
    def kernel(self):
        return self.scenario.kernel

    @property
    def world(self):
        return self.scenario.world

    @property
    def net(self):
        return self.scenario.net

    def guide(self, semantics: str = "dynamic", **kwargs: Any) -> WeakSet:
        return make_weak_set(self.world, self.scenario.client,
                             self.scenario.coll_id, semantics, **kwargs)

    def menus_of(self, cuisine: str, semantics: str = "dynamic",
                 **kwargs: Any) -> QueryIterator:
        return select(self.guide(semantics, **kwargs),
                      lambda e, v: v is not None and v.cuisine == cuisine)


def build_restaurants(seed: int = 0, *, n_restaurants: int = 30,
                      n_neighborhoods: int = 5,
                      fault_plan: Optional[FaultPlan] = None) -> RestaurantsWorkload:
    """The Pittsburgh guide: restaurants spread over neighborhoods."""
    spec = ScenarioSpec(
        n_clusters=n_neighborhoods,
        cluster_size=3,
        n_members=0,
        policy="any",
        inter_latency=0.030,          # it's one city, not a WAN
        fault_plan=fault_plan,
        coll_id="pgh-restaurants",
    )
    scenario = build_scenario(spec, seed=seed)
    stream = scenario.kernel.stream("restaurants.seed")
    menus: list[Element] = []
    for i in range(n_restaurants):
        cuisine = CUISINES[stream.zipf_index(len(CUISINES), 0.5)]
        menu = Menu(
            restaurant=f"rest{i:03d}",
            cuisine=cuisine,
            dishes=tuple(f"dish-{i}-{d}" for d in range(stream.randint(4, 12))),
        )
        hood = stream.zipf_index(n_neighborhoods, 0.4)
        node = f"n{hood}.{stream.randint(0, spec.cluster_size - 1)}"
        menus.append(scenario.world.seed_member(
            spec.coll_id, f"{menu.restaurant}-menu-s0", value=menu,
            home=node, size=1024,
        ))
    scenario.elements = menus
    return RestaurantsWorkload(scenario=scenario, menus=menus)
