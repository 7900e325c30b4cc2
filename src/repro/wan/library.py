"""The library-information-system (LIS) workload.

"Suppose through the on-line library information system (LIS) you want
to get a list of papers by a particular author. … if the LIS database
is not up-to-date, we would not be surprised if an author's most recent
paper is not listed."

The catalog is a grow-only collection (papers are never retracted —
"an LIS entry, never [changes]"); new papers arrive while queries run.
The canonical query is a predicate select by author.
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

__all__ = ["CatalogEntry", "LibraryWorkload", "build_library"]

_AUTHORS = ["wing", "steere", "liskov", "garcia-molina", "satyanarayanan",
            "guttag", "reynolds", "owicki"]


@dataclass(frozen=True)
class CatalogEntry:
    """One card-catalog record."""

    title: str
    author: str
    year: int

    def __str__(self) -> str:
        return f"{self.author} ({self.year}): {self.title}"


@dataclass
class LibraryWorkload:
    scenario: Scenario
    entries: list[Element]

    @property
    def kernel(self):
        return self.scenario.kernel

    @property
    def world(self):
        return self.scenario.world

    @property
    def net(self):
        return self.scenario.net

    def catalog(self, semantics: str = "grow-only", **kwargs: Any) -> WeakSet:
        return make_weak_set(self.world, self.scenario.client,
                             self.scenario.coll_id, semantics, **kwargs)

    def papers_by(self, author: str, semantics: str = "grow-only",
                  **kwargs: Any) -> QueryIterator:
        """The paper's query: all papers by one author."""
        return select(self.catalog(semantics, **kwargs),
                      lambda e, v: v is not None and v.author == author)


def build_library(seed: int = 0, *, n_entries: int = 60, n_sites: int = 5,
                  fault_plan: Optional[FaultPlan] = None) -> LibraryWorkload:
    """Catalog entries scattered over library consortium sites."""
    spec = ScenarioSpec(
        n_clusters=n_sites,
        cluster_size=2,
        n_members=0,
        policy="grow-only",
        inter_latency=0.050,
        fault_plan=fault_plan,
        coll_id="lis-catalog",
    )
    scenario = build_scenario(spec, seed=seed)
    stream = scenario.kernel.stream("library.seed")
    entries: list[Element] = []
    for i in range(n_entries):
        author = _AUTHORS[stream.zipf_index(len(_AUTHORS), 0.7)]
        entry = CatalogEntry(
            title=f"On the Theory of Topic {i:03d}",
            author=author,
            year=1975 + stream.randint(0, 19),
        )
        site = stream.zipf_index(n_sites, 0.6)
        node = f"n{site}.{stream.randint(0, spec.cluster_size - 1)}"
        entries.append(scenario.world.seed_member(
            spec.coll_id, f"paper{i:03d}", value=entry, home=node, size=512,
        ))
    scenario.elements = entries
    return LibraryWorkload(scenario=scenario, entries=entries)
