"""The WWW ``.face`` workload.

"Suppose you are browsing the World Wide Web (WWW) and want to display
the .face files of all people listed on Carnegie Mellon's home page."

The home page is a collection hosted at CMU (cluster 0); each listed
person's ``.face`` bitmap lives on their own organization's server —
many local, some far away, a few behind flaky links.  The query is a
plain iteration: display faces as they arrive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..net.failures import FaultPlan
from ..store.elements import Element
from ..weaksets.base import WeakSet
from ..weaksets.factory import make_weak_set
from .workload import Scenario, ScenarioSpec, build_scenario

__all__ = ["FaceRecord", "FacesWorkload", "build_faces"]


@dataclass(frozen=True)
class FaceRecord:
    """A person's entry: their ``.face`` bitmap plus minimal identity."""

    person: str
    organization: str
    bitmap_bytes: int

    def __str__(self) -> str:
        return f"{self.person} ({self.organization}, {self.bitmap_bytes}B .face)"


@dataclass
class FacesWorkload:
    """The built scenario plus domain helpers."""

    scenario: Scenario
    people: list[Element]

    @property
    def kernel(self):
        return self.scenario.kernel

    @property
    def world(self):
        return self.scenario.world

    @property
    def net(self):
        return self.scenario.net

    def home_page(self, semantics: str = "dynamic", **kwargs: Any) -> WeakSet:
        """The home-page weak set, seen from the browsing client."""
        return make_weak_set(self.world, self.scenario.client,
                             self.scenario.coll_id, semantics, **kwargs)


def build_faces(seed: int = 0, *, n_people: int = 48, n_orgs: int = 6,
                fault_plan: Optional[FaultPlan] = None) -> FacesWorkload:
    """Build the CMU home-page world.

    ``.face`` files are small (1–4 KB) bitmaps; people cluster at a few
    big organizations (Zipf placement); the page itself changes rarely
    (people join/leave ~annually), which the caller models with a
    :class:`~repro.wan.workload.Mutator` if desired.
    """
    spec = ScenarioSpec(
        n_clusters=n_orgs,
        cluster_size=3,
        n_members=0,                        # we seed people ourselves
        policy="any",
        heavy_tail=True,
        inter_latency=0.060,
        fault_plan=fault_plan,
        coll_id="cmu-home-page",
    )
    scenario = build_scenario(spec, seed=seed)
    stream = scenario.kernel.stream("faces.seed")
    people: list[Element] = []
    for i in range(n_people):
        org = stream.zipf_index(n_orgs, 0.9)
        node = f"n{org}.{stream.randint(0, spec.cluster_size - 1)}"
        size = stream.randint(1024, 4096)
        record = FaceRecord(person=f"person{i:03d}", organization=f"org{org}",
                            bitmap_bytes=size)
        people.append(scenario.world.seed_member(
            spec.coll_id, f"{record.person}.face", value=record,
            home=node, size=size,
        ))
    scenario.elements = people
    return FacesWorkload(scenario=scenario, people=people)
