"""The paper's motivating wide-area workloads (§1).

Three concrete scenarios — WWW ``.face`` files, the library information
system, and Pittsburgh restaurant menus — plus the generic scenario
builder and background mutator they share, and the population-scale
open-loop load engine that drives 10⁵+ simulated clients against any
built scenario.
"""

from .library import CatalogEntry, LibraryWorkload, build_library
from .population import (
    Behavior,
    PopulationEngine,
    PopulationSpec,
    Stage,
    StageResult,
    default_behaviors,
)
from .restaurants import CUISINES, Menu, RestaurantsWorkload, build_restaurants
from .web import FaceRecord, FacesWorkload, build_faces
from .workload import Mutator, Scenario, ScenarioSpec, build_scenario

__all__ = [
    "Behavior",
    "CUISINES",
    "CatalogEntry",
    "FaceRecord",
    "FacesWorkload",
    "LibraryWorkload",
    "Menu",
    "Mutator",
    "PopulationEngine",
    "PopulationSpec",
    "RestaurantsWorkload",
    "Scenario",
    "ScenarioSpec",
    "Stage",
    "StageResult",
    "build_faces",
    "build_library",
    "build_restaurants",
    "build_scenario",
    "default_behaviors",
]
