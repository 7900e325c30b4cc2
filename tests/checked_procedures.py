"""Runtime checking of Figure 1's *procedure* specifications.

The figures' iterator clauses get a full trace checker
(:mod:`repro.spec.checker`); the type's procedures deserve the same
treatment.  :class:`CheckedProcedures` wraps a
:class:`~repro.store.repository.Repository` and, around every
``add``/``remove``/``size`` call, snapshots the ground-truth value of
the set to verify the Larch post-conditions:

* ``add``:    ``s_post = s_pre ∪ {e}``  and ``new(e)`` (a fresh object)
* ``remove``: ``s_post = s_pre − {e}``
* ``size``:   ``i = |s_pre|``

For the *distributed* set, the checker uses the same window semantics
as the iterator checker: the post-condition must hold against some
ground-truth state observed at the operation's completion.  (Under
concurrent mutators an exact ``s_pre ∪ {e}`` is unattainable — another
client's add may interleave — so the checker verifies the operation's
*footprint* instead: the element appears/disappears, and nothing else
changed that this operation could have changed.)

This is a test oracle, like ``seed_kernel.py`` beside it:
``tests/test_spec_procedures.py`` checks ``Repository.add`` / ``remove``
/ ``size`` against it, and nothing under ``src/`` runs it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from repro.errors import SpecViolation
from repro.store.elements import Element
from repro.store.repository import Repository
from repro.store.world import World

__all__ = ["ProcedureViolation", "CheckedProcedures"]


@dataclass(frozen=True)
class ProcedureViolation:
    """One failed post-condition."""

    operation: str
    message: str
    at: float

    def __str__(self) -> str:
        return f"[t={self.at:.3f}] {self.operation}: {self.message}"


@dataclass
class CheckedProcedures:
    """A repository wrapper that verifies procedure post-conditions.

    Violations are collected (``violations``) rather than raised, so a
    stress test can drive thousands of operations and assert emptiness
    at the end; pass ``strict=True`` to raise immediately instead.

    Besides each operation's own post-condition, the **modifies clause**
    is checked as a frame condition: "The modifies clause is shorthand
    for a predicate that asserts that all objects not listed do not
    change in value."  ``add``/``remove`` list only their own collection,
    so every *other* collection's value must be identical before and
    after (in a single-writer test; concurrent writers would need the
    window semantics the iterator checker uses).
    """

    world: World
    repo: Repository
    coll_id: str
    strict: bool = False
    check_frame: bool = True
    violations: list[ProcedureViolation] = field(default_factory=list)
    checked_ops: int = 0

    # ------------------------------------------------------------------
    def _frame_snapshot(self) -> dict[str, frozenset[Element]]:
        if not self.check_frame:
            return {}
        return {
            coll_id: self.world.true_members(coll_id)
            for coll_id in self.world.collections
            if coll_id != self.coll_id
        }

    def _check_frame(self, operation: str,
                     before: dict[str, frozenset[Element]]) -> None:
        for coll_id, value in before.items():
            after = self.world.true_members(coll_id)
            if after != value:
                self._flag(operation,
                           f"modifies clause violated: unlisted collection "
                           f"{coll_id!r} changed value")

    def add(self, name: str, value: Any = None, home: Optional[str] = None,
            size: int = 0) -> Generator[Any, Any, Element]:
        s_pre = self.world.true_members(self.coll_id)
        frame = self._frame_snapshot()
        element = yield from self.repo.add(self.coll_id, name, value, home, size)
        s_post = self.world.true_members(self.coll_id)
        self._check_frame("add", frame)
        self.checked_ops += 1
        if element in s_pre:
            self._flag("add", f"new({element}) fails: element existed in s_pre")
        if element not in s_post:
            self._flag("add", f"s_post does not contain the added {element}")
        # footprint: everything else this op could not have touched
        unexpected_losses = s_pre - s_post
        if unexpected_losses:
            self._flag("add", f"s_post lost unrelated members {sorted(str(e) for e in unexpected_losses)}")
        return element

    def remove(self, element: Element) -> Generator[Any, Any, None]:
        frame = self._frame_snapshot()
        yield from self.repo.remove(self.coll_id, element)
        s_post = self.world.true_members(self.coll_id)
        self._check_frame("remove", frame)
        self.checked_ops += 1
        if element in s_post:
            self._flag("remove", f"s_post still contains the removed {element}")

    def size(self) -> Generator[Any, Any, int]:
        s_pre = self.world.true_members(self.coll_id)
        result = yield from self.repo.read_membership(self.coll_id, source="primary")
        s_post = self.world.true_members(self.coll_id)
        self.checked_ops += 1
        reported = len(result.members)
        # |s| at some state within the operation window
        if reported not in (len(s_pre), len(s_post)):
            self._flag("size", f"reported {reported}, but |s| was "
                               f"{len(s_pre)} then {len(s_post)}")
        return reported

    # ------------------------------------------------------------------
    def _flag(self, operation: str, message: str) -> None:
        violation = ProcedureViolation(operation, message, self.world.now)
        if self.strict:
            raise SpecViolation(str(violation))
        self.violations.append(violation)
