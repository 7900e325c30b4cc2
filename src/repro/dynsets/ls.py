"""``ls`` two ways: the traditional strict command and the weak one.

"In a typical file system, the expected behavior of the UNIX-like
command ls … is to list the files in the directory in some order (e.g.,
alphabetically), thus requiring that all files be accessed before ls
returns.  In a distributed file system, satisfying this requirement is
prohibitively expensive; in the worst case, because of failures some
files may no longer be accessible and so non-termination is possible."

:func:`strict_ls` is that traditional command: read the directory,
stat (fetch) every entry *sequentially and alphabetically*, return the
sorted listing only when everything has been accessed — and fail if
anything is unreachable.

:func:`weak_ls` is the dynamic-sets version: entries stream back as the
parallel prefetcher materializes them, unreachable entries are retried
(or eventually reported as unavailable), and partial output is useful
immediately.  Each listing is one recorded Figure 6 run
(``result.handle.audit()``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from ..errors import FailureException, NoSuchObjectError
from ..net.address import NodeId
from ..store.repository import Repository
from .dynamic_set import DynSetHandle, set_open_dir
from .filesystem import FileSystem

__all__ = ["LsEntry", "LsResult", "strict_ls", "weak_ls"]


@dataclass(frozen=True)
class LsEntry:
    name: str
    kind: str                   # "file" | "dir" | "unavailable"
    arrived_at: float = 0.0


@dataclass
class LsResult:
    path: str
    entries: list[LsEntry] = field(default_factory=list)
    failed: bool = False
    error: str = ""
    started_at: float = 0.0
    finished_at: float = 0.0
    #: the (closed) dynamic set a weak listing drained: ``handle.audit()``
    #: judges the listing against Figure 6
    handle: Optional[DynSetHandle] = field(default=None, repr=False)

    @property
    def names(self) -> list[str]:
        return [e.name for e in self.entries]

    @property
    def total_time(self) -> float:
        return self.finished_at - self.started_at

    @property
    def time_to_first(self) -> Optional[float]:
        if not self.entries:
            return None
        return self.entries[0].arrived_at - self.started_at


def strict_ls(fs: FileSystem, client: NodeId, path: str,
              timeout: Optional[float] = None) -> Generator[Any, Any, LsResult]:
    """The traditional all-or-nothing, alphabetical ``ls``."""
    repo = Repository(fs.world, client, rpc_timeout=timeout)
    result = LsResult(path=path, started_at=fs.world.now)
    try:
        view = yield from repo.read_membership(
            fs.directory_collection(path), source="primary"
        )
        for element in sorted(view.members, key=lambda e: e.name):
            try:
                meta = yield from repo.fetch(element, use_cache=False)
            except NoSuchObjectError:
                continue  # removed while we were listing; omit
            kind = getattr(meta, "kind", "file")
            result.entries.append(LsEntry(element.name, kind, fs.world.now))
    except FailureException as exc:
        result.failed = True
        result.error = str(exc)
        result.entries.clear()    # all-or-nothing: partial output discarded
    result.finished_at = fs.world.now
    return result


def weak_ls(fs: FileSystem, client: NodeId, path: str, *,
            parallelism: int = 4, give_up_after: Optional[float] = None,
            limit: Optional[int] = None,
            **kwargs: Any) -> Generator[Any, Any, LsResult]:
    """The dynamic-sets ``ls``: streaming, parallel, failure-tolerant."""
    result = LsResult(path=path, started_at=fs.world.now)
    handle = yield from set_open_dir(
        fs, client, path, parallelism=parallelism,
        give_up_after=give_up_after, **kwargs
    )
    result.handle = handle
    try:
        fetched = yield from handle.iterate_all(limit=limit)
        for r in fetched:
            kind = getattr(r.value, "kind", "file")
            result.entries.append(LsEntry(r.element.name, kind, r.fetched_at))
        for r in handle.results:
            if r.unreachable:
                result.entries.append(
                    LsEntry(r.element.name, "unavailable", r.fetched_at))
    finally:
        handle.close()
    result.finished_at = fs.world.now
    return result
