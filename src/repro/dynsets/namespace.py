"""Path handling for the dynamic-sets file system."""

from __future__ import annotations

from ..errors import FileSystemError

__all__ = ["normalize", "split", "join", "parent", "basename"]


def normalize(path: str) -> str:
    """Canonical absolute form: leading '/', no trailing '/', no empties."""
    if not path or not path.startswith("/"):
        raise FileSystemError(f"paths must be absolute, got {path!r}")
    parts = [p for p in path.split("/") if p]
    for p in parts:
        if p in (".", ".."):
            raise FileSystemError(f"'.' and '..' are not supported: {path!r}")
    return "/" + "/".join(parts)


def split(path: str) -> tuple[str, str]:
    """(parent, basename); the root's parent is itself."""
    norm = normalize(path)
    if norm == "/":
        return "/", ""
    head, _, tail = norm.rpartition("/")
    return (head or "/"), tail


def parent(path: str) -> str:
    return split(path)[0]


def basename(path: str) -> str:
    return split(path)[1]


def join(base: str, *names: str) -> str:
    out = normalize(base)
    for name in names:
        if "/" in name or not name:
            raise FileSystemError(f"bad path component {name!r}")
        out = out.rstrip("/") + "/" + name
    return normalize(out)
