"""A small simulated hierarchical file system (the "NFS filer").

The paper's prototype serves file content through an NFS client
bit-provider; its verifier "polls the last-modification time of the
file".  This module provides the filer those pieces need: a hierarchical
namespace of files with contents and virtual-clock mtimes, supporting
reads, writes, renames, deletion and directory listing, plus *direct*
writes that model applications "interacting with files directly through a
file system" (out-of-band, §3).

Paths are POSIX-style (``/papers/hotos.doc``); directories are created
implicitly on write, like most object stores, but can also be created and
listed explicitly so NFS-façade tests can exercise directory semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ContentUnavailableError, ProviderError
from repro.sim.clock import VirtualClock

__all__ = ["FileRecord", "SimulatedFileSystem"]


@dataclass
class FileRecord:
    """One file's state."""

    content: bytes
    mtime_ms: float
    ctime_ms: float
    writes: int = 0

    @property
    def size(self) -> int:
        """Current size in bytes."""
        return len(self.content)


def _normalize(path: str) -> str:
    """Canonicalize a path: leading slash, no duplicate or trailing slashes."""
    parts = [p for p in path.split("/") if p]
    if not parts:
        raise ProviderError(f"invalid path: {path!r}")
    return "/" + "/".join(parts)


def _parent(path: str) -> str:
    head, _, _ = path.rpartition("/")
    return head or "/"


@dataclass
class SimulatedFileSystem:
    """An in-memory filer with virtual-clock timestamps."""

    clock: VirtualClock
    _files: dict[str, FileRecord] = field(default_factory=dict)
    _directories: set[str] = field(default_factory=lambda: {"/"})

    # -- namespace -----------------------------------------------------------

    def mkdir(self, path: str) -> None:
        """Create directory *path* (and any missing ancestors)."""
        if path == "/" or path == "":
            return
        path = _normalize(path)
        while path != "/":
            self._directories.add(path)
            path = _parent(path)

    def exists(self, path: str) -> bool:
        """True if *path* names a file."""
        return _normalize(path) in self._files

    def is_dir(self, path: str) -> bool:
        """True if *path* names a directory."""
        try:
            return _normalize(path) in self._directories
        except ProviderError:
            return path == "/"

    def listdir(self, path: str) -> list[str]:
        """Immediate children (files and directories) of directory *path*."""
        path = "/" if path == "/" else _normalize(path)
        if path != "/" and path not in self._directories:
            raise ContentUnavailableError(f"no such directory: {path}")
        prefix = path if path.endswith("/") else path + "/"
        children = set()
        for name in list(self._files) + list(self._directories):
            if name != path and name.startswith(prefix):
                remainder = name[len(prefix):]
                children.add(remainder.split("/", 1)[0])
        return sorted(children)

    # -- file content ----------------------------------------------------------

    def write(self, path: str, content: bytes) -> None:
        """Create or replace the file at *path*, updating its mtime."""
        path = _normalize(path)
        self.mkdir(_parent(path))
        now = self.clock.now_ms
        record = self._files.get(path)
        if record is None:
            self._files[path] = FileRecord(
                content=bytes(content), mtime_ms=now, ctime_ms=now, writes=1
            )
        else:
            record.content = bytes(content)
            record.mtime_ms = now
            record.writes += 1

    def append(self, path: str, content: bytes) -> None:
        """Append to the file at *path* (created if missing)."""
        existing = self._files.get(_normalize(path))
        base = existing.content if existing else b""
        self.write(path, base + bytes(content))

    def read(self, path: str) -> bytes:
        """Content of the file at *path*."""
        return self._record(path).content

    def stat(self, path: str) -> FileRecord:
        """The file's record (content, mtime, ctime, write count)."""
        return self._record(path)

    def mtime_ms(self, path: str) -> float:
        """Last-modification virtual time of the file at *path*."""
        return self._record(path).mtime_ms

    def remove(self, path: str) -> None:
        """Delete the file at *path*."""
        path = _normalize(path)
        if path not in self._files:
            raise ContentUnavailableError(f"no such file: {path}")
        del self._files[path]

    def rename(self, old: str, new: str) -> None:
        """Move a file, preserving its record (mtime included)."""
        old = _normalize(old)
        new = _normalize(new)
        if old not in self._files:
            raise ContentUnavailableError(f"no such file: {old}")
        self.mkdir(_parent(new))
        self._files[new] = self._files.pop(old)

    def files(self) -> list[str]:
        """All file paths, sorted."""
        return sorted(self._files)

    @property
    def total_bytes(self) -> int:
        """Total bytes stored across all files."""
        return sum(r.size for r in self._files.values())

    def _record(self, path: str) -> FileRecord:
        # Keys are canonical: only a path not found as given is normalized.
        if path in self._files:
            return self._files[path]
        path = _normalize(path)
        try:
            return self._files[path]
        except KeyError:
            raise ContentUnavailableError(f"no such file: {path}") from None
