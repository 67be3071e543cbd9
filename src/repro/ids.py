"""Typed identifiers for documents, references, users, properties and caches.

The Placeless Documents design distinguishes several id namespaces:

* a **base document** is the single shared object linking to content;
* each user holds their own **document reference** to a base document;
* **users** own document spaces;
* **properties** are identified within the document they are attached to;
* **caches** must be addressable so notifiers can deliver invalidations.

Each namespace is a ``str`` subclass whose text carries the namespace
(``DocumentId("7")`` *is* ``"doc:7"``): a reference id can never be
passed where a document id is expected without the type being visible
at the call site, two namespaces never compare equal, and hashing and
equality run in C — every read probes its ``(document, user)`` key.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Iterator

__all__ = [
    "DocumentId",
    "ReferenceId",
    "UserId",
    "PropertyId",
    "CacheId",
    "VersionId",
    "IdGenerator",
]


class _Id(str):
    """A namespaced id: the text is ``prefix + value``."""

    __slots__ = ()

    def __init_subclass__(cls, prefix: str) -> None:
        cls._prefix = prefix

    def __new__(cls, value: str) -> _Id:
        return str.__new__(cls, cls._prefix + value)  # non-str: TypeError

    @property
    def value(self) -> str:
        """The id without its namespace prefix."""
        return self[len(self._prefix):]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(value={self.value!r})"

    def __reduce__(self):
        return type(self), (self.value,)


class DocumentId(_Id, prefix="doc:"):
    """Identity of a base document, unique across the kernel."""

    __slots__ = ()


class ReferenceId(_Id, prefix="ref:"):
    """Identity of one user's reference to a base document."""

    __slots__ = ()


class UserId(_Id, prefix="user:"):
    """Identity of a user (owner of a document space)."""

    __slots__ = ()


class PropertyId(_Id, prefix="prop:"):
    """Identity of a property attachment.

    Two attachments of the "same" property class to different documents get
    distinct :class:`PropertyId` values; identity follows the attachment,
    not the class, because the paper lets the same behaviour be attached
    many times with different parameters.
    """

    __slots__ = ()


class CacheId(_Id, prefix="cache:"):
    """Identity of a cache instance, used as a notifier delivery address."""

    __slots__ = ()


class VersionId(_Id, prefix="version:"):
    """Identity of a saved document version (the versioning property)."""

    __slots__ = ()


class IdGenerator:
    """Deterministic id factory.

    All ids in a simulation come from one generator so runs are exactly
    reproducible; ids embed a per-namespace monotone counter and an
    optional human-readable hint (``doc:7-hotos.doc``) which makes traces
    and cache dumps legible.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Iterator[int]] = defaultdict(
            lambda: itertools.count(1)
        )

    def _make(self, namespace: str, hint: str | None) -> str:
        serial = next(self._counters[namespace])
        if hint:
            return f"{serial}-{hint}"
        return str(serial)

    def document(self, hint: str | None = None) -> DocumentId:
        """Mint a new :class:`DocumentId`."""
        return DocumentId(self._make("document", hint))

    def reference(self, hint: str | None = None) -> ReferenceId:
        """Mint a new :class:`ReferenceId`."""
        return ReferenceId(self._make("reference", hint))

    def user(self, hint: str | None = None) -> UserId:
        """Mint a new :class:`UserId`."""
        return UserId(self._make("user", hint))

    def property(self, hint: str | None = None) -> PropertyId:
        """Mint a new :class:`PropertyId`."""
        return PropertyId(self._make("property", hint))

    def cache(self, hint: str | None = None) -> CacheId:
        """Mint a new :class:`CacheId`."""
        return CacheId(self._make("cache", hint))

    def version(self, hint: str | None = None) -> VersionId:
        """Mint a new :class:`VersionId`."""
        return VersionId(self._make("version", hint))
