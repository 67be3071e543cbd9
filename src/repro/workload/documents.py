"""Document corpora: the Table-1 trio and synthetic multi-repo corpora.

Table 1 names three documents by source and size:

* ``parcweb`` — 1915 bytes (the PARC intranet server);
* a ``www`` document — 10 883 bytes;
* a ``www`` document — 1104 bytes.

:func:`build_table1_documents` recreates exactly those three.
:func:`build_corpus` builds larger synthetic corpora whose sizes,
repositories and property chains are drawn from a seeded RNG, for the
replacement/sharing/consistency benches.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import WorkloadError
from repro.placeless.kernel import PlacelessKernel
from repro.placeless.reference import DocumentReference
from repro.providers.base import BitProvider
from repro.providers.web import WebOrigin, WebProvider
from repro.ids import UserId

__all__ = [
    "generate_text",
    "CorpusDocument",
    "CorpusSpec",
    "build_table1_documents",
    "build_corpus",
]

#: Word pool for deterministic document text.  Includes the words the
#: transform properties know about so spell-checks and translations
#: actually change bytes.
_WORDS = (
    "the a and of for with active property properties document documents "
    "cache caching system user users content placeless server reference "
    "base verifier notifier stream event workshop paper teh recieve "
    "seperate documnet propertys consistancy performence is are world "
    "hello replication version summary translate policy cost"
).split()


#: The draw-order contract (DESIGN §3.7): ``rng.choice(_WORDS)`` is
#: ``getrandbits(6)`` -- the top 6 bits of one 32-bit output -- redrawn
#: while >= 44, and ``randbytes(4 * n)`` is *n* outputs, little-endian.
#: So every fourth byte, ``>> 2``, is a pick, and one >= 176 a redraw.
_SPACED = tuple(word + " " for word in _WORDS)
_PICK = bytes(byte >> 2 for byte in range(256))
_REDRAWN = bytes(range(len(_WORDS) << 2, 256))
#: 32-bit outputs per bulk draw (~20 KB of text), so the transient
#: buffers stay small whatever the document size.
_MAX_DRAWS = 4096


def generate_text(size_bytes: int, seed: int = 0) -> bytes:
    """Deterministic English-ish text of exactly *size_bytes* bytes.

    Words are drawn from a pool that overlaps the transform properties'
    dictionaries; lines wrap at ~72 columns, paragraphs every 6 lines.
    The bytes are those of one ``rng.choice(_WORDS)`` per word on
    ``random.Random(seed)``, drawn in bulk; the stream is private to the
    call, so the words drawn past *size_bytes* cost nothing downstream.
    """
    if size_bytes < 0:
        raise WorkloadError(f"size must be non-negative: {size_bytes}")
    rng = random.Random(seed)
    text = ""
    while len(text) <= size_bytes:
        draws = min((size_bytes - len(text)) // 4 + 16, _MAX_DRAWS)
        picks = rng.randbytes(4 * draws)[3::4].translate(_PICK, _REDRAWN)
        text += "".join([_SPACED[pick] for pick in picks])
    # Every word carries its trailing space, so a line is everything up
    # to the last space inside its width.  The width counts that space
    # and the separator that opened the line -- 73 columns less "", "\n"
    # or "\n\n" -- which is what the pinned corpus digests were cut from.
    lines: list[str] = []
    start, separator, laid = 0, "", 0
    while laid < size_bytes:
        stop = text.rfind(" ", start, start + 73 - len(separator))
        separator = "\n" if (len(lines) + 1) % 6 else "\n\n"
        lines.append(text[start:stop] + separator)
        laid += stop - start + len(separator)
        start = stop + 1
    return "".join(lines)[:size_bytes].encode("ascii")


@dataclass
class CorpusDocument:
    """One corpus member: the reference plus provenance for reporting."""

    reference: DocumentReference
    provider: BitProvider
    repository: str
    size_bytes: int
    label: str
    #: Names of active properties attached for this document (on the
    #: owner's reference), for result attribution.
    property_names: list[str] = field(default_factory=list)


def build_table1_documents(
    kernel: PlacelessKernel,
    owner: UserId,
    ttl_ms: float = 60_000.0,
) -> list[CorpusDocument]:
    """The paper's three Table-1 documents, verbatim sizes.

    "No active properties were associated with the documents at either
    the base or the reference in this experiment." (§4)
    """
    specs = [
        ("parcweb", "parcweb", "/index.html", 1915),
        ("www-large", "www", "/paper.ps", 10_883),
        ("www-small", "www", "/note.html", 1104),
    ]
    documents: list[CorpusDocument] = []
    for index, (label, host, url, size) in enumerate(specs):
        origin = WebOrigin(kernel.ctx.clock, host=host)
        origin.publish(url, generate_text(size, seed=index), ttl_ms=ttl_ms)
        provider = WebProvider(kernel.ctx, origin, url)
        reference = kernel.import_document(owner, provider, label)
        documents.append(
            CorpusDocument(
                reference=reference,
                provider=provider,
                repository=host,
                size_bytes=size,
                label=label,
            )
        )
    return documents


@dataclass
class CorpusSpec:
    """Configuration for a synthetic corpus."""

    n_documents: int = 100
    #: (repository name, probability) — must sum to 1.
    repository_mix: tuple[tuple[str, float], ...] = (
        ("nfs", 0.4),
        ("parcweb", 0.3),
        ("www", 0.3),
    )
    #: Log-normal size parameters (median ≈ exp(mu) bytes).
    size_mu: float = 7.6   # median ≈ 2 KB
    size_sigma: float = 1.2
    min_size: int = 128
    max_size: int = 200_000
    ttl_ms: float = 60_000.0
    seed: int = 42


def build_corpus(
    kernel: PlacelessKernel,
    owner: UserId,
    spec: CorpusSpec | None = None,
) -> list[CorpusDocument]:
    """Build a synthetic corpus of documents across repositories.

    Documents are owned by *owner*; callers attach property chains and
    create other users' references afterwards (see
    :func:`repro.workload.users.build_population`).
    """
    # Delegates to the lazy churn catalog, materialized in index order —
    # byte-identical output (a pinned-digest test holds the builders
    # together), one implementation of the draw order.
    from repro.workload.churn import ChurnCatalog

    return ChurnCatalog(kernel, owner, spec).materialize_all()
