"""A3: content-signature sharing between users' cache entries.

§3: tagging entries with (document, user) "enables no sharing of cached
entries even when the cached content for different users actually is the
same, such as when no active properties transform the content or when
all the transformations requested by the users are the same. ... content
entries could be shared if the cache maps a pair of document and user
identifiers to a content signature (e.g., MD5 hash) and in turn these
signatures map to the actual content."

We sweep the fraction of users with personalizing (content-transforming)
chains.  Every user reads every document; we report the bytes a naive
one-copy-per-entry cache would hold (*logical*) vs. what the
signature-indirected store holds (*physical*).  At 0% personalization
the dedup factor approaches the user count; it decays as personalization
rises — but identical chains still share.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import corpus_world, fmt, table, write_artifact
from repro.cache.manager import DocumentCache
from repro.workload.users import build_population

__all__ = ["SharingResult", "run_sharing", "main"]

_SEED = 23


@dataclass
class SharingResult:
    """Metrics of one personalization level."""

    personalized_fraction: float
    n_entries: int
    distinct_contents: int
    logical_bytes: int
    physical_bytes: int

    @property
    def dedup_factor(self) -> float:
        """Logical over physical bytes (≥ 1; higher is better)."""
        if self.physical_bytes == 0:
            return 1.0
        return self.logical_bytes / self.physical_bytes

    @property
    def bytes_saved(self) -> int:
        """Bytes the signature indirection avoided storing."""
        return self.logical_bytes - self.physical_bytes


def run_sharing(
    fractions: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0),
    n_documents: int = 15,
    n_users: int = 16,
    seed: int = _SEED,
) -> list[SharingResult]:
    """Sweep personalization fraction, everyone reads everything."""
    results = []
    for fraction in fractions:
        kernel, _, corpus = corpus_world(n_documents, seed)
        population = build_population(
            kernel, corpus, n_users, personalized_fraction=fraction, seed=seed
        )
        cache = DocumentCache(
            kernel, capacity_bytes=1 << 30, name=f"a3-{fraction}"
        )
        for user_index in range(n_users):
            for document_index in range(n_documents):
                cache.read(population.reference(user_index, document_index))
        results.append(
            SharingResult(
                personalized_fraction=fraction,
                n_entries=len(cache),
                distinct_contents=len(cache.store),
                logical_bytes=cache.store.logical_bytes,
                physical_bytes=cache.store.physical_bytes,
            )
        )
    return results


TITLE = (
    "A3. Content-signature sharing as personalization rises (16 users x "
    "15 documents)."
)

COLUMNS = (
    ("personalized", fmt("personalized_fraction", ".0%")),
    ("entries", "n_entries"),
    ("distinct contents", "distinct_contents"),
    ("logical MB", lambda r: r.logical_bytes / 1e6),
    ("physical MB", lambda r: r.physical_bytes / 1e6),
    ("dedup factor", "dedup_factor"),
)


def main(smoke: bool = False) -> None:
    """Print the A3 table and write ``BENCH_A3.json`` (one size)."""
    rows = run_sharing()
    print(table(rows, COLUMNS, title=TITLE))
    write_artifact("a3", {"levels": rows}, seed=_SEED)

