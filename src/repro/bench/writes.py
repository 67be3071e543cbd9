"""A11: write-through vs. write-back (§3, Cache Management).

"Assuming a write-through cache, it is sufficient for just the properties
on the read-path to set the cacheability indicator.  With a write-back
cache, active properties on the write-path may need to register their
cacheability requirements as well."

The trade-off the two modes embody: write-through pays the full write
path on every save (every property executes, the repository commits),
while write-back buffers locally — cheap saves, deferred commits — at the
price of a visibility window during which other users still read the old
version, and of write-path properties needing WRITE_FORWARDED events to
observe buffered operations (our versioning property does).

Workload: an author saving a document repeatedly (auto-save style) while
a reviewer polls it.  Reported per mode: mean save latency, repository
commits, versioning-property observations, and the reviewer's
ground-truth stale reads.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import mean, table, write_artifact
from repro.cache.manager import DocumentCache, WriteMode
from repro.cache.notifiers import InvalidationBus
from repro.placeless.kernel import PlacelessKernel
from repro.properties.versioning import VersioningProperty
from repro.providers.memory import MemoryProvider
from repro.workload.documents import generate_text

__all__ = ["WriteModeResult", "run_write_modes", "main"]

_SEED = 59


@dataclass
class WriteModeResult:
    """Metrics of one write mode."""

    mode: str
    saves: int
    mean_save_latency_ms: float
    repository_commits: int
    versions_observed: int
    reviewer_reads: int
    reviewer_stale_reads: int

    @property
    def reviewer_staleness(self) -> float:
        """Reviewer reads not reflecting the author's latest save."""
        if self.reviewer_reads == 0:
            return 0.0
        return self.reviewer_stale_reads / self.reviewer_reads


def _run(mode: WriteMode, n_saves: int, saves_per_flush: int,
         document_bytes: int, seed: int) -> WriteModeResult:
    kernel = PlacelessKernel()
    author = kernel.create_user("author")
    reviewer = kernel.create_user("reviewer")
    provider = MemoryProvider(
        kernel.ctx, generate_text(document_bytes, seed)
    )
    base = kernel.create_document(author, provider, "manuscript")
    versioning = VersioningProperty()
    base.attach(versioning)
    author_ref = kernel.space(author).add_reference(base)
    reviewer_ref = kernel.space(reviewer).add_reference(base)

    bus = InvalidationBus(kernel.ctx)
    author_cache = DocumentCache(
        kernel, capacity_bytes=1 << 20, bus=bus, write_mode=mode,
        name=f"a11-author-{mode.value}",
    )
    reviewer_cache = DocumentCache(
        kernel, capacity_bytes=1 << 20, bus=bus, track_staleness=True,
        name=f"a11-reviewer-{mode.value}",
    )

    save_latencies = []
    reviewer_reads = 0
    reviewer_stale = 0
    for save in range(n_saves):
        kernel.ctx.clock.advance(5_000.0)  # auto-save every 5 s
        content = generate_text(document_bytes, seed + save + 1)
        save_latencies.append(author_cache.write(author_ref, content))
        if mode is WriteMode.WRITE_BACK and (save + 1) % saves_per_flush == 0:
            author_cache.flush(author_ref)
        # The reviewer polls after every save.  A read is "stale" when
        # it does not reflect the author's latest save — for write-back
        # this is the visibility window until the next flush.
        outcome = reviewer_cache.read(reviewer_ref)
        reviewer_reads += 1
        if outcome.content != content:
            reviewer_stale += 1
    author_cache.flush_all()

    return WriteModeResult(
        mode=mode.value,
        saves=n_saves,
        mean_save_latency_ms=mean(save_latencies),
        repository_commits=provider.store_count,
        versions_observed=versioning.version_count,
        reviewer_reads=reviewer_reads,
        reviewer_stale_reads=reviewer_stale,
    )


def run_write_modes(
    n_saves: int = 60,
    saves_per_flush: int = 5,
    document_bytes: int = 6000,
    seed: int = _SEED,
) -> list[WriteModeResult]:
    """Run both write modes over identical save/poll sequences."""
    return [
        _run(mode, n_saves, saves_per_flush, document_bytes, seed)
        for mode in (WriteMode.WRITE_THROUGH, WriteMode.WRITE_BACK)
    ]


TITLE = (
    "A11. Write-through vs. write-back: save latency vs. commit traffic "
    "vs. the visibility window."
)

COLUMNS = (
    ("mode", "mode"),
    ("saves", "saves"),
    ("mean save latency (ms)", "mean_save_latency_ms"),
    ("repo commits", "repository_commits"),
    ("versions observed", "versions_observed"),
    ("reviewer staleness", "reviewer_staleness"),
)


def main(smoke: bool = False) -> None:
    """Print the A11 table and write ``BENCH_A11.json`` (one size)."""
    rows = run_write_modes()
    print(table(rows, COLUMNS, title=TITLE))
    write_artifact("a11", {"modes": rows}, seed=_SEED)

