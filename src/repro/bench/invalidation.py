"""A5: the four consistency classes invalidate exactly the affected entries.

§3 enumerates four ways cached transformed content becomes invalid.  This
experiment scripts one mutation per class against a shared document
cached for three users (one personalizing, two plain) and verifies, per
mutation, *which* entries were invalidated and under which reason:

1a. in-band source write (another user, through Placeless) → all users;
1b. out-of-band repository update → caught per-user at next access by
    the verifier;
2.  personal transforming property added/upgraded/removed → that user;
2'. universal transforming property added → all users;
3.  property chain reordered → affected user;
4.  external data a property depends on changed → caught by a
    threshold/TTL verifier.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import table, write_artifact
from repro.cache.manager import DocumentCache
from repro.placeless.kernel import PlacelessKernel
from repro.properties.spellcheck import SpellingCorrectorProperty
from repro.properties.summarize import SummaryProperty
from repro.properties.translate import TranslationProperty
from repro.providers.simfs import SimulatedFileSystem
from repro.providers.filesystem import FileSystemProvider
from repro.workload.documents import generate_text

__all__ = ["InvalidationStep", "run_invalidation_classes", "main"]

_SEED = 3


@dataclass
class InvalidationStep:
    """Outcome of one scripted mutation."""

    step: str
    consistency_class: str
    #: Which of the three users' next reads missed (entry invalidated).
    invalidated_users: tuple[str, ...]
    #: Which users' reads still hit (entries survived, as they should).
    survived_users: tuple[str, ...]
    #: Reasons recorded by the cache since the previous step.
    reasons: tuple[str, ...]


def run_invalidation_classes(seed: int = _SEED) -> list[InvalidationStep]:
    """Run the scripted scenario; every step re-warms the cache first."""
    kernel = PlacelessKernel()
    users = {name: kernel.create_user(name) for name in ("eyal", "paul", "doug")}
    filesystem = SimulatedFileSystem(kernel.ctx.clock)
    filesystem.write("/tilde/edelara/hotos.doc", generate_text(4000, seed))
    provider = FileSystemProvider(
        kernel.ctx, filesystem, "/tilde/edelara/hotos.doc"
    )
    base = kernel.create_document(users["eyal"], provider, "hotos.doc")
    refs = {
        name: kernel.space(user).add_reference(base, name)
        for name, user in users.items()
    }
    # Eyal personalizes with a spell-corrector (Figure 1).
    eyal_chain = [SpellingCorrectorProperty(), SummaryProperty(max_sentences=50)]
    for prop in eyal_chain:
        refs["eyal"].attach(prop)

    cache = DocumentCache(kernel, capacity_bytes=1 << 30, name="a5")

    def warm() -> None:
        for ref in refs.values():
            cache.read(ref)

    def probe(step: str, klass: str, seen: set) -> InvalidationStep:
        invalidated, survived = [], []
        for name, ref in refs.items():
            outcome = cache.read(ref)
            (invalidated if not outcome.hit else survived).append(name)
        new_reasons = tuple(
            sorted(
                reason.value
                for reason, count in cache.stats.invalidations.items()
                if count > seen.get(reason, 0)
            )
        )
        return InvalidationStep(
            step=step,
            consistency_class=klass,
            invalidated_users=tuple(sorted(invalidated)),
            survived_users=tuple(sorted(survived)),
            reasons=new_reasons,
        )

    steps: list[InvalidationStep] = []

    def snapshot() -> dict:
        return dict(cache.stats.invalidations)

    # -- class 1a: in-band write by Doug ---------------------------------------
    warm()
    seen = snapshot()
    kernel.write(refs["doug"], generate_text(4100, seed + 1))
    steps.append(probe("doug writes through Placeless", "1 (in-band)", seen))

    # -- class 1b: out-of-band repository update -------------------------------
    warm()
    seen = snapshot()
    filesystem.write("/tilde/edelara/hotos.doc", generate_text(4200, seed + 2))
    steps.append(probe("file changed on the filer", "1 (out-of-band)", seen))

    # -- class 2 (personal): Paul attaches a translator -------------------------
    warm()
    seen = snapshot()
    paul_translator = TranslationProperty()
    refs["paul"].attach(paul_translator)
    steps.append(probe("paul adds translate-to-french", "2 (personal add)", seen))

    # -- class 2 (modify): Eyal upgrades his spell-corrector -------------------
    warm()
    seen = snapshot()
    eyal_chain[0].upgrade_dictionary({"performance": "performance"})
    steps.append(probe("eyal upgrades spell-corrector", "2 (modify)", seen))

    # -- class 2 (universal): versioning-style transform added at base ---------
    warm()
    seen = snapshot()
    universal_summary = SummaryProperty(name="abstract-only")
    base.attach(universal_summary)
    steps.append(probe("universal summary added at base", "2 (universal add)", seen))

    # -- class 3: Eyal reorders his chain -----------------------------------------
    warm()
    seen = snapshot()
    chain_ids = [p.property_id for p in refs["eyal"].active_properties()
                 if not p.name.startswith("notify")]
    other_ids = [p.property_id for p in refs["eyal"].active_properties()
                 if p.name.startswith("notify")]
    refs["eyal"].reorder(list(reversed(chain_ids)) + other_ids)
    steps.append(probe("eyal reorders spell/summary", "3 (reorder)", seen))

    # -- class 4: external info (the TTL/mtime world) changes ------------------
    # The mtime verifier is the bit-provider's watch on external state;
    # an out-of-band touch models "information used by active properties
    # changes" for provider-level dependencies.
    warm()
    seen = snapshot()
    record = filesystem.stat("/tilde/edelara/hotos.doc")
    kernel.ctx.clock.advance(10.0)
    filesystem.write("/tilde/edelara/hotos.doc", record.content)  # same bytes, new mtime
    steps.append(probe("external metadata changed (mtime)", "4 (external)", seen))

    return steps


def _joined(name: str):
    """A cell listing the tuple-valued attribute *name* (``-`` if empty)."""
    return lambda step: ",".join(getattr(step, name)) or "-"


TITLE = (
    "A5. Each consistency class invalidates exactly the affected entries."
)

COLUMNS = (
    ("mutation", "step"),
    ("class", "consistency_class"),
    ("invalidated", _joined("invalidated_users")),
    ("survived", _joined("survived_users")),
    ("reasons", _joined("reasons")),
)


def main(smoke: bool = False) -> None:
    """Print the A5 table and write ``BENCH_A5.json`` (one size)."""
    steps = run_invalidation_classes()
    print(table(steps, COLUMNS, title=TITLE))
    write_artifact("a5", {"steps": steps}, seed=_SEED)

