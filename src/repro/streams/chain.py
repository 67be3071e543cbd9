"""Builders applying property stream-wrappers in the paper's order.

Read path (§2): "The execution of custom input stream functionality on
the read path occurs first at the base document and then at the document
reference."  Content therefore flows

    repository → base-property streams → reference-property streams → app

which, in wrapper terms, means reference wrappers wrap *outside* base
wrappers: the application reads from the outermost (last reference
property's) stream.

Write path: "custom output-streams on the write path are first executed
at the document reference and then at the base document" — the
application writes into the outermost stream, which is the *first*
reference property's; data then flows through the remaining reference
wrappers, the base wrappers, and finally the bit-provider's sink.

Both builders fail **closed**: a wrapper that raises during chain
construction closes the partially-built chain before the error
propagates, so no half-wrapped stream leaks to the caller.

This module is also the stream seam of the containment layer:
:func:`interpose` — reached as :func:`apply_read_wrapper` /
:func:`apply_write_wrapper` — is the single body in which property
stream code runs on a document path.  On a context without a
containment guard it is the historical absorb+wrap byte-for-byte (plus
optional seed-deterministic misbehaviour injection from the fault
plan); on a context that carries one (``ctx.containment``, one per
world, whichever cache the read came through) every step defers to the
guard's breakers, budgets and exception firewalls.
"""

from __future__ import annotations

import hashlib
import typing
from typing import Any, Callable, Iterable, NamedTuple

from repro.errors import (
    BudgetExceededError,
    ContainmentError,
    PropertyError,
    StreamError,
)
from repro.streams.base import InputStream, OutputStream

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.placeless.document import PathMeta
    from repro.placeless.properties import ActiveProperty
    from repro.sim.context import SimContext

__all__ = [
    "build_input_chain",
    "build_output_chain",
    "drain",
    "interpose",
    "apply_read_wrapper",
    "apply_write_wrapper",
    "property_site",
    "read_chain_properties",
    "ChainFingerprint",
    "ReadPlan",
    "read_plan",
    "FirewallInputStream",
    "FirewallOutputStream",
    "ByteCapInputStream",
    "CorruptingInputStream",
    "CorruptingOutputStream",
]

InputWrapper = Callable[[InputStream], InputStream]
OutputWrapper = Callable[[OutputStream], OutputStream]


def build_input_chain(
    source: InputStream,
    wrappers: Iterable[InputWrapper],
) -> InputStream:
    """Wrap *source* with each wrapper, in execution order.

    *wrappers* must be supplied in the order the properties execute on the
    read path (base-document properties first, then reference
    properties).  The first wrapper ends up innermost — closest to the
    repository — so it transforms the content first, exactly as §2's
    calling chain describes.  Returns the outermost stream the application
    reads from.

    Fails closed: a raising wrapper closes the chain built so far before
    the error propagates.
    """
    stream = source
    for wrap in wrappers:
        try:
            stream = wrap(stream)
        except Exception:
            stream.close()
            raise
    return stream


def build_output_chain(
    sink: OutputStream,
    wrappers: Iterable[OutputWrapper],
) -> OutputStream:
    """Wrap *sink* with each wrapper, in execution order.

    *wrappers* must be supplied in the order the properties execute on the
    write path (reference properties first, then base properties).  The
    first wrapper ends up outermost — it is handed "to the next property
    in the calling chain ... or if it is the last to the application" — so
    the application's writes hit it first.  Returns the outermost stream
    the application writes into.

    Fails closed: a raising wrapper closes the chain built so far before
    the error propagates.
    """
    stream = sink
    for wrap in reversed(list(wrappers)):
        try:
            stream = wrap(stream)
        except Exception:
            stream.close()
            raise
    return stream


def drain(source: InputStream, chunk_size: int = 4096) -> bytes:
    """Read *source* to end of stream in *chunk_size* pieces and close it.

    The application-shaped reader: an editor or ``repro.nfs`` pulls a
    file in pieces, which exercises the chunk and line transform paths
    that ``read(-1)`` — what :meth:`PlacelessKernel.read` issues —
    answers in one step.  Both deliver the same bytes.
    """
    pieces = []
    try:
        while True:
            chunk = source.read(chunk_size)
            if not chunk:
                break
            pieces.append(chunk)
    finally:
        source.close()
    return b"".join(pieces)


# -- the stream seam of the containment layer ----------------------------------


def property_site(prop: "ActiveProperty") -> str:
    """Breaker/fault site label for one property's stream wrappers."""
    return f"stream:{prop.name}"


def read_chain_properties(reference) -> tuple:
    """The active properties on *reference*'s read path, in chain order.

    Base-document properties first, then reference properties — the
    execution order §2 prescribes and :func:`build_input_chain`
    realises.  Metadata-only (no streams are built), so the chain
    signature and chain fingerprint machinery can predict a read path
    without running it.
    """
    return reference.base.read_chain() + reference.read_chain()


class ChainFingerprint(NamedTuple):
    """Order-sensitive digest of one read path's transformation chain."""

    digest: str

    @classmethod
    def compose(cls, fingerprints: Iterable[str]) -> "ChainFingerprint":
        """Fold per-property fingerprints, tagged with their position.

        Position tagging is what makes the paper's invalidation class
        (c) observable: ``[a, b]`` and ``[b, a]`` compose differently
        even though the member set is identical.
        """
        hasher = hashlib.md5()
        for position, fingerprint in enumerate(fingerprints):
            hasher.update(f"{position}:{fingerprint}\n".encode())
        return cls(hasher.hexdigest())


class ReadPlan:
    """Everything the cache derives from one reference's read chain.

    Compiled once by :func:`read_plan` and reused until a chain
    mutation on the reference or its base document moves their
    ``chain_epoch``: only §3's invalidation classes (b) and (c) can
    change a field, and they all funnel through ``PropertyHolder``'s
    ``attach``/``detach``/``reorder``/``property_modified``.  Mutating
    a property behind those (assigning ``version`` instead of
    ``upgrade()``) is invisible to notifiers and to the plan alike.
    """

    __slots__ = (
        "base_epoch", "reference_epoch", "chain", "chain_signature",
        "fingerprint", "pins", "qos_deadline_ms",
    )

    def __init__(self, reference) -> None:
        from repro.properties.qos import QoSProperty

        self.base_epoch = reference.base.chain_epoch
        self.reference_epoch = reference.chain_epoch
        #: Base-document properties then reference properties (§2).
        chain = self.chain = read_chain_properties(reference)
        #: What this read path would record as ``PathMeta.chain_signature``.
        self.chain_signature = tuple(
            signature
            for signature in (prop.transform_signature() for prop in chain)
            if signature is not None
        )
        self.fingerprint = ChainFingerprint.compose(
            prop.fingerprint() for prop in chain
        )
        #: §5's "always available": some property pins the entry.
        self.pins = any(prop.requests_pinning() for prop in chain)
        #: Tightest finite QoS access-time target on the chain (§3's
        #: "access time < .25 seconds"); ``inf`` when none is declared.
        self.qos_deadline_ms = min(
            (
                prop.max_access_time_ms
                for prop in chain
                if isinstance(prop, QoSProperty)
            ),
            default=float("inf"),
        )


def read_plan(reference) -> ReadPlan:
    """*reference*'s compiled read chain, rebuilt only after a mutation."""
    plan = reference._read_plan
    if (
        plan is None
        or plan.reference_epoch != reference.chain_epoch
        or plan.base_epoch != reference.base.chain_epoch
    ):
        ctx = reference.ctx
        ctx.read_plans_built += 1
        if plan is not None:
            ctx.read_plans_rebuilt += 1
        plan = reference._read_plan = ReadPlan(reference)
    return plan


def interpose(
    ctx: "SimContext",
    prop: "ActiveProperty",
    stream: Any,
    event: Any,
    meta: "PathMeta | None" = None,
) -> Any:
    """Run one property's interposition on a document path.

    The one place untrusted property stream code executes.  On the read
    path (*meta* given) the property is absorbed into the path metadata
    and wraps the input stream; on the write path (*meta* ``None``) its
    cost is charged and it wraps the output stream.  In front of it
    stand the fault plan's seed-deterministic misbehaviour and, when
    the context carries a containment guard, the guard's decisions.
    The breaker is asked before the plan, so a property that is not run
    draws no RNG; without a guard the plan always draws and what it
    injects reaches the application.  Infrastructure properties (the
    cache's own notifiers) are neither faulted nor fenced.
    """
    reading = meta is not None
    guard = plan = mode = None
    if not getattr(prop, "is_infrastructure", False):
        guard, plan = ctx.containment, ctx.faults
    if guard is not None or plan is not None:
        site = property_site(prop)
    if guard is not None:
        key = (event.document_id, site)
        if not guard.admit(key):
            return guard.fall_back(key, prop, stream, meta, None)
    if plan is not None:
        mode = plan.check_property(site)
    runaway_ms = plan.property_runaway_cost_ms if mode == "runaway" else 0.0
    if guard is not None:
        overrun = guard.over_budget(key, prop.execution_cost_ms + runaway_ms)
        if overrun is not None:
            return guard.fall_back(key, prop, stream, meta, overrun)
    try:
        if reading:
            meta.absorb_property(ctx, prop)
        else:
            ctx.charge(prop.execution_cost_ms)
        if mode == "runaway":
            ctx.charge(runaway_ms)
        if mode == "raise":
            raise PropertyError(f"injected failure in property {prop.name!r}")
        wrap = prop.wrap_input if reading else prop.wrap_output
        wrapped = wrap(stream, event)
    except Exception as error:
        if guard is None or isinstance(error, ContainmentError):
            raise
        guard.contained(key, error)
        return guard.fall_back(key, prop, stream, meta, error)
    if mode == "corrupt":
        wrapped = (
            CorruptingInputStream if reading else CorruptingOutputStream
        )(wrapped, site)
    if guard is None:
        return wrapped
    return guard.firewall(key, wrapped, reading)


#: The seam's two public names; the write path is the call without *meta*.
apply_read_wrapper = apply_write_wrapper = interpose


class FirewallInputStream(InputStream):
    """Exception firewall around a property's input stream.

    Reports the stream's fate to the containment guard: ``on_failure``
    once if any read raises (the error still propagates — a mid-stream
    failure cannot be skipped retroactively, but the breaker learns),
    ``on_success`` once when end of stream is reached cleanly — by an
    empty chunk or by a ``read(-1)``, which is forwarded inward whole.
    """

    def __init__(
        self,
        inner: InputStream,
        on_failure: Callable[[BaseException], None],
        on_success: Callable[[], None],
    ) -> None:
        super().__init__()
        self._inner = inner
        self._on_failure = on_failure
        self._on_success = on_success
        self._reported = False

    def _read_chunk(self, size: int) -> bytes:
        try:
            chunk = self._inner.read(size)
        except Exception as error:
            if not self._reported:
                self._reported = True
                self._on_failure(error)
            raise
        if (size < 0 or not chunk) and not self._reported:
            self._reported = True
            self._on_success()
        return chunk

    def _read_rest(self) -> bytes:
        return self._read_chunk(-1)

    def _on_close(self) -> None:
        self._inner.close()


class FirewallOutputStream(OutputStream):
    """Exception firewall around a property's output stream.

    ``on_failure`` fires once if any write raises (the error
    propagates); ``on_success`` fires at a clean close.
    """

    def __init__(
        self,
        inner: OutputStream,
        on_failure: Callable[[BaseException], None],
        on_success: Callable[[], None],
    ) -> None:
        super().__init__()
        self._inner = inner
        self._on_failure = on_failure
        self._on_success = on_success
        self._reported = False

    def _write_chunk(self, data: bytes) -> None:
        try:
            self._inner.write(data)
        except Exception as error:
            if not self._reported:
                self._reported = True
                self._on_failure(error)
            raise

    def _on_close(self) -> None:
        self._inner.close()
        if not self._reported:
            self._reported = True
            self._on_success()


class ByteCapInputStream(InputStream):
    """Enforces an execution budget's byte cap on a property stream.

    The cap exists to stop an over-producing property, so it does not
    forward ``read(-1)``: it keeps the default 64 KiB loop and checks
    the running total after every chunk — a runaway stream is cut off
    within one chunk of the cap instead of being materialised first.
    The cap trips on the same streams whatever the reader's chunking;
    how far the streams *beneath* had got by then depends on it.
    """

    def __init__(self, inner: InputStream, max_bytes: int, site: str) -> None:
        super().__init__()
        self._inner = inner
        self._max_bytes = max_bytes
        self._site = site
        self.bytes_read = 0

    def _read_chunk(self, size: int) -> bytes:
        chunk = self._inner.read(size)
        self.bytes_read += len(chunk)
        if self.bytes_read > self._max_bytes:
            raise BudgetExceededError(
                f"{self._site}: streamed {self.bytes_read} bytes, "
                f"budget {self._max_bytes}"
            )
        return chunk

    def _on_close(self) -> None:
        self._inner.close()


class CorruptingInputStream(InputStream):
    """Injected *corrupt-output* misbehaviour on the read path.

    Delivers one garbled chunk, then fails mid-stream — a transformer
    whose output framing broke partway through, detectably.
    """

    def __init__(self, inner: InputStream, site: str) -> None:
        super().__init__()
        self._inner = inner
        self._site = site
        self._delivered = False

    def _read_chunk(self, size: int) -> bytes:
        if self._delivered:
            raise StreamError(
                f"{self._site}: injected corrupt output mid-stream"
            )
        self._delivered = True
        chunk = self._inner.read(size)
        return bytes(byte ^ 0x5A for byte in chunk)

    def _on_close(self) -> None:
        self._inner.close()


class CorruptingOutputStream(OutputStream):
    """Injected *corrupt-output* misbehaviour on the write path.

    The first write fails with a stream error — the transformer mangled
    its output and downstream framing rejected it — so no corrupt bytes
    reach the bit-provider.
    """

    def __init__(self, inner: OutputStream, site: str) -> None:
        super().__init__()
        self._inner = inner
        self._site = site

    def _write_chunk(self, data: bytes) -> None:
        raise StreamError(
            f"{self._site}: injected corrupt output on write"
        )

    def _on_close(self) -> None:
        self._inner.close()
