"""The document half of the stream chain: read plans and the property seam.

:mod:`repro.streams.chain` builds chains of byte streams; this module
knows what they are chains *of*.  :class:`ReadPlan` is everything the
cache derives from one reference's read chain (§2's order: base
properties, then reference properties), compiled once per
``chain_epoch``.  :func:`interpose` — reached as
:func:`apply_read_wrapper` / :func:`apply_write_wrapper` — is the
single body in which property stream code runs on a document path.  On
a context without a containment guard it is the historical absorb+wrap
byte-for-byte (plus optional seed-deterministic misbehaviour injection
from the fault plan); on a context that carries one
(``ctx.containment``, one per world, whichever cache the read came
through) every step defers to the guard's breakers, budgets and
exception firewalls.
"""

from __future__ import annotations

import hashlib
import typing
from typing import Any, Iterable, NamedTuple

from repro.errors import ContainmentError, PropertyError
from repro.placeless.properties import ActiveProperty
from repro.sim.context import SimContext
from repro.streams.chain import CorruptingInputStream, CorruptingOutputStream

if typing.TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.placeless.document import PathMeta

__all__ = [
    "interpose",
    "apply_read_wrapper",
    "apply_write_wrapper",
    "property_site",
    "read_chain_properties",
    "ChainFingerprint",
    "ReadPlan",
    "read_plan",
]


def property_site(prop: "ActiveProperty") -> str:
    """Breaker/fault site label for one property's stream wrappers."""
    return f"stream:{prop.name}"


def read_chain_properties(reference) -> tuple:
    """The active properties on *reference*'s read path, in chain order.

    Base-document properties first, then reference properties — the
    execution order §2 prescribes and the wrap loops of
    ``BaseDocument.begin_read`` and ``DocumentReference.open_input``
    realise.  Metadata-only (no streams are built), so the chain
    signature and chain fingerprint machinery can predict a read path
    without running it.
    """
    return reference.base.read_chain() + reference.read_chain()


class ChainFingerprint(NamedTuple):
    """Order-sensitive digest of one read path's property chain."""

    digest: str

    @classmethod
    def compose(cls, signatures: Iterable[str]) -> "ChainFingerprint":
        """Fold per-property ``transform_signature()`` strings, each
        tagged with its position.

        Position tagging is what makes the paper's invalidation class
        (c) observable: ``[a, b]`` and ``[b, a]`` compose differently
        even though the member set is identical.
        """
        hasher = hashlib.md5()
        for position, signature in enumerate(signatures):
            hasher.update(f"{position}:{signature}\n".encode())
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
        "fingerprint", "shareable", "pins", "qos_deadline_ms",
    )

    def __init__(self, reference) -> None:
        self.base_epoch = reference.base.chain_epoch
        self.reference_epoch = reference.chain_epoch
        #: Base-document properties then reference properties (§2).
        chain = self.chain = read_chain_properties(reference)
        #: Every chain property's read-path identity, in order: what this
        #: read path records as ``PathMeta.chain_signature``.
        self.chain_signature = tuple(
            prop.transform_signature() for prop in chain
        )
        #: The transform memo's key for this chain.
        self.fingerprint = ChainFingerprint.compose(self.chain_signature)
        #: May another read's output answer this one?  Not when a chain
        #: property handles read events (an access check, an audit
        #: trail): it must see every read.  Judged from the code, so a
        #: new such property is covered without declaring anything.
        self.shareable = all(
            type(prop).handle is ActiveProperty.handle for prop in chain
        )
        #: §5's "always available": some property pins the entry.
        self.pins = any(prop.requests_pinning() for prop in chain)
        #: Tightest finite QoS access-time target on the chain (§3's
        #: "access time < .25 seconds"); ``inf`` when none is declared.
        self.qos_deadline_ms = min(
            (prop.access_time_target_ms() for prop in chain),
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
