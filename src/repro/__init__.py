"""repro — a reproduction of *Caching Documents with Active Properties*.

De Lara, Petersen, Terry, LaMarca, Thornton, Salisbury, Dourish, Edwards
and Lamping (Xerox PARC), HotOS-VII, 1999.

The package implements the Placeless Documents middleware (base
documents, per-user references, static and active properties, event
dispatch, custom-stream chaining, bit-providers over simulated
repositories) and — the paper's contribution — an active-property-aware
content cache: per-user entries sharing identical content through MD5
signatures, notifier- and verifier-based consistency across the paper's
four invalidation classes, three-level cacheability votes with
event forwarding, and cost-aware Greedy-Dual-Size replacement.

Quickstart::

    from repro import PlacelessKernel, DocumentCache, MemoryProvider
    from repro.properties import TranslationProperty

    kernel = PlacelessKernel()
    user = kernel.create_user("eyal")
    ref = kernel.import_document(
        user, MemoryProvider(kernel.ctx, b"hello world"), "greeting")
    ref.attach(TranslationProperty())

    cache = DocumentCache(kernel, capacity_bytes=1 << 20)
    print(cache.read(ref).content)   # b"bonjour monde" — a miss
    print(cache.read(ref).hit)       # True — served from cache

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record; ``python -m repro.bench`` regenerates every
table.
"""

import importlib

__version__ = "1.0.0"

#: The public names, by the package that defines each.  Nothing is
#: imported until a name is first used, so ``import repro.placeless``
#: loads the middleware and not the cache above it.
_EXPORTS = {
    "repro.placeless": (
        "PlacelessKernel", "BaseDocument", "DocumentReference",
        "DocumentSpace", "DocumentCollection", "Property",
        "StaticProperty", "ActiveProperty", "AttachmentSite",
        "ReadResult", "WriteResult",
    ),
    "repro.events": ("Event", "EventType"),
    "repro.providers": (
        "BitProvider", "MemoryProvider", "FileSystemProvider",
        "SimulatedFileSystem", "WebOrigin", "WebProvider",
        "LiveFeedProvider", "CompositeProvider",
        "DocumentManagementSystem", "DMSProvider", "MailServer",
        "MessageProvider", "MailboxDigestProvider",
    ),
    "repro.contract": (
        "Cacheability", "Invalidation", "InvalidationClass",
        "InvalidationReason", "Verifier", "Verdict", "TTLVerifier",
    ),
    "repro.cache": (
        "DocumentCache", "CacheReadOutcome", "WriteMode", "CacheEntry",
        "EntryKey", "CacheStats", "InvalidationBus", "NotifierProperty",
        "install_minimum_notifiers", "ReplacementPolicy",
        "GreedyDualSizePolicy", "LRUPolicy", "make_policy",
    ),
    "repro.cluster": (
        "CacheCluster", "ClusterPolicy", "DefaultClusterPolicy",
    ),
    "repro.nfs": ("NFSServer", "NFSMount"),
    "repro.faults": (
        "FaultPlan", "FaultStats", "OutageWindow", "RetryPolicy",
        "standard_chaos_scenario",
    ),
    "repro.properties": ("EventRecorder",),
    "repro.workload": ("TraceRunner",),
    "repro.sim": (
        "SimContext", "VirtualClock", "LatencyModel", "Topology",
        "CachePlacement",
    ),
    "repro.ids": (
        "DocumentId", "ReferenceId", "UserId", "PropertyId", "CacheId",
        "VersionId",
    ),
    "repro.errors": ("PlacelessError",),
}
_MODULE_OF = {
    name: module for module, names in _EXPORTS.items() for name in names
}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
