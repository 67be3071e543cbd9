"""Standard library of active properties — the paper's worked examples.

Figure 1's scenario uses most of these directly: the universal
*versioning* property on the base document, Eyal's personal *spelling
corrector* and PARC↔Rice *replication*, plus static labels.  Section 3
adds the *read-audit-trail* (the motivating example for
``CACHEABLE_WITH_EVENTS``) and §5 the *QoS* properties that inflate
replacement costs.  Translation and summarisation are §1's examples of
content-transforming properties ("translate to French", "a summary
property may return a condensed version").  Compression and encryption
are classic paired read/write transforms that exercise the chain order
semantics.
"""

from repro.properties.access import AccessControlProperty, WatermarkProperty
from repro.properties.audit import AuditRecord, ReadAuditTrailProperty
from repro.properties.collection import (
    CollectionPrefetchProperty,
    attach_collection_prefetch,
)
from repro.properties.compression import CompressionProperty
from repro.properties.encryption import EncryptionProperty
from repro.properties.external import ExternalDependencyProperty
from repro.properties.qos import AlwaysAvailableProperty, QoSProperty
from repro.properties.recorder import EventRecorder, RecordedEvent
from repro.properties.replication import ReplicationProperty
from repro.properties.spellcheck import SpellingCorrectorProperty
from repro.properties.summarize import SummaryProperty
from repro.properties.translate import TranslationProperty
from repro.properties.uncacheable import UncacheableProperty
from repro.properties.versioning import VersioningProperty

__all__ = [
    "SpellingCorrectorProperty",
    "TranslationProperty",
    "SummaryProperty",
    "VersioningProperty",
    "ReplicationProperty",
    "ReadAuditTrailProperty",
    "AuditRecord",
    "QoSProperty",
    "AlwaysAvailableProperty",
    "CollectionPrefetchProperty",
    "attach_collection_prefetch",
    "ExternalDependencyProperty",
    "AccessControlProperty",
    "WatermarkProperty",
    "UncacheableProperty",
    "EncryptionProperty",
    "CompressionProperty",
    "EventRecorder",
    "RecordedEvent",
]
