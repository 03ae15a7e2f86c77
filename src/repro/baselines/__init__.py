"""Baseline SOAP serializers the paper compares against.

* :class:`~repro.baselines.gsoap_like.GSoapLikeClient` — plays the
  role of gSOAP: the fastest possible *streaming* full serializer in
  the host language (flat parts list + join, no DOM, no template).
* :class:`~repro.baselines.xsoap_like.XSoapLikeClient` — plays the
  role of XSOAP: a document-object-model is built per call and then
  walked to produce bytes, the design that makes DOM-based toolkits
  slower.
* :class:`~repro.baselines.naive.NaiveClient` — bytes-concatenation
  strawman, for teaching and sanity floors.
* :class:`~repro.baselines.paper_expansion.PaperTemplate` — the
  paper's own field expansion (§3.2: a tail shift per value, or
  stealing a neighbour's slack) over a template copy, the reference
  the runtime's one-rebuild-per-chunk shift is held to.
* :class:`~repro.baselines.paper_overlay.OverlaySender` — the paper's
  chunk overlaying (§3.3): each send streams a large array through one
  reused chunk (Figure 12 and the resident-memory claim).

The serializer baselines emit envelopes interoperable with the bSOAP templates
(same namespaces/array encoding), verified by the cross-equivalence
tests.
"""

from repro.baselines.common import FullSerializer, serialize_message_parts
from repro.baselines.gsoap_like import GSoapLikeClient
from repro.baselines.xsoap_like import Element, XSoapLikeClient
from repro.baselines.naive import NaiveClient
from repro.baselines.paper_expansion import PaperStats, PaperTemplate, pending_writes
from repro.baselines.paper_overlay import (
    OverlaySender,
    OverlayTemplate,
    build_overlay_template,
)

__all__ = [
    "FullSerializer",
    "serialize_message_parts",
    "GSoapLikeClient",
    "XSoapLikeClient",
    "Element",
    "NaiveClient",
    "PaperStats",
    "PaperTemplate",
    "pending_writes",
    "OverlaySender",
    "OverlayTemplate",
    "build_overlay_template",
]
