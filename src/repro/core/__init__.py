"""bSOAP core: differential serialization (the paper's contribution).

Public surface:

* :class:`~repro.core.client.BSoapClient` — the client stub with a
  template store and the four-way match dispatch,
* :class:`~repro.core.policy.DiffPolicy` and friends — chunking,
  stuffing, overlaying configuration,
* :class:`~repro.core.template.MessageTemplate` /
  :func:`~repro.core.serializer.build_template` — saved serialized
  messages with DUT tables,
* :mod:`~repro.core.differential` — the dirty-only rewrite,
* :class:`~repro.core.stats.SendReport` — what each send did.
"""

from repro.core.client import BSoapClient, PreparedCall
from repro.core.differential import rewrite_dirty
from repro.core.matcher import classify, refine
from repro.core.overlay import OverlayTemplate, build_overlay_template, overlay_eligible
from repro.core.policy import (
    DiffPolicy,
    OverlayPolicy,
    DeltaPolicy,
    StuffMode,
    StuffingPolicy,
)
from repro.core.serializer import build_template, make_tracked
from repro.core.stats import ClientStats, MatchKind, RewriteStats, SendReport
from repro.core.store import TemplateStore, count_differences
from repro.core.template import BoundParam, MessageTemplate, absorb_param

__all__ = [
    "BSoapClient",
    "PreparedCall",
    "DiffPolicy",
    "StuffingPolicy",
    "StuffMode",
    "OverlayPolicy",
    "DeltaPolicy",
    "MessageTemplate",
    "BoundParam",
    "build_template",
    "make_tracked",
    "absorb_param",
    "rewrite_dirty",
    "TemplateStore",
    "count_differences",
    "classify",
    "refine",
    "MatchKind",
    "RewriteStats",
    "SendReport",
    "ClientStats",
    "OverlayTemplate",
    "build_overlay_template",
    "overlay_eligible",
]
