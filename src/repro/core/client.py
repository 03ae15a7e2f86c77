"""The bSOAP client stub.

The stub owns the template store (one template per structure
signature, §3.1) and dispatches each outgoing message down the
cheapest path the match classification allows:

* first-time send → full serialization, template saved,
* content match → resend saved bytes,
* structural match → differential rewrite of dirty values, then send.

Two usage styles:

**Prepared (paper-faithful).**  ``prepare()`` builds the template and
hands back tracked value objects; the application mutates them (each
``set`` flips a DUT dirty bit) and calls ``send()``::

    call = client.prepare(message)
    xs = call.tracked("data")
    xs[17] = 3.14
    call.send()

**Auto-diff (convenience).**  Pass a plain message to ``send()``
repeatedly; the stub diffs values into the saved template with
vectorized comparisons and marks exactly the changed leaves dirty.

A :class:`~repro.core.store.TemplateStore` may be shared between
clients (= remote services, the paper's §6 template sharing), so a
message's serialization cost is paid once for all of them.  The
paper's chunk overlaying (§3.3) is a baseline,
:mod:`repro.baselines.paper_overlay`.

Every template's bytes leave through one path,
:meth:`BSoapClient._transmit`: full XML with a baseline announce, or
an RDF2 delta frame once the peer negotiated.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Optional

from repro.core.differential import rewrite_dirty
from repro.core.matcher import classify, refine
from repro.obs import NULL_OBS, Observability
from repro.core.policy import DiffPolicy
from repro.core.serializer import build_template
from repro.core.stats import ClientStats, MatchKind, RewriteStats, SendReport
from repro.core.store import TemplateStore
from repro.core.template import MessageTemplate, Tracked
from repro.errors import (
    LexicalError,
    StructureMismatchError,
    TransportError,
)
from repro.soap.message import SOAPMessage, Signature, structure_signature
from repro.transport.base import Transport
from repro.transport.loopback import NullSink
from repro.wire.client import DeltaEncoder

__all__ = ["BSoapClient", "PreparedCall"]


class PreparedCall:
    """A handle over one saved template and its tracked parameters."""

    def __init__(self, client: "BSoapClient", template: MessageTemplate) -> None:
        self._client = client
        self.template = template

    def tracked(self, name: str) -> Tracked:
        """The mutable, dirty-tracking value object for a parameter."""
        return self.template.tracked(name)

    def send(self) -> SendReport:
        """Differentially send the current state of the template."""
        return self._client._send_template(self.template)

    @property
    def signature(self) -> Signature:
        return self.template.signature


class BSoapClient:
    """Client stub with differential serialization (see module docstring)."""

    def __init__(
        self,
        transport: Optional[Transport] = None,
        policy: Optional[DiffPolicy] = None,
        store: Optional[TemplateStore] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.transport: Transport = transport if transport is not None else NullSink()
        self.policy = policy or DiffPolicy()
        #: The one home of this client's counters; a registry on
        #: :attr:`obs` reads them when scraped (:meth:`metric_samples`).
        self.stats = ClientStats()
        #: Tracing + metrics sink; the shared no-op default costs one
        #: attribute load and branch per guarded site.
        self.obs: Observability = obs if obs is not None else NULL_OBS
        #: When True every send takes the full-serialization path and
        #: no cross-call template state is consulted — the degraded
        #: mode a circuit breaker pins after repeated failures.
        self.force_full = False
        #: May be shared with other clients (§6 template sharing).
        self.store = store if store is not None else TemplateStore()
        #: Delta-frame encoder (None unless the policy offers delta).
        #: Frames flow only once the peer negotiates — the channel
        #: flips ``wire.negotiated`` from the response headers.
        self.wire: Optional[DeltaEncoder] = (
            DeltaEncoder(
                self.policy.delta,
                self.transport,
                obs=self.obs,
                float_format=self.policy.float_format,
            )
            if self.policy.delta.offer
            else None
        )
        self.obs.watch(self)

    def metric_samples(self) -> Dict[tuple, int]:
        """Counters of this client and its delta encoder, by series."""
        samples = self.stats.metric_samples()
        if self.wire is not None:
            samples.update(self.wire.metric_samples())
        return samples

    # ------------------------------------------------------------------
    # template store
    # ------------------------------------------------------------------
    def forget(self, signature: Signature) -> None:
        """Drop the saved template (frees its buffer and DUT)."""
        self.store.forget(signature)

    @property
    def template_count(self) -> int:
        return self.store.template_count

    # ------------------------------------------------------------------
    # prepared-call API
    # ------------------------------------------------------------------
    def prepare(self, message: SOAPMessage) -> PreparedCall:
        """Build (or fetch) the template for *message* without sending."""
        signature = structure_signature(message)
        template = self.store.get(signature)
        if template is None:
            template = self._build(signature, message)
        return PreparedCall(self, template)

    def _build(self, signature: Signature, message: SOAPMessage) -> MessageTemplate:
        """Serialize *message* into a new template and save it."""
        template = build_template(message, self.policy, obs=self.obs)
        self.store.put(signature, template)
        self.stats.templates_built += 1
        return template

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(self, message: SOAPMessage) -> SendReport:
        """Send *message*, choosing the cheapest path automatically."""
        signature = structure_signature(message)

        if not self.policy.differential_enabled or self.force_full:
            return self._send_full_every_time(message)

        template = self.store.get(signature)
        if template is None:
            return self._transmit_guarded(
                self._build(signature, message), MatchKind.FIRST_TIME, RewriteStats()
            )
        # Absorb the new values (no-op when the caller mutated tracked
        # objects directly), then go differential.
        try:
            template.absorb(message, signature)
        except StructureMismatchError:
            # Array length or type changed — rebuild from scratch.
            self.forget(signature)
            return self.send(message)
        return self._send_template(template)

    def _send_template(self, template: MessageTemplate) -> SendReport:
        if template.suspect:
            # A previous send epoch rolled back: the server may hold a
            # partial message.  Resynchronize with the paper's
            # first-time-send path — rebuilt in place from the tracked
            # values, so the bytes equal a from-scratch serialization.
            template.rebuild_in_place(self.policy, obs=self.obs)
            self.stats.templates_built += 1
            return self._transmit_guarded(
                template, MatchKind.FIRST_TIME, RewriteStats(), forced_full=True
            )
        kind = classify(template, template.signature, self.obs)
        if template.sends == 0:
            # The template was just built (prepare or first send): the
            # full-serialization cost was paid this call cycle.
            kind = MatchKind.FIRST_TIME
        snapshot = template.begin_send()
        if kind is MatchKind.CONTENT_MATCH:
            return self._transmit_guarded(
                template, kind, RewriteStats(), snapshot=snapshot
            )
        moved_before = template.buffer.bytes_moved
        # A frame that will carry the dirty doubles as binary64 needs
        # no text of them: the rewrite leaves it stale.
        defer = self.wire is not None and self.wire.types_doubles(template)
        try:
            rewrite = rewrite_dirty(template, self.policy, self.obs, defer)
        except LexicalError:
            # A value with no legal lexical form (an out-of-range
            # xsd:int): earlier parameters are already rewritten and
            # their dirty bits cleared, so undo the epoch.
            template.rollback_send(snapshot)
            raise
        kind = refine(kind, rewrite)
        return self._transmit_guarded(
            template, kind, rewrite, snapshot=snapshot, moved_before=moved_before
        )

    def _transmit_guarded(
        self,
        template: MessageTemplate,
        kind: MatchKind,
        rewrite: RewriteStats,
        *,
        snapshot=None,
        forced_full: bool = False,
        moved_before: Optional[int] = None,
    ) -> SendReport:
        """Transmit with commit/rollback: the template's dirty state is
        only committed once the transport confirms full delivery."""
        try:
            return self._transmit(
                template,
                kind,
                rewrite,
                forced_full=forced_full,
                moved_before=moved_before,
                snapshot=snapshot,
            )
        except TransportError:
            template.rollback_send(snapshot)
            if self.wire is not None:
                # Whether the announce or frame reached the server is
                # unknown; the next send re-announces from scratch.
                self.wire.invalidate(template.template_id)
            self.stats.rollbacks += 1
            raise

    def _transmit(
        self,
        template: MessageTemplate,
        kind: MatchKind,
        rewrite: RewriteStats,
        forced_full: bool = False,
        moved_before: Optional[int] = None,
        template_id: Optional[int] = None,
        snapshot=None,
    ) -> SendReport:
        t0 = perf_counter() if self.obs.enabled else 0.0
        wire = self.wire
        frame = None
        if wire is not None and template_id is None:
            # template_id overrides mark templates that do not survive
            # the call (full-every-time mode) — those never announce.
            if (
                not forced_full
                and snapshot is not None
                and kind is not MatchKind.FIRST_TIME
            ):
                frame = wire.try_encode(template, snapshot, rewrite)
            if frame is None:
                # The announce names the document full XML is about to
                # carry: its stale text is written first, so this send
                # deferred nothing after all.
                template.render_stale()
                rewrite.values_deferred = 0
                wire.announce(template)
        if frame is not None:
            bytes_sent = self.transport.send_delta_frame(frame)
        else:
            bytes_sent = self.transport.send_message(
                template.views(), template.total_bytes
            )
        template.sends += 1
        report = SendReport(
            match_kind=kind,
            bytes_sent=bytes_sent,
            rewrite=rewrite,
            buffer_bytes_moved=template.buffer.bytes_moved,
            num_chunks=template.buffer.num_chunks,
            template_id=(
                template.template_id if template_id is None else template_id
            ),
            forced_full=forced_full,
            delta=frame is not None,
        )
        self._record(report, moved_before=moved_before, started=t0)
        return report

    def _send_full_every_time(self, message: SOAPMessage) -> SendReport:
        """bSOAP-with-differential-off: the paper's Full Serialization curve."""
        template = build_template(message, self.policy, obs=self.obs)
        # template_id=-1: the template does not survive the call, so a
        # trace consumer cannot join later sends to it.
        return self._transmit(
            template, MatchKind.FIRST_TIME, RewriteStats(), template_id=-1
        )

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _record(
        self,
        report: SendReport,
        *,
        moved_before: Optional[int] = None,
        started: float = 0.0,
    ) -> None:
        """Count one successful send; time and trace it when observed.

        The single funnel for every successful send: :attr:`stats` is
        the only count, and ``repro_sends_total`` is a view of it.
        *moved_before* is the buffer's ``bytes_moved`` before this
        send's rewrite pass (``None``: no pass ran, nothing moved).
        """
        self.stats.record(report)
        if moved_before is not None:
            self.stats.buffer_bytes_moved += (
                report.buffer_bytes_moved - moved_before
            )
        obs = self.obs
        if not obs.enabled:
            return
        duration = perf_counter() - started if started else 0.0
        obs.record_send_duration(report.match_kind.value, duration)
        if obs.tracer.enabled:
            obs.tracer.emit(
                "send",
                duration_s=duration,
                template_id=report.template_id,
                match_level=report.match_kind.value,
                bytes=report.bytes_sent,
                chunks=report.num_chunks,
                forced_full=report.forced_full,
                delta=report.delta,
            )

    # ------------------------------------------------------------------
    def quarantine(self, message: SOAPMessage) -> None:
        """Mark the saved template for *message*'s structure suspect.

        For callers that learn only *after* a send that delivery is
        unconfirmed (e.g. the response never arrived): the next send of
        this structure is forced to a full resynchronizing
        serialization instead of trusting the saved state.
        """
        template = self.store.get(structure_signature(message))
        if template is None:
            return
        template.suspect = True
        if self.wire is not None:
            self.wire.invalidate(template.template_id)

    # ------------------------------------------------------------------
    def close(self) -> None:
        self.transport.close()

    def __enter__(self) -> "BSoapClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
