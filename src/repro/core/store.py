"""The template store: one template per structure signature (§3.1).

A :class:`TemplateStore` can be handed to several
:class:`~repro.core.client.BSoapClient` instances (one per remote
service) — the paper's §6 template sharing:

    "For applications that send the same (or similar) data to
    different remote services, we plan to investigate the extent to
    which it would be beneficial for them to share message chunks
    across templates."

The serialization cost of a message is then paid once and amortized
across every service that receives it.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.template import MessageTemplate
from repro.soap.message import Signature

__all__ = ["TemplateStore"]


class TemplateStore:
    """Signature-keyed template map, shareable between clients."""

    def __init__(self) -> None:
        self._by_sig: Dict[Signature, MessageTemplate] = {}

    def get(self, signature: Signature) -> Optional[MessageTemplate]:
        """The template for *signature*, if any."""
        return self._by_sig.get(signature)

    def put(self, signature: Signature, template: MessageTemplate) -> None:
        """Save *template* for *signature*, replacing any other."""
        self._by_sig[signature] = template

    def forget(self, signature: Signature) -> None:
        self._by_sig.pop(signature, None)

    def clear(self) -> None:
        self._by_sig.clear()

    # ------------------------------------------------------------------
    @property
    def template_count(self) -> int:
        return len(self._by_sig)

    def layout_key(self) -> tuple:
        """Equal on two calls only if :meth:`approx_bytes` is too.

        Names each template's buffer and the buffer's layout epoch,
        which every change of a chunk's capacity bumps; DUT columns
        keep their size for the buffer's life.
        """
        return tuple(
            (template.buffer, template.buffer.layout_epoch)
            for template in self._by_sig.values()
        )

    def approx_bytes(self) -> int:
        """Approximate bytes retained across every saved template:
        each one's ``memory_footprint()['total']`` (serialized chunks
        + DUT columns)."""
        return sum(
            int(template.memory_footprint()["total"])
            for template in self._by_sig.values()
        )
