"""SOAP 1.1 Faults."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import SOAPError, SOAPFaultError
from repro.soap.constants import SOAP_ENV_PREFIX, STANDARD_NSDECLS
from repro.xmlkit.scanner import Characters, EndElement, StartElement, XMLScanner
from repro.xmlkit.writer import XMLWriter

__all__ = ["SOAPFault"]


def _local(name: str) -> str:
    return name.rsplit(":", 1)[-1]


@dataclass(frozen=True, slots=True)
class SOAPFault:
    """A SOAP 1.1 ``Fault`` element's standard fields."""

    faultcode: str
    faultstring: str
    detail: str = ""

    @classmethod
    def client(cls, message: str, detail: str = "") -> "SOAPFault":
        return cls(f"{SOAP_ENV_PREFIX}:Client", message, detail)

    @classmethod
    def server(cls, message: str, detail: str = "") -> "SOAPFault":
        return cls(f"{SOAP_ENV_PREFIX}:Server", message, detail)

    def to_xml(self) -> bytes:
        """Serialize a complete fault envelope."""
        writer = XMLWriter()
        writer.prolog()
        writer.start(f"{SOAP_ENV_PREFIX}:Envelope", nsdecls=STANDARD_NSDECLS)
        writer.start(f"{SOAP_ENV_PREFIX}:Body")
        writer.start(f"{SOAP_ENV_PREFIX}:Fault")
        writer.element("faultcode", self.faultcode)
        writer.element("faultstring", self.faultstring)
        if self.detail:
            writer.element("detail", self.detail)
        writer.close()
        return writer.getvalue()

    @classmethod
    def from_xml(cls, data: bytes) -> Optional["SOAPFault"]:
        """Extract a fault from an envelope, or ``None`` if not a fault.

        A SOAP 1.1 fault is the first child element of ``Body``, so the
        scan stops there: a reply that is not a fault costs a handful of
        scanner events whatever its payload size, and a payload element
        that happens to be called ``Fault`` is not mistaken for one.
        Only the prefix read is checked for well-formedness; the
        caller's full parse of a non-fault body stays authoritative.
        """
        scanner = XMLScanner(data)
        for event in scanner:
            # Depth 2: a child of the root, whatever its prefix; a
            # ``Header`` sibling before it is walked, never the payload.
            if (
                isinstance(event, StartElement)
                and scanner.depth == 2
                and not event.self_closing
                and _local(event.name) == "Body"
            ):
                break
        else:
            return None
        for event in scanner:
            if isinstance(event, EndElement):
                return None  # an empty Body
            if isinstance(event, StartElement):
                if _local(event.name) != "Fault":
                    return None
                break
        fields = {"faultcode": "", "faultstring": "", "detail": ""}
        current: Optional[str] = None
        for event in scanner:
            if isinstance(event, StartElement):
                if _local(event.name) in fields:
                    current = _local(event.name)
            elif isinstance(event, Characters):
                if current is not None:
                    fields[current] += event.text
            elif isinstance(event, EndElement):
                if scanner.depth < 3:  # </Fault> (Envelope/Body/Fault)
                    break
                if _local(event.name) in fields:
                    current = None
        if not fields["faultcode"]:
            raise SOAPError("Fault element missing faultcode")
        return cls(fields["faultcode"], fields["faultstring"], fields["detail"])

    def raise_(self) -> None:
        """Raise this fault as a :class:`SOAPFaultError`."""
        raise SOAPFaultError(self.faultcode, self.faultstring, self.detail)
