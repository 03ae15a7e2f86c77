"""SOAP-RPC conventions.

Request bodies carry an element named after the operation; responses
carry ``<opResponse>`` with a ``<return>``-style result parameter.
These helpers keep the naming conventions in one place so the client
stubs, the server dispatcher, and WSDL generation agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.schema.composite import ArrayType, StructType
from repro.schema.types import XSDType
from repro.soap.message import Parameter, SOAPMessage

__all__ = ["RPCRequest", "RPCResponse", "response_message", "RESPONSE_SUFFIX"]

#: Conventional suffix for RPC response element names.
RESPONSE_SUFFIX = "Response"


@dataclass(slots=True)
class RPCRequest:
    """A typed RPC invocation bound to a service endpoint."""

    endpoint: str
    message: SOAPMessage
    soap_action: str = ""

    @property
    def operation(self) -> str:
        return self.message.operation

    def action_header(self) -> str:
        """Value for the HTTP ``SOAPAction`` header (quoted per SOAP 1.1)."""
        action = self.soap_action or f"{self.message.namespace}#{self.operation}"
        return f'"{action}"'


@dataclass(slots=True)
class RPCResponse:
    """A decoded RPC response: result values keyed by part name.

    The values belong to whoever holds the response:
    :class:`~repro.channel.RPCChannel` copies arrays and struct-array
    columns out of its decode template, so a response kept across
    later calls keeps its values (``docs/runtime.md``).
    """

    operation: str
    values: dict = field(default_factory=dict)
    fault: object = None

    @property
    def ok(self) -> bool:
        return self.fault is None

    def result(self, name: str = "return"):
        return self.values[name]


def response_message(
    request_operation: str,
    namespace: str,
    result_name: str,
    result_type: XSDType | StructType | ArrayType,
    result_value: object,
    extra_params: Sequence[Parameter] = (),
) -> SOAPMessage:
    """Build the response message for an operation.

    Servers reuse the same serialization machinery as clients — which
    is how the paper envisions differential serialization helping
    "heavily-used servers" whose response schema never changes.
    """
    params = [Parameter(result_name, result_type, result_value), *extra_params]
    return SOAPMessage(
        operation=request_operation + RESPONSE_SUFFIX,
        namespace=namespace,
        params=params,
    )
