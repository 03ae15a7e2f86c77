"""The Metadata Catalog Service (MCS) workload.

    "A general metadata schema is used to specify all the attributes
    associated with each file.  ...  Since each request sent by a user
    conforms to the metadata schema, the format of the SOAP payload is
    the same for each request.  bSOAP perfect structural match can
    therefore be used to improve the performance of MCS."  (§3.4)

This module provides the backend (an in-memory metadata store with a
fixed attribute schema and simple exact/range queries — the paper's
MySQL stand-in) and :class:`MCSClient`, which issues ``addRecord`` and
``queryRecords`` SOAP requests whose payload structure never changes:
one parameter per schema attribute.  String attributes vary in width
between requests, so MCS traffic exercises shifting; the
numeric attributes exercise plain structural matches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.client import BSoapClient
from repro.core.stats import SendReport
from repro.errors import SchemaError
from repro.schema.types import DOUBLE, INT, STRING, XSDType
from repro.soap.message import Parameter, SOAPMessage

__all__ = ["MCS_SCHEMA", "FileRecord", "MetadataCatalog", "MCSClient"]

#: The fixed metadata schema: attribute name → primitive type.
MCS_SCHEMA: Dict[str, XSDType] = {
    "logicalName": STRING,
    "owner": STRING,
    "collection": STRING,
    "sizeBytes": INT,
    "checksum": STRING,
    "creationTime": DOUBLE,  # epoch seconds
    "version": INT,
}


@dataclass(frozen=True, slots=True)
class FileRecord:
    """One catalogued file's metadata (matches :data:`MCS_SCHEMA`)."""

    logicalName: str
    owner: str
    collection: str
    sizeBytes: int
    checksum: str
    creationTime: float
    version: int

    def as_dict(self) -> Dict[str, object]:
        return {name: getattr(self, name) for name in MCS_SCHEMA}


class MetadataCatalog:
    """In-memory metadata store with schema enforcement and queries."""

    def __init__(self) -> None:
        self._records: Dict[str, FileRecord] = {}
        self.adds = 0
        self.queries = 0

    # ------------------------------------------------------------------
    def add(self, record: FileRecord) -> None:
        """Insert or replace by logical name (schema-validated)."""
        for name, xsd_type in MCS_SCHEMA.items():
            value = getattr(record, name)
            if not isinstance(value, xsd_type.python_type):
                raise SchemaError(
                    f"attribute {name!r} must be {xsd_type.python_type.__name__}, "
                    f"got {type(value).__name__}"
                )
        self._records[record.logicalName] = record
        self.adds += 1

    def delete(self, logical_name: str) -> bool:
        self.adds += 1
        return self._records.pop(logical_name, None) is not None

    def get(self, logical_name: str) -> Optional[FileRecord]:
        return self._records.get(logical_name)

    def query(
        self,
        *,
        owner: Optional[str] = None,
        collection: Optional[str] = None,
        min_size: Optional[int] = None,
        max_size: Optional[int] = None,
    ) -> List[FileRecord]:
        """Exact/range query over the schema attributes."""
        self.queries += 1
        out = []
        for record in self._records.values():
            if owner is not None and record.owner != owner:
                continue
            if collection is not None and record.collection != collection:
                continue
            if min_size is not None and record.sizeBytes < min_size:
                continue
            if max_size is not None and record.sizeBytes > max_size:
                continue
            out.append(record)
        return out

    def __len__(self) -> int:
        return len(self._records)


class MCSClient:
    """SOAP front end issuing schema-shaped requests through bSOAP.

    Every ``addRecord`` has the identical structure (one parameter per
    schema attribute), so after the first request the stub reuses its
    template; only the attribute values are rewritten.
    """

    NAMESPACE = "urn:mcs:metadata-catalog"

    def __init__(
        self,
        client: Optional[BSoapClient] = None,
        backend: Optional[MetadataCatalog] = None,
    ) -> None:
        self.client = client or BSoapClient()
        #: When a backend is attached the client applies each request
        #: locally too, so tests can verify end-to-end consistency.
        self.backend = backend
        self.reports: List[SendReport] = []

    # ------------------------------------------------------------------
    def _send(self, operation: str, values: Dict[str, object]) -> SendReport:
        params = [
            Parameter(name, MCS_SCHEMA[name], values[name]) for name in MCS_SCHEMA
        ]
        report = self.client.send(SOAPMessage(operation, self.NAMESPACE, params))
        self.reports.append(report)
        return report

    def add_record(self, record: FileRecord) -> SendReport:
        """Ship one addRecord request (fixed schema → template reuse)."""
        report = self._send("addRecord", record.as_dict())
        if self.backend is not None:
            self.backend.add(record)
        return report

    def query_by_owner(self, owner: str) -> Tuple[SendReport, List[FileRecord]]:
        """Ship a query request; evaluate locally when backed."""
        values = {
            "logicalName": "",
            "owner": owner,
            "collection": "",
            "sizeBytes": 0,
            "checksum": "",
            "creationTime": 0.0,
            "version": 0,
        }
        report = self._send("queryRecords", values)
        results = (
            self.backend.query(owner=owner) if self.backend is not None else []
        )
        return report, results

    # ------------------------------------------------------------------
    def match_histogram(self) -> Dict[str, int]:
        """Counts of send kinds across this client's lifetime."""
        out: Dict[str, int] = {}
        for report in self.reports:
            key = report.match_kind.value
            out[key] = out.get(key, 0) + 1
        return out
