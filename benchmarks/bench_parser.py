"""Parsing-side costs: scanner, schema-guided parser.

Context for the differential-deserialization ablation: these are the
baseline costs the server avoids.  ``test_first_time_decode`` is the
one a first-time send cannot avoid: the full parse plus the seek-table
compile of a MAX-stuffed request, the ledger's ``cold_structures``
shape.
"""

import pytest

from repro.bench.workloads import (
    double_array_message,
    doubles_of_width,
    random_doubles,
)
from repro.core.client import BSoapClient
from repro.core.policy import DiffPolicy, StuffingPolicy, StuffMode
from repro.schema.skipscan import SeekTable
from repro.server.parser import SOAPRequestParser
from repro.transport.loopback import CollectSink
from repro.xmlkit.scanner import XMLScanner

N = 5000
#: Doubles in the first-time request (``cold_structures``' base length).
COLD_N = 1024


@pytest.fixture(scope="module")
def document():
    collect = CollectSink()
    BSoapClient(collect).send(double_array_message(random_doubles(N, seed=0)))
    return collect.last


def test_whole_document_scan(benchmark, document):
    benchmark.group = f"parser costs (n={N} doubles)"
    benchmark(lambda: sum(1 for _ in XMLScanner(document)))


def test_schema_guided_parse(benchmark, document):
    benchmark.group = f"parser costs (n={N} doubles)"
    parser = SOAPRequestParser()
    benchmark(lambda: parser.parse(document))


def test_trie_tag_classification(benchmark, document):
    benchmark.group = f"parser costs (n={N} doubles)"
    from repro.xmlkit.trie import ByteTrie

    trie = ByteTrie.from_tags([b"<item", b"<data", b"<SOAP-ENV:Body"])

    def run():
        hits = 0
        pos = document.find(b"<")
        while pos >= 0:
            value, _end = trie.match_at(document, pos)
            if value is not None:
                hits += 1
            pos = document.find(b"<", pos + 1)
        return hits

    benchmark(run)


@pytest.fixture(scope="module")
def cold_request():
    collect = CollectSink()
    policy = DiffPolicy(stuffing=StuffingPolicy(StuffMode.MAX))
    values = doubles_of_width(COLD_N, 14, seed=0)  # the ledger's value width
    BSoapClient(collect, policy).send(double_array_message(values, "checksum"))
    return bytes(collect.last)


def test_first_time_decode(benchmark, cold_request):
    benchmark.group = f"first-time decode (n={COLD_N} MAX-stuffed doubles)"
    parser = SOAPRequestParser()

    def decode():
        result = parser.parse(cold_request)
        return SeekTable.compile(cold_request, result)

    table = benchmark(decode)
    assert table.region_len is not None  # the vector lane is armed
