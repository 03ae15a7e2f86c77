"""Parsing-side costs: scanner, schema-guided parser.

Context for the differential-deserialization ablation: these are the
baseline costs the server avoids.
"""

import pytest

from _common import sink
from repro.bench.workloads import double_array_message, random_doubles
from repro.core.client import BSoapClient
from repro.server.parser import SOAPRequestParser
from repro.transport.loopback import CollectSink
from repro.xmlkit.scanner import XMLScanner

N = 5000


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
