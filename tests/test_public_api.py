"""Repo-wide API hygiene: every module imports, every __all__ resolves."""

import importlib
import inspect
import pkgutil

import pytest

import repro

MODULES = sorted(
    name
    for _finder, name, _ispkg in pkgutil.walk_packages(
        repro.__path__, prefix="repro."
    )
)


def test_module_discovery_found_the_tree():
    assert len(MODULES) > 40
    for expected in (
        "repro.core.client",
        "repro.dut.table",
        "repro.buffers.chunked",
        "repro.server.diffdeser",
        "repro.bench.figures",
        "repro.apps.lsa_components",
        "repro.channel",
    ):
        assert expected in MODULES, expected


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_cleanly(name):
    importlib.import_module(name)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ has dangling names: {missing}"


def test_top_level_exports():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_version_string():
    parts = repro.__version__.split(".")
    assert len(parts) == 3 and all(p.isdigit() for p in parts)


@pytest.mark.parametrize(
    "path",
    [
        "repro.server.diffdeser.DifferentialDeserializer",
        "repro.runtime.sessions.ServerSession",
        "repro.runtime.sessions.ServerSessionManager",
        "repro.server.service.SOAPService",
    ],
)
def test_decoder_has_no_mode_options(path):
    """The seek table is the one structural decode lane and the full
    parse its authority: nothing on the way to a deserializer selects
    another, and the per-span entry point stays deleted."""
    from repro.server.parser import ParseResult

    module, _, name = path.rpartition(".")
    cls = getattr(importlib.import_module(module), name)
    params = inspect.signature(cls).parameters
    assert not {"skipscan", "differential_deser"} & set(params)
    assert not hasattr(ParseResult, "set_leaf")
