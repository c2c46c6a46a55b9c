"""The benchmark's frozen surface resolves in predimlab.

``perfbench/tracing.py`` wraps the entry points listed in ``SPANS`` (and
reads hit counts off the ``CACHED`` ones), and ``perfbench/worker.py``
reports the caps through stubs it calls on the library modules.  A rename on
the library side would only show up in a traced benchmark run, so these
tests read both files with ``ast`` (neither is imported nor changed) and
check every name they reach.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = ast.parse((PERFBENCH / "tracing.py").read_text())
WORKER = ast.parse((PERFBENCH / "worker.py").read_text())


def _constant(tree, name):
    node = next(n for n in tree.body if isinstance(n, ast.Assign)
                and any(getattr(t, "id", None) == name for t in n.targets))
    return ast.literal_eval(node.value)


SPANS = _constant(TRACING, "SPANS")
CACHED = _constant(TRACING, "CACHED")
MODULES = sorted({mod for _, mod, _ in SPANS})


def _module_reads(tree):
    """(module, attribute) for every ``<module name>.<attr>`` the tree reads."""
    return sorted({(node.value.id, node.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in MODULES})


def _resolve(mod_name, attr):
    obj = importlib.import_module(f"predimlab.{mod_name}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("name,mod_name,attr", SPANS, ids=[f"{n}:{a}" for n, _, a in SPANS])
def test_every_traced_span_resolves(name, mod_name, attr):
    assert callable(_resolve(mod_name, attr))


def test_the_tracer_hooks_resolve():
    # install() also wraps closures._solve to count the solves inside cl0
    reads = _module_reads(TRACING)
    assert ("closures", "_solve") in reads
    for mod_name, attr in reads:
        assert callable(_resolve(mod_name, attr)), (mod_name, attr)


def test_the_cap_stubs_resolve_to_int_constants():
    caps = next(n for n in WORKER.body
                if isinstance(n, ast.FunctionDef) and n.name == "_caps_in_effect")
    stubs = _module_reads(caps)
    assert len(stubs) == 3
    for mod_name, attr in stubs:
        assert type(_resolve(mod_name, attr)()) is int, (mod_name, attr)


@pytest.mark.parametrize("name", CACHED)
def test_cached_spans_keep_cache_info_and_wrapped(name):
    fn = _resolve(*next((mod, attr) for n, mod, attr in SPANS if n == name))
    info = fn.cache_info()
    assert info.hits >= 0 and info.misses >= 0
    assert callable(fn.__wrapped__)
