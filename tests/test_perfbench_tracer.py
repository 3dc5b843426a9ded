"""The benchmark's tracer wraps program functions by name.

``perfbench/tracing.py`` replaces functions and methods of ``repro`` with
span-recording wrappers and puts the originals back on ``uninstall()``.
A rename or deletion in ``src/`` that drops a traced name breaks every
``--trace 1`` run, so this guard installs and uninstalls the tracer and
checks that the program comes back unchanged.
"""
import importlib

import pytest

from perfbench.tracing import Tracer, install_repro
from repro.bench.queries_job import JOB_QUERIES
from repro.proc.lbp import run_lbp

_MODULES = [
    "repro.proc.chunk",
    "repro.proc.distributed",
    "repro.proc.lbp",
    "repro.proc.operators",
    "repro.storage.compression",
    "repro.storage.csr",
    "repro.storage.graph_store",
    "repro.storage.null_compression",
    "repro.storage.property_pages",
    "repro.storage.vertex_column",
]


def _snapshot() -> dict[tuple[str, str, str], object]:
    """Every module attribute and every attribute of a class the module
    defines, keyed by (module, owner, name)."""
    out = {}
    for name in _MODULES:
        mod = importlib.import_module(name)
        for attr, val in vars(mod).items():
            out[(name, "", attr)] = val
            if isinstance(val, type) and val.__module__ == name:
                for cattr, cval in vars(val).items():
                    out[(name, val.__name__, cattr)] = cval
    return out


def test_install_then_uninstall_restores_every_attribute():
    from repro.proc import operators
    from repro.storage.null_compression import JacobsonIndex

    # Names the tracer patches in a class's own namespace.
    assert "consume" in vars(operators.PhysListExtend)
    assert "consume" in vars(operators.PhysCountColumnExtend)
    assert "unpack_all" in vars(JacobsonIndex)

    before = _snapshot()
    tracer = Tracer()
    try:
        install_repro(tracer)
        patched = {(o, a) for o, a, _ in tracer._patches}
        assert (operators.PhysListExtend, "consume") in patched
        assert (operators.PhysCountColumnExtend, "consume") in patched
        assert (JacobsonIndex, "unpack_all") in patched
        assert vars(operators.PhysListExtend)["consume"] is not before[
            ("repro.proc.operators", "PhysListExtend", "consume")
        ]
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


@pytest.mark.parametrize("name,kind", [("2a", "dict"), ("6a", "str")])
def test_literal_predicates_call_the_traced_global(
    monkeypatch, imdb_store, name, kind
):
    """The tracer's ``expr.literal`` span wraps the
    ``operators.eval_block_vs_literal`` global. Dictionary and raw-string
    predicates must both go through it, or ``proc.expr.literal_s`` stops
    measuring predicate work."""
    from repro.proc import operators

    seen = []
    real = operators.eval_block_vs_literal

    def counted(op, block, lit, *args):
        if block.dictionary is not None:
            seen.append("dict")
        else:
            seen.append("str" if block.data.dtype == object else "num")
        return real(op, block, lit, *args)

    monkeypatch.setattr(operators, "eval_block_vs_literal", counted)
    spec = next(q for q in JOB_QUERIES if q.name == name)
    run_lbp(imdb_store, spec)
    assert kind in seen
