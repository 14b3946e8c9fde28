"""Self-tests of the tracer: patches are undone, spans nest, and a wrapped
function that no longer exists leaves its metrics absent.

    python3 -m pytest perfbench/test_tracing.py -q
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import rsqg  # noqa: E402
import rsqg.cli  # noqa: E402
import tracing  # noqa: E402


def _bindings():
    mods = [m for k, m in sys.modules.items() if k == "rsqg" or k.startswith("rsqg.")]
    return {(mod.__name__, key): val for mod in mods for key, val in vars(mod).items()
            if callable(val)}


def test_install_patches_every_binding_and_uninstall_restores_them():
    before = _bindings()
    init = rsqg.RatFunc.__dict__["__init__"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert rsqg.invert is not before[("rsqg", "invert")]
        assert rsqg.rmatrix.invert is rsqg.linalg.invert is rsqg.invert
        assert rsqg.RatFunc.__dict__["__init__"] is not init
    finally:
        tracer.uninstall()
    assert _bindings() == before
    assert rsqg.RatFunc.__dict__["__init__"] is init
    assert not tracer.missing


def test_self_time_excludes_child_spans_and_counts_per_round():
    field = rsqg.SymbolicField()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rsqg.build_r_z(2, field)
        rsqg.build_r_z(2, field)
    finally:
        tracer.uninstall()
    selfs, calls = tracer.self_times()
    assert calls["rmatrix.build_r_z"] == 2 and calls["linalg.invert"] == 2
    parent = tracer.name_ids["rmatrix.build_r_z"]
    invert_spans = [i for i, nid in enumerate(tracer.span_name)
                    if nid == tracer.name_ids["linalg.invert"]]
    assert all(tracer.span_name[tracer.span_parent[i]] == parent
               for i in invert_spans)
    total = sum(tracer.span_end[i] - tracer.span_start[i]
                for i, nid in enumerate(tracer.span_name) if nid == parent)
    assert 0 < selfs["rmatrix.build_r_z"] < total
    metrics = tracer.metrics(rounds=2)
    assert metrics["rmatrix.build_r_z"]["value"] == 1
    assert set(metrics) == set(tracing.METRICS)


def test_a_removed_function_leaves_its_metrics_absent(monkeypatch):
    monkeypatch.delattr(rsqg.linalg, "invert")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["linalg.invert"]
    metrics = tracer.metrics(rounds=1)
    assert "linalg.invert_s" not in metrics
    assert "linalg.kernel_image_s" in metrics
