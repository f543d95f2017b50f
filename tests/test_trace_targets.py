"""The benchmark's trace targets against the package.

``perfbench/tracing.py`` wraps each ``(span, module, qualname)`` of its
``TARGETS`` and skips, without a word, one that no longer exists, so a
renamed or deleted function would empty its per-layer metrics.  This test
resolves every target the way the tracer does and pins the set that does
not resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# targets of layers that the package no longer has
UNRESOLVED = {
    "simulation.Roster.sample_half_edges",
    "measures.sample_size_biased",
    "measures.apply_edits",
    "limit.GeneratingFn",
    "limit.GeneratingFn.__init__",
}


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def _resolves(module_name, qualname):
    """Whether ``qualname`` names a callable defined on its owner in
    ``module_name``, the lookup the tracer makes."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return False
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    return callable(vars(owner).get(attr)) if owner is not None else False


def test_trace_targets_resolve_but_the_known_absent():
    targets = _targets()
    unresolved = {span for span, module, qualname, _ in targets
                  if not _resolves(module, qualname)}
    assert unresolved == UNRESOLVED
    assert len(targets) - len(unresolved) == 17
