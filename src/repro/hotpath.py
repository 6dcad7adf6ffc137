"""The ``@hot_path`` annotation consumed by gyan-perf.

A *hot path* is code whose per-call cost is multiplied by the scale the
ROADMAP targets — mapper dispatch under a burst, the clock-advance inner
loop, span listeners firing per quiescent interval, exporters rendering
a row per sample.  These annotations are the only seed of gyan-perf's
hot-path model (``python -m repro perf`` and the PERF6xx pass of
``repro lint``), which propagates hotness transitively through the
static call graph: decorate a function and it, and everything it
calls, is hot.  PERF6xx rules fire at ``error`` severity on hot code
and downgrade to ``info`` everywhere else.

The decorator is a runtime no-op beyond tagging the function object —
it never wraps, so decorated hot paths pay zero call overhead.  The
analyzer recognises the decoration *statically* (by name in the AST),
so annotated fixtures work without importing this module.

This module is intentionally dependency-free: ``gpusim`` and ``core``
import it, and they must not depend on :mod:`repro.analysis`.
"""

from __future__ import annotations

from typing import Callable, TypeVar

_F = TypeVar("_F", bound=Callable[..., object])

#: Attribute set on annotated callables (introspection/debugging aid;
#: the static analyzer matches the decorator name, not this attribute).
HOT_PATH_ATTR = "__gyan_hot_path__"


def hot_path(func: _F) -> _F:
    """Mark ``func`` as a known-hot entry point for gyan-perf.

    Returns ``func`` unchanged (no wrapper, no call overhead).
    """
    setattr(func, HOT_PATH_ATTR, True)
    return func
