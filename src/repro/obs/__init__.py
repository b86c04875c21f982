"""Cross-layer observability: metrics, tracing, phase profiling.

This package is the single instrumentation source of truth for the
reproduction.  Every figure the paper plots is a *breakdown* — phase
segments, flush counts, commit-path shares — so every layer of the
stack reports into one shared ``Observability`` handle (created by the
PM arena, reachable as ``pm.obs`` / ``engine.obs``):

``MetricsRegistry``
    Named counters, gauges and simulated-ns histograms
    (``repro.obs.registry``).

``TraceRecorder``
    A bounded ring buffer of typed, clock-stamped events — store,
    clflush/clwb, fence, RTM begin/commit/abort, log append, commit
    mark, checkpoint, recovery replay (``repro.obs.trace``).

``Observability``
    The facade bundling clock + registry + trace, providing the
    ``phase(...)``/``span(...)`` context managers the engines use for
    phase accounting (``repro.obs.context``).

``python -m repro.obs snapshot.json`` renders an exported snapshot as
a human-readable report; see ``repro.obs.report``.
"""

from repro.obs.context import PHASES, Observability
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.report import load_snapshot, render_report
from repro.obs.trace import (
    ABORT_CAPACITY,
    ABORT_EXPLICIT,
    ABORT_TRANSIENT,
    CHECKPOINT,
    CLFLUSH,
    CLWB,
    COMMIT_MARK,
    CRASH,
    FENCE,
    KINDS,
    LOG_APPEND,
    RECOVERY_REPLAY,
    RTM_ABORT,
    RTM_BEGIN,
    RTM_COMMIT,
    STORE,
    TraceRecorder,
)

__all__ = [
    "ABORT_CAPACITY",
    "ABORT_EXPLICIT",
    "ABORT_TRANSIENT",
    "CHECKPOINT",
    "CLFLUSH",
    "CLWB",
    "COMMIT_MARK",
    "CRASH",
    "Counter",
    "FENCE",
    "Gauge",
    "Histogram",
    "KINDS",
    "LOG_APPEND",
    "MetricsRegistry",
    "Observability",
    "PHASES",
    "RECOVERY_REPLAY",
    "RTM_ABORT",
    "RTM_BEGIN",
    "RTM_COMMIT",
    "STORE",
    "TraceRecorder",
    "load_snapshot",
    "render_report",
]
