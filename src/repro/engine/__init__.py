"""Execution engines: host, on-device NDP, and cooperative execution.

Execution is *functional* — operators really evaluate predicates, probe
indexes and join rows over the stored data — while every operator counts
its physical work (flash bytes, record evaluations, memcmp bytes, seeks).
The :class:`TimingModel` prices those counters for host or device
placement, and the cooperative executor replays block-wise production and
consumption on a simulated timeline (paper §4, Figs. 7/8/17).

Operators exchange :class:`ColumnBatch` values — schema-tagged numpy
column arrays — rather than lists of dicts; ``ColumnBatch.rows()`` is
the compatibility view for row-oriented consumers.  Work counters are
derived from batch arithmetic, so traces are byte-identical to the
row-at-a-time reference executor the tests keep
(``tests/rowref.py``).  See
``docs/engine.md`` for the exchange protocol.
"""

from repro.columns import ColumnBatch
from repro.engine.counters import WorkCounters
from repro.engine.timing import ExecutionLocation, TimingModel
from repro.engine.results import ExecutionReport, QueryResult, TimelinePhase
from repro.engine.host import HostEngine
from repro.engine.ndp import NDPCommand, NDPEngine
from repro.engine.cooperative import CooperativeExecutor
from repro.engine.stacks import Stack, StackRunner
from repro.engine.adaptive import AdaptiveRunner

__all__ = [
    "AdaptiveRunner",
    "ColumnBatch",
    "WorkCounters",
    "ExecutionLocation",
    "TimingModel",
    "QueryResult",
    "ExecutionReport",
    "TimelinePhase",
    "HostEngine",
    "NDPEngine",
    "NDPCommand",
    "CooperativeExecutor",
    "Stack",
    "StackRunner",
]
