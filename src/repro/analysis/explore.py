"""Systematic schedule-space exploration: a stateless DPOR model checker.

Every other corpus in :mod:`repro.analysis` checks the *one*
interleaving the deterministic scheduler produces per seed.  This
module turns the scheduler into a model checker: the ``pick_strategy``
hook on :class:`repro.core.scheduler.Scheduler` lets an explorer force
any feasible interleaving of a small multi-client workload.  Every
explored schedule is one crash-driver run, ``crash_at(ScheduledRun(...),
None)`` (:mod:`repro.testing.crashsim`): the driver builds the engine,
the preload and the scheduler, the dynamic invariant suite
(TC101-TC111) rides every step, and the completed run gets the
driver's committed-prefix check.

Algorithm
---------

Stateless depth-first search with **dynamic partial-order reduction**
(Flanagan & Godefroid) and **sleep sets**, over a persistent prefix
tree:

* Each *execution* replays a forced prefix of scheduling choices on a
  fresh engine, then extends it with a default continuation (the first
  enabled client not in the state's sleep set).  One ``_Execution``
  object serves the crash driver twice: its ``pick`` is the
  scheduler's pick strategy, and its ``advance()`` is the per-step
  checker hook, which feeds the :class:`TraceChecker` and reads the
  step's *footprint* — the resources it touched, with access modes —
  off the obs trace ring the engine already emits.
* After each execution, a race analysis walks the step sequence: for
  every step *j* and every other client with an earlier step *i*
  whose footprint is *dependent* with *j*'s, the chooser of *j* is
  added to the backtrack set of the state where *i* was scheduled
  (or, if not enabled there, the whole enabled set is — the classic
  conservative fallback).  DFS then re-executes from the deepest
  state with an unexplored backtrack choice, until none remain or the
  schedule budget runs out.
* Sleep sets carry ``{client: footprint}`` of already-explored
  siblings into each child state (dropping entries whose footprint is
  dependent with the step taken); a continuation whose every enabled
  client is asleep is provably redundant and is pruned.

Independence relation
---------------------

Two steps are *dependent* iff their footprints share a resource in
incompatible access modes (the lock compatibility matrix — so two IX
holders of the same root slot commute, two X writers of one page do
not).  A footprint collects, per step: lock acquire/upgrade/release/
wait events and passed instant-duration checks (``lock_check``: a
descent routing through an internal page, in S — it grants nothing,
but a later X on that page would have parked it), each as decoded
resource + mode; arena page stores (``("page", n)`` in X), named-root
stores (``("root", slot)`` in X), OCC read-set events (S) and version
publishes (X).  Stores to the shared redo log
and its commit word are deliberately *excluded*: the log is an
implementation detail of durability, every commit appends to it, and
treating those appends as conflicts would make all commit steps
pairwise dependent — collapsing DPOR back to naive enumeration.  Two
transactions over disjoint data commute semantically (their committed
arena state is order-independent), which is exactly the equivalence
the committed-prefix check double-checks per schedule.

Budgets and pruning
-------------------

State explosion is capped by a schedule budget (``budget``
executions, complete or pruned) and a per-schedule step budget
(``MAX_STEPS``).  Each completed schedule's ``(commit order,
committed scan)`` is digested: the distinct digests are the run's
``distinct_states``, a repeat counts in ``pruned_state``.  The
schedule × crash-point product mode runs one bounded crash sweep (one
execution, forked at every ``CRASH_STRIDE``-th armed event, thinned to
about ``CRASH_MAX_POINTS``) with the explored schedule *forced*, at
the first ``crash_schedules`` explored schedules with distinct digests.

Fixed settings
--------------

The explorer takes seven options (``scheme``, ``workloads``,
``preload``, ``config``, ``budget``, ``reduction``,
``crash_schedules``).  What no caller ever varied is fixed here: the
invariants (``EXPLORE_INVARIANTS``), the step budget (``MAX_STEPS``),
the crash product's stride and point cap (``CRASH_STRIDE``,
``CRASH_MAX_POINTS``), the scheduler's retry cap (its default) and the
per-schedule check, which is always on because it is ``crash_at``'s.

Findings
--------

* TC101-TC111 from the riding :class:`TraceChecker` (per schedule);
* ``EX000`` — an engine exception or scheduler failure under an
  explored (legal) schedule;
* ``EX001`` — a completed schedule failed ``crash_at``'s completed-run
  check: ``verify()``, the live scan against the committed-prefix
  model of its own commit order (a serializability violation), and
  the same for the state a ``DropAll`` crash of it recovers to;
* ``EX002`` — a crash-sweep violation under a forced explored
  schedule (the product mode).

Findings are deduplicated by key across schedules and reported
sorted, so two identical explorations are byte-identical — the
explorer is itself subject to the repo's determinism contract.
"""

import zlib

from repro.analysis.findings import Finding
from repro.analysis.tracecheck import TraceChecker
from repro.core import SystemConfig
from repro.core.locking import (
    _COMPATIBLE, _upgrade, LOCK_S, LOCK_X, decode_lock,
)
from repro.core.scheduler import RetriesExhausted, SchedulerError
from repro.obs import trace as ev
from repro.storage.pagestore import _OFF_ROOTS, N_ROOT_SLOTS
from repro.testing.crashsim import (
    SMALL_CONFIG, ScheduledRun, crash_at, crash_sweep,
)

#: Invariants armed on every explored schedule.  ``live`` is out of
#: scope (its per-transaction live-range snapshots are invalidated by
#: interleaving, exactly as in the scheduled corpora).
EXPLORE_INVARIANTS = (
    "flush", "atomic", "twopl", "snapshot", "occ", "lockset", "cache",
)

DEFAULT_BUDGET = 256
#: Scheduler steps one execution may take before it is truncated.
MAX_STEPS = 400
#: The crash product's sweep: every ``CRASH_STRIDE``-th armed event of
#: a forced schedule, thinned to about ``CRASH_MAX_POINTS`` points.
CRASH_STRIDE = 7
CRASH_MAX_POINTS = 10


class ExplorationError(Exception):
    """The explorer observed nondeterministic re-execution (a replayed
    prefix produced a different enabled set) — a bug, not a finding."""


class _SleepBlocked(Exception):
    """Every enabled client is in the sleep set: this continuation is
    provably redundant (covered by an already-explored schedule)."""


class _StepBudget(Exception):
    """The per-schedule step budget ran out."""


# ----------------------------------------------------------------------
# Footprints and the independence relation
# ----------------------------------------------------------------------

def _merge(footprint, resource, mode):
    held = footprint.get(resource)
    footprint[resource] = mode if held is None else _upgrade(held, mode)


def _footprint(events, base, page_size, npages):
    """The resources one step touched, with their strongest access
    modes.  See the module docstring for what is (and deliberately is
    not) included.

    A step that ends in a transaction abort gets a *wildcard* entry
    ("*"): the failed acquire that caused the abort raises before it
    can trace the contended resource, so the step's true conflict set
    is unknowable from the trace — treating it as dependent with
    everything keeps sleep sets and backtracking sound (a sleeping
    sibling is always woken, and the race analysis backtracks
    conservatively) at the cost of exploring abort/retry orderings
    naively."""
    footprint = {}
    end = base + npages * page_size
    for _seq, _t, kind, a, b in events:
        if kind == ev.TXN_ABORT:
            footprint["*"] = LOCK_X
        elif kind == ev.STORE:
            if a < base or a + max(b, 1) > end:
                continue  # log/commit-word/DRAM: excluded by design
            page_no = (a - base) // page_size
            if page_no == 0:
                offset = a - base
                if _OFF_ROOTS <= offset < _OFF_ROOTS + 4 * N_ROOT_SLOTS:
                    _merge(footprint,
                           ("root", (offset - _OFF_ROOTS) // 4), LOCK_X)
                continue  # allocator words: single-word-atomic contract
            _merge(footprint, ("page", page_no), LOCK_X)
        elif kind in (ev.LOCK_ACQUIRE, ev.LOCK_UPGRADE,
                      ev.LOCK_RELEASE, ev.LOCK_WAIT, ev.LOCK_CHECK):
            resource, mode = decode_lock(b)
            _merge(footprint, resource, mode)
        elif kind == ev.OCC_READ:
            _merge(footprint, decode_lock(b)[0], LOCK_S)
        elif kind == ev.VERSION_PUBLISH:
            _merge(footprint, decode_lock(a)[0], LOCK_X)
    return footprint


def _dependent(fp_a, fp_b):
    """Two footprints conflict iff they share a resource in
    incompatible modes (the lock compatibility matrix).  A wildcard
    entry (an aborted step — see ``_footprint``) conflicts with every
    non-empty footprint."""
    if ("*" in fp_a and fp_b) or ("*" in fp_b and fp_a):
        return True
    if len(fp_b) < len(fp_a):
        fp_a, fp_b = fp_b, fp_a
    for resource, mode in fp_a.items():
        other = fp_b.get(resource)
        if other is not None and other not in _COMPATIBLE[mode]:
            return True
    return False


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

def default_workloads(clients=2, ops=2):
    """The default exploration target: ``clients`` locked writers,
    each running one multi-op transaction over a shared hot key (so
    transactions hold locks across steps and genuinely conflict) plus
    per-client exclusive inserts."""
    payload = bytes(range(40))
    workloads = []
    for index in range(clients):
        txn_ops = [
            ("insert", b"ex%d-%d" % (index, op), payload)
            for op in range(max(ops - 1, 1))
        ]
        txn_ops.append(("insert", b"shared", payload))
        workloads.append([("txn", txn_ops)])
    return workloads


# ----------------------------------------------------------------------
# The prefix tree
# ----------------------------------------------------------------------

class _Node:
    """One state of the schedule tree, keyed by the choice path that
    reaches it."""

    __slots__ = ("enabled", "done", "backtrack", "sleep")

    def __init__(self, enabled, sleep, backtrack):
        self.enabled = enabled    # tuple of client indices, sorted
        self.done = {}            # choice -> footprint of that step
        self.backtrack = backtrack  # set of choices still to explore
        self.sleep = sleep        # {choice: footprint} — redundant here


class _ForcedReplay:
    """A pick strategy that forces a recorded choice path, then falls
    back to the default first-ready choice.  Used by the schedule ×
    crash-point product mode: pre-crash execution is deterministic, so
    the forced picks always find their client."""

    __slots__ = ("_path", "_pos")

    def __init__(self, path):
        self._path = path
        self._pos = 0

    def __call__(self, scheduler, ready):
        if self._pos < len(self._path):
            want = self._path[self._pos]
            self._pos += 1
            for client in ready:
                if client.index == want:
                    return client
        return ready[0]


class _Execution:
    """One explored schedule, as the crash driver runs it: ``pick`` is
    the scheduler's pick strategy (forced prefix, then a sleep-aware
    continuation) and ``advance()`` is the per-step checker hook
    (``ScheduledRun`` calls it as ``on_step``).  ``advance()`` feeds
    the step's trace events to the :class:`TraceChecker` and records
    the step's footprint and its child's sleep set in the explorer's
    prefix tree; ``steps`` is what the race analysis walks."""

    def __init__(self, explorer, forced):
        self.explorer = explorer
        self.forced = forced
        self.path = []
        self.steps = []           # (parent path, choice, footprint, enabled)
        self.next_sleep = {}

    def attach(self, engine):
        """The ``checker_factory``: called once the preload is in, so
        the checker and the footprints start past its events."""
        config = engine.config
        self.geometry = (config.store_base, config.page_size, config.npages)
        self.trace = engine.obs.trace
        self.checker = TraceChecker.for_engine(
            engine, invariants=EXPLORE_INVARIANTS,
        )
        self.checker._cursor = self.trace.seq
        return self

    def pick(self, _scheduler, ready):
        path = tuple(self.path)
        enabled = tuple(sorted(client.index for client in ready))
        node = self.explorer._node_at(path, enabled, self.next_sleep)
        position = len(path)
        if position < len(self.forced):
            choice = self.forced[position]
        else:
            # Default continuation: the first *awake* client in the
            # scheduler's own pick order (ready is pre-sorted by
            # (ready_at, last_step, index)) — following the default
            # order keeps retry backoff meaningful, so a freshly
            # aborted client yields to the conflict winner instead
            # of re-aborting until its retries run out.
            choice = None
            for client in ready:
                if client.index not in node.sleep:
                    choice = client.index
                    break
            if choice is None:
                raise _SleepBlocked
        for client in ready:
            if client.index == choice:
                self.path.append(choice)
                return client
        raise ExplorationError(
            "forced choice %d not enabled at %r (enabled %r)"
            % (choice, path, enabled)
        )

    def advance(self):
        batch = self.trace.events(since_seq=self.checker._cursor)
        self.checker.feed(batch)
        footprint = _footprint(batch, *self.geometry)
        choice = self.path[-1]
        parent = tuple(self.path[:-1])
        node = self.explorer._nodes[parent]
        if choice not in node.done:
            node.done[choice] = footprint
        # The child's sleep set: already-explored siblings and the
        # inherited sleepers survive iff independent of this step.
        sleep = {}
        if self.explorer.reduction:
            for other, other_fp in list(node.sleep.items()) + [
                (d, fp) for d, fp in node.done.items() if d != choice
            ]:
                if other != choice and not _dependent(other_fp, footprint):
                    sleep[other] = other_fp
        self.next_sleep = sleep
        self.steps.append((parent, choice, footprint, node.enabled))
        if len(self.steps) > MAX_STEPS:
            raise _StepBudget

    def finish(self):
        return self.checker.finish()

    def close(self):
        return self.checker.close()


# ----------------------------------------------------------------------
# The explorer
# ----------------------------------------------------------------------

class Explorer:
    """DFS + DPOR over the schedule space of one multi-client workload.

    ``reduction=False`` disables both the race analysis and the sleep
    sets and seeds every state's backtrack set with its full enabled
    set — naive exhaustive DFS, kept as the reference the reduction is
    measured (and tested) against.
    """

    def __init__(self, scheme="fast", *, workloads=None, preload=(),
                 config=None, budget=DEFAULT_BUDGET, reduction=True,
                 crash_schedules=0):
        self.scheme = scheme
        self.config = config or SystemConfig(**SMALL_CONFIG)
        if self.config.group_commit_size:
            # An epoch closer applies *other* members' headers at its
            # own commit — per-step attribution (and with it TC110)
            # does not compose with grouped visibility.
            raise ExplorationError(
                "exploration requires group_commit_size=0"
            )
        self.workloads = (
            workloads if workloads is not None else default_workloads()
        )
        self.preload = list(preload)
        self.budget = budget
        self.reduction = reduction
        self.crash_schedules = crash_schedules
        # -- the persistent prefix tree -------------------------------
        self._nodes = {}          # path tuple -> _Node
        self._order = []          # node paths in creation (DFS) order
        # -- results --------------------------------------------------
        self.findings = []
        self._finding_keys = set()
        self._digests = {}        # state digest -> first schedule path
        self.stats = {
            "attempts": 0,        # executions, complete or pruned
            "schedules": 0,       # completed schedules
            "steps": 0,           # scheduler steps executed, total
            "pruned_sleep": 0,    # executions pruned by sleep sets
            "pruned_state": 0,    # completed schedules, digest seen
            "truncated": 0,       # executions over the step budget
            "starved": 0,         # executions ended by retry exhaustion
            "max_frontier": 0,    # peak count of states with pending
            "crash_points": 0,    # crash-product points executed
            "budget_exhausted": False,
        }

    # -- findings ----------------------------------------------------------

    def _add_finding(self, finding):
        if finding.key not in self._finding_keys:
            self._finding_keys.add(finding.key)
            self.findings.append(finding)

    # -- tree plumbing -----------------------------------------------------

    def _node_at(self, path, enabled, sleep):
        node = self._nodes.get(path)
        if node is None:
            if self.reduction:
                node = _Node(enabled, dict(sleep), set())
            else:
                node = _Node(enabled, {}, set(enabled))
            self._nodes[path] = node
            self._order.append(path)
        elif node.enabled != enabled:
            raise ExplorationError(
                "nondeterministic re-execution at %r: enabled %r, "
                "previously %r" % (path, enabled, node.enabled)
            )
        return node

    def _pending_of(self, node):
        return node.backtrack.difference(node.done, node.sleep)

    def _next_forced(self):
        """The deepest state with an unexplored backtrack choice (and
        the frontier size, for the stats)."""
        forced = None
        frontier = 0
        for path in reversed(self._order):
            pending = self._pending_of(self._nodes[path])
            if pending:
                frontier += 1
                if forced is None:
                    forced = path + (min(pending),)
        self.stats["max_frontier"] = max(self.stats["max_frontier"], frontier)
        return forced

    # -- one execution -----------------------------------------------------

    def _execute(self, forced):
        """Run one schedule through the crash driver: forced prefix,
        sleep-aware continuation.  Returns the per-step records for the
        race analysis."""
        execution = _Execution(self, forced)
        shape = ScheduledRun(
            self.scheme, self.workloads, lambda: execution.pick,
            preload=self.preload,
        )
        result = None
        merge_checker = True
        try:
            result = crash_at(shape, None, config=self.config,
                              checker_factory=execution.attach)
        except _SleepBlocked:
            self.stats["pruned_sleep"] += 1
            merge_checker = False  # the prefix is covered elsewhere
        except _StepBudget:
            self.stats["truncated"] += 1
        except ExplorationError:
            raise
        except RetriesExhausted:
            # Scheduling-induced livelock: an adversarial prefix can
            # starve any client past the retry cap.  A liveness cap,
            # not a safety violation — the schedule is truncated.
            self.stats["starved"] += 1
        except SchedulerError as err:
            self._add_finding(Finding(
                "EX000",
                "scheduler failed under an explored schedule: %s" % err,
            ))
        except Exception as err:
            self._add_finding(Finding(
                "EX000",
                "engine exception under an explored schedule: %s: %s"
                % (type(err).__name__, err),
            ))
        self.stats["steps"] += len(execution.steps)
        if merge_checker:
            for finding in execution.checker.findings:
                self._add_finding(finding)
        if result is not None:
            self.stats["schedules"] += 1
            self._check_schedule(
                tuple(execution.path), shape.scheduler.commit_order, result,
            )
        return execution.steps

    # -- per-schedule check ------------------------------------------------

    def _check_schedule(self, path, order, result):
        """File a completed schedule: digest its committed state (the
        live scan ``crash_at`` recovered) with its commit order, and
        report the completed-run check's violations as EX001."""
        order = tuple(order)
        final = tuple(sorted(result.recovered.items()))
        digest = zlib.crc32(repr((order, final)).encode())
        if digest in self._digests:
            self.stats["pruned_state"] += 1
        else:
            self._digests[digest] = path
        if not result.ok:
            self._add_finding(Finding(
                "EX001",
                "schedule %s: the completed run is not the committed-"
                "prefix model of its commit order %s: %s"
                % (list(path), list(order),
                   "; ".join(result.violations[:3])),
            ))

    # -- race analysis -----------------------------------------------------

    def _analyze_races(self, steps):
        """Classic DPOR backtracking: for each step *j*, find the last
        earlier step of every *other* client whose footprint is
        dependent with *j*'s, and make *j*'s chooser explorable there."""
        for j, (_path_j, chooser_j, fp_j, _enabled_j) in enumerate(steps):
            if not fp_j:
                continue
            last_dependent = {}
            for i in range(j):
                _p, chooser_i, fp_i, _e = steps[i]
                if chooser_i != chooser_j and _dependent(fp_i, fp_j):
                    last_dependent[chooser_i] = i
            for other in sorted(last_dependent):
                i = last_dependent[other]
                path_i, _chooser_i, _fp_i, enabled_i = steps[i]
                node = self._nodes[path_i]
                if chooser_j in enabled_i:
                    node.backtrack.add(chooser_j)
                else:
                    node.backtrack.update(enabled_i)

    # -- schedule × crash-point product --------------------------------------

    def _crash_product(self):
        """Bounded crash sweeps with the most-distinct explored
        schedules *forced*: one schedule per distinct committed-state
        digest, first ``crash_schedules`` in discovery order."""
        for path in list(self._digests.values())[:self.crash_schedules]:
            shape = ScheduledRun(
                self.scheme, self.workloads,
                lambda path=path: _ForcedReplay(path),
                preload=self.preload,
            )
            results = crash_sweep(
                shape, config=self.config, stride=CRASH_STRIDE,
                max_points=CRASH_MAX_POINTS, seeds=(0,),
            )
            self.stats["crash_points"] += len(results)
            for budget, result in results:
                if not result.ok:
                    self._add_finding(Finding(
                        "EX002",
                        "crash at budget %d under forced schedule %s "
                        "violates the committed prefix: %s"
                        % (budget, list(path),
                           "; ".join(result.violations)),
                    ))

    # -- the DFS loop ------------------------------------------------------

    def run(self):
        """Explore to completion (or budget); returns the result dict."""
        forced = ()
        while True:
            if self.stats["attempts"] >= self.budget:
                self.stats["budget_exhausted"] = True
                break
            self.stats["attempts"] += 1
            steps = self._execute(forced)
            if self.reduction:
                self._analyze_races(steps)
            nxt = self._next_forced()
            if nxt is None:
                break
            forced = nxt
        self._crash_product()
        return self.result()

    def publish(self, obs):
        """File the exploration's counters into an
        :class:`~repro.obs.context.Observability` handle (schema names
        ``explore.*``), so snapshots/reports carry the exploration
        alongside the engine counters."""
        races = sum(1 for f in self.findings if f.rule == "TC110")
        obs.inc("explore.schedules", self.stats["schedules"])
        obs.inc("explore.attempts", self.stats["attempts"])
        obs.inc("explore.steps", self.stats["steps"])
        obs.inc("explore.nodes", len(self._nodes))
        obs.inc("explore.states", len(self._digests))
        obs.inc("explore.pruned.sleep", self.stats["pruned_sleep"])
        obs.inc("explore.pruned.state", self.stats["pruned_state"])
        obs.inc("explore.truncated", self.stats["truncated"])
        obs.inc("explore.starved", self.stats["starved"])
        obs.inc("explore.races", races)
        obs.inc("explore.findings", len(self.findings))
        obs.inc("explore.crash_points", self.stats["crash_points"])
        gauge = max(
            obs.registry.gauge("explore.max_frontier").value,
            self.stats["max_frontier"],
        )
        obs.registry.set_gauge("explore.max_frontier", gauge)

    def result(self):
        """A JSON-ready, deterministic summary."""
        self.findings.sort(key=lambda f: (f.rule, f.message))
        races = [f for f in self.findings if f.rule == "TC110"]
        out = {
            "scheme": self.scheme,
            "clients": len(self.workloads),
            "reduction": self.reduction,
            "budget": self.budget,
            "distinct_states": len(self._digests),
            "nodes": len(self._nodes),
            "races": [f.render() for f in races],
            "findings": [f.render() for f in self.findings],
        }
        out.update(self.stats)
        return out


def explore(scheme="fast", **kwargs):
    """One-shot exploration; returns the result dict (see
    :meth:`Explorer.result`)."""
    return Explorer(scheme, **kwargs).run()


__all__ = [
    "Explorer", "ExplorationError", "explore", "default_workloads",
    "EXPLORE_INVARIANTS", "DEFAULT_BUDGET", "MAX_STEPS", "CRASH_STRIDE",
    "CRASH_MAX_POINTS",
]
