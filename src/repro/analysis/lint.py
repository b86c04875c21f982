"""Static lint: ``ast``-based persistence-discipline rules PM001-PM006.

Every rule is repo-specific — it encodes one invariant of the paper's
ordering argument (or of this reproduction's determinism contract) as
a syntactic check:

``PM001``
    Raw PM store calls (``pm.write`` / ``write_u16/u32/u64`` /
    ``_write_fixed``) outside the approved wrapper layers.  Record
    bytes, headers, and log frames must flow through the storage/wal/
    btree wrappers so the flush discipline stays in one place; engine
    and policy code reaching for the arena directly is flagged.
``PM002``
    A raw store in core scheme code with no ``persist`` /
    ``flush_range`` / ``clflush`` / ``clwb`` after it (and before any
    commit-mark emission in the same function).  Intraprocedural,
    flag-and-allowlist: a store the commit mark depends on that is
    never flushed would break the paper's ordering theorem.
``PM003``
    Nondeterminism sources in simulation-path modules: host wall-clock
    reads, module-level ``random.*`` calls (a seeded ``random.Random``
    is fine), and iteration directly over set displays/constructors —
    order-sensitive code over sets of pages breaks byte-identical
    replay.  CLI entry points (``__main__.py``) may read wall time.
``PM004``
    Literal metric names not registered in the ``repro.obs.schema``
    inventory: an unregistered name is a silent typo'd counter.
``PM005``
    Bare ``except:`` and handlers that swallow ``LockConflict`` /
    ``LockError`` / broad exceptions with a body of only ``pass`` —
    a swallowed lock error leaks held locks.
``PM006``
    Direct ``LockManager.acquire`` calls outside ``core/locking.py``.
    The only structurally safe ways to take a lock are
    ``TwoPhaseLocking``'s claim hook (locks released by the session's
    commit/abort on every path) and ``commit_scope`` (a ``with``
    block) — a bare
    ``.acquire`` anywhere else has no release-on-all-paths guarantee,
    and a leaked lock deadlocks every later schedule (the exact bug
    class the schedule-space explorer hunts dynamically; PM006 is its
    static shadow).

Suppress a deliberate violation with ``# repro: allow[RULE] why`` on
the flagged line (or the line above).
"""

import ast
import os

from repro.analysis.findings import (
    Finding, is_suppressed, parse_allows, unjustified_allows,
)
from repro.obs import schema

RULES = ("PM001", "PM002", "PM003", "PM004", "PM005", "PM006")

#: Attribute names that issue a raw store on the arena.
_STORE_METHODS = frozenset(
    {"write", "write_u16", "write_u32", "write_u64", "_write_fixed"}
)
#: Attribute names that flush/persist stored lines.
_FLUSH_METHODS = frozenset(
    {"persist", "flush_range", "clflush", "clwb"}
)
#: Receiver tails that denote the PM arena (``self.pm``, ``pm``,
#: ``engine.pm``...).  ``dram`` receivers are volatile and exempt.
_PM_RECEIVERS = frozenset({"pm", "memory", "arena"})

#: First path component (under ``repro/``) of the approved wrapper
#: layers: raw stores ARE these modules' job.
_WRAPPER_LAYERS = frozenset(
    {"pm", "storage", "wal", "btree", "htm", "hashindex", "testing"}
)
#: Modules whose functions PM002 checks (the commit schemes).
_CORE_LAYERS = frozenset({"core"})

#: Wall-clock reads (module attr -> flagged names).
_WALLCLOCK = {
    "time": {"time", "monotonic", "perf_counter", "process_time"},
    "datetime": {"now", "utcnow", "today"},
}
#: Module-level ``random.*`` functions (unseeded global PRNG).
_RANDOM_FUNCS = frozenset({
    "random", "randrange", "randint", "choice", "choices", "shuffle",
    "sample", "seed", "uniform", "getrandbits",
})
#: Registry mutators whose first literal argument is a metric name.
_METRIC_METHODS = frozenset({
    "inc", "counter", "counter_handle", "gauge", "histogram", "set_gauge",
    "observe", "value",
})
#: Exception names PM005 refuses to see swallowed.
_SWALLOW_NAMES = frozenset({
    "LockConflict", "LockError", "Exception", "BaseException",
})

#: Receiver tails that denote the lock manager (``self._locks``,
#: ``engine.lock_manager``...), for PM006.
_LOCK_RECEIVERS = frozenset({"lock_manager", "locks", "_locks"})
#: The one module allowed to call ``.acquire`` on it: the module that
#: *defines* the release-on-all-paths wrappers.
_LOCKING_MODULE = "core/locking.py"


def _receiver_tail(node):
    """The last name of a call receiver chain (``self.pm`` -> "pm")."""
    func = node.func
    if not isinstance(func, ast.Attribute):
        return None, None
    value = func.value
    if isinstance(value, ast.Attribute):
        return value.attr, func.attr
    if isinstance(value, ast.Name):
        return value.id, func.attr
    return None, func.attr


def _is_pm_store(node):
    receiver, method = _receiver_tail(node)
    return (
        method in _STORE_METHODS
        and receiver is not None
        and receiver in _PM_RECEIVERS
    )


def _is_pm_flush(node):
    receiver, method = _receiver_tail(node)
    return (
        method in _FLUSH_METHODS
        and receiver is not None
        and receiver in _PM_RECEIVERS
    )


def _is_commit_mark(node):
    """A commit-mark emission: ``<log|wal>.commit(...)`` or the RTM
    in-place publish ``<page>.commit_pending_inplace(...)``."""
    receiver, method = _receiver_tail(node)
    if method == "commit_pending_inplace":
        return True
    return method == "commit" and receiver in ("log", "wal")


def _layer_of(module):
    """First path component of a ``repro/``-relative module path."""
    return module.split("/", 1)[0] if "/" in module else ""


def _literal_names(node):
    """Metric-name string literals in a call's first argument
    (a constant, or an IfExp choosing between constants)."""
    if not node.args:
        return []
    arg = node.args[0]
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return [(arg.value, arg.lineno)]
    if isinstance(arg, ast.IfExp):
        names = []
        for side in (arg.body, arg.orelse):
            if isinstance(side, ast.Constant) and isinstance(side.value, str):
                names.append((side.value, side.lineno))
        return names
    return []


def _iterates_set(iter_node):
    """True when a ``for``/comprehension iterable is syntactically a
    set: a set display, a set comprehension, or a ``set()`` /
    ``frozenset()`` call."""
    if isinstance(iter_node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(iter_node, ast.Call) and isinstance(iter_node.func, ast.Name):
        return iter_node.func.id in ("set", "frozenset")
    return False


def _swallows(handler):
    """True when an except handler catches a lock/broad exception and
    its body does nothing but ``pass``/``...``/``continue``."""
    htype = handler.type
    if htype is None:
        return True  # bare except is always flagged
    names = []
    for node in ([htype.elts] if isinstance(htype, ast.Tuple) else [[htype]])[0]:
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
    if not any(name in _SWALLOW_NAMES for name in names):
        return False
    for stmt in handler.body:
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring / ellipsis
        return False
    return True


class _Visitor(ast.NodeVisitor):
    """One pass collecting the raw material for every rule."""

    def __init__(self):
        self.stores = []        # (node, enclosing function frame)
        self.flushes = []
        self.marks = []
        self.wallclock = []
        self.randoms = []
        self.set_iters = []
        self.metric_names = []
        self.handlers = []
        self.lock_acquires = []
        self._frames = []       # stack of function-def frame dicts

    # -- function frames (for the intraprocedural PM002) ---------------

    def _enter_function(self, node):
        frame = {"name": node.name, "stores": [], "flushes": [], "marks": []}
        self._frames.append(frame)
        self.generic_visit(node)
        self._frames.pop()

    visit_FunctionDef = _enter_function
    visit_AsyncFunctionDef = _enter_function

    # -- collection ----------------------------------------------------

    def visit_Call(self, node):
        frame = self._frames[-1] if self._frames else None
        if _is_pm_store(node):
            self.stores.append((node, frame))
            if frame is not None:
                frame["stores"].append(node)
        elif _is_pm_flush(node):
            self.flushes.append(node)
            if frame is not None:
                frame["flushes"].append(node)
        if _is_commit_mark(node):
            self.marks.append(node)
            if frame is not None:
                frame["marks"].append(node)
        receiver, method = _receiver_tail(node)
        if receiver in _WALLCLOCK and method in _WALLCLOCK[receiver]:
            self.wallclock.append(node)
        if receiver == "random" and method in _RANDOM_FUNCS:
            self.randoms.append(node)
        if method in _METRIC_METHODS:
            self.metric_names.extend(_literal_names(node))
        if method == "acquire" and receiver in _LOCK_RECEIVERS:
            self.lock_acquires.append(node)
        self.generic_visit(node)

    def visit_For(self, node):
        if _iterates_set(node.iter):
            self.set_iters.append(node)
        self.generic_visit(node)

    def _visit_comp(self, node):
        for gen in node.generators:
            if _iterates_set(gen.iter):
                self.set_iters.append(node)
                break
        self.generic_visit(node)

    visit_ListComp = visit_SetComp = visit_GeneratorExp = _visit_comp
    visit_DictComp = _visit_comp

    def visit_ExceptHandler(self, node):
        self.handlers.append(node)
        self.generic_visit(node)


def lint_source(source, *, file, module):
    """Lint one module's source text.

    ``module`` is the ``repro/``-relative path (e.g. ``core/fast.py``)
    that decides rule scoping; ``file`` is the provenance path reported
    in findings.
    """
    try:
        tree = ast.parse(source, filename=file)
    except SyntaxError as err:
        return [Finding(
            "PM000", "syntax error: %s" % err, file=file,
            line=err.lineno or 0,
        )]
    allows = parse_allows(source)
    visitor = _Visitor()
    visitor.visit(tree)
    layer = _layer_of(module)
    is_cli = os.path.basename(module) == "__main__.py"
    findings = list(unjustified_allows(allows, file))

    def add(rule, line, message):
        if not is_suppressed(allows, rule, line):
            findings.append(Finding(rule, message, file=file, line=line))

    # PM001 — raw stores outside the wrapper layers.
    if layer not in _WRAPPER_LAYERS:
        for node, _frame in visitor.stores:
            _, method = _receiver_tail(node)
            add("PM001", node.lineno,
                "raw PM store %s() outside the approved wrapper layers "
                "(pm/storage/wal/btree/htm/hashindex/testing)" % method)

    # PM002 — store with no flush on the path to the commit mark
    # (core scheme modules only, intraprocedural by line position).
    if layer in _CORE_LAYERS:
        seen_frames = []
        for _node, frame in visitor.stores:
            if frame is None or frame in seen_frames:
                continue
            seen_frames.append(frame)
            mark_line = min(
                (m.lineno for m in frame["marks"]), default=None
            )
            for store in frame["stores"]:
                flushed = any(
                    flush.lineno >= store.lineno
                    and (mark_line is None or flush.lineno <= mark_line
                         or store.lineno > mark_line)
                    for flush in frame["flushes"]
                )
                if not flushed:
                    add("PM002", store.lineno,
                        "PM store in %s() has no flush_range/clflush "
                        "before the enclosing commit-mark emission"
                        % frame["name"])

    # PM003 — nondeterminism in simulation-path modules.
    if not is_cli:
        for node in visitor.wallclock:
            receiver, method = _receiver_tail(node)
            add("PM003", node.lineno,
                "host wall-clock read %s.%s() in a simulation-path "
                "module (use the SimClock)" % (receiver, method))
        for node in visitor.randoms:
            _, method = _receiver_tail(node)
            add("PM003", node.lineno,
                "module-level random.%s() (unseeded global PRNG); use "
                "a seeded random.Random(seed)" % method)
        for node in visitor.set_iters:
            add("PM003", node.lineno,
                "iteration directly over a set; order-sensitive code "
                "must sort (sorted(...)) for deterministic replay")

    # PM004 — unregistered metric names.
    for name, line in visitor.metric_names:
        if not schema.is_registered(name):
            add("PM004", line,
                "metric name %r is not registered in repro.obs.schema"
                % name)

    # PM005 — bare except / swallowed lock errors.
    for handler in visitor.handlers:
        if _swallows(handler):
            label = (
                "bare except:" if handler.type is None
                else "swallowed exception handler (body is only pass)"
            )
            add("PM005", handler.lineno, label)

    # PM006 — direct lock acquisition outside core/locking.py.
    if module != _LOCKING_MODULE:
        for node in visitor.lock_acquires:
            receiver, _method = _receiver_tail(node)
            add("PM006", node.lineno,
                "direct %s.acquire() outside TwoPhaseLocking/commit_scope "
                "(no release-on-all-paths guarantee)" % receiver)

    findings.sort(key=lambda f: (f.file, f.line or 0, f.rule))
    return findings


def _module_path(path):
    """The ``repro/``-relative module path of a source file (falls
    back to the basename for files outside the package)."""
    parts = os.path.normpath(path).split(os.sep)
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index + 1:])
    return parts[-1]


def iter_sources(paths):
    """Yield (file, module) pairs for every ``.py`` under ``paths``."""
    for path in paths:
        if os.path.isfile(path):
            yield path, _module_path(path)
            continue
        for root, dirs, files in os.walk(path):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    full = os.path.join(root, name)
                    yield full, _module_path(full)


def lint_paths(paths):
    """Lint every Python file under ``paths``; returns all findings."""
    findings = []
    for file, module in iter_sources(paths):
        with open(file) as fh:
            source = fh.read()
        findings.extend(lint_source(source, file=file, module=module))
    return findings
