"""Access-path selection.

The only index is the primary-key B-tree, so planning reduces to:
can the WHERE clause bound the primary key?

* ``pk = <const>``                      -> point lookup
* ``pk >/>=/</<= <const>`` conjuncts    -> range scan
* ``pk BETWEEN a AND b``                -> range scan
* anything else                         -> full scan

``<const>`` means evaluable without a row (literals, parameters,
arithmetic over them).  The full WHERE clause is always re-checked as
a residual filter, so planning is purely an optimisation and never
changes results.
"""

from dataclasses import dataclass
from typing import Optional

from repro.db.sql import ast


@dataclass(frozen=True)
class AccessPath:
    """How to read the table.

    ``point`` is an expression for an exact key; otherwise ``lo`` /
    ``hi`` (either may be None) bound a scan.  Exclusive bounds are
    handled by the residual filter, so bounds here are inclusive hints.
    """

    point: Optional[object] = None
    lo: Optional[object] = None
    hi: Optional[object] = None

    @property
    def is_point(self):
        return self.point is not None


def is_constant(expr):
    """True if the expression references no columns."""
    if isinstance(expr, (ast.Literal, ast.Param)):
        return True
    if isinstance(expr, ast.Unary):
        return is_constant(expr.operand)
    if isinstance(expr, ast.Binary):
        return is_constant(expr.left) and is_constant(expr.right)
    return False


def plan_access(where, pk_name):
    """Derive an ``AccessPath`` from a WHERE expression."""
    constraints = analyze_conjuncts(where).get(pk_name)
    if constraints is None:
        return AccessPath()
    if constraints.eq is not None:
        return AccessPath(point=constraints.eq)
    return AccessPath(lo=constraints.lo, hi=constraints.hi)


@dataclass
class ColumnConstraints:
    """Constant bounds a WHERE clause puts on one column."""

    eq: Optional[object] = None
    lo: Optional[object] = None
    hi: Optional[object] = None


def analyze_conjuncts(where):
    """Constant constraints per column across top-level AND conjuncts.

    Returns ``{column_name: ColumnConstraints}``.  Only conjuncts of
    the form ``col <op> const`` (or BETWEEN) contribute; everything
    else is left to the residual filter.
    """
    constraints = {}
    if where is None:
        return constraints
    for conjunct in _conjuncts(where):
        found = _column_comparison(conjunct)
        if found is None:
            continue
        column, op, value = found
        entry = constraints.setdefault(column, ColumnConstraints())
        if op == "=":
            entry.eq = value
        elif op in (">", ">="):
            entry.lo = value if entry.lo is None else entry.lo
        elif op in ("<", "<="):
            entry.hi = value if entry.hi is None else entry.hi
        elif op == "between":
            entry.lo = value[0] if entry.lo is None else entry.lo
            entry.hi = value[1] if entry.hi is None else entry.hi
    return constraints


def _conjuncts(expr):
    if isinstance(expr, ast.Binary) and expr.op == "AND":
        yield from _conjuncts(expr.left)
        yield from _conjuncts(expr.right)
    else:
        yield expr


def _column_comparison(expr):
    """Recognise ``col <op> const``; returns (column, op, const expr)."""
    if isinstance(expr, ast.Between):
        if (
            not expr.negated
            and isinstance(expr.operand, ast.ColumnRef)
            and is_constant(expr.low)
            and is_constant(expr.high)
        ):
            return expr.operand.name, "between", (expr.low, expr.high)
        return None
    if not isinstance(expr, ast.Binary):
        return None
    if expr.op not in ("=", "<", "<=", ">", ">="):
        return None
    left, right, op = expr.left, expr.right, expr.op
    if isinstance(right, ast.ColumnRef) and not isinstance(left, ast.ColumnRef):
        left, right = right, left
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}[op]
    if isinstance(left, ast.ColumnRef) and is_constant(right):
        return left.name, op, right
    return None
