"""Compile scalar expressions to fused Python closures.

:meth:`~repro.expressions.ast.ScalarExpr.bind` interprets an expression
as a tree of nested lambdas: every row evaluation re-enters one Python
frame per AST node.  This module lowers the same expression language
(Const / AttrRef / Arith / Neg / Compare / BoolOp / Not) into a single
generated Python function compiled once with :func:`compile`, so a
predicate like ``(%3 * 1.1 > 5.0) and (%2 <> 'x')`` evaluates in one
frame with attribute positions resolved at compile time, not per row.

Three kernel shapes are produced, all used by the vectorized engine
(:mod:`repro.engine.vector`):

* :func:`compile_row` — a drop-in replacement for ``expr.bind(schema)``:
  a ``Row -> value`` closure.  Falls back to the AST interpreter when
  the expression cannot be lowered, so it is always safe to call.
* :func:`compile_filter_kernel` — a batch predicate
  ``(columns, n) -> selected indices`` iterating only the referenced
  columns; conjunctions are fused into one ``and`` chain inside a
  single loop.
* :func:`compile_map_kernel` / :func:`compile_key_kernel` — batch
  projection kernels producing whole output columns (or join/group key
  sequences) in one pass.

Every batch kernel comes in two layouts: a *column* form iterating the
referenced columns (``zip`` over value lists) and a *row* form indexing
into row tuples (``_r[i]``).  :class:`~repro.engine.vector.batch.ColumnBatch`
keeps whichever representation it was built from, so operators pick the
kernel matching the cached layout and never force a transpose just to
evaluate an expression.

Constants are lifted, code is shape-keyed
-----------------------------------------

Every :class:`~repro.expressions.ast.Const` becomes a name in the
kernel's namespace rather than a literal in its source, so the generated
source depends only on the expression's shape, its attribute positions
and its layout.  :func:`_materialize` therefore finds the code object of
a query that differs from an earlier one only in its constants in a
bounded, thread-safe memo (:data:`CODE_MEMO_SIZE` sources) and skips
:func:`compile`; it still executes that code in a fresh scope holding
*this* query's constants, so kernels never share constants.

What cannot be lowered — and why the fallback is exact
------------------------------------------------------

Lowering skips the domain ``normalize`` step that ``Arith.bind``
applies.  For INTEGER and REAL that step is provably the identity
(``int op int`` is ``int``; anything touching ``float`` is ``float``;
``/`` always yields ``float``), so the shortcut is semantics-preserving.
MONEY arithmetic, however, coerces operands to :class:`~decimal.Decimal`
and quantizes results, so any :class:`~repro.expressions.ast.Arith`
with a MONEY operand refuses to lower and the caller falls back to the
AST interpreter.  Division by zero raises the same
:class:`~repro.errors.DivisionByZeroError` as the interpreter, and
out-of-range attribute access is re-routed to
:class:`~repro.errors.UnboundAttributeError` exactly as ``bind`` does.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.domains import MONEY
from repro.errors import DivisionByZeroError, UnboundAttributeError
from repro.expressions.ast import (
    Arith,
    AttrRef,
    BoolOp,
    Compare,
    Const,
    Neg,
    Not,
    ScalarExpr,
)
from repro.schema import RelationSchema
from repro.tuples import Row

__all__ = [
    "CODE_MEMO_SIZE",
    "CannotLower",
    "Lowered",
    "try_lower",
    "compile_row",
    "compile_predicate",
    "compile_filter_kernel",
    "compile_filter_kernel_rows",
    "compile_map_kernel",
    "compile_map_kernel_rows",
    "compile_key_kernel",
    "compile_key_kernel_rows",
]


class CannotLower(Exception):
    """The expression uses a feature the lowerer does not support."""


class Lowered:
    """A lowered expression: source fragment + referenced columns."""

    __slots__ = ("source", "refs", "namespace")

    def __init__(
        self, source: str, refs: frozenset[int], namespace: Dict[str, Any]
    ) -> None:
        self.source = source
        self.refs = refs
        self.namespace = namespace


def _checked_div(numerator: Any, denominator: Any, origin: str) -> Any:
    """Division with the interpreter's zero check (same error class)."""
    if denominator == 0:
        raise DivisionByZeroError(f"division by zero in {origin}")
    return numerator / denominator


def _out_of_range(row: Row, degree: int) -> UnboundAttributeError:
    """The interpreter's out-of-range diagnostic, for compiled row fns."""
    return UnboundAttributeError(
        f"attribute reference is out of range for a {len(row)}-attribute "
        f"tuple (schema promised degree {degree})"
    )


#: Names every generated function can rely on.
_BASE_NAMESPACE: Dict[str, Any] = {
    "_div": _checked_div,
    "_oob": _out_of_range,
}

_COMPARE_SYMBOLS = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

#: Generated sources whose code objects :func:`_materialize` keeps.
CODE_MEMO_SIZE = 512


class _Lowerer:
    """Walk one expression, emitting a Python source fragment.

    ``ref_template`` controls how attribute reads render: ``"_r[{0}]"``
    for row closures, ``"_v{0}"`` for batch kernels where the loop
    header binds one variable per referenced column.
    """

    def __init__(
        self, schema: RelationSchema, ref_template: str, prefix: str = "_k"
    ) -> None:
        self.schema = schema
        self.ref_template = ref_template
        self.prefix = prefix
        self.refs: set[int] = set()
        self.namespace: Dict[str, Any] = {}
        self._counter = 0

    def constant(self, value: Any) -> str:
        name = f"{self.prefix}{self._counter}"
        self._counter += 1
        self.namespace[name] = value
        return name

    def lower(self, expr: ScalarExpr) -> str:
        if isinstance(expr, Const):
            return self.constant(expr.value)
        if isinstance(expr, AttrRef):
            index = self.schema.resolve(expr.ref) - 1
            self.refs.add(index)
            return self.ref_template.format(index)
        if isinstance(expr, Arith):
            left_domain = expr.left.infer_domain(self.schema)
            right_domain = expr.right.infer_domain(self.schema)
            if MONEY in (left_domain, right_domain):
                # Decimal coercion + quantization: interpreter territory.
                raise CannotLower(f"money arithmetic in {expr!r}")
            expr.infer_domain(self.schema)  # surface type errors now
            left = self.lower(expr.left)
            right = self.lower(expr.right)
            if expr.op == "/":
                origin = self.constant(repr(expr))
                return f"_div({left}, {right}, {origin})"
            return f"({left} {expr.op} {right})"
        if isinstance(expr, Neg):
            expr.infer_domain(self.schema)
            return f"(-{self.lower(expr.operand)})"
        if isinstance(expr, Compare):
            expr.infer_domain(self.schema)
            left = self.lower(expr.left)
            right = self.lower(expr.right)
            return f"({left} {_COMPARE_SYMBOLS[expr.op]} {right})"
        if isinstance(expr, BoolOp):
            expr.infer_domain(self.schema)
            return f"({self.lower(expr.left)} {expr.op} {self.lower(expr.right)})"
        if isinstance(expr, Not):
            expr.infer_domain(self.schema)
            return f"(not {self.lower(expr.operand)})"
        raise CannotLower(f"unsupported expression node {type(expr).__name__}")


def try_lower(
    expr: ScalarExpr,
    schema: RelationSchema,
    ref_template: str = "_r[{0}]",
    prefix: str = "_k",
) -> Optional[Lowered]:
    """Lower ``expr`` to a source fragment, or ``None`` if unsupported.

    Type errors (:class:`~repro.errors.ExpressionTypeError`) and
    unresolvable attributes propagate, exactly as ``bind`` would raise
    them; only *supported-but-uncompilable* shapes return ``None``.
    ``prefix`` namespaces lifted constants so fragments from several
    expressions can share one generated function.
    """
    lowerer = _Lowerer(schema, ref_template, prefix)
    try:
        source = lowerer.lower(expr)
    except CannotLower:
        return None
    return Lowered(source, frozenset(lowerer.refs), lowerer.namespace)


@lru_cache(maxsize=CODE_MEMO_SIZE)
def _code_for(source: str) -> Any:
    """The code object of one generated source (memoized by its text)."""
    return compile(source, "<repro.expressions.compile>", "exec")


def _materialize(
    source: str, namespace: Dict[str, Any], name: str
) -> Callable:
    """Run generated source in a fresh scope and pull out ``name``.

    The code object comes from the shape-keyed memo; the scope holds
    ``namespace`` (this kernel's constants) on top of the base helpers.
    """
    scope: Dict[str, Any] = dict(_BASE_NAMESPACE)
    scope.update(namespace)
    exec(_code_for(source), scope)  # noqa: S102 - source is generated, not user input
    fn = scope[name]
    fn.__compiled_source__ = source
    return fn


# ---------------------------------------------------------------------------
# Row closures (drop-in for expr.bind)
# ---------------------------------------------------------------------------


def compile_row(expr: ScalarExpr, schema: RelationSchema) -> Callable[[Row], Any]:
    """A single-frame ``Row -> value`` closure for ``expr``.

    Falls back to ``expr.bind(schema)`` when the expression cannot be
    lowered, so callers never need to special-case the result.
    """
    lowered = try_lower(expr, schema)
    if lowered is None:
        return expr.bind(schema)
    source = (
        "def _fn(_r):\n"
        "    try:\n"
        f"        return {lowered.source}\n"
        "    except IndexError:\n"
        f"        raise _oob(_r, {schema.degree}) from None\n"
    )
    return _materialize(source, lowered.namespace, "_fn")


def compile_predicate(
    condition: ScalarExpr, schema: RelationSchema
) -> Callable[[Row], bool]:
    """A compiled boolean row closure (alias of :func:`compile_row`)."""
    return compile_row(condition, schema)


# ---------------------------------------------------------------------------
# Batch kernels
# ---------------------------------------------------------------------------


def _loop_header(refs: Sequence[int]) -> str:
    """The ``for`` line iterating exactly the referenced columns."""
    if len(refs) == 1:
        index = refs[0]
        return f"    for _v{index} in _cols[{index}]:\n"
    variables = ", ".join(f"_v{i}" for i in refs)
    columns = ", ".join(f"_cols[{i}]" for i in refs)
    return f"    for {variables} in zip({columns}):\n"


def compile_filter_kernel(
    condition: ScalarExpr, schema: RelationSchema
) -> Optional[Callable[[Sequence[List[Any]], int], Sequence[int]]]:
    """A batch predicate ``(columns, n) -> selected row indices``.

    The kernel walks only the columns the condition references and
    evaluates the whole (conjunction-fused) condition in one expression
    per row.  A condition with no attribute references is evaluated
    once: the kernel returns ``range(n)`` or ``()``.  Returns ``None``
    when the condition cannot be lowered.
    """
    lowered = try_lower(condition, schema, ref_template="_v{0}")
    if lowered is None:
        return None
    refs = sorted(lowered.refs)
    if not refs:
        source = (
            "def _kernel(_cols, _n):\n"
            f"    if {lowered.source}:\n"
            "        return range(_n)\n"
            "    return ()\n"
        )
    else:
        source = (
            "def _kernel(_cols, _n):\n"
            "    _sel = []\n"
            "    _push = _sel.append\n"
            "    _i = 0\n"
            f"{_loop_header(refs)}"
            f"        if {lowered.source}:\n"
            "            _push(_i)\n"
            "        _i += 1\n"
            "    return _sel\n"
        )
    return _materialize(source, lowered.namespace, "_kernel")


def compile_map_kernel(
    expressions: Sequence[ScalarExpr], schema: RelationSchema
) -> Optional[Callable[[Sequence[List[Any]], int], Tuple[List[Any], ...]]]:
    """A fused batch projection ``(columns, n) -> output columns``.

    All expressions are evaluated in a single pass over the referenced
    input columns, appending to one output list per expression.
    Returns ``None`` unless *every* expression lowers.
    """
    lowered: List[Lowered] = []
    namespace: Dict[str, Any] = {}
    refs: set[int] = set()
    for position, expr in enumerate(expressions):
        # Per-expression constant prefixes keep namespaces disjoint.
        one = try_lower(expr, schema, ref_template="_v{0}", prefix=f"_c{position}x")
        if one is None:
            return None
        namespace.update(one.namespace)
        lowered.append(one)
        refs.update(one.refs)
    ordered_refs = sorted(refs)
    lines = ["def _kernel(_cols, _n):\n"]
    for position in range(len(lowered)):
        lines.append(f"    _o{position} = []\n")
        lines.append(f"    _a{position} = _o{position}.append\n")
    if ordered_refs:
        lines.append(_loop_header(ordered_refs))
    else:
        lines.append("    for _ in range(_n):\n")
    for position, one in enumerate(lowered):
        lines.append(f"        _a{position}({one.source})\n")
    outputs = ", ".join(f"_o{position}" for position in range(len(lowered)))
    lines.append(f"    return ({outputs}{',' if len(lowered) == 1 else ''})\n")
    return _materialize("".join(lines), namespace, "_kernel")


def compile_key_kernel(
    expressions: Sequence[ScalarExpr], schema: RelationSchema
) -> Optional[Callable[[Sequence[List[Any]], int], Sequence[Any]]]:
    """A batch key extractor ``(columns, n) -> key per row``.

    Mirrors the pairs engine's key convention: a single expression
    yields bare values, several yield tuples.  Plain attribute
    references take zero-copy shortcuts (the column itself, or a
    C-speed ``zip`` of key columns).  Returns ``None`` when any key
    expression fails to lower.
    """
    if all(isinstance(expr, AttrRef) for expr in expressions):
        indices = [schema.resolve(expr.ref) - 1 for expr in expressions]
        if len(indices) == 1:
            index = indices[0]
            return lambda cols, n: cols[index]
        return lambda cols, n, _idx=tuple(indices): list(
            zip(*(cols[i] for i in _idx))
        )
    lowered: List[Lowered] = []
    namespace: Dict[str, Any] = {}
    refs: set[int] = set()
    for position, expr in enumerate(expressions):
        one = try_lower(expr, schema, ref_template="_v{0}", prefix=f"_c{position}x")
        if one is None:
            return None
        namespace.update(one.namespace)
        lowered.append(one)
        refs.update(one.refs)
    ordered_refs = sorted(refs)
    if len(lowered) == 1:
        body = lowered[0].source
    else:
        body = "(" + ", ".join(one.source for one in lowered) + ")"
    lines = [
        "def _kernel(_cols, _n):\n",
        "    _out = []\n",
        "    _push = _out.append\n",
    ]
    if ordered_refs:
        lines.append(_loop_header(ordered_refs))
    else:
        lines.append("    for _ in range(_n):\n")
    lines.append(f"        _push({body})\n")
    lines.append("    return _out\n")
    return _materialize("".join(lines), namespace, "_kernel")


# ---------------------------------------------------------------------------
# Row-layout batch kernels (operate on the row-wise view of a batch)
# ---------------------------------------------------------------------------


def compile_filter_kernel_rows(
    condition: ScalarExpr, schema: RelationSchema
) -> Optional[Callable[[Sequence[Row], int], Sequence[int]]]:
    """A batch predicate ``(rows, n) -> selected row indices``.

    Same fused condition as :func:`compile_filter_kernel`, but indexing
    into row tuples instead of zipping columns — used when the input
    batch is row-backed, so no transpose is ever paid for a filter.
    """
    lowered = try_lower(condition, schema)
    if lowered is None:
        return None
    if not lowered.refs:
        source = (
            "def _kernel(_rows, _n):\n"
            f"    if {lowered.source}:\n"
            "        return range(_n)\n"
            "    return ()\n"
        )
    else:
        source = (
            "def _kernel(_rows, _n):\n"
            "    _sel = []\n"
            "    _push = _sel.append\n"
            "    _i = 0\n"
            "    for _r in _rows:\n"
            f"        if {lowered.source}:\n"
            "            _push(_i)\n"
            "        _i += 1\n"
            "    return _sel\n"
        )
    return _materialize(source, lowered.namespace, "_kernel")


def compile_map_kernel_rows(
    expressions: Sequence[ScalarExpr], schema: RelationSchema
) -> Optional[Callable[[Sequence[Row], int], List[Row]]]:
    """A fused batch projection ``(rows, n) -> output rows``.

    Builds complete output tuples in one pass over the input rows
    (attribute references included), so a row-backed batch flows through
    extended projection without ever materialising columns.  Returns
    ``None`` unless *every* expression lowers.
    """
    fragments: List[str] = []
    namespace: Dict[str, Any] = {}
    for position, expr in enumerate(expressions):
        one = try_lower(expr, schema, prefix=f"_c{position}x")
        if one is None:
            return None
        namespace.update(one.namespace)
        fragments.append(one.source)
    body = "(" + ", ".join(fragments) + ("," if len(fragments) == 1 else "") + ")"
    source = (
        "def _kernel(_rows, _n):\n"
        "    _out = []\n"
        "    _push = _out.append\n"
        "    for _r in _rows:\n"
        f"        _push({body})\n"
        "    return _out\n"
    )
    return _materialize(source, namespace, "_kernel")


def compile_key_kernel_rows(
    expressions: Sequence[ScalarExpr], schema: RelationSchema
) -> Optional[Callable[[Sequence[Row], int], Sequence[Any]]]:
    """A batch key extractor ``(rows, n) -> key per row``.

    Row-layout twin of :func:`compile_key_kernel` with the same key
    convention (bare value for one expression, tuple for several).
    Plain attribute keys run as one C-speed ``map(itemgetter, rows)``.
    """
    if all(isinstance(expr, AttrRef) for expr in expressions):
        indices = [schema.resolve(expr.ref) - 1 for expr in expressions]
        getter = itemgetter(*indices)
        return lambda rows, n: list(map(getter, rows))
    fragments: List[str] = []
    namespace: Dict[str, Any] = {}
    for position, expr in enumerate(expressions):
        one = try_lower(expr, schema, prefix=f"_c{position}x")
        if one is None:
            return None
        namespace.update(one.namespace)
        fragments.append(one.source)
    if len(fragments) == 1:
        body = fragments[0]
    else:
        body = "(" + ", ".join(fragments) + ")"
    source = (
        "def _kernel(_rows, _n):\n"
        "    _out = []\n"
        "    _push = _out.append\n"
        "    for _r in _rows:\n"
        f"        _push({body})\n"
        "    return _out\n"
    )
    return _materialize(source, namespace, "_kernel")
