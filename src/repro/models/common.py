"""Operator groups shared by several models: comparisons, arithmetic, logic.

The paper's Section 2.2 defines the comparison operators once for all of
``DATA`` through quantification; arithmetic is needed by its examples
(``pop * 1.1`` in Section 6, ``pop div 1000`` in Section 4) and follows the
same style.
"""

from __future__ import annotations

import operator

from repro.core.kinds import Kind
from repro.core.operators import Quantifier, TypeOperator
from repro.core.sorts import TypeSort, UnionSort, VarSort
from repro.core.types import Sym, TypeApp
from repro.errors import ExecutionError

INT = TypeApp("int")
REAL = TypeApp("real")
STRING = TypeApp("string")
BOOL = TypeApp("bool")

_COMPARISONS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">=": operator.ge,
    ">": operator.gt,
}

# The Python expression each comparison and arithmetic ``impl`` computes
# (``OperatorSpec.inline``).  A comparison's ``TypeError`` becomes an
# ``ExecutionError`` only in the impl; a fused function that raises falls
# back to the impls, so the two need not agree on failures.
_INLINE = {
    "=": "{0} == {1}",
    "!=": "{0} != {1}",
    "<": "{0} < {1}",
    "<=": "{0} <= {1}",
    ">=": "{0} >= {1}",
    ">": "{0} > {1}",
    "+": "{0} + {1}",
    "-": "{0} - {1}",
    "*": "{0} * {1}",
}


def _comparable(fn, name):
    def impl(ctx, a, b):
        try:
            return fn(a, b)
        except TypeError:
            raise ExecutionError(
                f"values {a!r} and {b!r} are not comparable with {name}"
            ) from None

    impl.__name__ = f"cmp_{name}"
    return impl


def add_comparisons(builder, data_kind: Kind, level: str = "hybrid") -> None:
    """``forall data in DATA. data x data -> bool   =, !=, <, <=, >=, >``."""
    for name, fn in _COMPARISONS.items():
        builder.op(
            name,
            quantifiers=(Quantifier("data", data_kind),),
            args=(VarSort("data"), VarSort("data")),
            result=TypeSort(BOOL),
            syntax="( _ # _ )",
            impl=_comparable(fn, name),
            inline=_INLINE[name],
            level=level,
            doc=f"comparison {name} on any DATA type",
        )


def _numeric_result(type_system, binds, descriptors):
    """int if both operands are int, real otherwise."""
    if all(d == INT for d in descriptors):
        return INT
    return REAL


_ARITH = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
}


def add_arithmetic(builder, data_kind: Kind, level: str = "hybrid") -> None:
    """Arithmetic over int/real with the usual numeric promotion."""
    num = UnionSort((TypeSort(INT), TypeSort(REAL)))
    for name, fn in _ARITH.items():
        builder.op(
            name,
            args=(num, num),
            result=TypeOperator(f"arith_{name}", data_kind, _numeric_result),
            syntax="( _ # _ )",
            impl=(lambda fn: lambda ctx, a, b: fn(a, b))(fn),
            inline=_INLINE[name],
            level=level,
            doc=f"numeric {name} with int/real promotion",
        )
    builder.op(
        "/",
        args=(num, num),
        result=TypeSort(REAL),
        syntax="( _ # _ )",
        impl=lambda ctx, a, b: a / b,
        inline="{0} / {1}",
        level=level,
        doc="real division",
    )
    builder.op(
        "div",
        args=(TypeSort(INT), TypeSort(INT)),
        result=TypeSort(INT),
        syntax="( _ # _ )",
        impl=lambda ctx, a, b: a // b,
        inline="{0} // {1}",
        level=level,
        doc="integer division",
    )
    builder.op(
        "mod",
        args=(TypeSort(INT), TypeSort(INT)),
        result=TypeSort(INT),
        syntax="( _ # _ )",
        impl=lambda ctx, a, b: a % b,
        inline="{0} % {1}",
        level=level,
        doc="integer remainder",
    )


def add_logic(builder, level: str = "hybrid") -> None:
    """Boolean connectives for composing predicates."""
    builder.op(
        "and",
        args=(TypeSort(BOOL), TypeSort(BOOL)),
        result=TypeSort(BOOL),
        syntax="( _ # _ )",
        impl=lambda ctx, a, b: a and b,
        inline="{0} and {1}",
        level=level,
        doc="conjunction",
    )
    builder.op(
        "or",
        args=(TypeSort(BOOL), TypeSort(BOOL)),
        result=TypeSort(BOOL),
        syntax="( _ # _ )",
        impl=lambda ctx, a, b: a or b,
        inline="{0} or {1}",
        level=level,
        doc="disjunction",
    )
    builder.op(
        "not",
        args=(TypeSort(BOOL),),
        result=TypeSort(BOOL),
        syntax="# ( _ )",
        impl=lambda ctx, a: not a,
        inline="not {0}",
        level=level,
        doc="negation",
    )


def register_atomic_carriers(algebra) -> None:
    """Carrier checks for the atomic model types."""
    algebra.register_carrier(
        "int", lambda alg, v, t: isinstance(v, int) and not isinstance(v, bool)
    )
    algebra.register_carrier(
        "real",
        lambda alg, v, t: isinstance(v, (int, float)) and not isinstance(v, bool),
    )
    algebra.register_carrier("string", lambda alg, v, t: isinstance(v, str))
    algebra.register_carrier("bool", lambda alg, v, t: isinstance(v, bool))
    algebra.register_carrier("ident", lambda alg, v, t: isinstance(v, Sym))
