"""The formal backbone of the framework (paper Section 3).

This package implements second-order signatures: a top-level signature whose
sorts are *kinds* and whose operators are *type constructors* (its terms are
*types*), coupled with a bottom-level signature whose sorts are those types
and whose operators form the query / execution algebra.

Public entry points are re-exported here for convenience.
"""

from repro.core.kinds import Kind
from repro.core.types import (
    ArgList,
    ArgTuple,
    FunType,
    Lit,
    ProductType,
    Sym,
    TermArg,
    Type,
    TypeApp,
    attr_type,
    attrs_of,
    format_type,
    rel_type,
    tuple_type,
)
from repro.core.sorts import ListSort, Sort, UnionSort
from repro.core.constructors import ConstructorSpec, TypeConstructor
from repro.core.signature import TypeSystem
from repro.core.terms import (
    Apply,
    Call,
    Fun,
    ListTerm,
    Literal,
    ObjRef,
    OpRef,
    Term,
    TupleTerm,
    Var,
    format_term,
    free_variables,
    same_term,
    substitute_term,
)
from repro.core.patterns import (
    PBind,
    PVar,
    TypePattern,
    match_type,
)
from repro.core.operators import (
    AttributeFamily,
    OperatorSpec,
    Quantifier,
    ResolvedOp,
    SyntaxPattern,
    TypeOperator,
)
from repro.core.subtypes import SubtypeRule, SubtypeRelation
from repro.core.sos import SecondOrderSignature, SignatureBuilder
from repro.core.algebra import (
    Closure,
    Evaluator,
    Relation,
    SecondOrderAlgebra,
    Stream,
    TupleValue,
)
from repro.core.typecheck import TypeChecker

__all__ = [
    "Kind",
    "Type",
    "TypeApp",
    "FunType",
    "ProductType",
    "Sym",
    "Lit",
    "ArgList",
    "ArgTuple",
    "TermArg",
    "tuple_type",
    "rel_type",
    "attrs_of",
    "attr_type",
    "format_type",
    "Sort",
    "UnionSort",
    "ListSort",
    "TypeConstructor",
    "ConstructorSpec",
    "TypeSystem",
    "Term",
    "Literal",
    "ObjRef",
    "Var",
    "Apply",
    "Call",
    "Fun",
    "ListTerm",
    "TupleTerm",
    "OpRef",
    "format_term",
    "same_term",
    "free_variables",
    "substitute_term",
    "TypePattern",
    "PVar",
    "PBind",
    "match_type",
    "OperatorSpec",
    "Quantifier",
    "TypeOperator",
    "SyntaxPattern",
    "AttributeFamily",
    "ResolvedOp",
    "SubtypeRule",
    "SubtypeRelation",
    "SecondOrderSignature",
    "SignatureBuilder",
    "SecondOrderAlgebra",
    "Evaluator",
    "Closure",
    "TupleValue",
    "Relation",
    "Stream",
    "TypeChecker",
]
