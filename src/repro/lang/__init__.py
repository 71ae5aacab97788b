"""The generic data definition and manipulation language (Sections 2.3/2.4).

The language has exactly five statement forms::

    type   <identifier> = <type expression>
    create <identifier> : <type expression>
    update <identifier> := <value expression>
    delete <identifier>
    query  <value expression>

Value expressions use the *concrete syntax* derived from the operator syntax
patterns of the loaded specification (``persons select[age > 30]``), so the
parser is completely model independent: it is configured by data, not code —
the paper's central engineering claim.
"""

from repro.lang.lexer import Token, tokenize
from repro.lang.parser import (
    CreateStmt,
    DeleteStmt,
    Parser,
    QueryStmt,
    Statement,
    TypeStmt,
    UpdateStmt,
    split_statements,
)
from repro.lang.printer import format_concrete

__all__ = [
    "Token",
    "tokenize",
    "Parser",
    "Statement",
    "TypeStmt",
    "CreateStmt",
    "UpdateStmt",
    "DeleteStmt",
    "QueryStmt",
    "split_statements",
    "format_concrete",
]
