"""The "SOS optimizer" front end (paper Sections 1 and 6).

:class:`~repro.system.sos_system.SOSSystem` accepts mixed programs of
model, representation and hybrid statements, classifies them, translates
model-level updates and queries to the representation level through the
rule-based optimizer, and executes the result.  With no optimizer
(:func:`build_model_interpreter`) the same pipeline executes model-level
statements directly (Section 2.4 semantics).

:func:`build_relational_system` assembles the complete relational stack —
base + relational model + representation model + catalog — with the
standard rule set.  The public entry point is :func:`repro.api.connect`,
which wraps it in a :class:`~repro.api.Session`.
"""

from repro.system.dump import dump_program, restore_program
from repro.system.sos_system import (
    SOSSystem,
    SystemResult,
    build_model_interpreter,
    build_relational_database,
    build_relational_system,
)
from repro.system.transactions import (
    Savepoint,
    Transaction,
    program_transaction,
    statement_transaction,
)

__all__ = [
    "SOSSystem",
    "SystemResult",
    "Savepoint",
    "Transaction",
    "build_model_interpreter",
    "build_relational_database",
    "build_relational_system",
    "dump_program",
    "restore_program",
    "program_transaction",
    "statement_transaction",
]
