"""The paper's primary contribution: transaction time in the algebra.

This package implements Sections 3 and 4 of McKenzie & Snodgrass (SIGMOD
1987) literally:

* semantic domains — :mod:`repro.core.txn` (transaction numbers and ``∞``),
  :mod:`repro.core.relation` (relations as typed state sequences),
  :mod:`repro.core.database` (database states and databases);
* auxiliary functions — ``RTYPE``, ``RSTATE``, ``FINDSTATE``, ``FINDTYPE``
  in :mod:`repro.core.relation`;
* the semantic function **E** over expressions, including the new rollback
  operators ``ρ``/``ρ̂`` — :mod:`repro.core.expressions`;
* the semantic function **C** over commands ``define_relation`` and
  ``modify_state`` — :mod:`repro.core.commands`;
* the semantic function **P** over sentences — :mod:`repro.core.sentences`.
"""

from repro.core.txn import NOW, TransactionNumber, as_transaction_number, is_now
from repro.core.relation import (
    EMPTY_STATE,
    Relation,
    RelationType,
    find_state,
    find_type,
)
from repro.core.database import EMPTY_DATABASE, Database, DatabaseState
from repro.core.expressions import (
    Const,
    Derive,
    Difference,
    Expression,
    Product,
    Project,
    Rename,
    Rollback,
    Select,
    Union,
    evaluate,
)
from repro.core.commands import (
    Command,
    DefineRelation,
    ModifyState,
    Sequence,
    execute,
    sequence,
)
from repro.core.sentences import Sentence, run
from repro.core.clock import TransactionClock
from repro.core.compile import CompiledPlan, compile_expression

__all__ = [
    "NOW",
    "TransactionNumber",
    "as_transaction_number",
    "is_now",
    "EMPTY_STATE",
    "Relation",
    "RelationType",
    "find_state",
    "find_type",
    "EMPTY_DATABASE",
    "Database",
    "DatabaseState",
    "Const",
    "Derive",
    "Difference",
    "Expression",
    "Product",
    "Project",
    "Rename",
    "Rollback",
    "Select",
    "Union",
    "evaluate",
    "Command",
    "DefineRelation",
    "ModifyState",
    "Sequence",
    "execute",
    "sequence",
    "Sentence",
    "run",
    "TransactionClock",
    "CompiledPlan",
    "compile_expression",
]
