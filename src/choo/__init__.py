"""choo: a small imperative language with nondeterministic choose statements.

Programs assign to a store, call clauses, and test conditions; choose
statements pick values so that the rest of the program can succeed,
searching alternatives depth-first with backtracking. The chosen values
are the program's output.
"""

from .derivation import DerivationNode
from .interp import (
    BudgetExhausted,
    EvalError,
    Outcome,
    ProgramState,
    SearchBudget,
    Solver,
    UNCONSTRAINED,
    eval_int,
    eval_operand,
    execute,
)
from .oracle import (
    EquivalenceReport,
    OracleRunError,
    OutOfBounds,
    check_equivalence,
    enumerate_solutions,
)
from .parser import ParseError, parse_goal, parse_program
from .syntax import (
    Assign,
    BinOp,
    BoundedChoose,
    Call,
    Choose,
    Clause,
    Compare,
    Enum,
    FunCall,
    IntLit,
    Range,
    Seq,
    SourceProgram,
    TermLit,
    VarRef,
    format_goal,
    format_program,
)
from .terms import (
    Atom,
    Compound,
    Int,
    Term,
    Var,
    apply,
    format_term,
    free_vars,
    occurs,
)

__version__ = "0.1.0"
