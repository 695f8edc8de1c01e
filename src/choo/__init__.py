"""choo: a small imperative language with nondeterministic choose statements.

Programs assign to a store, call clauses, and test conditions; choose
statements pick values so that the rest of the program can succeed,
searching alternatives depth-first with backtracking. The chosen values
are the program's output.
"""

__version__ = "0.1.0"
