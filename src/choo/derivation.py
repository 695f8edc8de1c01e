"""Derivation trees: which inference rule concluded each execution step.

Rule numbers follow the operational semantics: 1 backchaining on a
clause body, 2 instantiating a universally quantified clause, 3 clause
selection for a call, 4 conditions, 5 assignment, 6 sequencing, 7
unbounded choose, 8 bounded choose. The search engine and the
exhaustive checker both record a derivation as its rule applications,
newest first, in a linked list ((rule, goal, label, env), older), and
build a tree from it with tree_of only when a caller reads one.
"""

from __future__ import annotations

from .syntax import format_goal

# arity of each rule: how many subderivations it must carry
RULE_CHILDREN = {1: 1, 2: 1, 3: 1, 4: 0, 5: 0, 6: 2, 7: 1, 8: 1}


class DerivationNode:
    """One rule application: the goal it concluded and its subderivations.

    label is the clause name for rule 1 and the parameter for rule 2.
    env maps the goal's variables to the values the search gave them.
    Neither changes after the node is made, so the conclusion text is
    formatted only when read, the same each time. A node equals only itself.
    """

    __slots__ = ("rule", "goal", "children", "label", "env")

    def __init__(self, rule, goal, children, label=None, env=None):
        if rule not in RULE_CHILDREN:
            raise ValueError(f"unknown rule number {rule}")
        self.rule, self.goal, self.children, self.label, self.env = rule, goal, children, label, env

    @property
    def conclusion(self) -> str:
        if self.rule == 1:
            return f"ex(({self.label} body); P, {format_goal(self.goal, self.env)})"
        if self.rule == 2:
            return f"ex(forall {self.label}; P, {format_goal(self.goal, self.env)})"
        return f"ex(P, {format_goal(self.goal, self.env)}, P')"


def tree_of(applied) -> DerivationNode:
    """The tree of a recorded derivation. Each rule has a fixed number of
    children, so the applications in prefix order determine the tree
    (Łukasiewicz's Polish notation); read newest first, an application's
    children are already built, its leftmost one on top of the stack."""
    built = []
    while applied is not None:
        (rule, goal, label, env), applied = applied
        n = RULE_CHILDREN.get(rule, 0)  # an unknown rule raises in the node
        node = DerivationNode(rule, goal, tuple(built[:-n - 1:-1]), label, env)
        del built[len(built) - n:]
        built.append(node)
    return built.pop()


def format_tree(node: DerivationNode) -> str:
    """One line per node, depth first, indented two spaces per level."""
    lines = []
    stack = [(node, 0)]
    while stack:
        item, depth = stack.pop()
        lines.append(f"{'  ' * depth}[rule {item.rule}] {item.conclusion}")
        stack.extend((child, depth + 1) for child in reversed(item.children))
    return "\n".join(lines)
