"""Derivation trees: which inference rule concluded each execution step.

Rule numbers follow the operational semantics: 1 backchaining on a
clause body, 2 instantiating a universally quantified clause, 3 clause
selection for a call, 4 conditions, 5 assignment, 6 sequencing, 7
unbounded choose, 8 bounded choose. Both the search engine and the
exhaustive checker build these trees, so the type lives apart from both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .syntax import Goal, format_goal

# arity of each rule: how many subderivations it must carry
RULE_CHILDREN = {1: 1, 2: 1, 3: 1, 4: 0, 5: 0, 6: 2, 7: 1, 8: 1}


@dataclass(frozen=True, slots=True)
class DerivationNode:
    """One rule application: the goal it concluded and its subderivations.

    label is the clause name for rule 1 and the parameter for rule 2.
    env maps the goal's variables to the values the search gave them.
    Neither changes after the node is made, so the conclusion text is
    formatted only when it is read and is the same whenever that happens.
    """

    rule: int
    goal: Goal
    children: tuple
    label: str | None = None
    env: dict | None = field(default=None, hash=False)  # nodes stay hashable

    def __post_init__(self):
        if self.rule not in RULE_CHILDREN:
            raise ValueError(f"unknown rule number {self.rule}")

    @property
    def conclusion(self) -> str:
        if self.rule == 1:
            return f"ex(({self.label} body); P, {format_goal(self.goal, self.env)})"
        if self.rule == 2:
            return f"ex(forall {self.label}; P, {format_goal(self.goal, self.env)})"
        return f"ex(P, {format_goal(self.goal, self.env)}, P')"


def validate_shape(node: DerivationNode) -> None:
    """Raise ValueError if any node carries the wrong number of children."""
    stack = [node]  # a loop: derivations are as tall as the search was deep
    while stack:
        node = stack.pop()
        expected = RULE_CHILDREN[node.rule]
        if len(node.children) != expected:
            raise ValueError(
                f"rule {node.rule} node has {len(node.children)} children, wants {expected}"
            )
        stack.extend(node.children)


def format_tree(node: DerivationNode) -> str:
    """One line per node, depth first, indented two spaces per level."""
    lines = []
    stack = [(node, 0)]
    while stack:
        item, depth = stack.pop()
        lines.append(f"{'  ' * depth}[rule {item.rule}] {item.conclusion}")
        stack.extend((child, depth + 1) for child in reversed(item.children))
    return "\n".join(lines)
