"""A fixed pure-Python loop that shows how fast the host runs the interpreter right now.

On a shared host, other tenants slow the interpreter by up to half for
minutes at a time. The benchmark times this loop next to its
measurements and scales them to a host on which the loop takes
REFERENCE_MS.

The loop is a miniature of what choo's solver does, written without
choo: a depth-first generator search that binds by copying its
substitution dict, and a tree-walking evaluator run over a grid of
choices. Contention slows code by how it uses the processor, so the
loop has to resemble choo to slow down as choo does. Timed side by side
in two five-minute runs on a shared 2-core host, while both swung by
up to twice, the ratio of a pass of choo calls to this loop spread 2-10%
(quartile distance over median) on the four workloads, where the
unscaled passes spread 5-29%. The loop does not touch choo, so a change
that slows choo still shows in full.
"""

import time

# the loop's time between CLI calls on a 2-core x86-64 host with Python
# 3.11.7, at the least contended it was seen; isolated, it runs in 2.3 ms
REFERENCE_MS = 2.8

SEARCH_DEPTH = 150
SEARCHES = 6
GRID = 42  # the evaluator runs over GRID x GRID choices


def _search(depth: int, subst: dict):
    """Bind one name per level, first to a value that fails, then to one that holds."""
    if depth == 0:
        yield subst
        return
    for value in (-depth, depth):
        bound = dict(subst)
        bound[f"v{depth}"] = value
        if value > 0:
            yield from _search(depth - 1, bound)


def _eval(node, env):
    op = node[0]
    if op == "n":
        return node[1]
    if op == "v":
        return env[node[1]]
    a, b = _eval(node[1], env), _eval(node[2], env)
    return a + b if op == "+" else a * b


_CONDITION = ("+", ("*", ("v", "x"), ("v", "x")), ("*", ("v", "y"), ("n", 3)))


def _work() -> int:
    found = 0
    for _ in range(SEARCHES):
        found += len(next(_search(SEARCH_DEPTH, {})))
    for x in range(GRID):
        for y in range(GRID):
            if _eval(_CONDITION, {"x": x, "y": y}) % 7 == 0:
                found += 1
    return found


def reference_seconds() -> float:
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def scale(seconds: float, reference: float) -> float:
    """`seconds` measured while the loop took `reference` seconds, at reference speed."""
    return seconds * REFERENCE_MS / (reference * 1000.0)
