"""Seeded workload generators with an independent model of each program.

Every generator emits choo source text directly and works out, in plain
Python, what the CLI must print for it: witness lines in binder order,
the sorted `store:` line, `---` separators and the `solutions: N` count
under `--all`, the exit code and the `oracle-check` verdict. Nothing here
imports choo, so an expectation can never be copied from the engine it
checks.

Sizes are fixed per workload; the seed only varies names, constants,
set orders and targets, so every seed costs about the same. Each pool
repeats the pattern "small, small, small, large" per shape, which puts
the latency median inside the small programs and the 90th percentile
inside the large ones instead of in a gap between them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# the pattern of one pool per shape, repeated until the pool holds at
# least MIN_POOL programs
SIZE_PATTERN = ("small", "small", "small", "large")
MIN_POOL = 32

# flat programs past about 990 statements hit the parser's recursion in a
# fresh interpreter; the timed ones stay well below, the probe far above
FLAT_SIZES = {"small": 200, "large": 400}
FLAT_PROBE_STATEMENTS = 4000
RECURSION_SIZES = {"down": {"small": 300, "large": 600}, "peano": {"small": 60, "large": 120}}
CHOICE_WIDTHS = {"small": 12, "large": 18}
ORACLE_WIDTHS = {"small": 8, "large": 12}

_WORDS = (
    "acc", "alpha", "beta", "cnt", "delta", "gamma", "hi", "idx", "kappa", "lo",
    "mid", "nu", "omega", "phi", "rho", "sigma", "tau", "tot", "val", "zeta",
)


@dataclass(frozen=True)
class Program:
    """One generated program and what choo must do with it."""

    name: str
    shape: str
    size_class: str  # "small", "large" or "probe"
    size: int  # statements, recursion depth or leaves of the choice tree
    command: str  # the choo subcommand: "run", "parse" or "oracle-check"
    all_solutions: bool  # run_stdout lists every solution, not just the first
    source: str
    stdout: str  # expected stdout of the command
    exit_code: int
    run_stdout: str  # expected stdout of `choo run`, with --all if all_solutions

    def argv(self, path: str) -> list:
        if self.command == "run" and self.all_solutions:
            return ["run", path, "--all"]
        return [self.command, path]


def _repeats(shapes: int) -> int:
    return -(-MIN_POOL // (len(SIZE_PATTERN) * shapes))


def _names(rng: random.Random, count: int) -> list:
    return rng.sample(_WORDS, count)


def _solutions_text(solutions, all_solutions: bool) -> str:
    """CLI output for solutions given as (witness pairs, store dict)."""
    blocks = []
    for witnesses, store in solutions:
        lines = [f"{name} = {value}" for name, value in witnesses]
        inner = ", ".join(f"{k} = {v}" for k, v in sorted(store.items()))
        lines.append(f"store: {{{inner}}}")
        blocks.append("\n".join(lines) + "\n")
    if not all_solutions:
        return blocks[0]
    return "---\n".join(blocks) + f"solutions: {len(solutions)}\n"


# --- flat_store ------------------------------------------------------------------

_COMPARISONS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _trunc_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def _flat_statements(rng: random.Random, count: int):
    """Straight-line statements, all of which hold, and the final store."""
    names = _names(rng, 8)
    store = {}
    stmts = []
    for name in names:
        value = rng.randrange(0, 1000)
        store[name] = value
        stmts.append(f"{name} = {value}")
    while len(stmts) < count:
        kind = rng.randrange(5)
        a, b, c = rng.sample(names, 3)
        vb, vc = store[b], store[c]
        if kind == 0:
            value = rng.randrange(0, 1000)
            stmts.append(f"{a} = {value}")
        elif kind == 1:
            k = rng.randrange(1, 50)
            value = vb + k if vb < 500_000 else vb - k
            stmts.append(f"{a} = {b} {'+' if vb < 500_000 else '-'} {k}")
        elif kind == 2 and abs(vb) < 100_000:
            k = rng.randrange(2, 9)
            value = vb * k - _trunc_div(vc, k)
            stmts.append(f"{a} = {b} * {k} - {c} / {k}")
        elif kind == 3:
            stmts.append(f"{b} == {vb}")
            continue
        else:
            ops = [op for op, holds in _COMPARISONS.items() if holds(vb, vc)]
            stmts.append(f"{b} {rng.choice(ops)} {c}")
            continue
        store[a] = value
    return stmts, store


def _flat_program(rng, name, size_class, count) -> Program:
    stmts, store = _flat_statements(rng, count)
    # statements are emitted in choo's canonical spacing, so `choo parse`
    # must print exactly this text back
    body = "; ".join(stmts)
    text = _solutions_text([((), store)], all_solutions=False)
    return Program(
        name=name, shape="flat", size_class=size_class, size=count,
        command="run", all_solutions=False, source=f"main {{\n  {body}\n}}\n",
        stdout=text, exit_code=0, run_stdout=text,
    )


def flat_probe(seed: int) -> Program:
    """A long flat program that a fresh interpreter should parse and print back."""
    rng = random.Random(f"probe/{seed}")
    stmts, _ = _flat_statements(rng, FLAT_PROBE_STATEMENTS)
    body = "; ".join(stmts)
    return Program(
        name="flat-probe", shape="flat", size_class="probe", size=FLAT_PROBE_STATEMENTS,
        command="parse", all_solutions=False, source=f"main {{ {body} }}\n",
        stdout=f"main {{\n  {body}\n}}\n", exit_code=0, run_stdout="",
    )


# --- nested_choice and oracle_check ----------------------------------------------------

def _enum_set(rng: random.Random, lo: int, width: int):
    """`width` distinct integers in shuffled order, plus one duplicate the set drops."""
    values = list(range(lo, lo + width))
    rng.shuffle(values)
    written = values + [rng.choice(values)]
    return values, "{" + ", ".join(map(str, written)) + "}"


def _offset(k: int) -> str:
    return f" + {k}" if k > 0 else (f" - {-k}" if k < 0 else "")


def _choice_program(rng, shape: str, width: int):
    """Source and solutions of three nested bounded choices over `width` values each."""
    x, y, z = _names(rng, 3)
    lo = rng.randrange(1, 4)
    xs = list(range(lo, lo + width))
    ys, y_set = _enum_set(rng, lo, width)
    zs = list(range(0, width))
    x_set = f"{{{lo}..{lo + width - 1}}}"
    z_set = f"{{0..{width - 1}}}"
    # a target leaf guarantees at least one solution
    tx, ty, tz = rng.choice(xs), rng.choice(ys), rng.choice(zs)
    prefix, store0 = "", {}
    if shape == "pyth":
        tx, ty = min(tx, ty), max(tx, ty)
        k = tx * tx + ty * ty - tz * tz
        cond = f"{x} * {x} + {y} * {y} == {z} * {z}{_offset(k)}; {x} <= {y}"
        holds = lambda a, b, c: a * a + b * b == c * c + k and a <= b
        stores = lambda a, b, c: {}
    elif shape == "change":
        w1, w2, w3 = rng.sample(range(2, 30), 3)
        total = tx * w1 + ty * w2 + tz * w3
        coins = rng.choice([w for w in _WORDS if w not in (x, y, z)])
        cond = f"{x} * {w1} + {y} * {w2} + {z} * {w3} == {total}; {coins} = {x} + {y} + {z}"
        holds = lambda a, b, c: a * w1 + b * w2 + c * w3 == total
        stores = lambda a, b, c: {coins: a + b + c}
    else:  # rollback: every leaf writes the store, and all but a few fail after it
        acc = rng.choice([w for w in _WORDS if w not in (x, y, z)])
        start = rng.randrange(0, 10)
        total = start + tx * ty + tz
        prefix, store0 = f"{acc} = {start}; ", {acc: start}
        cond = f"{acc} = {acc} + {x} * {y} + {z}; {acc} == {total}"
        holds = lambda a, b, c: start + a * b + c == total
        stores = lambda a, b, c: {acc: total}
    source = (
        f"main {{\n  {prefix}choose({x} in {x_set}) choose({y} in {y_set}) "
        f"choose({z} in {z_set})\n    ({cond})\n}}\n"
    )
    solutions = [
        (((x, a), (y, b), (z, c)), {**store0, **stores(a, b, c)})
        for a in xs for b in ys for c in zs if holds(a, b, c)
    ]
    return source, solutions


def _choice_pool(seed: int, workload: str, shapes, widths, command: str) -> list:
    pool = []
    for rep in range(_repeats(len(shapes))):
        for slot, size_class in enumerate(SIZE_PATTERN):
            for shape in shapes:
                rng = random.Random(f"{workload}/{seed}/{rep}/{slot}/{shape}")
                width = widths[size_class]
                source, solutions = _choice_program(rng, shape, width)
                run_text = _solutions_text(solutions, all_solutions=True)
                stdout = run_text if command == "run" else f"match: {len(solutions)} solutions\n"
                pool.append(Program(
                    name=f"{shape}-{size_class}-{rep}{slot}", shape=shape,
                    size_class=size_class, size=width ** 3, command=command,
                    all_solutions=True, source=source,
                    stdout=stdout, exit_code=0, run_stdout=run_text,
                ))
    return pool


# --- deep_recursion ----------------------------------------------------------------------

def _down_program(rng: random.Random, depth: int):
    proc, param, var = _names(rng, 3)
    base = rng.randrange(0, 10)
    clauses = [
        f"{proc}({param}) {{ {param} == {base} }}",
        f"{proc}({param}) {{ {param} > {base}; choose({var}) ({var} == {param} - 1; {proc}({var})) }}",
    ]
    if rng.random() < 0.5:
        clauses.reverse()
    source = "\n".join(clauses) + f"\nmain {{ {proc}({base + depth}) }}\n"
    witnesses = [(var, base + depth - 1 - i) for i in range(depth)]
    return source, witnesses


def _peano_program(rng: random.Random, depth: int):
    mk, nat, n, x, p, y = _names(rng, 6)
    succ = rng.choice(("s", "succ", "next"))
    zero = rng.choice(("z", "zero", "nil"))

    def peano(k: int) -> str:
        return f"{succ}(" * k + zero + ")" * k

    source = (
        f"{mk}({n}, {x}) {{ {n} == 0; {x} == {zero} }}\n"
        f"{mk}({n}, {x}) {{ {n} > 0; choose({p}) choose({y}) "
        f"({p} == {n} - 1; {x} == {succ}({y}); {mk}({p}, {y})) }}\n"
        f"{nat}({x}) {{ {x} == {zero} }}\n"
        f"{nat}({x}) {{ choose({y}) ({x} == {succ}({y}); {nat}({y})) }}\n"
        f"main {{ choose({x}) ({mk}({depth}, {x}); {nat}({x})) }}\n"
    )
    # binders are reported in the order they were entered: the outer x,
    # then p and y at each level of mk, then y at each level of nat
    witnesses = [(x, peano(depth))]
    for k in range(depth, 0, -1):
        witnesses += [(p, k - 1), (y, peano(k - 1))]
    witnesses += [(y, peano(k)) for k in range(depth - 1, -1, -1)]
    return source, witnesses


def _recursion_pool(seed: int) -> list:
    pool = []
    makers = {"down": _down_program, "peano": _peano_program}
    for rep in range(_repeats(len(makers))):
        for slot, size_class in enumerate(SIZE_PATTERN):
            for shape, make in makers.items():
                rng = random.Random(f"deep_recursion/{seed}/{rep}/{slot}/{shape}")
                depth = RECURSION_SIZES[shape][size_class]
                source, witnesses = make(rng, depth)
                text = _solutions_text([(witnesses, {})], all_solutions=False)
                pool.append(Program(
                    name=f"{shape}-{size_class}-{rep}{slot}", shape=shape,
                    size_class=size_class, size=depth, command="run",
                    all_solutions=False, source=source,
                    stdout=text, exit_code=0, run_stdout=text,
                ))
    return pool


def _flat_pool(seed: int) -> list:
    pool = []
    for rep in range(_repeats(1)):
        for slot, size_class in enumerate(SIZE_PATTERN):
            rng = random.Random(f"flat_store/{seed}/{rep}/{slot}")
            pool.append(_flat_program(rng, f"flat-{size_class}-{rep}{slot}",
                                      size_class, FLAT_SIZES[size_class]))
    return pool


WORKLOADS = {
    "flat_store": _flat_pool,
    "nested_choice": lambda seed: _choice_pool(
        seed, "nested_choice", ("pyth", "change", "rollback"), CHOICE_WIDTHS, "run"),
    "deep_recursion": _recursion_pool,
    "oracle_check": lambda seed: _choice_pool(
        seed, "oracle_check", ("pyth", "change"), ORACLE_WIDTHS, "oracle-check"),
}
