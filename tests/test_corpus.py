"""Differential corpus: every program under every configuration, pinned by digest.

The corpus is the golden programs, `programs/` and `gen_program` seeds
0-299. Each runs under `parse`, `oracle-check` and nine `run`
configurations, and `tests/golden/corpus.sha256` holds one line per
(program, configuration): the first 16 hex digits of the SHA-256 of the
exit code, stdout and stderr. A change that alters any output, or the
generator, shows up here by name.

Regenerate only after a deliberate output change, and say so in
CHANGES.md:

    PYTHONPATH=src python tests/test_corpus.py > tests/golden/corpus.sha256

To rerun a case by hand, write the generated programs to a directory
first (the golden and `programs/` files are used where they are):

    PYTHONPATH=src python tests/test_corpus.py --write DIR
    python -m choo.cli run DIR/gen_017.choo --all --trace=rules
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
from pathlib import Path

from choo.cli import main
from choo.gen import gen_program
from choo.syntax import format_program

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "golden" / "corpus.sha256"
SEEDS = range(300)

CONFIGURATIONS = {
    "parse": ["parse"],
    "oracle-check": ["oracle-check"],
    "run": ["run"],
    "run--all": ["run", "--all"],
    "run--trace=rules": ["run", "--trace=rules"],
    "run--trace=full": ["run", "--trace=full"],
    "run--all--trace=rules": ["run", "--all", "--trace=rules"],
    "run--all--trace=full": ["run", "--all", "--trace=full"],
    "run--max-steps=200": ["run", "--max-steps", "200"],
    "run--max-depth=30": ["run", "--max-depth", "30"],
    "run--all--max-steps=500": ["run", "--all", "--max-steps", "500"],
}


def corpus_files(gen_dir: Path) -> dict:
    """Program id -> file, writing the generated programs into gen_dir."""
    files = {f"golden/{p.stem}": p for p in sorted((ROOT / "tests" / "golden").glob("*.choo"))}
    files.update((f"programs/{p.stem}", p) for p in sorted((ROOT / "programs").glob("*.choo")))
    for seed in SEEDS:
        path = gen_dir / f"gen_{seed:03d}.choo"
        path.write_text(format_program(gen_program(random.Random(seed))) + "\n", encoding="utf-8")
        files[f"gen/{seed:03d}"] = path
    return files


def digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = f"{code}\0{out.getvalue()}\0{err.getvalue()}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def corpus_lines(files: dict):
    for program, path in files.items():
        for config, (command, *flags) in CONFIGURATIONS.items():
            yield f"{program} {config} {digest([command, str(path), *flags])}"


def test_every_output_matches_its_pinned_digest(tmp_path):
    pinned = {}
    for line in DIGESTS.read_text(encoding="utf-8").splitlines():
        program, config, value = line.split()
        pinned[program, config] = value
    seen, wrong = set(), []
    files = corpus_files(tmp_path)
    for line in corpus_lines(files):
        program, config, value = line.split()
        seen.add((program, config))
        if pinned.get((program, config)) != value:
            path = files[program]
            shown = path.relative_to(ROOT) if path.is_relative_to(ROOT) else f"DIR/{path.name}"
            command, *flags = CONFIGURATIONS[config]
            wrong.append(f"{program} {config}: " + " ".join(["choo", command, str(shown), *flags]))
    missing = sorted(set(pinned) - seen)
    assert not wrong and not missing, (
        f"{len(wrong)} outputs differ from tests/golden/corpus.sha256"
        f" (gen programs: write them with `python tests/test_corpus.py --write DIR`):\n"
        + "\n".join(wrong[:40] + [f"not run: {p} {c}" for p, c in missing[:40]])
    )


if __name__ == "__main__":
    if sys.argv[1:2] == ["--write"]:
        target = Path(sys.argv[2])
        target.mkdir(parents=True, exist_ok=True)
        corpus_files(target)
    else:
        import tempfile

        with tempfile.TemporaryDirectory() as scratch:
            for line in corpus_lines(corpus_files(Path(scratch))):
                print(line)
