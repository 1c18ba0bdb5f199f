"""Mutation testing of one eqtc module, with the standard library only.

    python tests/mutate.py MODULE [--sample N] [--seed S]

Each mutant makes one edit to the AST of src/eqtc/MODULE.py: it flips a
comparison, swaps `and` and `or`, drops a `not`, swaps `+`, `-` or `*`,
adds 1 to an integer constant, or negates an `if` test.  The mutants are
written into a copy of src/, tests/, perfbench/ and README.md (which a
test reads) in a temporary directory, never into the checkout.  Each runs
against the module's own test file, tests/test_MODULE.py (all of Tier-1
when there is none); a mutant that survives is run against all of Tier-1.
A mutant is killed when a test fails, when a run takes three times as
long as the unmutated Tier-1, or when it runs out of memory.  The script
prints each survivor's file:line and then the score, killed/total.  It
exits 1 only when the unmutated copy fails Tier-1.

The method is from DeMillo, Lipton and Sayward, "Hints on test data
selection", IEEE Computer 11(4), 1978.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FLIPPED = {ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
           ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
           ast.Is: ast.IsNot, ast.IsNot: ast.Is}
SWAPPED = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add}
MEMORY_LIMIT = 2 << 30  # bytes of address space per test run


def sites(tree: ast.Module) -> list[tuple[int, str, int]]:
    """(position in ast.walk order, kind of edit, line) of every edit the mutator can make."""
    out = []
    for i, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare) and type(node.ops[0]) in FLIPPED:
            out.append((i, "flip comparison", node.lineno))
        elif isinstance(node, ast.BoolOp):
            out.append((i, "swap and/or", node.lineno))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            out.append((i, "drop not", node.lineno))
        elif isinstance(node, ast.BinOp) and type(node.op) in SWAPPED:
            out.append((i, "swap arithmetic", node.lineno))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            out.append((i, "add 1", node.lineno))
        elif isinstance(node, ast.If):
            out.append((i, "negate if", node.lineno))
    return out


def mutant(source: str, position: int) -> str:
    """The module's source with the edit at `position` made."""
    tree = ast.parse(source)
    node = list(ast.walk(tree))[position]
    if isinstance(node, ast.Compare):
        node.ops[0] = FLIPPED[type(node.ops[0])]()
    elif isinstance(node, ast.BoolOp):
        node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
    elif isinstance(node, ast.UnaryOp):  # `not x` becomes `not not x`, x as a bool
        node.operand = ast.UnaryOp(ast.Not(), node.operand)
    elif isinstance(node, ast.BinOp):
        node.op = SWAPPED[type(node.op)]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.test = ast.UnaryOp(ast.Not(), node.test)
    return ast.unparse(tree)


def passes(copy: Path, tests: list[str], timeout: float | None) -> bool:
    """Whether the tests pass on the copy, in a fresh process with bounded memory and time."""
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))

    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=copy, env={**os.environ, "PYTHONPATH": str(copy / "src")},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout, preexec_fn=limit_memory,
        )
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="a module of src/eqtc, such as group_action")
    parser.add_argument("--sample", type=int, default=None, help="mutants to draw (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    relative = Path("src", "eqtc", f"{args.module}.py")
    source = (ROOT / relative).read_text(encoding="utf-8")
    chosen = sites(ast.parse(source))
    if args.sample is not None and args.sample < len(chosen):
        chosen = sorted(random.Random(args.seed).sample(chosen, args.sample))
    own = Path("tests", f"test_{args.module}.py")
    own_tests = [str(own)] if (ROOT / own).exists() else ["tests"]
    with tempfile.TemporaryDirectory(prefix="eqtc-mutate-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "README.md", copy / "README.md")
        target = copy / relative
        target.write_text(ast.unparse(ast.parse(source)), encoding="utf-8")
        start = time.monotonic()
        if not passes(copy, ["tests"], timeout=None):
            print(f"the unmutated {relative} fails Tier-1 in the copy", file=sys.stderr)
            return 1
        timeout = 3 * (time.monotonic() - start) + 30  # a mutant that loops is killed
        survivors = []
        for position, kind, line in chosen:
            target.write_text(mutant(source, position), encoding="utf-8")
            if passes(copy, own_tests, timeout) and passes(copy, ["tests"], timeout):
                survivors.append(f"{relative}:{line}: {kind}")
                print(f"survived {survivors[-1]}", flush=True)
    killed = len(chosen) - len(survivors)
    percent = 100 * killed / len(chosen) if chosen else 100.0
    print(f"{args.module}: {killed}/{len(chosen)} mutants killed ({percent:.1f}%)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
