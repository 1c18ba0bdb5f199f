"""The committed output manifest: one hash per command of a fixed matrix.

    python tests/manifest.py [--part fast|slow|all] [--record]

Each command runs in-process through `eqtc.cli.main` on a problem file
written to a temporary directory.  Its line in tests/outputs.sha256 is

    sha256(exit code, stdout, stderr)  INPUT  VERB FLAGS...

where INPUT names a builtin (`builtin:torus7`) or a corpus family at a seed
(`S2-S4@0`, the relabeling `perfbench/corpus.py` builds at copy 0).  The
temporary directory is written as `<dir>` before hashing, so a message that
quotes the file's path hashes the same on every machine.

The matrix, on every builtin and every corpus family at seeds 0 and 1:
  analyze   json, text, and json with --subgroups all;
  betti     over F2, F3 and Q;
  cupfind   over F2, F3 and Q;
  fixed     over F2 and Q, with full, trivial and class indices 0, 1, ...
            up to the first index that does not exit 0 (the out-of-range
            refusal included);
and on every builtin `examples NAME`, the file it writes.

Hostile inputs run one command each: `analyze` on S5-Z3 and S7-Z3 (the
boundaries of the 6- and 8-simplex with a 3-cycle, over the simplex
budget), on every single-fault copy (`complexes.schema_faults`) of three
builtins that cover each object of the schema, and on a file of 200,000
nested `[`; `betti` on a `{"a":` nested 3,000 deep.  An exception that
escapes `main` hashes as exit code 1 with the line the interpreter would
print last.

The fast part (builtins, hostile inputs and the fast families) is checked by
tests/test_manifest.py in Tier-1; the slow families by
`python tests/manifest.py --part slow`.  Without --record the script
compares and exits 1 on any difference, printing the lines that differ.
With --record it rewrites the selected part's lines and keeps the others;
name every re-recorded line and its reason in CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
import traceback
from itertools import count
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]

from complexes import perfbench_corpus, schema_faults  # noqa: E402
from eqtc.cli import main  # noqa: E402
from eqtc.problems import builtin_examples, dumps_problem, problem_to_dict  # noqa: E402

MANIFEST = TESTS / "outputs.sha256"
SEEDS = (0, 1)
# families that take seconds each under the matrix; run as their own step
SLOW_FAMILIES = ("S4-Z3", "T3-3-Z3", "T4-3", "T4-3-ring", "S3-S5", "S4-reflection", "S3-Z6")
FIELDS = ("F2", "F3", "Q")
FIXED_FIELDS = ("F2", "Q")
# the builtins whose single-fault copies are hostile inputs: a complex with
# generators and annotations, one with an asserted fact, an associated space
FAULTED_BUILTINS = ("ngon-rotation-6", "sphere-reflection-n2", "klein-bound")


def hostile_inputs() -> dict[str, tuple[str, list[str]]]:
    """Input label -> (problem file text, the one command run on it)."""
    corpus = perfbench_corpus()
    out = {}
    for name, n in (("S5-Z3", 5), ("S7-Z3", 7)):  # the 3-cycle (0 1 2) on the n-sphere
        cycle = [1, 2, 0, *range(3, n + 2)]
        out[f"hostile:{name}"] = (json.dumps(corpus.sphere_problem(name, n, [cycle])), ["analyze"])
    out["hostile:deep-array"] = ("[" * 200_000, ["analyze"])
    out["hostile:deep-object"] = ('{"a":' * 3_000, ["betti"])
    builtins = builtin_examples()
    for name in FAULTED_BUILTINS:
        for fault, data in schema_faults(problem_to_dict(builtins[name])).items():
            out[f"fault:{name}{fault}"] = (json.dumps(data), ["analyze"])
    return out


def inputs(part: str) -> dict[str, str]:
    """Input label -> problem file text, for the fast part, the slow part or all."""
    corpus = perfbench_corpus()
    out: dict[str, str] = {}
    if part in ("fast", "all"):
        out.update((f"builtin:{name}", dumps_problem(p))
                   for name, p in sorted(builtin_examples().items()))
        out.update((label, text) for label, (text, _) in hostile_inputs().items())
    families = sorted(corpus.FAMILIES)
    chosen = {"fast": [f for f in families if f not in SLOW_FAMILIES],
              "slow": [f for f in families if f in SLOW_FAMILIES],
              "all": families}[part]
    for family in chosen:
        for seed in SEEDS:
            out[f"{family}@{seed}"] = json.dumps(corpus.build(family, seed))
    return out


def run_command(argv: list[str], directory: str) -> tuple[str, int]:
    """The hash of one in-process call, and its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv, out=out)
        except Exception as exc:  # uncaught, it would end the process with exit code 1
            err.write(traceback.format_exception_only(type(exc), exc)[-1])
            code = 1
    text = "\0".join((str(code), out.getvalue(), err.getvalue())).replace(directory, "<dir>")
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), code


def input_lines(label: str, text: str, directory: str, hostile: dict) -> dict[str, str]:
    """`INPUT  VERB FLAGS...` -> hash, for every command of the matrix on one input."""
    path = str(Path(directory) / "problem.json")
    Path(path).write_text(text, encoding="utf-8")
    if label in hostile:
        verb, *flags = hostile[label][1]
        return {f"{label}  {' '.join([verb, *flags])}": run_command([verb, path, *flags], directory)[0]}
    commands = [["analyze", "--format", "json"], ["analyze", "--format", "text"],
                ["analyze", "--format", "json", "--subgroups", "all"]]
    commands += [[verb, "--field", field] for verb in ("betti", "cupfind") for field in FIELDS]
    commands += [["fixed", "--field", field, "--subgroup", subgroup]
                 for field in FIXED_FIELDS for subgroup in ("full", "trivial")]
    lines = {}
    for verb, *flags in commands:
        lines[f"{label}  {' '.join([verb, *flags])}"] = run_command([verb, path, *flags], directory)[0]
    if label.startswith("builtin:"):  # the file `examples NAME` writes
        lines[f"{label}  examples"] = run_command(["examples", label.split(":", 1)[1]], directory)[0]
    for field in FIXED_FIELDS:
        for index in count():  # the index past the last class exits 2
            flags = ["--field", field, "--subgroup", str(index)]
            digest, code = run_command(["fixed", path, *flags], directory)
            lines[f"{label}  fixed {' '.join(flags)}"] = digest
            if code != 0:
                break
    return lines


def compute(part: str) -> dict[str, str]:
    """Every line of the part: `INPUT  VERB FLAGS...` -> hash."""
    lines: dict[str, str] = {}
    hostile = hostile_inputs()
    with tempfile.TemporaryDirectory() as directory:
        for label, text in inputs(part).items():
            lines.update(input_lines(label, text, directory, hostile))
    return lines


def read_manifest() -> dict[str, str]:
    lines = {}
    for line in MANIFEST.read_text(encoding="utf-8").splitlines():
        digest, command = line.split("  ", 1)
        lines[command] = digest
    return lines


def part_of(command: str) -> str:
    family = command.split("  ", 1)[0].split("@", 1)[0]
    return "slow" if family in SLOW_FAMILIES else "fast"


def recorded(part: str) -> dict[str, str]:
    """The committed lines of the part."""
    return {c: d for c, d in read_manifest().items() if part == "all" or part_of(c) == part}


def differences(got: dict[str, str], want: dict[str, str]) -> list[str]:
    """One line per command that is missing, new or hashes differently."""
    out = [f"missing: {c}" for c in want if c not in got]
    out += [f"new: {c}" for c in got if c not in want]
    out += [f"changed: {c}" for c in got if c in want and got[c] != want[c]]
    return out


def write_manifest(lines: dict[str, str]) -> None:
    MANIFEST.write_text("".join(f"{d}  {c}\n" for c, d in sorted(lines.items())), encoding="utf-8")


def main_(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="check or record the output manifest")
    parser.add_argument("--part", choices=("fast", "slow", "all"), default="all")
    parser.add_argument("--record", action="store_true", help="rewrite the part's lines")
    args = parser.parse_args(argv)
    got = compute(args.part)
    if args.record:
        kept = {} if args.part == "all" or not MANIFEST.exists() else {
            c: d for c, d in read_manifest().items() if part_of(c) != args.part}
        write_manifest({**kept, **got})
        print(f"recorded {len(got)} lines")
        return 0
    want = recorded(args.part)
    diff = differences(got, want)
    same = sum(got[c] == want.get(c) for c in got)
    print("\n".join(diff + [f"{same}/{len(got)} lines match"]))
    return 1 if diff else 0


if __name__ == "__main__":
    raise SystemExit(main_())
