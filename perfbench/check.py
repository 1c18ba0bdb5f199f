"""Output checker: decides whether one CLI call failed.

A call fails if it raised or exited nonzero, if a Betti vector differs from
the family's closed form, if an interval excludes a known value of cat or TC,
or if an interval is looser than the reference recorded in reference.json
(tightening is allowed).  `fixed` must print the recorded Betti numbers of
the fixed set, and `cupfind` a certificate at least as long as recorded.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from math import inf
from pathlib import Path

from corpus import FAMILIES, Command

REFERENCE_PATH = Path(__file__).with_name("reference.json")

_CLASS_INDEX = re.compile(r"H\d+")
_CUPFIND = re.compile(r"^zero-divisor length (\d+), certificate \[.*\]$")


def _value(text: str) -> float:
    return inf if text == "infinity" else int(text)


def interval_table(report: dict) -> dict[str, list[tuple[float, float]]]:
    """Intervals grouped by a key that does not depend on subgroup-class order.

    Classes of equal order can swap positions under a relabeling, so the
    class index is dropped from the key and each group is kept sorted.
    """
    table: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for q in report["quantities"]:
        key = "|".join(
            (q["context"], q["kind"], _CLASS_INDEX.sub("H", q["space"]),
             _CLASS_INDEX.sub("H", q["group"] or "-"))
        )
        table[key].append((_value(q["lower"]), _value(q["upper"])))
    return {key: sorted(rows) for key, rows in table.items()}


def _looser(got: list[tuple[float, float]], ref: list[tuple[float, float]]) -> bool:
    if len(got) != len(ref):
        return True
    lows_got, lows_ref = sorted(lo for lo, _ in got), sorted(lo for lo, _ in ref)
    ups_got, ups_ref = sorted(hi for _, hi in got), sorted(hi for _, hi in ref)
    return any(a < b for a, b in zip(lows_got, lows_ref)) or any(
        a > b for a, b in zip(ups_got, ups_ref)
    )


def summarize(cmd: Command, output: str) -> object:
    """The labeling-free content of an output, as stored in reference.json."""
    if cmd.verb == "analyze":
        return {k: [list(row) for row in v] for k, v in interval_table(json.loads(output)).items()}
    if cmd.verb == "cupfind":
        match = _CUPFIND.match(output.strip())
        return int(match.group(1)) if match else None
    return output.strip()


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def reference_key(cmd: Command) -> str:
    return f"{cmd.verb} {cmd.family} {' '.join(cmd.flags)}".strip()


def check(cmd: Command, code: int, output: str, reference: dict) -> str | None:
    """None if the call is correct, else the reason it failed."""
    if code != 0:
        return f"exit code {code}"
    try:
        return _check_output(cmd, output, reference)
    except (ValueError, KeyError, IndexError, StopIteration) as err:
        return f"unreadable output ({type(err).__name__}: {err})"


def _check_output(cmd: Command, output: str, reference: dict) -> str | None:
    family = FAMILIES[cmd.family]
    ref = reference.get(reference_key(cmd))
    if ref is None:
        return "no reference recorded for this command"
    if cmd.verb == "betti":
        if tuple(int(x) for x in output.split()) != family.betti:
            return f"Betti numbers {output.strip()} differ from {family.betti}"
        return None
    if cmd.verb == "fixed":
        return None if output.strip() == ref else f"fixed set {output.strip()!r} != {ref!r}"
    if cmd.verb == "cupfind":
        length = summarize(cmd, output)
        if length is None or length < ref:
            return f"cupfind length {length} below the reference {ref}"
        return None

    report = json.loads(output)
    root = report["contexts"][0]
    space_x = next(s for s in root["spaces"] if s["key"] == "X")
    for field_name, betti in space_x["betti"].items():
        if tuple(betti) != family.betti:
            return f"Betti numbers over {field_name} {betti} differ from {family.betti}"
    table = interval_table(report)
    for kind in ("cat", "TC"):
        known = getattr(family, kind)
        if known is None:
            continue
        [(lo, hi)] = table[f"{root['context']}|{kind}|X|-"]
        if not lo <= known <= hi:
            return f"{kind}(X) in [{lo}, {hi}] excludes the known value {known}"
    ref_table = {k: [tuple(row) for row in v] for k, v in ref.items()}
    if table.keys() != ref_table.keys():
        return "the reported quantities differ from the reference"
    for key, rows in table.items():
        if _looser(rows, ref_table[key]):
            return f"{key}: intervals {rows} looser than the reference {ref_table[key]}"
    return None
