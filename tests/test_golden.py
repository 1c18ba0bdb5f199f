"""Byte-for-byte report regression against the files in tests/golden/.

Each case is `<name>.problem.json` with its expected `analyze` output in
`<name>.txt` (`--format text`) and `<name>.json` (`--format json`).  The set
covers every builtin plus variants that exercise R6 in both directions, R8,
R16, R17, R18, an inconsistent assertion and a skipped ring computation.

After a deliberate output change, regenerate from tests/golden/ with
    for f in *.problem.json; do n=${f%.problem.json}
      python3 -m eqtc analyze $f --format text > $n.txt
      python3 -m eqtc analyze $f --format json > $n.json; done
and list the change in CHANGES.md.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from eqtc.cli import EXIT_INCONSISTENT, EXIT_OK, main
from eqtc.problems import builtin_examples, problem_to_dict

GOLDEN = Path(__file__).with_name("golden")
CASES = sorted(p.name[: -len(".problem.json")] for p in GOLDEN.glob("*.problem.json"))


@pytest.mark.parametrize("fmt,suffix", [("text", "txt"), ("json", "json")])
@pytest.mark.parametrize("case", CASES)
def test_report_matches_golden(case, fmt, suffix):
    buf = io.StringIO()
    code = main(["analyze", str(GOLDEN / f"{case}.problem.json"), "--format", fmt], out=buf)
    assert code in (EXIT_OK, EXIT_INCONSISTENT)
    expected = (GOLDEN / f"{case}.{suffix}").read_text(encoding="utf-8")
    assert buf.getvalue() == expected


def test_builtins_are_their_golden_problem_files():
    # `examples NAME` writes the builtin, so a golden input is what a user gets
    for name, problem in builtin_examples().items():
        golden = json.loads((GOLDEN / f"{name}.problem.json").read_text(encoding="utf-8"))
        assert problem_to_dict(problem) == golden, name


def test_golden_set_is_complete():
    assert len(CASES) == 16
