"""The problem-file schema: its tables, and the parser that walks them.

`oracle_parse_problem` is the parser as it was written before the schema
became tables, a hand-written chain of checks.  Both must return equal
problems or both refuse the file, and on a file with one fault they must
refuse it with the same message.  No input may raise anything else.
"""

from __future__ import annotations

import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complexes import perfbench_corpus, schema_faults
from eqtc.cli import EXIT_INVALID, main
from eqtc.problems import (
    ASSOCIATED_SPACE,
    ASSOCIATED_SPACE_KEYS,
    FACT,
    FACT_KEYS,
    PROBLEM,
    PROBLEM_KEYS,
    REQUIRED,
    ProblemFormatError,
    builtin_examples,
    loads_problem,
    parse_problem,
    problem_to_dict,
)
from oracles import oracle_parse_problem

ROOT = Path(__file__).resolve().parents[1]
BUILTINS = {name: problem_to_dict(p) for name, p in sorted(builtin_examples().items())}
KEYS = sorted(PROBLEM_KEYS | ASSOCIATED_SPACE_KEYS | FACT_KEYS) + ["_comment", "vertex"]
# strings the schema reads, so that random values often pass a check
WORDS = ["infinity", "cat", "TC", "cat_G", "TC_G", "X", "XxX", "orbit", "lower", "upper",
         "equal", "metrizable", "free_action", "j", ""]
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 8) | st.floats(allow_nan=False)
    | st.sampled_from(WORDS),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(KEYS), inner, max_size=5),
    max_leaves=24,
)


def outcome(parse, data):
    """The problem and its config, or the refusal's message; anything else propagates."""
    try:
        p = parse(data)
    except ProblemFormatError as err:
        return str(err)
    return p, p.config


def assert_agree(data) -> None:
    mine, theirs = outcome(parse_problem, data), outcome(oracle_parse_problem, data)
    assert isinstance(mine, str) == isinstance(theirs, str), (data, mine, theirs)
    if not isinstance(mine, str):
        assert mine == theirs, data


def test_builtins_and_corpus_parse_as_the_oracle_parses_them():
    corpus = perfbench_corpus()
    files = list(BUILTINS.values())
    files += [corpus.build(family, seed) for family in sorted(corpus.FAMILIES) for seed in (0, 1)]
    for data in files:
        p = parse_problem(data)
        assert (p, p.config) == outcome(oracle_parse_problem, data), data["name"]
        assert parse_problem(problem_to_dict(p)) == p, data["name"]


def test_single_faults_are_refused_with_the_oracles_message():
    count = 0
    for name, data in BUILTINS.items():
        for label, broken in schema_faults(data).items():
            mine, theirs = outcome(parse_problem, broken), outcome(oracle_parse_problem, broken)
            assert isinstance(mine, str) and mine == theirs, (name, label, mine, theirs)
            count += 1
    assert count > 300


@settings(derandomize=True, deadline=None, max_examples=400)
@given(JSON)
def test_random_json_shapes_agree_with_the_oracle(data):
    assert_agree(data)
    if isinstance(data, dict):
        assert_agree({"schema_version": 1, **data})


def edit_slots(obj, out: list) -> list:
    """Every (container, key) of a JSON tree; a None key inserts into a dict."""
    if isinstance(obj, dict):
        out.append((obj, None))
        items = list(obj.items())
    else:
        items = list(enumerate(obj)) if isinstance(obj, list) else []
    for key, value in items:
        out.append((obj, key))
        edit_slots(value, out)
    return out


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.data())
def test_edited_builtins_agree_with_the_oracle(data):
    # wrong types, unknown keys and missing keys at random depths, one to
    # three of them, so that single faults and their combinations both occur
    problem = json.loads(json.dumps(BUILTINS[data.draw(st.sampled_from(sorted(BUILTINS)))]))
    for _ in range(data.draw(st.integers(1, 3))):
        slots = edit_slots(problem, [])
        if data.draw(st.booleans()):  # half the edits at a key of an object, not in a list
            slots = [slot for slot in slots if isinstance(slot[0], dict)]
        container, key = data.draw(st.sampled_from(slots))
        if key is None:
            container[data.draw(st.sampled_from(KEYS))] = data.draw(JSON)
        elif data.draw(st.booleans()):
            container[key] = data.draw(JSON)
        else:
            del container[key]
    assert_agree(problem)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.text(alphabet='[]{}":,0123456789 aeinty-', max_size=60))
def test_any_text_is_a_problem_or_refused(text):
    try:
        loads_problem(text)
    except ProblemFormatError:
        pass


@pytest.mark.parametrize("text, verb", [("[" * 200_000, "analyze"), ('{"a":' * 3_000, "betti")])
def test_deep_json_is_refused(tmp_path, capsys, text, verb):
    # json recurses once per level of nesting; past Python's recursion limit
    # that is a bad file, not a crash
    with pytest.raises(ProblemFormatError, match="nests deeper than the reader's recursion limit"):
        loads_problem(text)
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    assert main([verb, str(path)], out=io.StringIO()) == EXIT_INVALID
    assert capsys.readouterr().err == "error: the file nests deeper than the reader's recursion limit\n"


def test_group_generators_on_an_associated_space_root_are_refused(tmp_path, capsys):
    # the group acts on the fiber and the base; a root key nothing reads is refused
    data = {**BUILTINS["klein-bound"], "group_generators": "garbage"}
    path = tmp_path / "klein-bound.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["analyze", str(path)], out=io.StringIO()) == EXIT_INVALID
    assert capsys.readouterr().err == (
        "error: $.group_generators: the group acts on the fiber/base problems\n")


def test_deeply_nested_associated_spaces_are_refused_in_a_fresh_process(tmp_path):
    # valid JSON, nested within json's limit, that the parser itself recurses on
    data = BUILTINS["torus7"]
    for _ in range(400):
        data = {"name": "x", "associated_space": {"fiber": data, "base": BUILTINS["torus7"],
                                                  "justification": "j"}}
    path = tmp_path / "nested.json"
    path.write_text(json.dumps({"schema_version": 1, **data}), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "eqtc", "analyze", str(path)],
                          capture_output=True, text=True, timeout=60,
                          env={"PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == EXIT_INVALID and "Traceback" not in proc.stderr, proc.stderr


def test_readme_names_each_tables_keys():
    # the sentence lists each object's keys in table order, the ones with no
    # default in bold
    text = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    sentence = re.search(r"Each object takes only these keys[^:]*:(.*?)\.\s", text).group(1)
    listed = [(re.findall(r"`(\w+)`", clause), re.findall(r"\*\*`(\w+)`\*\*", clause))
              for clause in sentence.split(";")]
    assert listed == [(list(table), [k for k, key in table.items() if key.default is REQUIRED])
                      for table in (PROBLEM, ASSOCIATED_SPACE, FACT)]

