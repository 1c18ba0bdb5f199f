from __future__ import annotations

import argparse
import io
import json
import os
import re
import resource
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from itertools import combinations
from pathlib import Path

import pytest

import eqtc.group_action as group_action
from complexes import perfbench_corpus, projective_plane_six_vertex
from eqtc.cli import (
    EXIT_CAP,
    EXIT_INCONSISTENT,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_SELFCHECK,
    main,
)
from eqtc.homology import betti_numbers
from eqtc.problems import (
    ProblemFormatError,
    builtin_examples,
    dumps_problem,
    loads_problem,
    parse_problem,
    problem_to_dict,
)


def run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


def write_example(tmp_path, name, mutate=None):
    data = json.loads(dumps_problem(builtin_examples()[name]))
    if mutate:
        mutate(data)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_examples_list_has_all_builtins():
    code, out = run(["examples"])
    assert code == EXIT_OK
    names = out.split()
    assert len(names) >= 8
    for expected in ("sphere-reflection-n2", "ngon-antipodal", "torus7", "klein-bound"):
        assert expected in names
    # listing is what omitting the name does; there is no --list flag
    with pytest.raises(SystemExit) as refused:
        run(["examples", "--list"])
    assert refused.value.code == EXIT_INVALID


def test_exit_codes_are_the_documented_values():
    assert (EXIT_OK, EXIT_INVALID, EXIT_INCONSISTENT, EXIT_CAP, EXIT_SELFCHECK) == (0, 2, 3, 4, 5)


def test_examples_prints_json_indented_by_two_spaces():
    for name in ("torus7", "klein-bound"):
        code, out = run(["examples", name])
        assert code == EXIT_OK
        assert out.startswith('{\n  "schema_version": 1,\n  "name": '), name
        assert out == json.dumps(json.loads(out), indent=2) + "\n", name


def test_examples_unknown_name_lists_available():
    buf = io.StringIO()
    code = main(["examples", "nope"], out=buf)
    assert code == EXIT_INVALID


def test_examples_round_trip_all():
    for name, problem in builtin_examples().items():
        assert loads_problem(dumps_problem(problem)) == problem


def test_analyze_reflection_n2(tmp_path):
    path = write_example(tmp_path, "sphere-reflection-n2")
    code, out = run(["analyze", path])
    assert code == EXIT_OK
    assert "TC_G(X) = 3" in out
    assert "cat_G(X) = 2" in out


def test_analyze_reflection_n1_reports_infinity(tmp_path):
    path = write_example(tmp_path, "sphere-reflection-n1")
    code, out = run(["analyze", path])
    assert code == EXIT_OK
    assert "TC_G(X) = infinity" in out
    assert "2 path components" in out


def test_analyze_klein_bound(tmp_path):
    path = write_example(tmp_path, "klein-bound")
    code, out = run(["analyze", path])
    assert code == EXIT_OK
    assert "TC(X_G) in [1, 6]" in out


def test_analyze_json_format_and_output_file(tmp_path):
    path = write_example(tmp_path, "sphere-reflection-n2")
    out_file = tmp_path / "report.json"
    code, out = run(["analyze", path, "--format", "json", "--output", str(out_file)])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["problem"] == "sphere-reflection-n2"
    assert json.loads(out_file.read_text()) == doc


def test_analyze_bad_output_path_writes_no_report(tmp_path, capsys):
    # the output file is opened before the report goes to stdout, so a
    # directory as --output leaves only the error, in either format
    path = write_example(tmp_path, "torus7")
    for fmt in ("text", "json"):
        code, out = run(["analyze", path, "--format", fmt, "--output", str(tmp_path)])
        assert code == EXIT_INVALID, fmt
        assert out == "", fmt
        assert capsys.readouterr().err.startswith("error: "), fmt
    # with text on stdout the file still gets the JSON report
    out_file = tmp_path / "report.json"
    code, out = run(["analyze", path, "--output", str(out_file)])
    assert code == EXIT_OK and out == run(["analyze", path])[1]
    assert out_file.read_text() == run(["analyze", path, "--format", "json"])[1]


def test_analyze_deterministic_bytes(tmp_path):
    path = write_example(tmp_path, "sphere-reflection-n2")
    _, first = run(["analyze", path, "--format", "json"])
    _, second = run(["analyze", path, "--format", "json"])
    assert first == second
    _, t1 = run(["analyze", path])
    _, t2 = run(["analyze", path])
    assert t1 == t2


def test_analyze_parse_error_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json", encoding="utf-8")
    code, _ = run(["analyze", str(path)])
    assert code == EXIT_INVALID


def test_analyze_schema_error_names_path(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": 1, "name": "x"}), encoding="utf-8")
    code, _ = run(["analyze", str(path)])
    assert code == EXIT_INVALID


def test_analyze_non_simplicial_action_exit_code(tmp_path):
    path = write_example(
        tmp_path,
        "ngon-antipodal",
        mutate=lambda d: d.update(group_generators=[[1, 0, 2, 3, 4, 5]]),
    )
    code, _ = run(["analyze", path])
    assert code == EXIT_INVALID


def test_analyze_unused_vertex_exit_code(tmp_path, capsys):
    # the complex is checked once, where the problem file enters
    path = write_example(tmp_path, "torus7", mutate=lambda d: d.update(vertex_count=8))
    code, out = run(["analyze", path])
    assert code == EXIT_INVALID == 2
    assert out == ""
    assert capsys.readouterr().err == "error: some vertex id appears in no simplex\n"


def test_analyze_inconsistent_assertion_exit_code(tmp_path):
    def mutate(d):
        d["asserted_facts"] = [
            {"kind": "cat", "space": "X", "side": "equal", "value": 1,
             "justification": "wrong on purpose"}
        ]

    path = write_example(tmp_path, "sphere-reflection-n2", mutate)
    code, out = run(["analyze", path])
    assert code == EXIT_INCONSISTENT
    assert "INCONSISTENT" in out


def test_analyze_cap_exceeded_exit_code(tmp_path):
    path = write_example(
        tmp_path,
        "ngon-rotation-6",
        mutate=lambda d: d.update(config={"group_order_cap": 3}),
    )
    code, _ = run(["analyze", path])
    assert code == EXIT_CAP


def write_z2_8(tmp_path) -> str:
    # (Z/2)^8 swapping the ends of 8 disjoint edges: order 256 passes the
    # subgroup cap, but its ~417k subgroups exceed the closure work budget
    gens = []
    for i in range(8):
        g = list(range(16))
        g[2 * i], g[2 * i + 1] = g[2 * i + 1], g[2 * i]
        gens.append(g)
    data = {"schema_version": 1, "name": "z2-8", "vertex_count": 16,
            "maximal_simplices": [[2 * i, 2 * i + 1] for i in range(8)], "group_generators": gens}
    path = tmp_path / "z2-8.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_analyze_huge_subgroup_lattice_exits_on_work_budget(tmp_path, capsys):
    path = write_z2_8(tmp_path)
    start = time.perf_counter()
    code, _ = run(["analyze", path])
    assert code == EXIT_CAP
    assert time.perf_counter() - start < 10
    assert "subgroup enumeration exceeded" in capsys.readouterr().err


MALFORMED_SUBGROUP = "error: --subgroup must be 'full', 'trivial', or a class index in plain digits\n"


def test_fixed_full_and_trivial_need_no_subgroup_enumeration(tmp_path, capsys):
    # G and 1 are built directly, so a lattice over the work budget stops
    # only a class index; the 8 edge midpoints are fixed by all of G
    path = write_z2_8(tmp_path)
    for subgroup, betti in (("full", "8"), ("trivial", "8 0")):
        with deadline(2.0):
            code, out = run(["fixed", path, "--subgroup", subgroup])
        assert (code, out) == (EXIT_OK, betti + "\n"), subgroup
    with deadline(30.0):
        code, out = run(["fixed", path, "--subgroup", "1"])
    assert (code, out) == (EXIT_CAP, "")
    assert "subgroup enumeration exceeded" in capsys.readouterr().err
    # a malformed index is refused before the classes are listed
    with deadline(2.0):
        code, out = run(["fixed", path, "--subgroup", "abc"])
    assert (code, out, capsys.readouterr().err) == (EXIT_INVALID, "", MALFORMED_SUBGROUP)


def test_fixed_trivial_subgroup_reads_betti_numbers_off_k(tmp_path, monkeypatch):
    # the trivial group fixes all of the subdivided complex, which has K's
    # Betti numbers; S3-Z3 satisfies (A) only after a subdivision
    data = perfbench_corpus().build("S3-Z3", 0)
    path = tmp_path / "s3-z3.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    reduced = []
    monkeypatch.setattr("eqtc.cli.betti_numbers",
                        lambda K, field: reduced.append(K) or betti_numbers(K, field))
    monkeypatch.setattr("eqtc.cli.fixed_subcomplex", lambda R, H: pytest.fail("built X^1"))
    for subgroup in ("trivial", "0"):
        reduced.clear()
        assert run(["fixed", str(path), "--subgroup", subgroup, "--field", "F2"]) == (
            EXIT_OK, "1 0 0 1\n"), subgroup
        assert [K.f_vector() for K in reduced] == [(5, 10, 10, 5)], subgroup
    # the action is still regularized, so a bad one exits as before
    path = write_example(tmp_path, "ngon-antipodal",
                         mutate=lambda d: d.update(group_generators=[[1, 0, 2, 3, 4, 5]]))
    assert run(["fixed", path, "--subgroup", "trivial"]) == (EXIT_INVALID, "")


def test_fixed_builds_at_most_one_subdivision_and_no_regular_action(tmp_path, monkeypatch):
    # a fixed set needs condition (A) only: fixed reads it off K when K
    # satisfies (A) (check_regularity), and off sd K otherwise, with no
    # group transported to the subdivision
    for name in ("transport_action", "regularize"):
        monkeypatch.setattr(group_action, name, lambda *a, name=name: pytest.fail(f"called {name}"))
    monkeypatch.setattr("eqtc.cli.regularize", lambda *a: pytest.fail("called regularize"))
    subdivided = []
    subdivide = group_action.barycentric_subdivision
    monkeypatch.setattr(group_action, "barycentric_subdivision",
                        lambda K: subdivided.append(K) or subdivide(K))
    # S4 on the boundary of the tetrahedron fails (A) at its first edge
    gens = [[1, 0, 2, 3], [1, 2, 3, 0]]
    data = {"schema_version": 1, "name": "S2-S4", "vertex_count": 4,
            "maximal_simplices": [list(c) for c in combinations(range(4), 3)],
            "group_generators": gens}
    s2_s4 = tmp_path / "s2-s4.json"
    s2_s4.write_text(json.dumps(data), encoding="utf-8")
    # the antipodal hexagon satisfies (A): no edge joins two antipodes
    for path, subgroup, want, rounds in (
        (str(s2_s4), "full", "empty\n", 1),
        (str(s2_s4), "1", "1 1\n", 1),  # a transposition, a reflection fixing a circle
        (str(s2_s4), "trivial", "1 0 1\n", 0),
        (write_example(tmp_path, "ngon-antipodal"), "full", "empty\n", 0),
        (write_example(tmp_path, "sphere-reflection-n2"), "full", "1 1\n", 1),
    ):
        subdivided.clear()
        assert run(["fixed", path, "--subgroup", subgroup]) == (EXIT_OK, want), (path, subgroup)
        assert len(subdivided) == rounds, (path, subgroup)


def test_fixed_honours_config_caps(tmp_path):
    for config in ({"group_order_cap": 3}, {"subgroup_cap": 5}):
        path = write_example(tmp_path, "ngon-rotation-6", mutate=lambda d: d.update(config=config))
        code, _ = run(["fixed", path])
        assert code == EXIT_CAP, config


def test_seed_is_not_an_option(tmp_path):
    path = write_example(tmp_path, "torus7", mutate=lambda d: d.update(config={"seed": 0}))
    assert run(["analyze", path])[0] == EXIT_INVALID
    with pytest.raises(SystemExit) as exc:
        run(["analyze", write_example(tmp_path, "torus7"), "--seed", "0"])
    assert exc.value.code == 2


def test_betti_torus(tmp_path):
    path = write_example(tmp_path, "torus7")
    code, out = run(["betti", path, "--field", "Q"])
    assert code == EXIT_OK
    assert out.strip() == "1 2 1"


def test_fixed_subcomplex_of_reflection(tmp_path):
    path = write_example(tmp_path, "sphere-reflection-n2")
    code, out = run(["fixed", path, "--subgroup", "full"])
    assert code == EXIT_OK
    assert out.strip() == "1 1"
    code, out = run(["fixed", path, "--subgroup", "trivial"])
    assert out.strip() == "1 0 1"


def test_fixed_subgroup_index_has_one_spelling(tmp_path, capsys):
    # S4 on the boundary of the tetrahedron: 11 subgroup classes
    gens = [[1, 0, 2, 3], [1, 2, 3, 0]]
    data = {"schema_version": 1, "name": "S2-S4", "vertex_count": 4,
            "maximal_simplices": [list(c) for c in combinations(range(4), 3)],
            "group_generators": gens}
    path = tmp_path / "s2-s4.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert run(["fixed", str(path), "--subgroup", "0"]) == (EXIT_OK, "1 0 1\n")
    assert run(["fixed", str(path), "--subgroup", "10"]) == run(["fixed", str(path)])
    capsys.readouterr()
    # out of range, named with the class count
    assert run(["fixed", str(path), "--subgroup", "11"]) == (EXIT_INVALID, "")
    assert capsys.readouterr().err == "error: --subgroup must be 'full', 'trivial', or 0..10\n"
    # malformed, such as every spelling int() once read as 10: refused
    # before the classes are listed, so the message cannot name their count
    for bad in ("-1", "1_0", " 10", "+10", "\uff11\uff10", "010", "10\n", "", "abc"):
        assert run(["fixed", str(path), "--subgroup", bad]) == (EXIT_INVALID, ""), bad
        assert capsys.readouterr().err == MALFORMED_SUBGROUP, bad


# corpus families that would each add seconds to the test below
SLOW_FAMILIES = {"S4-Z3", "T3-3-Z3", "T4-3", "T4-3-ring"}


def betti_line(space: dict, field: str) -> str:
    """What betti and fixed print for a space of an analyze report."""
    return "empty\n" if space["empty"] else " ".join(map(str, space["betti"][field])) + "\n"


def test_commands_agree_with_analyze(tmp_path):
    # betti, fixed and cupfind build K, the regular action and the R1
    # certificate as analyze does, so they print what `analyze --fields F`
    # reports for X, for X^G and in the R1 bound on TC(X)
    corpus = perfbench_corpus()
    inputs = {name: problem_to_dict(p) for name, p in builtin_examples().items()
              if not p.is_associated_space}
    inputs.update((family, corpus.build(family, 0))
                  for family in sorted(set(corpus.FAMILIES) - SLOW_FAMILIES))
    # RP^2, whose Betti numbers depend on the field; a contractible X, with
    # no R1 bound; and a disconnected one, which has none either
    rp2 = projective_plane_six_vertex()
    inputs["rp2"] = {"schema_version": 1, "name": "rp2", "vertex_count": rp2.vertex_count,
                     "maximal_simplices": [list(s) for s in rp2.simplices_of_dim(2)]}
    circles = [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]]
    inputs["triangle"] = {"schema_version": 1, "name": "triangle", "vertex_count": 3,
                          "maximal_simplices": [[0, 1, 2]]}
    inputs["two-circles-swap"] = {"schema_version": 1, "name": "two-circles-swap",
                                  "vertex_count": 6, "maximal_simplices": circles,
                                  "group_generators": [[3, 4, 5, 0, 1, 2]]}
    seen = set()
    for name, data in inputs.items():
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        path = str(path)
        for field in ("F2", "F3", "Q"):
            case = (name, field)
            code, out = run(["analyze", path, "--fields", field, "--format", "json"])
            assert code == EXIT_OK, case
            doc = json.loads(out)
            ctx = doc["contexts"][0]
            spaces = {s["key"]: s for s in ctx["spaces"]}
            x = spaces["X"]
            if ctx["equivariant"]:
                full = next(c["key"] for c in ctx["subgroup_classes"] if c["display"] == "G")
                x_g = spaces[f"fix:{full}"]
            else:
                x_g = x
            betti = run(["betti", path, "--field", field])
            assert betti == run(["fixed", path, "--subgroup", "trivial", "--field", field]), case
            if x["skip_reason"] is None:
                assert betti == (EXIT_OK, betti_line(x, field)), case
            if x_g["empty"] or x_g["skip_reason"] is None:
                assert run(["fixed", path, "--subgroup", "full", "--field", field]) == (
                    EXIT_OK, betti_line(x_g, field)), case
                seen.add("empty X^G" if x_g["empty"] else "X^G")
            code, out = run(["cupfind", path, "--field", field])
            if x["skip_reason"] is not None:  # analyze skips the ring, and cupfind refuses it
                assert (code, out) == (EXIT_CAP, ""), case
                seen.add("over the ring cap")
                continue
            assert code == EXIT_OK, case
            length = int(re.fullmatch(r"zero-divisor length (\d+), certificate \[.*\]\n", out)[1])
            if not x["connected"]:  # no R1 bound, but cupfind still searches
                seen.add("disconnected")
                continue
            r1 = [b["certificate"]["length"] for b in doc["bounds"]
                  if (b["rule"], b["quantity"]) == ("R1", "TC(X)")]
            assert r1 == ([length] if length else []), case
            seen.add("R1" if r1 else "no R1")
    assert seen == {"X^G", "empty X^G", "over the ring cap", "disconnected", "R1", "no R1"}


def test_fixed_empty_for_free_rotation(tmp_path):
    path = write_example(tmp_path, "ngon-rotation-4")
    code, out = run(["fixed", path, "--subgroup", "full"])
    assert code == EXIT_OK
    assert out.strip() == "empty"


def test_fixed_refuses_a_bad_field_where_the_fixed_set_is_empty(tmp_path, capsys):
    # the rotation fixes no vertex, so X^G is empty and no Betti number is
    # read; the field is refused all the same, as for the trivial subgroup
    path = write_example(tmp_path, "ngon-rotation-3")
    for field, message in (("F4", "4 is not prime"), ("bogus", "unknown field 'bogus'")):
        for subgroup in ("full", "trivial"):
            code, out = run(["fixed", path, "--subgroup", subgroup, "--field", field])
            assert (code, out) == (EXIT_INVALID, ""), (field, subgroup)
            assert message in capsys.readouterr().err, (field, subgroup)


def test_cupfind_torus(tmp_path):
    path = write_example(tmp_path, "torus7")
    code, out = run(["cupfind", path, "--field", "F2"])
    assert code == EXIT_OK
    assert out.startswith("zero-divisor length 2, certificate [")
    assert out.count("zbar") == 2


def test_cupfind_respects_depth_cap(tmp_path):
    path = write_example(tmp_path, "torus7")
    code, out = run(["cupfind", path, "--field", "F2", "--depth-cap", "1"])
    assert "zero-divisor length 1" in out


def test_cupfind_takes_depth_cap_from_config(tmp_path):
    path = write_example(tmp_path, "torus7", mutate=lambda d: d.update(config={"depth_cap": 1}))
    code, out = run(["cupfind", path, "--field", "F2"])
    assert code == EXIT_OK
    assert out.startswith("zero-divisor length 1,")
    code, out = run(["cupfind", path, "--field", "F2", "--depth-cap", "2"])
    assert out.startswith("zero-divisor length 2,")


def test_cupfind_honours_ring_size_limit(tmp_path):
    # torus7 has 42 simplices; analyze skips its rings, so cupfind must stop
    path = write_example(
        tmp_path, "torus7", mutate=lambda d: d.update(config={"max_ring_simplices": 10})
    )
    code, out = run(["cupfind", path])
    assert code == EXIT_CAP
    assert out == ""
    assert "cohomology skipped" in run(["analyze", path])[1]


def test_cupfind_ring_size_limit_admits_exactly_that_many_simplices(tmp_path, capsys):
    for limit, want in ((42, EXIT_OK), (41, EXIT_CAP)):  # torus7 has 42 simplices
        path = write_example(
            tmp_path, "torus7", mutate=lambda d: d.update(config={"max_ring_simplices": limit})
        )
        assert run(["cupfind", path, "--field", "F2"])[0] == want, limit
    assert capsys.readouterr().err == "error: 42 simplices exceed the configured ring limit 41\n"


def test_failed_self_check_exits_selfcheck(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("eqtc.ring.verify_zero_divisor_certificate", lambda T, factors: False)
    path = write_example(tmp_path, "torus7")
    code, out = run(["cupfind", path, "--field", "F2"])
    assert code == EXIT_SELFCHECK == 5
    assert out == ""
    assert "error: self-check failed: certificate failed re-multiplication" in capsys.readouterr().err


def test_failed_cuplength_remultiplication_exits_selfcheck(tmp_path, monkeypatch, capsys):
    # the R1 check passes, so the failure comes from the R2 certificate
    monkeypatch.setattr("eqtc.ring.verify_zero_divisor_certificate", lambda T, factors: True)
    monkeypatch.setattr("eqtc.ring._remultiply", lambda multiply, factors: {})
    code, out = run(["analyze", write_example(tmp_path, "torus7")])
    assert code == EXIT_SELFCHECK
    assert out == ""
    assert "error: self-check failed: certificate failed re-multiplication" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["betti", "cupfind"])
def test_betti_and_cupfind_reject_malformed_config(tmp_path, verb):
    for config in ({"seed": 0}, {"fields": ["F4"]}, {"subgroup_mode": "some"}):
        path = write_example(tmp_path, "torus7", mutate=lambda d: d.update(config=config))
        assert run([verb, path])[0] == EXIT_INVALID, config


@pytest.mark.parametrize(
    "argv_tail, config",
    [
        (["--depth-cap", "0"], {}),
        (["--depth-cap", "-3"], {}),
        ([], {"depth_cap": "x"}),
        ([], {"depth_cap": 0}),
        ([], {"depth_cap": True}),
        ([], {"depth_cap": 1.5}),
        ([], {"group_order_cap": 0}),
        ([], {"subgroup_cap": False}),
        ([], {"max_ring_simplices": "4000"}),
        ([], {"fields": "F2"}),
        ([], {"fields": [2]}),
        ([], {"fields": ["F\u00b2"]}),  # a digit to str.isdigit, not to int()
        ([], {"fields": []}),  # no field: no Betti numbers and no R1/R2 bounds
        (["--fields", ""], {}),
        # a field has one name, so no sweep lists it twice under two spellings
        *((["--fields", name], {}) for name in ("f2", "QQ", " Q", "F02")),
        *(([], {"fields": [name]}) for name in ("f2", "QQ", " Q", "F02")),
        # a field listed twice would be printed twice but computed once
        (["--fields", "F2,F2"], {}),
        ([], {"fields": ["Q", "Q"]}),
    ],
)
def test_bad_engine_settings_exit_invalid(tmp_path, capsys, argv_tail, config):
    path = write_example(tmp_path, "torus7", mutate=lambda d: d.update(config=config))
    assert run(["analyze", path, *argv_tail])[0] == EXIT_INVALID
    assert "error: " in capsys.readouterr().err


def test_betti_field_name_is_exact(tmp_path, capsys):
    assert run(["betti", write_example(tmp_path, "torus7"), "--field", "q"])[0] == EXIT_INVALID
    assert "error: unknown field 'q'" in capsys.readouterr().err


class Overrun(BaseException):
    """Raised by `deadline`; not an Exception, so `main` cannot report it as an error."""


@contextmanager
def deadline(seconds):
    """Raise Overrun in the block once `seconds` of wall time have passed."""
    def expire(signum, frame):
        raise Overrun(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_deadline_overrun_escapes_main(tmp_path, monkeypatch):
    # a TimeoutError is an OSError, which main reports as a bad file (exit 2),
    # so a hang under a test that expects exit 2 would pass
    monkeypatch.setattr("eqtc.cli.betti_numbers", lambda K, field: time.sleep(5))
    path = write_example(tmp_path, "torus7")
    with pytest.raises(Overrun):
        with deadline(0.2):
            run(["betti", path])


@pytest.mark.parametrize(
    "spec",
    [
        "F" + "9" * 400,  # p**0.5 overflowed a float
        "F" + "1" * 5000,  # past Python's int-string limit
        "F1000000000000000000000000000057",  # trial division ran for minutes
    ],
    ids=["float-overflow", "int-string-limit", "long-trial-division"],
)
def test_huge_field_characteristic_exits_invalid_at_once(tmp_path, capsys, spec):
    # in-process, so an uncaught exception fails the test instead of printing a
    # traceback, and the timer stops a slow check instead of leaving it running
    betti = ["betti", write_example(tmp_path, "torus7"), "--field", spec]
    in_config = write_example(tmp_path, "torus7", mutate=lambda d: d.update(config={"fields": [spec]}))
    for argv in (betti, ["analyze", in_config]):
        with deadline(1.0):
            code, out = run(argv)
        assert (code, out) == (EXIT_INVALID, "")
        assert "characteristic of a field F<p> must be below 2^32" in capsys.readouterr().err


def write_sphere_with_3_cycle(tmp_path, n: int) -> str:
    """The boundary of the (n+1)-simplex, an n-sphere, with the 3-cycle (0 1 2)."""
    data = {"schema_version": 1, "name": f"S{n}-Z3", "vertex_count": n + 2,
            "maximal_simplices": [list(c) for c in combinations(range(n + 2), n + 1)],
            "group_generators": [[1, 2, 0] + list(range(3, n + 2))]}
    path = tmp_path / f"s{n}-z3.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_oversized_regularization_exits_cap_at_once(tmp_path, capsys):
    # the boundary of the 6-simplex with a 3-cycle is inside every configured
    # cap; a second subdivision would have 33,156,984 simplices, but one
    # satisfies (A), so analyze finishes, in-process under a timer, and the
    # ring cap skips its X/G of 16,124 cells.  The boundary of the 8-simplex,
    # whose first subdivision is over the budget, still exits 4 (below).
    path = write_sphere_with_3_cycle(tmp_path, 5)
    with deadline(2.0):
        code, out = run(["analyze", path, "--format", "json"])
    assert code == EXIT_OK
    context = json.loads(out)["contexts"][0]
    orbit = next(s for s in context["spaces"] if s["key"] == "orbit")
    assert (context["subdivision_rounds"], orbit["simplex_count"]) == (1, 16124)
    assert orbit["skip_reason"].startswith("cohomology skipped: 16124 simplices")
    assert capsys.readouterr().err == ""
    with deadline(1.0):
        assert run(["fixed", path]) == (EXIT_OK, "1 0 0 1\n")


def test_oversized_first_subdivision_exits_cap_at_once(tmp_path, capsys):
    # the boundary of the 8-simplex with a 3-cycle fails (A), and its first
    # subdivision would have 7,087,260 simplices: analyze and fixed both stop
    # before building it, while the trivial group's fixed set is K itself
    path = write_sphere_with_3_cycle(tmp_path, 7)
    for argv in (["analyze", path], ["fixed", path, "--subgroup", "full"]):
        with deadline(1.0):
            code, out = run(argv)
        assert (code, out) == (EXIT_CAP, ""), argv
        assert capsys.readouterr().err == (
            "error: regularization round 1 would build 7087260 simplices, "
            "over the budget of 2000000\n"), argv
    with deadline(1.0):
        assert run(["fixed", path, "--subgroup", "trivial"]) == (EXIT_OK, "1 0 0 0 0 0 0 1\n")


def test_huge_maximal_simplex_exits_cap_at_once(tmp_path, capsys):
    # one 40-vertex simplex is inside every configured cap, but its closure
    # would list 2^40 - 1 faces; in-process under a timer, as above
    data = {"schema_version": 1, "name": "simplex-40", "vertex_count": 40,
            "maximal_simplices": [list(range(40))]}
    path = tmp_path / "simplex-40.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    for verb in ("betti", "analyze"):
        with deadline(1.0):
            code, out = run([verb, str(path)])
        assert (code, out) == (EXIT_CAP, "")
        assert "2^40 - 1 faces, over the budget of 2000000" in capsys.readouterr().err


@pytest.mark.parametrize(
    "change, message",
    [
        ({"group_generators": 5}, "$.group_generators: must be a list"),
        ({"asserted_facts": 5}, "$.asserted_facts: must be a list"),
        ({"asserted_facts": [{"kind": "TC", "value": True, "justification": "j"}]},
         "$.asserted_facts[0].value: value must be an integer"),
        ({"vertex_count": 1_000_000_000}, "some vertex id appears in no simplex"),
    ],
    ids=["generators-not-a-list", "facts-not-a-list", "bool-value", "huge-vertex-count"],
)
def test_hostile_problem_files_exit_invalid(tmp_path, change, message):
    # a subprocess under a 1 GB address-space limit: a file that makes the
    # program allocate by its claimed size fails with MemoryError, not the host
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    path = write_example(tmp_path, "torus7", mutate=lambda d: d.update(change))
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "eqtc", "analyze", path], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60, preexec_fn=limit_memory,
    )
    assert (proc.returncode, proc.stdout) == (EXIT_INVALID, "")
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr


@pytest.mark.parametrize(
    "name, mutate, message",
    [
        ("klein-bound",
         lambda d: d["associated_space"]["fiber"].update(config={"bogus": 1, "fields": ["F7"]}),
         "$.associated_space.fiber.config: settings belong on the root problem"),
        ("klein-bound",
         lambda d: d["associated_space"]["base"].update(config={"fields": ["F7"]}),
         "$.associated_space.base.config: settings belong on the root problem"),
        ("torus7", lambda d: d.update(description=5), "$.description: must be a string"),
    ],
    ids=["config-on-fiber", "config-on-base", "description-not-a-string"],
)
def test_unread_problem_fields_are_checked(tmp_path, name, mutate, message):
    # a fiber's or base's settings would be dropped unread, so they are refused
    # like assertions on the root of an associated space
    path = write_example(tmp_path, name, mutate=mutate)
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "eqtc", "analyze", path], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (EXIT_INVALID, "")
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr


def test_main_builds_its_parser_once(tmp_path, monkeypatch, capsys):
    # one parser serves every call, so an argparse error must leave it as a
    # new one would be: each call prints what it prints in a fresh process
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "eqtc":  # the root parser, not a subcommand's
            built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    path = write_example(tmp_path, "sphere-reflection-n2")
    calls = [
        ["fixed", path, "--subgroup", "trivial"],
        ["analyze", path, "--format", "yaml"],
        ["betti"],
        ["fixed", path, "--subgroup", "trivial"],
        ["examples", "--list"],
        ["betti", path, "--field", "F2"],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    fresh = []
    for argv in calls:
        proc = subprocess.run(
            [sys.executable, "-m", "eqtc", *argv], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=60,
        )
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    for _ in range(3):
        for argv, want in zip(calls, fresh):
            try:
                code, out = run(argv)
            except SystemExit as exc:
                code, out = exc.code, ""
            assert (code, out, capsys.readouterr().err) == want, argv
    assert len(built) <= 1


def test_bad_group_cap_env_exits_invalid(tmp_path, monkeypatch):
    monkeypatch.setenv("EQTC_GROUP_ORDER_CAP", "many")
    assert run(["analyze", write_example(tmp_path, "torus7")])[0] == EXIT_INVALID


def test_unreadable_files_exit_invalid(tmp_path, capsys):
    # a directory, a file that is not UTF-8 and an output path that is a
    # directory are bad files, like a missing one
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"name": "caf\xe9"}'.encode("latin-1"))
    torus = write_example(tmp_path, "torus7")
    cases = [([verb, str(tmp_path)], "Is a directory")
             for verb in ("analyze", "betti", "fixed", "cupfind")]
    cases += [
        (["analyze", str(tmp_path / "missing.json")], "No such file or directory"),
        (["analyze", str(latin1)], "latin1.json: not UTF-8 (invalid continuation byte"),
        (["analyze", torus, "--format", "json", "--output", str(tmp_path)], "Is a directory"),
    ]
    for argv, message in cases:
        assert run(argv)[0] == EXIT_INVALID, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, argv


def test_schema_rejections():
    with pytest.raises(ProblemFormatError):
        parse_problem({"schema_version": 2, "name": "x", "vertex_count": 1,
                       "maximal_simplices": [[0]]})
    with pytest.raises(ProblemFormatError):
        parse_problem({"schema_version": 1, "name": "x", "vertex_count": 1,
                       "maximal_simplices": [[0]], "group_generators": [[0, 1]]})
    with pytest.raises(ProblemFormatError):
        parse_problem({"schema_version": 1, "name": "x", "vertex_count": 1,
                       "maximal_simplices": [[0]],
                       "asserted_facts": [{"kind": "cat", "value": 2}]})
    with pytest.raises(ProblemFormatError) as err:
        parse_problem({"schema_version": 1, "name": "x", "vertex_count": 1,
                       "maximal_simplices": [[0]],
                       "asserted_facts": [{"kind": "huh", "value": 2,
                                           "justification": "j"}]})
    assert "asserted_facts[0].kind" in str(err.value)
    # JSON true is not the integer 1, wherever an integer is read
    for path, change in (("schema_version", {"schema_version": True}),
                         ("vertex_count", {"vertex_count": True}),
                         ("maximal_simplices[0]", {"maximal_simplices": [[False]]}),
                         ("group_generators[0]", {"group_generators": [[False]]})):
        with pytest.raises(ProblemFormatError, match=re.escape(f"$.{path}:")):
            parse_problem({"schema_version": 1, "name": "x", "vertex_count": 1,
                           "maximal_simplices": [[0]], **change})


def misspell(obj: dict, key: str) -> None:
    """Rename `key` to its spelling without the last letter."""
    obj[key[:-1]] = obj.pop(key)


@pytest.mark.parametrize(
    "name, mutate, key_path",
    [
        ("ngon-rotation-6", lambda d: misspell(d, "group_generators"), "$.group_generator"),
        ("klein-bound", lambda d: misspell(d["associated_space"], "justification"),
         "$.associated_space.justificatio"),
        ("klein-bound", lambda d: d["associated_space"]["fiber"].update(_comment="x"),
         "$.associated_space.fiber._comment"),
        ("klein-bound", lambda d: misspell(d["associated_space"]["base"], "asserted_facts"),
         "$.associated_space.base.asserted_fact"),
        ("sphere-reflection-n2", lambda d: misspell(d["asserted_facts"][0], "justification"),
         "$.asserted_facts[0].justificatio"),
    ],
    ids=["root", "associated-space", "fiber", "base", "asserted-fact"],
)
def test_unknown_problem_keys_exit_invalid(tmp_path, capsys, name, mutate, key_path):
    # an ignored misspelling would change the problem silently (a file
    # without group_generators is the trivial action), so every object
    # refuses a key it does not know
    path = write_example(tmp_path, name, mutate=mutate)
    for verb in ("analyze", "betti", "fixed", "cupfind"):
        assert run([verb, path]) == (EXIT_INVALID, ""), verb
        assert capsys.readouterr().err == f"error: {key_path}: unknown key\n", verb


def test_builtins_round_trip_through_the_schema():
    for name, p in builtin_examples().items():
        assert parse_problem(problem_to_dict(p)) == p, name


def test_schema_infinity_value():
    p = parse_problem(
        {
            "schema_version": 1,
            "name": "x",
            "vertex_count": 3,
            "maximal_simplices": [[0, 1], [1, 2], [0, 2]],
            "asserted_facts": [
                {"kind": "TC", "space": "X", "side": "lower", "value": "infinity",
                 "justification": "j"}
            ],
        }
    )
    assert p.asserted_facts[0].value == float("inf")
    assert problem_to_dict(p)["asserted_facts"][0]["value"] == "infinity"


def test_associated_space_requires_justification():
    fiber = {"name": "f", "vertex_count": 3, "maximal_simplices": [[0, 1], [1, 2], [0, 2]]}
    base = {"name": "b", "vertex_count": 3, "maximal_simplices": [[0, 1], [1, 2], [0, 2]]}
    with pytest.raises(ProblemFormatError):
        parse_problem(
            {"schema_version": 1, "name": "x",
             "associated_space": {"fiber": fiber, "base": base}}
        )


def test_associated_space_root_takes_no_assertions_or_annotations():
    # each alone is refused: the root of an associated space is a formal
    # quantity, and its facts belong on the fiber or base
    fact = {"kind": "TC", "value": 2, "justification": "j"}
    for key, value in (("asserted_facts", [fact]), ("annotations", ["metrizable"])):
        data = problem_to_dict(builtin_examples()["klein-bound"])
        data[key] = value
        with pytest.raises(ProblemFormatError, match="belong on the fiber/base problems"):
            parse_problem(data)


def test_commands_reject_associated_space_files(tmp_path):
    path = write_example(tmp_path, "klein-bound")
    for cmd in (["betti", path], ["fixed", path], ["cupfind", path]):
        code, _ = run(cmd)
        assert code == EXIT_INVALID


def test_structured_format_alias(tmp_path, capsys):
    # no longer an alias of json: the flag's choices are text and json
    path = write_example(tmp_path, "torus7")
    with pytest.raises(SystemExit) as refused:
        run(["analyze", path, "--format", "structured"])
    assert refused.value.code == EXIT_INVALID
    assert "invalid choice: 'structured'" in capsys.readouterr().err


def test_group_cap_env_override(tmp_path, monkeypatch):
    path = write_example(tmp_path, "ngon-rotation-6")
    monkeypatch.setenv("EQTC_GROUP_ORDER_CAP", "3")
    code, _ = run(["analyze", path])
    assert code == EXIT_CAP
