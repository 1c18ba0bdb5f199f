"""Self-test of the benchmark harness on eqtc's builtin examples, in a few seconds.

    python3 perfbench/selftest.py            # or: python3 -m pytest perfbench/selftest.py

It runs the harness end to end (set-up, closed loop, checker, traced passes,
metrics) on a small workload of builtins, and checks that the metric names
match BENCHMARK.json, that the checker rejects wrong outputs, and that the
trace refuses to run when a boundary it wraps has gone.
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
from check import check, reference_key, summarize  # noqa: E402
from corpus import Command, Workload  # noqa: E402

BUILTINS = Workload(
    "builtins",
    tuple(Command("analyze", f) for f in (
        "sphere-reflection-n1", "sphere-reflection-n2", "ngon-rotation-5", "torus7"))
    + (
        Command("betti", "torus7", flags=("--field", "F3")),
        Command("fixed", "sphere-reflection-n2", flags=("--subgroup", "full")),
        Command("cupfind", "torus7", flags=("--field", "Q")),
    ),
    pass_s=0.5,
    required_spans=("homology.cohomology_basis", "group_action.subgroups",
                    "ring.tensor_multiply", "bounds.add_bound"),
    shares=((("homology.", "linalg."), 0.01),),
    bypassed=("complex_core.barycentric_subdivision",),
)


def _benchmark_json() -> dict:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _prepared(directory: Path):
    cli, paths, seconds = run.setup(BUILTINS, 7, directory)
    reference = {}
    for cmd in BUILTINS.commands:
        out = io.StringIO()
        assert cli.main(cmd.argv(paths[cmd.file_key][0]), out=out) == 0
        reference[reference_key(cmd)] = summarize(cmd, out.getvalue())
    return cli, paths, seconds, reference


def test_harness_end_to_end():
    spec = _benchmark_json()
    with tempfile.TemporaryDirectory(dir=run._workdir()) as tmp:
        cli, paths, seconds, reference = _prepared(Path(tmp))
        plain = run._measure(cli, BUILTINS, paths, reference, 0.0, traced=False)
        traced = run._measure(cli, BUILTINS, paths, reference, 0.0, traced=True)
    assert seconds > 0
    passes = plain["untraced"] + traced["untraced"] + traced["traced"]
    assert all(r["error"] is None for _, results in passes for r in results)
    assert len(plain["untraced"]) == run.MIN_PASSES

    e2e = run.end_to_end(plain["untraced"], [seconds])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit, _) in e2e.items()]
    assert all(value > 0 for value, _, _ in e2e.values())

    layer, shares = run.per_layer(BUILTINS, traced["tracer"], traced["untraced"],
                                  traced["traced"])
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (_, unit) in layer.items()]
    assert layer["ring.tensor_multiply.calls"][0] > 0
    assert 0 < layer["bounds.add_bound.accept_ratio"][0] <= 1
    assert shares and all(" ok" in s or " LOW" in s or " HIGH" in s for s in shares)


def test_checker_rejects_wrong_outputs():
    with tempfile.TemporaryDirectory(dir=run._workdir()) as tmp:
        cli, paths, _, reference = _prepared(Path(tmp))
        analyze = Command("analyze", "torus7")
        out = io.StringIO()
        cli.main(analyze.argv(paths[analyze.file_key][0]), out=out)
    report = json.loads(out.getvalue())
    assert check(analyze, 0, out.getvalue(), reference) is None
    assert check(analyze, 3, out.getvalue(), reference) == "exit code 3"

    looser = json.loads(out.getvalue())
    q = next(q for q in looser["quantities"] if q["kind"] == "cat" and q["space"] == "X")
    q["upper"] = "infinity"
    assert "looser" in check(analyze, 0, json.dumps(looser), reference)

    excluded = json.loads(out.getvalue())
    q = next(q for q in excluded["quantities"] if q["kind"] == "cat" and q["space"] == "X")
    q["lower"], q["upper"] = "4", "5"
    assert "excludes the known value" in check(analyze, 0, json.dumps(excluded), reference)

    wrong_betti = report
    wrong_betti["contexts"][0]["spaces"][0]["betti"]["Q"] = [1, 1, 1]
    assert "Betti" in check(analyze, 0, json.dumps(wrong_betti), reference)

    betti = Command("betti", "torus7", flags=("--field", "F3"))
    assert check(betti, 0, "1 2 1\n", reference) is None
    assert "Betti" in check(betti, 0, "1 1 1\n", reference)
    cupfind = Command("cupfind", "torus7", flags=("--field", "Q"))
    assert "below the reference" in check(
        cupfind, 0, "zero-divisor length 1, certificate [x]\n", reference)


def test_trace_fails_when_a_boundary_is_gone():
    saved = spans.BOUNDARIES
    spans.BOUNDARIES = saved + (("eqtc.ring", "no_such_function", "ring.gone", None),)
    tracer = spans.Tracer()
    try:
        tracer.install()
    except spans.TraceError as err:
        assert "no_such_function" in str(err)
    else:
        raise AssertionError("install() accepted a missing boundary")
    finally:
        tracer.uninstall()
        spans.BOUNDARIES = saved


def test_missing_required_span_is_an_error():
    starved = Workload("starved", (Command("betti", "torus7", flags=("--field", "F3")),),
                       pass_s=0.5, required_spans=("group_action.subgroups",))
    with tempfile.TemporaryDirectory(dir=run._workdir()) as tmp:
        cli, paths, _, reference = _prepared(Path(tmp))
        traced = run._measure(cli, starved, paths, reference, 0.0, traced=True)
    try:
        run.per_layer(starved, traced["tracer"], traced["untraced"], traced["traced"])
    except run.BenchError as err:
        assert "group_action.subgroups" in str(err)
    else:
        raise AssertionError("a workload without its required spans passed")


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
