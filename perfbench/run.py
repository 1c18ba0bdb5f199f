"""eqtc benchmark: seeded CLI workloads, closed loop, one client, one process.

    python3 perfbench/run.py --workload cohomology --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the program is imported from ./src.
One pass runs the workload's command list through `eqtc.cli.main(argv, out=...)`,
each call starting after the previous one returns.  A run makes
round(seconds / pass_s) passes, at least MIN_PASSES, each on its own
relabeling of the inputs.  Every output is checked (check.py).  The last line
of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced passes and reports the per-layer metrics from spans recorded around
the calls into each module (spans.py).  --record-reference rewrites
reference.json from the current program.  The layer table and the reasons
for each workload are in README.md.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from check import REFERENCE_PATH, check, load_reference, reference_key, summarize
from corpus import WORKLOADS, build
from spans import ROOT_SPAN, Tracer, TraceError, command_profiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_PASSES = 2
VARIANTS = 12
SETUP_PROBES = 10  # fresh interpreters, besides the run's own set-up
QUERY_VERBS = ("betti", "fixed", "cupfind")


class BenchError(RuntimeError):
    pass


def _import_program():
    """Import eqtc from this checkout's src/, never from an installed copy."""
    if not (SRC / "eqtc" / "__init__.py").is_file():
        raise BenchError(f"no eqtc sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import eqtc
    import eqtc.cli

    if Path(eqtc.__file__).resolve().parent != SRC / "eqtc":
        raise BenchError(f"imported eqtc from {eqtc.__file__}, not from {SRC}")
    return eqtc.cli


def _write_corpus(workload, seed: int, directory: Path) -> dict[str, list[str]]:
    """VARIANTS relabelings of every input; pass p runs variant p mod VARIANTS."""
    paths: dict[str, list[str]] = {}
    for cmd in workload.commands:
        if cmd.file_key in paths:
            continue
        paths[cmd.file_key] = []
        for variant in range(VARIANTS):
            path = directory / f"{cmd.file_key.replace('#', '.')}.{variant}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(build(cmd.family, seed, cmd.copy, variant), fh)
            paths[cmd.file_key].append(str(path))
    return paths


def _warm_up(cli, directory: Path) -> None:
    """One small call per verb, so lazy imports and caches are filled before timing."""
    path = directory / "warmup.json"
    cli.main(["examples", "sphere-reflection-n1", "--output", str(path)], out=io.StringIO())
    for argv in (["analyze", str(path), "--format", "json"], ["betti", str(path)],
                 ["fixed", str(path)], ["cupfind", str(path)]):
        if cli.main(argv, out=io.StringIO()) != 0:
            raise BenchError(f"warm-up call {argv[0]} failed")


def setup(workload, seed: int, directory: Path):
    """Import the program, write the corpus, warm up.  Returns (cli, paths, seconds)."""
    start = perf_counter()
    cli = _import_program()
    paths = _write_corpus(workload, seed, directory)
    _warm_up(cli, directory)
    return cli, paths, perf_counter() - start


def _setup_probe(workload_name: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter, so the import is cold."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload_name,
         "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# the closed loop


def run_pass(cli, workload, paths, reference, variant: int,
             tracer=None) -> tuple[float, list[dict]]:
    results = []
    pass_start = perf_counter()
    for cmd in workload.commands:
        variants = paths[cmd.file_key]
        argv = cmd.argv(variants[variant % len(variants)])
        out = io.StringIO()
        main = cli.main
        if tracer is not None:
            tracer.command += 1
            main = tracer.traced(ROOT_SPAN, cli.main)
        start = perf_counter()
        crash = None
        try:
            code = main(argv, out=out)
        except Exception as err:  # a crash is a failed command, not a failed run
            crash = f"raised {type(err).__name__}: {err}"
        latency = perf_counter() - start
        reason = crash or check(cmd, code, out.getvalue(), reference)
        results.append({"cmd": cmd, "latency": latency, "error": reason,
                        "command_id": tracer.command if tracer else None})
    return perf_counter() - pass_start, results


def _quantile(values: list[float], level: float) -> float:
    """Linear interpolation between the closest ranks."""
    ordered = sorted(values)
    pos = level * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _central(values) -> float:
    """Interquartile mean: the mean of what is left after dropping the lowest
    and the highest quarter of the values.

    The host's speed switches between a fast and a slow state in spells of
    seconds to a minute.  A median over passes snaps to whichever state held
    most passes, so it jumps by the whole gap between the states from one run
    to the next; this mean moves in proportion to the time spent in each, and
    still drops a stray slow call.
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def end_to_end(passes, setup_samples) -> dict:
    """Each command's latency is the interquartile mean over the run's
    passes, and the latency statistics are taken over those per-command
    values.

    Every pass runs each command once, so a command's value draws on
    samples from the whole run rather than from one moment of it.  A
    percentile of the pooled samples could instead fall between two inputs
    of different cost and jump from run to run.
    """
    commands = [r["cmd"] for r in passes[0][1]]
    typical = [_central(results[i]["latency"] for _, results in passes)
               for i in range(len(commands))]

    def latency(verbs, level):
        return _quantile([t for cmd, t in zip(commands, typical) if cmd.verb in verbs], level)

    results = [r for _, rs in passes for r in rs]
    n_analyze = sum(r["cmd"].verb == "analyze" for r in results)
    n_query = sum(r["cmd"].verb in QUERY_VERBS for r in results)
    # the highest percentile with at least ten analyze samples beyond it,
    # and never below the median
    tail_level = max(0.5, 1.0 - 10.0 / n_analyze)
    failed = sum(r["error"] is not None for r in results)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "corpus_s": (_central(t for t, _ in passes), "s",
                     f"interquartile mean of {len(passes)} passes"),
        "analyze_p50_s": (latency(("analyze",), 0.5), "s", f"{n_analyze} samples"),
        "analyze_tail_s": (latency(("analyze",), tail_level), "s",
                           f"p{100 * tail_level:.1f} of {n_analyze} samples"),
        "query_p50_s": (latency(QUERY_VERBS, 0.5), "s", f"{n_query} samples"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB", "ru_maxrss of the benchmark process"),
        "success_rate": (1.0 - failed / len(results), "ratio",
                         f"error_rate {failed / len(results):.4f} = {failed}/{len(results)}"),
        "setup_s": (statistics.median(setup_samples), "s",
                    f"median of {len(setup_samples)} set-ups"),
    }


def _accumulate(table: dict, source: dict) -> None:
    for key, value in source.items():
        table[key] = table.get(key, 0) + value


def _check_spans(r: dict, prof: dict) -> None:
    """The spans of one command must account for its wall time."""
    total_self = sum(prof["self_s"].values())
    if abs(total_self - prof["root_s"]) > 1e-6 or prof["root_s"] > r["latency"] + 1e-6 \
            or r["latency"] - prof["root_s"] > 1e-3 + 0.01 * r["latency"]:
        raise BenchError(
            f"self times of {r['cmd'].verb} {r['cmd'].family} add up to "
            f"{total_self:.6f} s, its wall time is {r['latency']:.6f} s"
        )
    if min(prof["self_s"].values()) < -1e-6:
        raise BenchError("a span's children outlast it: the span tree is broken")


def _shares(workload, self_s: list[dict]) -> list[str]:
    """The shares of traced time the workload was chosen for, and what it bypasses."""
    def share(prefixes) -> float:
        return statistics.median(
            sum(v for k, v in p.items() if k.startswith(prefixes)) / sum(p.values())
            for p in self_s)

    lines = []
    for prefixes, minimum in workload.shares:
        value = share(prefixes)
        lines.append(f"{'+'.join(prefixes)} {value:.1%} (chosen for >= {minimum:.0%}) "
                     f"{'ok' if value >= minimum else 'LOW'}")
    for prefix in workload.bypassed:
        value = share(prefix)
        lines.append(f"{prefix} {value:.1%} (bypassed, < 10%) {'ok' if value < 0.10 else 'HIGH'}")
    glue = ("bounds.", "problems.", "cli.")
    value = share(glue)
    lines.append(f"{'+'.join(glue)} {value:.1%} (< 4% on every workload) "
                 f"{'ok' if value < 0.04 else 'HIGH'}")
    return lines


def per_layer(workload, tracer, untraced_passes, traced_passes) -> tuple[dict, list[str]]:
    profiles = command_profiles(tracer)
    per_pass = []  # (self_s, calls, counts) summed over the pass
    for _, results in traced_passes:
        self_s, calls, counts = {}, {}, {}
        for r in results:
            prof = profiles[r["command_id"]]
            _check_spans(r, prof)
            _accumulate(self_s, prof["self_s"])
            _accumulate(calls, prof["calls"])
            _accumulate(counts, prof["counts"])
        per_pass.append((self_s, calls, counts))

    missing = [n for n in workload.required_spans if not any(c.get(n) for _, c, _ in per_pass)]
    if missing:
        raise BenchError(f"workload {workload.name} recorded no calls to {', '.join(missing)}")

    def med(fn) -> float:
        return statistics.median(fn(p) for p in per_pass)

    def layer_self(layer: str):
        return lambda p: sum(v for k, v in p[0].items() if k.split(".")[0] == layer)

    def span_self(name: str):
        return lambda p: p[0].get(name, 0.0)

    def span_calls(name: str):
        return lambda p: p[1].get(name, 0)

    def count(name: str):
        return lambda p: p[2].get(name, 0.0)

    def ratio(num, den):
        return lambda p: num(p) / den(p) if den(p) else 0.0

    metrics = {}
    for layer in ("cli", "problems", "complex_core", "group_action", "homology", "linalg",
                  "ring", "bounds"):
        metrics[f"{layer}.self_s"] = (med(layer_self(layer)), "s")
    for name in ("linalg.nullspace", "linalg.column_space_basis", "linalg.solver_build",
                 "linalg.rank", "linalg.solve", "homology.cohomology_basis",
                 "homology.betti_numbers", "ring.nilpotency_lower_bound",
                 "ring.reduced_cuplength", "group_action.subgroups",
                 "group_action.check_regularity", "group_action.validate_action",
                 "group_action.is_G_connected", "group_action.orbit_complex",
                 "group_action.fixed_subcomplex", "group_action.conjugate",
                 "complex_core.barycentric_subdivision", "bounds.seed_facts",
                 "bounds.saturate", "bounds.report"):
        metrics[f"{name}.self_s"] = (med(span_self(name)), "s")
    for name in ("ring.tensor_multiply", "ring.cup_product_cochain", "homology.project",
                 "linalg.solve", "group_action.conjugate"):
        metrics[f"{name}.calls"] = (med(span_calls(name)), "count")
    for name in ("linalg.dense_entries", "ring.zero_divisor_candidates",
                 "group_action.subgroup_classes", "complex_core.subdivided_simplices"):
        metrics[name] = (med(count(name)), "count")
    metrics["ring.tensor_multiply.nonzero_ratio"] = (
        med(ratio(count("ring.tensor_multiply.nonzero"), span_calls("ring.tensor_multiply"))),
        "ratio")
    metrics["bounds.add_bound.accept_ratio"] = (
        med(ratio(count("bounds.add_bound.accepted"), span_calls("bounds.add_bound"))), "ratio")
    metrics["trace.overhead_s"] = (
        statistics.median(t for t, _ in traced_passes)
        - statistics.median(t for t, _ in untraced_passes), "s")
    return metrics, _shares(workload, [self_s for self_s, _, _ in per_pass])


# ---------------------------------------------------------------------------


def _measure(cli, workload, paths, reference, seconds: float, traced: bool) -> dict:
    """Run the passes.  Their number follows from --seconds and the workload's
    nominal pass time, so runs with the same --seconds take the same samples
    and the tail percentile sits at the same level in every run."""
    tracer = Tracer() if traced else None
    if traced:
        # a round is an untraced and a traced pass, and tracing slows a pass
        # by up to half, so a round takes about 2.5 untraced passes
        rounds = max(1, round(seconds / (2.5 * workload.pass_s)))
    else:
        rounds = max(MIN_PASSES, round(seconds / workload.pass_s))
    untraced, traced_passes = [], []
    for variant in range(rounds):
        untraced.append(run_pass(cli, workload, paths, reference, variant))
        if traced:
            tracer.install()
            try:
                traced_passes.append(run_pass(cli, workload, paths, reference, variant, tracer))
            finally:
                tracer.uninstall()
    return {"tracer": tracer, "untraced": untraced, "traced": traced_passes}


def _emit(results, metrics: dict) -> None:
    failed = sum(r["error"] is not None for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, *_) in metrics.items()},
    }))


def record_reference() -> None:
    reference = {}
    with tempfile.TemporaryDirectory(dir=_workdir()) as tmp:
        for workload in WORKLOADS.values():
            cli, paths, _ = setup(workload, 0, Path(tmp))
            for cmd in workload.commands:
                out = io.StringIO()
                if cli.main(cmd.argv(paths[cmd.file_key][0]), out=out) != 0:
                    raise BenchError(f"{cmd} failed while recording the reference")
                reference[reference_key(cmd)] = summarize(cmd, out.getvalue())
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _workdir() -> Path:
    WORK.mkdir(exist_ok=True)
    return WORK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from the current program")
    args = parser.parse_args(argv)

    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]

    with tempfile.TemporaryDirectory(dir=_workdir()) as tmp:
        if args.setup_probe:
            print(setup(workload, args.seed, Path(tmp))[2])
            return 0
        # set-up is sampled before and after the passes, so its median does not
        # rest on one moment of a host whose speed drifts
        probes = 0 if args.trace else SETUP_PROBES
        setup_samples = [_setup_probe(workload.name, args.seed) for _ in range(probes // 2)]
        cli, paths, seconds = setup(workload, args.seed, Path(tmp))
        setup_samples.append(seconds)
        run = _measure(cli, workload, paths, load_reference(), args.seconds, bool(args.trace))
        setup_samples += [_setup_probe(workload.name, args.seed)
                          for _ in range(probes - probes // 2)]

    results = [r for _, rs in run["untraced"] + run["traced"] for r in rs]
    for r in results:
        if r["error"] is not None:
            print(f"FAILED {r['cmd'].verb} {r['cmd'].family}: {r['error']}")
    if args.trace:
        trace_dir = _workdir() / "traces"
        trace_dir.mkdir(exist_ok=True)
        run["tracer"].dump(trace_dir / f"{workload.name}-seed{args.seed}.tsv")
        metrics, shares = per_layer(workload, run["tracer"], run["untraced"], run["traced"])
        for line in shares:
            print(f"share {line}")
    else:
        metrics = end_to_end(run["untraced"], setup_samples)
    print(f"workload {workload.name}, seed {args.seed}: {len(run['untraced'])} untraced and "
          f"{len(run['traced'])} traced passes, closed loop, 1 client")
    for name, (value, unit, *note) in metrics.items():
        print(f"{name:44s} {value:14.6f} {unit:6s} {note[0] if note else ''}")
    _emit(results, metrics)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, TraceError) as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        sys.exit(1)
