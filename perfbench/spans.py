"""Span tracing at eqtc's module boundaries, installed from outside the package.

`Tracer.install()` replaces each boundary function listed in BOUNDARIES with a
wrapper that records one span per call: (name, start, end, parent span,
command id).  Spans stay in memory; `Tracer.dump` writes them out at the end
of a run.  A span's self time is its duration minus the durations of its
direct children; a layer's self time is the sum over its spans.

The wrappers sit at the attribute each call goes through (for example
`eqtc.bounds.ring_structure`, which is how `bounds` reaches `ring`), so a
boundary that is renamed or removed makes `install()` fail instead of the
layer silently reading as free.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter


class TraceError(RuntimeError):
    """The trace no longer matches the program it wraps."""


def _dense_entries(args, kwargs, result) -> dict[str, float]:
    mat = args[0]
    cols = len(mat[0]) if mat else 0
    return {"linalg.dense_entries": len(mat) * cols}


def _nonzero_product(args, kwargs, result) -> dict[str, float]:
    return {"ring.tensor_multiply.nonzero": 1.0 if result else 0.0}


def _zero_divisors(args, kwargs, result) -> dict[str, float]:
    return {"ring.zero_divisor_candidates": len(result.elements)}


def _subgroup_classes(args, kwargs, result) -> dict[str, float]:
    mode = args[1] if len(args) > 1 else kwargs.get("mode", "all")
    return {"group_action.subgroup_classes": len(result) if mode == "up_to_conjugacy" else 0}


def _subdivided(args, kwargs, result) -> dict[str, float]:
    return {"complex_core.subdivided_simplices": len(result[0].simplices)}


def _accepted(args, kwargs, result) -> dict[str, float]:
    return {"bounds.add_bound.accepted": 1.0 if result else 0.0}


# (owner, attribute, span name, counter hook).  An owner "module:Class" wraps
# a method on the class; a plain module path wraps the module attribute.
BOUNDARIES: tuple[tuple[str, str, str, object], ...] = (
    ("eqtc.cli", "load_problem", "problems.load_problem", None),
    ("eqtc.cli", "analyze_problem", "bounds.analyze_problem", None),
    ("eqtc.bounds", "seed_facts", "bounds.seed_facts", None),
    ("eqtc.bounds", "saturate", "bounds.saturate", None),
    ("eqtc.cli", "report", "bounds.report", None),
    ("eqtc.bounds:FactBase", "add_bound", "bounds.add_bound", _accepted),
    ("eqtc.cli", "from_maximal_simplices", "complex_core.from_maximal_simplices", None),
    ("eqtc.bounds", "from_maximal_simplices", "complex_core.from_maximal_simplices", None),
    ("eqtc.group_action", "barycentric_subdivision", "complex_core.barycentric_subdivision",
     _subdivided),
    ("eqtc.group_action", "full_subcomplex", "complex_core.full_subcomplex", None),
    ("eqtc.cli", "group_closure", "group_action.group_closure", None),
    ("eqtc.bounds", "group_closure", "group_action.group_closure", None),
    ("eqtc.cli", "validate_action", "group_action.validate_action", None),
    ("eqtc.bounds", "validate_action", "group_action.validate_action", None),
    ("eqtc.group_action", "validate_action", "group_action.validate_action", None),
    ("eqtc.cli", "regularize", "group_action.regularize", None),
    ("eqtc.bounds", "regularize", "group_action.regularize", None),
    ("eqtc.group_action", "check_regularity", "group_action.check_regularity", None),
    ("eqtc.group_action", "transport_action", "group_action.transport_action", None),
    ("eqtc.cli", "subgroups", "group_action.subgroups", _subgroup_classes),
    ("eqtc.bounds", "subgroups", "group_action.subgroups", _subgroup_classes),
    ("eqtc.group_action", "subgroups", "group_action.subgroups", _subgroup_classes),
    ("eqtc.group_action:Subgroup", "conjugate", "group_action.conjugate", None),
    ("eqtc.cli", "fixed_subcomplex", "group_action.fixed_subcomplex", None),
    ("eqtc.bounds", "fixed_subcomplex", "group_action.fixed_subcomplex", None),
    ("eqtc.group_action", "fixed_subcomplex", "group_action.fixed_subcomplex", None),
    ("eqtc.bounds", "orbit_complex", "group_action.orbit_complex", None),
    ("eqtc.bounds", "is_G_connected", "group_action.is_G_connected", None),
    ("eqtc.bounds", "has_fixed_vertex", "group_action.has_fixed_vertex", None),
    ("eqtc.bounds", "isotropy", "group_action.isotropy", None),
    ("eqtc.cli", "betti_numbers", "homology.betti_numbers", None),
    ("eqtc.ring", "cohomology_basis", "homology.cohomology_basis", None),
    ("eqtc.homology:CochainBasis", "project", "homology.project", None),
    ("eqtc.homology", "rank", "linalg.rank", _dense_entries),
    ("eqtc.homology", "nullspace", "linalg.nullspace", _dense_entries),
    ("eqtc.ring", "nullspace", "linalg.nullspace", _dense_entries),
    ("eqtc.homology", "column_space_basis", "linalg.column_space_basis", _dense_entries),
    ("eqtc.homology", "LinearSolver", "linalg.solver_build", _dense_entries),
    ("eqtc.linalg:LinearSolver", "solve", "linalg.solve", None),
    ("eqtc.cli", "ring_structure", "ring.ring_structure", None),
    ("eqtc.bounds", "ring_structure", "ring.ring_structure", None),
    ("eqtc.ring", "cup_product_cochain", "ring.cup_product_cochain", None),
    ("eqtc.cli", "kunneth_tensor_ring", "ring.kunneth_tensor_ring", None),
    ("eqtc.bounds", "kunneth_tensor_ring", "ring.kunneth_tensor_ring", None),
    ("eqtc.cli", "combined_zero_divisors", "ring.combined_zero_divisors", _zero_divisors),
    ("eqtc.bounds", "combined_zero_divisors", "ring.combined_zero_divisors", _zero_divisors),
    ("eqtc.cli", "nilpotency_lower_bound", "ring.nilpotency_lower_bound", None),
    ("eqtc.bounds", "nilpotency_lower_bound", "ring.nilpotency_lower_bound", None),
    ("eqtc.bounds", "reduced_cuplength", "ring.reduced_cuplength", None),
    ("eqtc.ring:TensorRing", "multiply", "ring.tensor_multiply", _nonzero_product),
)

ROOT_SPAN = "cli.main"  # opened by the harness around each eqtc.cli.main call


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        target = importlib.import_module(module_name)
    except ImportError as err:
        raise TraceError(f"boundary module {module_name} no longer exists") from err
    if class_name:
        if not hasattr(target, class_name):
            raise TraceError(f"boundary class {owner} no longer exists")
        target = getattr(target, class_name)
    return target


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index, command id)
        self.counters: list[tuple[int, dict[str, float]]] = []  # (command id, counts)
        self.command = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def traced(self, name: str, fn, hook=None):
        spans, stack, counters = self.spans, self._stack, self.counters

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.command)
            if hook is not None:
                counters.append((self.command, hook(args, kwargs, result)))
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, name, hook in BOUNDARIES:
            target = _resolve(owner)
            # a class attribute must be looked up in the class itself, so an
            # inherited method is not mistaken for the boundary
            present = attr in vars(target) if isinstance(target, type) else hasattr(target, attr)
            if not present:
                raise TraceError(f"boundary function {owner}.{attr} no longer exists")
            original = vars(target)[attr] if isinstance(target, type) else getattr(target, attr)
            self._patches.append((target, attr, original))
            setattr(target, attr, self.traced(name, original, hook))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tcommand\n")
            for name, start, end, parent, command in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{command}\n")


def command_profiles(tracer: Tracer) -> dict[int, dict]:
    """Per command id: root duration, self time and call count per span name, counters."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[int, dict] = defaultdict(
        lambda: {"root_s": 0.0, "self_s": defaultdict(float), "calls": defaultdict(int),
                 "counts": defaultdict(float)}
    )
    for i, (name, start, end, parent, command) in enumerate(spans):
        prof = out[command]
        prof["self_s"][name] += (end - start) - child_time[i]
        prof["calls"][name] += 1
        if parent < 0:
            prof["root_s"] += end - start
    for command, counts in tracer.counters:
        for key, value in counts.items():
            out[command]["counts"][key] += value
    return out
