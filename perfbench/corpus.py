"""Seeded problem generators and the four workload command lists.

Every generator returns a problem dictionary in the eqtc problem-file schema
(schema_version 1).  `relabel` applies a seeded vertex permutation and
conjugates the group generators to match, so the same space and action reach
the program under a different vertex numbering.  Intervals and Betti numbers
do not depend on the labeling; running time can.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, permutations, product

# ---------------------------------------------------------------------------
# spaces


def boundary_sphere(n: int) -> tuple[int, list[list[int]]]:
    """The boundary of the (n+1)-simplex: an n-sphere on n+2 vertices."""
    verts = n + 2
    return verts, [list(c) for c in combinations(range(verts), n + 1)]


def grid_torus(n: int, m: int) -> tuple[int, list[list[int]], list[tuple[int, ...]]]:
    """Freudenthal triangulation of the m^n grid with periodic identification.

    Returns the vertex count, the maximal simplices (m^n * n! of them) and
    the grid coordinates of each vertex, for building translations.
    """
    coords = list(product(range(m), repeat=n))
    vid = {c: i for i, c in enumerate(coords)}
    tops = []
    for x in coords:
        for order in permutations(range(n)):
            cur = list(x)
            simplex = [vid[x]]
            for axis in order:
                cur[axis] = (cur[axis] + 1) % m
                simplex.append(vid[tuple(cur)])
            tops.append(sorted(simplex))
    return len(coords), tops, coords


def translation(coords: list[tuple[int, ...]], m: int, axis: int) -> list[int]:
    """The grid translation by one step along `axis`, as an image array."""
    vid = {c: i for i, c in enumerate(coords)}
    out = []
    for c in coords:
        shifted = list(c)
        shifted[axis] = (shifted[axis] + 1) % m
        out.append(vid[tuple(shifted)])
    return out


def torus7() -> list[list[int]]:
    """The minimal 7-vertex torus: the Z/7 orbits of {0,1,3} and {0,2,3}."""
    tris = [sorted((i % 7, (i + 1) % 7, (i + 3) % 7)) for i in range(7)]
    tris += [sorted((i % 7, (i + 2) % 7, (i + 3) % 7)) for i in range(7)]
    return tris


def wedge_of_tori(k: int) -> tuple[int, list[list[int]]]:
    """k copies of the 7-vertex torus glued at vertex 0."""
    tops = []
    for copy in range(k):
        def vid(v: int, copy: int = copy) -> int:
            return 0 if v == 0 else 1 + 6 * copy + (v - 1)

        tops += [sorted(vid(v) for v in t) for t in torus7()]
    return 1 + 6 * k, tops


def cycle_perm(n: int, cycle: tuple[int, ...]) -> list[int]:
    """Image array of one cycle acting on 0..n-1."""
    out = list(range(n))
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        out[a] = b
    return out


def problem(name: str, vertex_count: int, tops: list[list[int]], gens: list[list[int]]) -> dict:
    data = {
        "schema_version": 1,
        "name": name,
        "vertex_count": vertex_count,
        "maximal_simplices": tops,
    }
    if gens:
        data["group_generators"] = gens
    return data


def sphere_problem(name: str, n: int, gens: list[list[int]]) -> dict:
    vc, tops = boundary_sphere(n)
    return problem(name, vc, tops, gens)


def grid_problem(name: str, n: int, m: int, axes: tuple[int, ...] = ()) -> dict:
    vc, tops, coords = grid_torus(n, m)
    return problem(name, vc, tops, [translation(coords, m, a) for a in axes])


def dihedral_problem(name: str, m: int) -> dict:
    tops = [sorted((i, (i + 1) % m)) for i in range(m)]
    rotation = [(i + 1) % m for i in range(m)]
    reflection = [(-i) % m for i in range(m)]
    return problem(name, m, tops, [rotation, reflection])


def relabel(data: dict, rng: random.Random) -> dict:
    """Apply a random vertex bijection s; a generator g becomes s g s^-1."""
    n = data["vertex_count"]
    s = list(range(n))
    rng.shuffle(s)
    out = dict(data)
    out["maximal_simplices"] = [sorted(s[v] for v in t) for t in data["maximal_simplices"]]
    rng.shuffle(out["maximal_simplices"])
    if data.get("group_generators"):
        gens = []
        for g in data["group_generators"]:
            image = [0] * n
            for v in range(n):
                image[s[v]] = s[g[v]]
            gens.append(image)
        out["group_generators"] = gens
    return out


# ---------------------------------------------------------------------------
# families: name -> (generator, known facts for the checker)
#
# `betti` is the closed-form Betti vector of X over every field; `cat` and
# `TC` are known values that every reported interval must contain.


@dataclass(frozen=True)
class Family:
    build: object  # () -> problem dict, before relabeling
    betti: tuple[int, ...] | None = None
    cat: int | None = None
    TC: int | None = None


def _binomials(n: int) -> tuple[int, ...]:
    from math import comb

    return tuple(comb(n, k) for k in range(n + 1))


def _sphere_betti(n: int) -> tuple[int, ...]:
    return (1,) + (0,) * (n - 1) + (1,)


def _sphere_tc(n: int) -> int:
    return 2 if n % 2 else 3


def _torus(n: int, m: int, axes: tuple[int, ...] = ()) -> Family:
    name = f"T{n}-grid{m}" + "".join(f"-shift{a}" for a in axes)
    return Family(lambda: grid_problem(name, n, m, axes), _binomials(n), n + 1, n + 1)


def _sphere(n: int, name: str, cycles: list[tuple[int, ...]]) -> Family:
    return Family(
        lambda: sphere_problem(name, n, [cycle_perm(n + 2, c) for c in cycles]),
        _sphere_betti(n),
        2,
        _sphere_tc(n),
    )


def _torus7_rotation() -> dict:
    return problem("torus7-rotation", 7, torus7(), [[(i + 1) % 7 for i in range(7)]])


def _wedge(k: int) -> Family:
    return Family(
        lambda: problem(f"wedge{k}-torus7", *wedge_of_tori(k), []),
        (1, 2 * k, k),
        3,
    )


def _dihedral(m: int) -> Family:
    return Family(lambda: dihedral_problem(f"{m}-gon-dihedral", m), (1, 1), 2, 2)


FAMILIES: dict[str, Family] = {
    "T3-3": _torus(3, 3),
    "T3-4": _torus(3, 4),
    "T3-6": _torus(3, 6),
    "T4-3": _torus(4, 3),
    "T2-3-Z3": _torus(2, 3, (0,)),
    "T2-4-Z4xZ4": _torus(2, 4, (0, 1)),
    # builtins: the boundary of the (n+1)-simplex with two vertices swapped,
    # the Z/5-rotated pentagon and the 7-vertex torus with the trivial group
    "sphere-reflection-n1": Family(None, _sphere_betti(1), 2, _sphere_tc(1)),
    "sphere-reflection-n2": Family(None, _sphere_betti(2), 2, _sphere_tc(2)),
    "sphere-reflection-n3": Family(None, _sphere_betti(3), 2, _sphere_tc(3)),
    "ngon-rotation-5": Family(None, _sphere_betti(1), 2, _sphere_tc(1)),
    "torus7": Family(None, _binomials(2), 3, 3),
    "torus7-Z7": Family(_torus7_rotation, _binomials(2), 3, 3),
    "S3-Z2xZ2": _sphere(3, "S3-Z2xZ2", [(0, 1), (2, 3)]),
    "S3-swap": _sphere(3, "S3-swap", [(0, 1)]),
    "S3-Z3": _sphere(3, "S3-Z3", [(0, 1, 2)]),
    "S2-S4": _sphere(2, "S2-S4", [(0, 1), (0, 1, 2, 3)]),
    "S2-A4": _sphere(2, "S2-A4", [(0, 1, 2), (1, 2, 3)]),
    "8-gon-D8": _dihedral(8),
    "12-gon-D12": _dihedral(12),
    "wedge3": _wedge(3),
    "wedge4": _wedge(4),
    "wedge5": _wedge(5),
    "wedge6": _wedge(6),
    # left out of the timed workloads for run length (see README.md)
    "S4-reflection": _sphere(4, "S4-reflection", [(0, 1)]),
    "S3-Z6": _sphere(3, "S3-Z6", [(0, 1, 2), (3, 4)]),
    "T3-3-Z3": _torus(3, 3, (0,)),
    "S4-Z3": _sphere(4, "S4-Z3", [(0, 1, 2)]),
    "T4-3-ring": Family(
        lambda: {**grid_problem("T4-grid3-ring", 4, 3),
                 "config": {"fields": ["F2"], "max_ring_simplices": 12150}},
        _binomials(4), 5, 5),
    # never finishes in subgroups() today
    "S3-S5": _sphere(3, "S3-S5", [(0, 1), (0, 1, 2, 3, 4)]),
}


def build(family: str, seed: int, copy: int = 0, variant: int = 0) -> dict:
    """The family's problem, relabeled by (seed, copy, variant)."""
    fam = FAMILIES[family]
    if fam.build is None:
        from eqtc.problems import builtin_examples, problem_to_dict

        data = problem_to_dict(builtin_examples()[family])
    else:
        data = fam.build()
    data = relabel(data, random.Random(f"{seed}/{family}/{copy}/{variant}"))
    if copy:
        data["name"] = f"{data['name']}#{copy}"
    return data


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Command:
    """One CLI call: `verb` is analyze, betti, fixed or cupfind."""

    verb: str
    family: str
    copy: int = 0
    flags: tuple[str, ...] = ()

    @property
    def file_key(self) -> str:
        return f"{self.family}#{self.copy}"

    def argv(self, path: str) -> list[str]:
        if self.verb == "analyze":
            return ["analyze", path, "--format", "json", *self.flags]
        return [self.verb, path, *self.flags]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    # seconds per pass, measured at the commit that added the workload on a
    # 2-vCPU Xeon VM; it fixes the pass count, so every run of a given
    # --seconds takes the same samples
    pass_s: float
    # spans that must record calls on this workload, or the trace is broken
    required_spans: tuple[str, ...] = ()
    # shares of traced time the workload was chosen for: (span prefixes, minimum)
    shares: tuple[tuple[tuple[str, ...], float], ...] = ()
    # span prefixes predicted to take under 10% here (the workload bypasses them)
    bypassed: tuple[str, ...] = ()


def _analyze(*families: str) -> tuple[Command, ...]:
    return tuple(Command("analyze", f) for f in families)


def _copies(verb: str, family: str, n: int, flags: tuple[str, ...] = ()) -> tuple[Command, ...]:
    """The same command on n different relabelings of one family."""
    return tuple(Command(verb, family, copy=c, flags=flags) for c in range(n))


def _interleave(*groups: tuple[Command, ...]) -> tuple[Command, ...]:
    """Round-robin over the groups: a1, b1, c1, a2, b2, c2, ..."""
    out = []
    for i in range(max(len(g) for g in groups)):
        out += [g[i] for g in groups if i < len(g)]
    return tuple(out)


WORKLOADS: dict[str, Workload] = {
    "cohomology": Workload(
        "cohomology",
        _analyze("T3-3", "T2-3-Z3", "sphere-reflection-n3", "torus7-Z7", "S3-Z2xZ2", "S3-swap")
        + (
            Command("betti", "T3-3", flags=("--field", "Q")),
            Command("betti", "T3-4", flags=("--field", "F2")),
        ),
        pass_s=8.5,
        required_spans=(
            "homology.cohomology_basis",
            "homology.betti_numbers",
            "linalg.nullspace",
            "linalg.column_space_basis",
            "linalg.rank",
            "linalg.solver_build",
        ),
        shares=((("linalg.", "homology."), 0.70),),
        bypassed=("group_action.subgroups", "complex_core.barycentric_subdivision"),
    ),
    "ring-search": Workload(
        "ring-search",
        _analyze("wedge3", "wedge4", "wedge5", "wedge6")
        + _copies("cupfind", "wedge5", 3, ("--field", "Q")),
        pass_s=7.0,
        required_spans=(
            "ring.nilpotency_lower_bound",
            "ring.tensor_multiply",
            "ring.cup_product_cochain",
            "homology.project",
            "linalg.solve",
            "ring.reduced_cuplength",
        ),
        shares=((("ring.", "linalg.solve", "homology.project"), 0.50),),
        bypassed=("group_action.", "complex_core.", "linalg.rank", "homology.betti_numbers"),
    ),
    "lattice": Workload(
        "lattice",
        # the S4 copies are spread over the pass, so their samples are too
        _interleave(
            _copies("analyze", "S2-S4", 3),
            _copies("fixed", "S2-S4", 3, ("--subgroup", "full")),
            _analyze("S2-A4", "8-gon-D8", "T2-4-Z4xZ4", "12-gon-D12"),
        ),
        pass_s=9.5,
        required_spans=("group_action.subgroups", "group_action.conjugate"),
        shares=((("group_action.subgroups",), 0.50),),
        bypassed=("linalg.", "homology.", "ring."),
    ),
    "regularize": Workload(
        "regularize",
        _copies("analyze", "S3-Z3", 3)
        + _analyze("T4-3", "T3-6")
        + (Command("fixed", "S3-Z3", flags=("--subgroup", "full")),),
        pass_s=3.0,
        required_spans=(
            "group_action.check_regularity",
            "group_action.validate_action",
            "complex_core.barycentric_subdivision",
            "group_action.orbit_complex",
            "group_action.fixed_subcomplex",
            "group_action.is_G_connected",
        ),
        shares=((("group_action.", "complex_core."), 0.60),),
    ),
}


if __name__ == "__main__":
    # one-off problem files, e.g. for the inputs left out of the timed workloads:
    #   python3 perfbench/corpus.py S4-reflection --seed 0 > s4.json
    #   PYTHONPATH=src python3 -m eqtc analyze s4.json
    import argparse
    import json
    import sys
    from pathlib import Path

    parser = argparse.ArgumentParser(description="write one seeded problem file to stdout")
    parser.add_argument("family", choices=sorted(FAMILIES))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    json.dump(build(args.family, args.seed), sys.stdout)
    print()
