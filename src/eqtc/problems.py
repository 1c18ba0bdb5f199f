"""Problem files: the schema the CLI reads, plus the builtin example suite.

A problem is either a complex with a group action (vertex_count,
maximal_simplices, group_generators as image arrays), or an associated-space
declaration tying a fiber problem to a base problem.  Assertions and
annotations are user-certified facts the engine may consume; everything is
plain JSON, schema_version 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import inf

SCHEMA_VERSION = 1

ANNOTATIONS = (
    "free_action",
    "metrizable",
    "topological_group_homomorphism_action",
    "left_translation_action",
)

ASSERTABLE_KINDS = ("cat", "TC", "cat_G", "TC_G")
ASSERTABLE_SPACES = ("X", "XxX", "orbit")
SIDES = ("lower", "upper", "equal")


# the keys each object may carry; any other key is refused, so that a typo
# cannot turn into certified intervals for a different problem
PROBLEM_KEYS = frozenset({
    "schema_version", "name", "description", "vertex_count", "maximal_simplices",
    "group_generators", "annotations", "asserted_facts", "associated_space", "config",
})
ASSOCIATED_SPACE_KEYS = frozenset({"fiber", "base", "justification"})
FACT_KEYS = frozenset({"kind", "space", "side", "value", "justification"})


class ProblemFormatError(ValueError):
    """Schema violation; the message names the offending key path."""


@dataclass(frozen=True)
class AssertedFact:
    kind: str
    space: str
    side: str
    value: object  # int >= 1 or inf
    justification: str


@dataclass(frozen=True)
class Problem:
    name: str
    vertex_count: int | None = None
    maximal_simplices: tuple[tuple[int, ...], ...] = ()
    group_generators: tuple[tuple[int, ...], ...] = ()
    annotations: tuple[str, ...] = ()
    asserted_facts: tuple[AssertedFact, ...] = ()
    fiber: "Problem | None" = None
    base: "Problem | None" = None
    bundle_justification: str = ""
    config: dict = field(default_factory=dict, hash=False, compare=False)
    description: str = ""

    @property
    def is_associated_space(self) -> bool:
        return self.fiber is not None


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ProblemFormatError(f"{path}: {message}")


def _require_known_keys(raw: dict, known: frozenset, path: str) -> None:
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ProblemFormatError(f"{path}.{unknown[0]}: unknown key")


def _is_int(v: object) -> bool:
    """A JSON integer: bool is a subclass of int, but true is not 1 here."""
    return isinstance(v, int) and not isinstance(v, bool)


def _parse_value(raw: object, path: str) -> object:
    if raw == "infinity":
        return inf
    _require(_is_int(raw) and raw >= 1, path, "value must be an integer >= 1 or \"infinity\"")
    return raw


def _parse_fact(raw: dict, path: str) -> AssertedFact:
    _require(isinstance(raw, dict), path, "asserted fact must be an object")
    _require_known_keys(raw, FACT_KEYS, path)
    kind = raw.get("kind")
    _require(kind in ASSERTABLE_KINDS, f"{path}.kind", f"must be one of {ASSERTABLE_KINDS}")
    space = raw.get("space", "X")
    _require(space in ASSERTABLE_SPACES, f"{path}.space", f"must be one of {ASSERTABLE_SPACES}")
    side = raw.get("side", "equal")
    _require(side in SIDES, f"{path}.side", f"must be one of {SIDES}")
    value = _parse_value(raw.get("value"), f"{path}.value")
    justification = raw.get("justification", "")
    _require(
        isinstance(justification, str) and justification != "",
        f"{path}.justification",
        "asserted facts must carry a justification string",
    )
    return AssertedFact(kind, space, side, value, justification)


def parse_problem(data: dict, path: str = "$") -> Problem:
    _require(isinstance(data, dict), path, "problem must be a JSON object")
    _require_known_keys(data, PROBLEM_KEYS, path)
    version = data.get("schema_version", SCHEMA_VERSION if path != "$" else None)
    _require(_is_int(version) and version == SCHEMA_VERSION, f"{path}.schema_version",
             f"must be {SCHEMA_VERSION}")
    name = data.get("name", "")
    _require(isinstance(name, str), f"{path}.name", "must be a string")

    has_complex = "vertex_count" in data or "maximal_simplices" in data
    has_assoc = "associated_space" in data
    _require(
        has_complex != has_assoc,
        path,
        "exactly one of (vertex_count + maximal_simplices) or associated_space is required",
    )

    _require(path == "$" or "config" not in data, f"{path}.config",
             "settings belong on the root problem")
    config = data.get("config", {})
    _require(isinstance(config, dict), f"{path}.config", "must be an object")
    description = data.get("description", "")
    _require(isinstance(description, str), f"{path}.description", "must be a string")

    if has_assoc:
        assoc = data["associated_space"]
        _require(isinstance(assoc, dict), f"{path}.associated_space", "must be an object")
        _require_known_keys(assoc, ASSOCIATED_SPACE_KEYS, f"{path}.associated_space")
        for key in ("fiber", "base"):
            _require(key in assoc, f"{path}.associated_space.{key}", "is required")
        fiber = parse_problem(assoc["fiber"], f"{path}.associated_space.fiber")
        base = parse_problem(assoc["base"], f"{path}.associated_space.base")
        justification = assoc.get("justification", "")
        _require(
            isinstance(justification, str) and justification != "",
            f"{path}.associated_space.justification",
            "the numerable-principal-bundle hypothesis must be certified in words",
        )
        _require(
            "asserted_facts" not in data and "annotations" not in data,
            path,
            "assertions and annotations belong on the fiber/base problems",
        )
        return Problem(
            name=name,
            fiber=fiber,
            base=base,
            bundle_justification=justification,
            config=config,
            description=description,
        )

    vc = data.get("vertex_count")
    _require(_is_int(vc) and vc >= 1, f"{path}.vertex_count", "must be a positive integer")
    maximal = data.get("maximal_simplices")
    _require(
        isinstance(maximal, list) and maximal,
        f"{path}.maximal_simplices",
        "must be a nonempty list",
    )
    simplices = []
    for i, s in enumerate(maximal):
        _require(
            isinstance(s, list) and s and all(map(_is_int, s)),
            f"{path}.maximal_simplices[{i}]",
            "must be a nonempty list of integers",
        )
        simplices.append(tuple(s))

    raw_generators = data.get("group_generators", [])
    _require(isinstance(raw_generators, list), f"{path}.group_generators", "must be a list")
    generators = []
    for i, g in enumerate(raw_generators):
        _require(
            isinstance(g, list) and all(map(_is_int, g)),
            f"{path}.group_generators[{i}]",
            "must be a list of integers (the image array)",
        )
        _require(
            len(g) == vc,
            f"{path}.group_generators[{i}]",
            f"image array must have length {vc}",
        )
        generators.append(tuple(g))

    annotations = data.get("annotations", [])
    _require(isinstance(annotations, list), f"{path}.annotations", "must be a list")
    for i, a in enumerate(annotations):
        _require(a in ANNOTATIONS, f"{path}.annotations[{i}]", f"must be one of {ANNOTATIONS}")

    raw_facts = data.get("asserted_facts", [])
    _require(isinstance(raw_facts, list), f"{path}.asserted_facts", "must be a list")
    facts = tuple(
        _parse_fact(raw, f"{path}.asserted_facts[{i}]") for i, raw in enumerate(raw_facts)
    )

    return Problem(
        name=name,
        vertex_count=vc,
        maximal_simplices=tuple(simplices),
        group_generators=tuple(generators),
        annotations=tuple(annotations),
        asserted_facts=facts,
        config=config,
        description=description,
    )


def problem_to_dict(p: Problem, top: bool = True) -> dict:
    out: dict = {}
    if top:
        out["schema_version"] = SCHEMA_VERSION
    out["name"] = p.name
    if p.description:
        out["description"] = p.description
    if p.is_associated_space:
        out["associated_space"] = {
            "fiber": problem_to_dict(p.fiber, top=False),
            "base": problem_to_dict(p.base, top=False),
            "justification": p.bundle_justification,
        }
    else:
        out["vertex_count"] = p.vertex_count
        out["maximal_simplices"] = [list(s) for s in p.maximal_simplices]
        if p.group_generators:
            out["group_generators"] = [list(g) for g in p.group_generators]
        if p.annotations:
            out["annotations"] = list(p.annotations)
        if p.asserted_facts:
            out["asserted_facts"] = [
                {
                    "kind": f.kind,
                    "space": f.space,
                    "side": f.side,
                    "value": "infinity" if f.value == inf else f.value,
                    "justification": f.justification,
                }
                for f in p.asserted_facts
            ]
    if p.config:
        out["config"] = dict(p.config)
    return out


def loads_problem(text: str) -> Problem:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ProblemFormatError(
            f"invalid JSON at line {err.lineno} column {err.colno}: {err.msg}"
        ) from err
    return parse_problem(data)


def load_problem(path: str) -> Problem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as err:
        raise ProblemFormatError(f"{path}: not UTF-8 ({err.reason} at byte {err.start})") from None
    return loads_problem(text)


def dumps_problem(p: Problem) -> str:
    return json.dumps(problem_to_dict(p), indent=2) + "\n"


# ---------------------------------------------------------------------------
# builtin examples


def _sphere_complex(n: int) -> tuple[int, list[list[int]]]:
    from itertools import combinations

    verts = n + 2
    return verts, [list(c) for c in combinations(range(verts), n + 1)]


def _sphere_reflection(n: int, facts: tuple[AssertedFact, ...]) -> Problem:
    vc, maximal = _sphere_complex(n)
    swap = [1, 0] + list(range(2, vc))
    return Problem(
        name=f"sphere-reflection-n{n}",
        description=(
            f"Boundary of the {n + 1}-simplex (an {n}-sphere) with the order-two "
            "action swapping two vertices, i.e. a reflection through the equator."
        ),
        vertex_count=vc,
        maximal_simplices=tuple(tuple(s) for s in maximal),
        group_generators=(tuple(swap),),
        asserted_facts=facts,
    )


def _ngon_rotation(m: int) -> Problem:
    return Problem(
        name=f"ngon-rotation-{m}",
        description=f"The {m}-gon circle model with the free rotation action of Z/{m}.",
        vertex_count=m,
        maximal_simplices=tuple((i, (i + 1) % m) for i in range(m)),
        group_generators=(tuple((i + 1) % m for i in range(m)),),
        annotations=("free_action", "metrizable"),
    )


def _torus7() -> Problem:
    tris = [tuple(sorted((i % 7, (i + 1) % 7, (i + 3) % 7))) for i in range(7)]
    tris += [tuple(sorted((i % 7, (i + 2) % 7, (i + 3) % 7))) for i in range(7)]
    return Problem(
        name="torus7",
        description="Minimal 7-vertex triangulation of the torus, trivial group.",
        vertex_count=7,
        maximal_simplices=tuple(tris),
    )


def builtin_examples() -> dict[str, Problem]:
    cat_g_2 = AssertedFact(
        "cat_G",
        "X",
        "equal",
        2,
        "two invariant open half-spheres around the fixed equator deform "
        "equivariantly onto orbits, and the sphere is not G-contractible",
    )
    examples: dict[str, Problem] = {}
    for n in (1, 2, 3):
        facts = () if n == 1 else (cat_g_2,)
        p = _sphere_reflection(n, facts)
        examples[p.name] = p
    for m in range(3, 9):
        p = _ngon_rotation(m)
        examples[p.name] = p
    hexagon = Problem(
        name="ngon-antipodal",
        description="Hexagon circle model with the free antipodal Z/2 action.",
        vertex_count=6,
        maximal_simplices=tuple((i, (i + 1) % 6) for i in range(6)),
        group_generators=((3, 4, 5, 0, 1, 2),),
        annotations=("free_action", "metrizable"),
    )
    examples[hexagon.name] = hexagon
    examples["torus7"] = _torus7()

    fiber = _sphere_reflection(
        2,
        (
            AssertedFact(
                "TC_G",
                "X",
                "equal",
                3,
                "reflection on the 2-sphere: the fixed equator is connected, "
                "equivariant category 2 gives the upper bound 2*2-1 and the "
                "nonequivariant complexity of the even sphere gives the lower bound",
            ),
        ),
    )
    base = Problem(
        name="circle-base",
        description="Circle base of the bundle, with its known motion planner.",
        vertex_count=4,
        maximal_simplices=tuple((i, (i + 1) % 4) for i in range(4)),
        asserted_facts=(
            AssertedFact(
                "TC",
                "X",
                "equal",
                2,
                "the circle has a two-rule motion planner (geodesics plus a "
                "detour rule at antipodes) and is not contractible",
            ),
        ),
    )
    examples["klein-bound"] = Problem(
        name="klein-bound",
        description=(
            "Generalized Klein bottle as the sphere bundle associated to the "
            "antipodal circle double cover; bounds its complexity by the "
            "product of the equivariant fiber complexity and the base complexity."
        ),
        fiber=fiber,
        base=base,
        bundle_justification=(
            "the antipodal double cover of the circle is a numerable principal "
            "Z/2-bundle (the base is a CW complex); the mapping torus of the "
            "reflection is its associated sphere bundle"
        ),
    )
    return examples
