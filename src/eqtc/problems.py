"""Problem files: the schema the CLI reads, plus the builtin example suite.

A problem is either a complex with a group action (vertex_count,
maximal_simplices, group_generators as image arrays), or an associated-space
declaration tying a fiber problem to a base problem.  Assertions and
annotations are user-certified facts the engine may consume; everything is
plain JSON, schema_version 1.

The schema is declared once: PROBLEM, ASSOCIATED_SPACE and FACT map each
key of their object to a Key (its check, message and default).
`parse_problem` walks these tables, with the few checks that span keys
beside them, and `problem_to_dict` writes each object in table order.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from math import inf
from typing import Callable, NamedTuple

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


REQUIRED = object()  # the default of a key that has none


class Key(NamedTuple):
    """One key of an object: the check its value must pass, the message when it
    does not, its default, for a list the check and message of each item, and
    how a value that passes is read, a function of (value, key path)."""

    check: Callable[[object], bool]
    message: str
    default: object = REQUIRED
    items: tuple = ()
    read: Callable[[object, str], object] | None = None


def _is(kind: type) -> Callable[[object], bool]:
    return lambda v: isinstance(v, kind)


def _is_int(v: object) -> bool:
    """A JSON integer: bool is a subclass of int, but true is not 1 here."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_ints(v: object) -> bool:
    return isinstance(v, list) and all(map(_is_int, v))


def _is_text(v: object) -> bool:
    return isinstance(v, str) and v != ""


def _tuples(v: list, _: str) -> tuple:
    return tuple(map(tuple, v))


# Each object's keys, in the order they are read and written.  Any other key
# is refused, so that a typo cannot turn into certified intervals for a
# different problem.
FACT = {
    "kind": Key(lambda v: v in ASSERTABLE_KINDS, f"must be one of {ASSERTABLE_KINDS}"),
    "space": Key(lambda v: v in ASSERTABLE_SPACES, f"must be one of {ASSERTABLE_SPACES}", "X"),
    "side": Key(lambda v: v in SIDES, f"must be one of {SIDES}", "equal"),
    "value": Key(lambda v: v == "infinity" or _is_int(v) and v >= 1,
                 'value must be an integer >= 1 or "infinity"',
                 read=lambda v, _: inf if v == "infinity" else v),
    "justification": Key(_is_text, "asserted facts must carry a justification string"),
}
ASSOCIATED_SPACE = {
    "fiber": Key(lambda v: v is not REQUIRED, "is required", read=lambda v, p: parse_problem(v, p)),
    "base": Key(lambda v: v is not REQUIRED, "is required", read=lambda v, p: parse_problem(v, p)),
    "justification": Key(
        _is_text, "the numerable-principal-bundle hypothesis must be certified in words"),
}
# the keys of a problem that is a complex with an action, not an associated space
_COMPLEX = {
    "vertex_count": Key(lambda v: _is_int(v) and v >= 1, "must be a positive integer"),
    "maximal_simplices": Key(
        lambda v: isinstance(v, list) and v != [], "must be a nonempty list",
        items=(lambda s: _is_ints(s) and s != [], "must be a nonempty list of integers"),
        read=_tuples),
    "group_generators": Key(_is(list), "must be a list", [],
                            (_is_ints, "must be a list of integers (the image array)"), _tuples),
    "annotations": Key(_is(list), "must be a list", [],
                       (lambda a: a in ANNOTATIONS, f"must be one of {ANNOTATIONS}"),
                       lambda v, _: tuple(v)),
    "asserted_facts": Key(
        _is(list), "must be a list", [], (_is(dict), "asserted fact must be an object"),
        lambda v, p: tuple(AssertedFact(**_object(f, FACT, f"{p}[{i}]")) for i, f in enumerate(v))),
}
PROBLEM = {
    "schema_version": Key(lambda v: _is_int(v) and v == SCHEMA_VERSION, f"must be {SCHEMA_VERSION}",
                          SCHEMA_VERSION),
    "name": Key(_is(str), "must be a string", ""),
    "description": Key(_is(str), "must be a string", ""),
    "associated_space": Key(_is(dict), "must be an object",
                            read=lambda v, p: _object(v, ASSOCIATED_SPACE, p)),
    **_COMPLEX,
    "config": Key(_is(dict), "must be an object", {}, read=lambda v, _: dict(v)),
}
PROBLEM_KEYS, ASSOCIATED_SPACE_KEYS, FACT_KEYS = map(frozenset, (PROBLEM, ASSOCIATED_SPACE, FACT))


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ProblemFormatError(f"{path}: {message}")


def _read(value: object, key: Key, path: str) -> object:
    if not key.check(value):
        raise ProblemFormatError(f"{path}: {key.message}")
    if key.items:  # a list: the path of an item is built only for one at fault
        check, message = key.items
        for i, item in enumerate(value):
            if not check(item):
                raise ProblemFormatError(f"{path}[{i}]: {message}")
    return key.read(value, path) if key.read else value


def _object(raw: dict, table: dict, path: str, cross=None) -> dict:
    """Each key of the table -> its value in raw, read, or its default; `cross`
    checks what spans keys and returns the keys to leave unread."""
    unknown = sorted(raw.keys() - table.keys())
    if unknown:
        raise ProblemFormatError(f"{path}.{unknown[0]}: unknown key")
    skip = cross(raw, path) if cross else ()
    return {key: _read(raw.get(key, spec.default), spec, f"{path}.{key}")
            for key, spec in table.items() if key not in skip}


def _problem_shape(data: dict, path: str) -> dict | tuple:
    """The checks that span a problem's keys; the keys of the shape it does not take."""
    assoc = "associated_space" in data
    _require(assoc != ("vertex_count" in data or "maximal_simplices" in data), path,
             "exactly one of (vertex_count + maximal_simplices) or associated_space is required")
    _require(path != "$" or "schema_version" in data, f"{path}.schema_version",
             PROBLEM["schema_version"].message)
    _require(path == "$" or "config" not in data, f"{path}.config",
             "settings belong on the root problem")
    _require(not (assoc and data.keys() & {"asserted_facts", "annotations"}), path,
             "assertions and annotations belong on the fiber/base problems")
    _require(not (assoc and "group_generators" in data), f"{path}.group_generators",
             "the group acts on the fiber/base problems")
    return _COMPLEX if assoc else ("associated_space",)


def parse_problem(data: dict, path: str = "$") -> Problem:
    _require(isinstance(data, dict), path, "problem must be a JSON object")
    values = _object(data, PROBLEM, path, _problem_shape)
    vc = values.get("vertex_count")
    for i, g in enumerate(values.get("group_generators", ())):
        _require(len(g) == vc, f"{path}.group_generators[{i}]",
                 f"image array must have length {vc}")
    del values["schema_version"]
    assoc = values.pop("associated_space", None)
    if assoc:
        values.update(fiber=assoc["fiber"], base=assoc["base"],
                      bundle_justification=assoc["justification"])
    return Problem(**values)


def _json(v: object) -> object:
    if isinstance(v, Problem):
        return problem_to_dict(v, top=False)
    if isinstance(v, AssertedFact):
        return _write(vars(v), FACT)
    if isinstance(v, tuple):
        return list(map(_json, v))
    return "infinity" if v == inf else v


def _write(values: dict, table: dict) -> dict:
    """The table's keys with their values as JSON, in table order, empty ones left out."""
    return {key: v for key in table if (v := _json(values[key])) not in (None, "", [], {})}


def problem_to_dict(p: Problem, top: bool = True) -> dict:
    assoc = {"fiber": p.fiber, "base": p.base, "justification": p.bundle_justification}
    return _write({**vars(p), "schema_version": SCHEMA_VERSION if top else None,
                   "associated_space": p.fiber and _write(assoc, ASSOCIATED_SPACE),
                   "config": dict(p.config)}, PROBLEM)


# Levels of JSON nesting a problem file may use; a builtin uses 5.  json and
# parse_problem recurse once or a few times per level, so a limit the reader
# counts itself, far below the interpreter's, refuses a deep file with the
# same message on every interpreter and stack size.
MAX_NESTING = 100
_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')
_NUMBERS_AND_WORDS = str.maketrans("", "", "0123456789+-.eE,: \t\n\rtruefalsn")
_STEP = {"[": 1, "{": 1, "]": -1, "}": -1}


def loads_problem(text: str) -> Problem:
    # outside strings, what is left of valid JSON is its brackets
    brackets = _STRING.sub("", text).translate(_NUMBERS_AND_WORDS)
    if max(accumulate(map(_STEP.get, brackets, repeat(0))), default=0) > MAX_NESTING:
        raise ProblemFormatError("the file nests deeper than the reader's recursion limit")
    try:
        return parse_problem(json.loads(text))
    except json.JSONDecodeError as err:
        raise ProblemFormatError(
            f"invalid JSON at line {err.lineno} column {err.colno}: {err.msg}"
        ) from err


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
    tris = [tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))) for i in range(7)]
    tris += [tuple(sorted((i, (i + 2) % 7, (i + 3) % 7))) for i in range(7)]
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
