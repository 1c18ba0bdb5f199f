"""Saturation engine deriving intervals for cat, TC, cat_G, TC_G with provenance.

Facts live in a FactBase: quantities (invariant kind + space + acting group)
with best-known lower/upper values.  A bound is one `Bound` record from rule
to report: the seeds and every rule propose unnumbered Bounds that name
their rule, `FactBase.add_bound` numbers and logs each one that improves a
value, and that same record is then the quantity's best side and, when the
two sides clash, half of an inconsistency.  Its premises point at earlier
bounds, its certificate at a computation or a user-asserted fact.  Rules
encode standard inequalities between these invariants; saturation applies
them to a fixed point, which exists because every rule is monotone and
values live in a finite lattice (integers up to the seeded maxima, plus
infinity).  A rule applies where its hypotheses hold, and only between
quantities the context registers: `_register_quantities` alone says which
invariants a context has.

Hypotheses that a finite model cannot decide (free action, metrizability,
acting by homomorphisms, bundle numerability) only enter as user-certified
annotations and are marked as such in provenance.  Empty fixed-point sets
count as connected for G-connectivity; every derivation consuming that
convention carries a caveat.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from math import ceil, inf, isinf

from eqtc.complex_core import (
    CellComplex,
    SimplicialComplex,
    from_maximal_simplices,
    subdivision_f_vector,
)
from eqtc.group_action import (
    FiniteGroup,
    RegularAction,
    Subgroup,
    fixed_subcomplex,
    group_closure,
    has_fixed_vertex,
    is_G_connected,
    isotropy,
    orbit_complex,
    regularize,
    subgroups,
    validate_action,
)
from eqtc.homology import parse_field
from eqtc.problems import Problem, ProblemFormatError
from eqtc.ring import (
    ProductCertificate,
    combined_zero_divisors,
    kunneth_tensor_ring,
    nilpotency_lower_bound,
    reduced_cuplength,
    ring_structure,
)

Value = object  # int >= 1 or math.inf


def fmt_value(v: Value) -> str:
    return "infinity" if isinf(v) else str(v)


@dataclass(frozen=True)
class EngineConfig:
    fields: tuple[str, ...] = ("F2", "F3", "Q")
    depth_cap: int | None = None  # None: the default of each search in eqtc.ring
    subgroup_mode: str = "conjugacy"  # or "all"
    group_order_cap: int = 10_000
    subgroup_cap: int = 256
    max_ring_simplices: int = 4_000

    def __post_init__(self) -> None:
        """Every setting is checked here, so no way of building a config skips a check."""
        f = self.fields
        if not (isinstance(f, (list, tuple)) and f and all(isinstance(n, str) for n in f)):
            raise ProblemFormatError("config.fields: must list one or more field names")
        object.__setattr__(self, "fields", tuple(f))
        if self.subgroup_mode not in ("conjugacy", "all"):
            raise ProblemFormatError("config.subgroup_mode: must be 'conjugacy' or 'all'")
        for name in ("depth_cap", "group_order_cap", "subgroup_cap", "max_ring_simplices"):
            value = getattr(self, name)
            if value is None and name == "depth_cap":
                continue
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ProblemFormatError(f"config.{name}: must be an integer >= 1, got {value!r}")
        seen: set[str] = set()
        for name in self.fields:
            parse_field(name)
            if name in seen:  # a field has one spelling, so an equal name is the same field
                raise ProblemFormatError(f"config.fields: {name} is listed more than once")
            seen.add(name)

    @staticmethod
    def from_problem(problem: Problem, **overrides) -> "EngineConfig":
        known = {f.name for f in fields(EngineConfig)}
        for key in problem.config:
            if key not in known:
                raise ProblemFormatError(f"config.{key}: unknown configuration key")
        overrides = {k: v for k, v in overrides.items() if v is not None}
        return EngineConfig(**{**problem.config, **overrides})


@dataclass(frozen=True)
class Quantity:
    kind: str  # cat | TC | cat_G | TC_G
    space: str  # space key within a context
    group: str | None = None  # None | "G" | "H<k>" | "GxG"


CAT_X = Quantity("cat", "X")
TC_X = Quantity("TC", "X")
CAT_XX = Quantity("cat", "XxX")
CAT_ORBIT = Quantity("cat", "orbit")
CAT_G = Quantity("cat_G", "X", "G")
TC_G = Quantity("TC_G", "X", "G")
CAT_G_XX = Quantity("cat_G", "XxX", "G")  # diagonal action
CAT_GXG_XX = Quantity("cat_G", "XxX", "GxG")  # product action
TC_ASSOC = Quantity("TC", "assoc")  # the formal associated space X_G


@dataclass(frozen=True)
class Bound:
    """One side of a quantity's interval and its provenance.  The id is None
    until `FactBase.add_bound` records the bound, and stays None for the
    trivial bound (1 or infinity, no rule) a quantity starts from."""

    context: str
    quantity: Quantity
    side: str  # lower | upper
    value: Value
    rule: str = ""
    premises: tuple[int, ...] = ()
    certificate: dict | None = None
    hypotheses: tuple[str, ...] = ()
    caveats: tuple[str, ...] = ()
    id: int | None = None


RULE_STATEMENTS: dict[str, str] = {
    "DISC": "a space with more than one path component admits no motion planner with "
    "finitely many domains of continuity: TC = infinity",
    "ASSERT": "user-asserted fact (taken on trust, see justification)",
    "R1": "TC of a space exceeds the number of factors in any nonzero product of "
    "zero-divisors in its cohomology tensor square, over any field",
    "R2": "cat of a path-connected space exceeds the number of factors in any nonzero "
    "product of positive-degree cohomology classes (Svarc's sectional-category bound)",
    "R3": "cat(X) <= TC(X) <= cat(X x X) for a path-connected space",
    "R4": "TC(X) <= 2 dim(X) + 1 for a path-connected paracompact space",
    "R4b": "cat(X) <= dim(X) + 1 for a connected complex (classical companion to the "
    "dimension bound for TC; not part of the equivariant theory)",
    "R5": "cat(X x X) <= 2 cat(X) - 1 for a connected finite complex (product "
    "inequality, trivial-group case)",
    "R6": "cat_G(X) >= cat(X/G); equality when a compact group acts freely on a "
    "metrizable space",
    "R7": "TC(X^H) <= TC_G(X) for every closed subgroup H of G",
    "R8": "TC_K(X) <= TC_G(X) for every closed subgroup K of G",
    "R9": "a G-space with a disconnected fixed set X^H is not G-connected and has "
    "TC_G(X) = infinity",
    "R10": "TC_G(X) <= cat_G(X x X) for a G-connected space (diagonal action)",
    "R11": "cat_H(X) <= TC_G(X) for a G-connected space and H the isotropy group of a point",
    "R12": "cat_G(X) <= TC_G(X) <= 2 cat_G(X) - 1 for a G-connected space with a fixed point",
    "R14": "cat_G(X x Y) <= cat_G(X) + cat_G(Y) - 1 for G-connected spaces with "
    "X^G or Y^G nonempty (diagonal action); instantiated with Y = X",
    "R15": "cat_{GxK}(X x Y) <= cat_G(X) + cat_K(Y) - 1 for path-connected spaces "
    "(product action); instantiated with Y = X and K = G",
    "R16": "TC_G(X) = cat_G(X) when a G-connected topological group X carries an "
    "action by group homomorphisms",
    "R17": "TC_G(G) = cat(G) for a connected metrizable group acting on itself by "
    "left translations",
    "R18": "TC(X_G) <= TC_G(X) * TC(B) for the fiber space X_G = E x_G X associated "
    "to a numerable principal G-bundle E -> B",
    "R19": "TC(X) <= TC_G(X)",
}

@dataclass
class SpaceInfo:
    key: str
    display: str
    complex: CellComplex | None  # None for formal spaces; a DeltaComplex for X/G
    empty: bool = False
    dim: int | None = None
    connected: bool | None = None
    simplex_count: int | None = None
    betti: dict[str, tuple[int, ...]] = field(default_factory=dict)
    # field name -> (R1 zero-divisor, R2 cup-length ProductCertificate), None if disconnected
    certificates: dict[str, tuple | None] = field(default_factory=dict)
    analyzed: bool = False
    skip_reason: str | None = None


@dataclass
class SubgroupClassInfo:
    key: str
    display: str
    subgroup: Subgroup
    fixed_space: str | None  # space key; "X" for the trivial class


@dataclass
class ProblemContext:
    name: str  # "" for the root, else "fiber" / "base"
    problem: Problem
    regular: RegularAction | None = None
    equivariant: bool = False
    classes: list[SubgroupClassInfo] = field(default_factory=list)
    spaces: dict[str, SpaceInfo] = field(default_factory=dict)
    g_connected: bool | None = None
    g_connected_witness: tuple[str, int] | None = None  # (class display, components)
    empty_fixed_classes: tuple[str, ...] = ()
    fixed_vertex: bool | None = None
    isotropy_classes: tuple[str, ...] = ()
    notes: list[str] = field(default_factory=list)

    def label(self) -> str:
        return self.name or "root"


class FactBase:
    """Quantities with best bounds, the full bound log, and inconsistencies."""

    def __init__(self, config: EngineConfig):
        self.config = config
        self.contexts: dict[str, ProblemContext] = {}
        self.bounds: list[Bound] = []
        self.best: dict[tuple[str, Quantity], dict[str, Bound]] = {}
        self.inconsistencies: list[tuple[Bound, Bound]] = []  # (lower, upper) that clash

    def register(self, ctx: str, q: Quantity) -> None:
        self.best.setdefault((ctx, q), {"lower": Bound(ctx, q, "lower", 1),
                                        "upper": Bound(ctx, q, "upper", inf)})

    def is_registered(self, ctx: str, q: Quantity) -> bool:
        return (ctx, q) in self.best

    def lower(self, ctx: str, q: Quantity) -> Bound:
        return self.best[(ctx, q)]["lower"]

    def upper(self, ctx: str, q: Quantity) -> Bound:
        return self.best[(ctx, q)]["upper"]

    def add_bound(self, bound: Bound) -> bool:
        """Number and record the bound if it improves the current best; returns True if it did."""
        side, value = bound.side, bound.value
        if side not in ("lower", "upper"):
            raise AssertionError(f"bound side must be 'lower' or 'upper', got {side!r}")
        if not (isinf(value) or (isinstance(value, int) and value >= 1)):
            raise AssertionError(f"bound value must be an integer >= 1 or infinity, got {value!r}")
        record = self.best[(bound.context, bound.quantity)]
        current = record[side]
        improved = value > current.value if side == "lower" else value < current.value
        if not improved:
            return False
        bound = replace(bound, id=len(self.bounds) + 1)
        self.bounds.append(bound)
        record[side] = bound
        lo, hi = record["lower"], record["upper"]
        if lo.value > hi.value:
            self.inconsistencies.append((lo, hi))
        return True

    def interval(self, ctx: str, q: Quantity) -> tuple[Value, Value]:
        record = self.best[(ctx, q)]
        return record["lower"].value, record["upper"].value


# ---------------------------------------------------------------------------
# display helpers

_KIND_ORDER = {"cat": 0, "TC": 1, "cat_G": 2, "TC_G": 3}


def quantity_display(ctx: ProblemContext, q: Quantity) -> str:
    space = ctx.spaces[q.space].display if q.space in ctx.spaces else q.space
    if q.kind in ("cat", "TC"):
        head = q.kind
    else:
        base = "cat" if q.kind == "cat_G" else "TC"
        head = f"{base}_{{{q.group}}}" if q.group not in (None, "G") else f"{base}_G"
    prefix = f"{ctx.name}:" if ctx.name else ""
    return f"{prefix}{head}({space})"


# ---------------------------------------------------------------------------
# context construction and seeding


def problem_complex(problem: Problem) -> SimplicialComplex:
    """The problem's complex K; its simplices go in as lists, the form its errors print."""
    return from_maximal_simplices(problem.vertex_count, [list(s) for s in problem.maximal_simplices])


def validated_action(problem: Problem, config: EngineConfig) -> tuple[SimplicialComplex, FiniteGroup]:
    """K and the group G, closed under the order cap, after checking that it acts simplicially."""
    K = problem_complex(problem)
    G = group_closure(K.vertex_count, [list(g) for g in problem.group_generators],
                      cap=config.group_order_cap)
    validate_action(K, G)
    return K, G


def _betti_and_certificates(K: CellComplex, name: str, config: EngineConfig) -> tuple:
    """K's Betti numbers over one field and, for a connected K, its R1 and R2 certificates.

    The ring is dropped once they are read off it.
    """
    ring = ring_structure(K, parse_field(name))
    betti = ring.basis.betti_vector()
    if not K.is_connected():
        # for disconnected spaces the infinity seed always dominates R1,
        # and component idempotents would make the product search useless
        return betti, None
    return betti, (zero_divisor_certificate(ring, config.depth_cap),
                   reduced_cuplength(ring, config.depth_cap))


def zero_divisor_certificate(ring, depth_cap: int | None) -> ProductCertificate:
    """R1's certificate: a longest nonzero product of zero-divisors in the ring's tensor square."""
    tensor = kunneth_tensor_ring(ring)
    cert, _ = nilpotency_lower_bound(tensor, combined_zero_divisors(tensor), depth_cap)
    return cert


def _analyze_space(info: SpaceInfo, config: EngineConfig, known: dict) -> None:
    """Dimension, connectivity and, under the size limit, one ring per field.

    known maps a complex's simplices (a Δ-complex's cells) to its Betti
    numbers and certificates by field name, so complexes that coincide (such
    as the fixed sets of several classes) share one ring computation and one
    product search per field.
    """
    K = info.complex
    if K is None or info.empty:
        return
    info.dim = K.dim
    info.connected = K.is_connected()
    info.simplex_count = len(K.simplices)
    if info.simplex_count > config.max_ring_simplices:
        info.skip_reason = (
            f"cohomology skipped: {info.simplex_count} simplices exceed the "
            f"configured limit {config.max_ring_simplices}"
        )
        return
    computed = known.setdefault(K.simplices, {})
    for name in config.fields:
        if name not in computed:
            computed[name] = _betti_and_certificates(K, name, config)
        info.betti[name], info.certificates[name] = computed[name]
    info.analyzed = True


def _build_action_context(name: str, problem: Problem, config: EngineConfig) -> ProblemContext:
    ctx = ProblemContext(name=name, problem=problem)
    K, G = validated_action(problem, config)
    R = regularize(K, G)
    ctx.regular = R
    ctx.equivariant = not R.group.is_trivial

    known: dict = {}  # simplices -> field name -> (betti, certificates), for this context
    ctx.spaces["X"] = SpaceInfo("X", "X", K)
    _analyze_space(ctx.spaces["X"], config, known)
    ctx.spaces["XxX"] = SpaceInfo(
        "XxX", "X x X", None, dim=2 * K.dim, connected=ctx.spaces["X"].connected
    )

    if ctx.equivariant:
        # subgroups are enumerated on the group acting on K or sd K, so their
        # fixed sets are subcomplexes of the regularized complex
        mode = "up_to_conjugacy" if config.subgroup_mode == "conjugacy" else "all"
        class_list = subgroups(R.group, mode, cap=config.subgroup_cap)
        # K stands for the trivial class's fixed set, R.complex, in the
        # connectivity test: subdivision keeps connectivity, and K is small
        fixed_sets = [K if H.is_trivial else fixed_subcomplex(R, H) for H in class_list]
        for pos, (H, fixed) in enumerate(zip(class_list, fixed_sets)):
            key = f"H{pos}"
            display = "G" if H.is_full else key
            fixed_key: str | None
            if H.is_trivial:
                fixed_key = "X"
            else:
                fixed_key = f"fix:{key}"
                info = SpaceInfo(fixed_key, f"X^{display}", fixed, empty=fixed.is_empty)
                if not fixed.is_empty:
                    _analyze_space(info, config, known)
                ctx.spaces[fixed_key] = info
            ctx.classes.append(SubgroupClassInfo(key, display, H, fixed_key))

        orbit_info = SpaceInfo("orbit", "X/G", orbit_complex(R))
        _analyze_space(orbit_info, config, known)
        ctx.spaces["orbit"] = orbit_info

        conn = is_G_connected(fixed_sets)
        ctx.g_connected = conn.value
        if conn.witness is not None:
            pos, n_parts = conn.witness
            ctx.g_connected_witness = (ctx.classes[pos].display, n_parts)
        ctx.empty_fixed_classes = tuple(ctx.classes[p].display for p in conn.empty_classes)
        ctx.fixed_vertex = has_fixed_vertex(R)

        # each subgroup maps to the first listed class it is conjugate to
        class_of: dict[frozenset[int], str] = {}
        for cls in ctx.classes:
            for conj in cls.subgroup.conjugates:
                class_of.setdefault(conj, cls.key)
        # the isotropy group of a point inside a simplex, (A) holding, is the
        # intersection of its vertices' stabilizers: one simplex per set of them
        vertex_stabilizers = R.group.stabilizers.__getitem__
        kinds = {frozenset(map(vertex_stabilizers, s)): s for s in R.complex.simplices}
        stabilizers = {isotropy(R.group, *s).members for s in kinds.values()}
        ctx.isotropy_classes = tuple(sorted({class_of[s] for s in stabilizers}))

        if "free_action" in problem.annotations and ctx.fixed_vertex:
            ctx.notes.append(
                "annotation free_action contradicts a computed fixed vertex; "
                "the annotation was still honoured (user-certified)"
            )
    return ctx


def _register_quantities(fb: FactBase, ctx: ProblemContext) -> None:
    if ctx.problem.is_associated_space:
        fb.register(ctx.name, TC_ASSOC)
        return
    quantities = [CAT_X, TC_X, CAT_XX]
    if ctx.equivariant:
        quantities += [CAT_G, TC_G, CAT_G_XX, CAT_GXG_XX, CAT_ORBIT, Quantity("TC", "orbit")]
        for cls in ctx.classes:
            if cls.subgroup.is_trivial:
                continue
            if not ctx.spaces[cls.fixed_space].empty:
                quantities += [Quantity("cat", cls.fixed_space), Quantity("TC", cls.fixed_space)]
            if not cls.subgroup.is_full:
                quantities += [Quantity("cat_G", "X", cls.key), Quantity("TC_G", "X", cls.key)]
    for q in quantities:
        fb.register(ctx.name, q)


def _certificate_dict(cert: ProductCertificate) -> dict:
    return {
        "field": cert.field_name,
        "length": cert.length,
        "factors": list(cert.factor_labels),
    }


def _seed_space_bounds(fb: FactBase, ctx: ProblemContext) -> None:
    for key, info in sorted(ctx.spaces.items()):
        if info.empty or info.complex is None:
            continue
        q_cat = Quantity("cat", key, None)
        q_tc = Quantity("TC", key, None)
        if info.connected is False:
            components = {"components": info.complex.connected_components()}
            fb.add_bound(Bound(ctx.name, q_tc, "lower", inf, "DISC", certificate=components))
        if not info.analyzed:
            continue
        if info.connected:
            connected = (f"path-connected({info.display})",)
            for cert, cup in info.certificates.values():  # in the order of config.fields
                if cert.length >= 1:
                    fb.add_bound(Bound(ctx.name, q_tc, "lower", cert.length + 1, "R1",
                                       certificate=_certificate_dict(cert)))
                if cup.length >= 1:
                    fb.add_bound(Bound(ctx.name, q_cat, "lower", cup.length + 1, "R2",
                                       certificate=_certificate_dict(cup), hypotheses=connected))
            for q, value, rule in ((q_tc, 2 * info.dim + 1, "R4"), (q_cat, info.dim + 1, "R4b")):
                fb.add_bound(Bound(ctx.name, q, "upper", value, rule,
                                   certificate={"dim": info.dim}, hypotheses=connected))


def _seed_assertions(fb: FactBase, ctx: ProblemContext) -> None:
    for fact in ctx.problem.asserted_facts:
        if fact.kind in ("cat_G", "TC_G"):
            if not ctx.equivariant:
                raise ProblemFormatError(
                    f"asserted {fact.kind} but the group of {ctx.label()} is trivial"
                )
            q = Quantity(fact.kind, fact.space, "G")
        else:
            q = Quantity(fact.kind, fact.space, None)
        if not fb.is_registered(ctx.name, q):
            raise ProblemFormatError(
                f"asserted fact targets unregistered quantity {fact.kind}({fact.space})"
            )
        sides = ("lower", "upper") if fact.side == "equal" else (fact.side,)
        for side in sides:
            fb.add_bound(Bound(ctx.name, q, side, fact.value, "ASSERT",
                               certificate={"justification": fact.justification},
                               hypotheses=("user-asserted",)))


def _build_contexts(problem: Problem, config: EngineConfig) -> dict[str, ProblemContext]:
    """The root context and, for an associated space, its fiber and base."""
    if not problem.is_associated_space:
        return {"": _build_action_context("", problem, config)}
    if problem.fiber.is_associated_space or problem.base.is_associated_space:
        raise ProblemFormatError("nested associated-space declarations are not supported")
    root = ProblemContext(name="", problem=problem)
    root.spaces["assoc"] = SpaceInfo("assoc", "X_G", None)
    return {
        "": root,
        "fiber": _build_action_context("fiber", problem.fiber, config),
        "base": _build_action_context("base", problem.base, config),
    }


def seed_facts(problem: Problem, config: EngineConfig | None = None) -> FactBase:
    """Build contexts, compute all space data, and seed the fact base."""
    config = config or EngineConfig.from_problem(problem)
    fb = FactBase(config)
    fb.contexts = _build_contexts(problem, config)
    for ctx in fb.contexts.values():
        _register_quantities(fb, ctx)
    for ctx in fb.contexts.values():
        _seed_space_bounds(fb, ctx)
        _seed_assertions(fb, ctx)
    return fb


# ---------------------------------------------------------------------------
# rules

MAX_PASSES = 100

PATH_CONNECTED = "path-connected(X)"
G_CONNECTED = "G-connected (computed over subgroup classes)"
FIXED_POINT = "X^G nonempty (fixed vertex found)"
NORMAL = "finite complexes are completely normal"

# what each hypothesis a row records needs of a context; a row applies only
# where all of its hypotheses hold
HOLDS: dict[str, Callable[[ProblemContext], bool]] = {
    PATH_CONNECTED: lambda ctx: "X" in ctx.spaces and ctx.spaces["X"].connected is True,
    G_CONNECTED: lambda ctx: ctx.g_connected is True,
    FIXED_POINT: lambda ctx: bool(ctx.fixed_vertex),
    NORMAL: lambda ctx: True,
}


@dataclass(frozen=True)
class Link:
    """One inequality between quantities a and b of a context.  It proposes
    bounds only where the context registers both quantities and carries its
    annotations, which are recorded first among its hypotheses.

    Forms: "le" is a <= b, giving b a's lower bound and a b's upper bound;
    "lower" is a <= b giving only the lower bound; "eq" is "le" for (a, b)
    and then for (b, a); "affine" is b <= 2a - 1, giving only b an upper
    bound; "affine+inverse" also gives a >= ceil((b + 1) / 2); "infinite"
    gives b the lower bound infinity with no premise (a is unused).
    """

    form: str
    a: Quantity
    b: Quantity
    hypotheses: tuple[str, ...] = ()
    certificate: dict | None = None
    annotations: tuple[str, ...] = ()  # required, and recorded as hypotheses


@dataclass(frozen=True)
class Row:
    """A saturation rule.  It applies to a context where each of its
    hypotheses holds (see HOLDS); each link then proposes bounds under the
    row's rule and hypotheses.  A row whose hypotheses include G_CONNECTED
    also carries the empty-fixed-set caveat.  A row with `derive` proposes
    its bounds itself instead of from links."""

    rule: str
    links: tuple[Link, ...] | Callable[[ProblemContext], list[Link]] = ()
    hypotheses: tuple[str, ...] = ()
    derive: Callable[[FactBase, ProblemContext], list[Bound]] | None = None


def _half_roundup(v: Value) -> Value:
    # inverse of v <= 2u - 1: u >= (v+1)/2
    return inf if isinf(v) else ceil((v + 1) / 2)


def _ids(*sides: Bound) -> tuple[int, ...]:
    return tuple(s.id for s in sides if s.id is not None)


def _empty_fixed_caveats(ctx: ProblemContext) -> tuple[str, ...]:
    if not ctx.empty_fixed_classes:
        return ()
    return (
        "empty fixed sets treated as path-connected for: "
        + ", ".join(f"X^{d}" for d in ctx.empty_fixed_classes),
    )


def _link_bounds(
    fb: FactBase, ctx: str, link: Link, rule: str, hyp: tuple[str, ...], caveats: tuple[str, ...]
) -> list[Bound]:
    if link.form == "infinite":
        return [Bound(ctx, link.b, "lower", inf, rule, (), link.certificate, hyp, caveats)]
    out = []

    def emit(q: Quantity, side: str, value: Value, source: Bound) -> None:
        out.append(Bound(ctx, q, side, value, rule, _ids(source), link.certificate, hyp, caveats))

    if link.form in ("affine", "affine+inverse"):
        hi = fb.upper(ctx, link.a)
        emit(link.b, "upper", 2 * hi.value - 1, hi)
        if link.form == "affine+inverse":
            lo = fb.lower(ctx, link.b)
            emit(link.a, "lower", _half_roundup(lo.value), lo)
        return out
    pairs = ((link.a, link.b), (link.b, link.a)) if link.form == "eq" else ((link.a, link.b),)
    for a, b in pairs:
        lo = fb.lower(ctx, a)
        emit(b, "lower", lo.value, lo)
        if link.form != "lower":
            hi = fb.upper(ctx, b)
            emit(a, "upper", hi.value, hi)
    return out


def _emit(row: Row, fb: FactBase, ctx: ProblemContext) -> list[Bound]:
    """All bounds one table row proposes; computed before any is recorded."""
    if not all(HOLDS[h](ctx) for h in row.hypotheses):
        return []
    if row.derive is not None:
        return row.derive(fb, ctx)
    caveats = _empty_fixed_caveats(ctx) if G_CONNECTED in row.hypotheses else ()
    links = row.links(ctx) if callable(row.links) else row.links
    out = []
    for link in links:
        if (
            fb.is_registered(ctx.name, link.a)
            and fb.is_registered(ctx.name, link.b)
            and all(n in ctx.problem.annotations for n in link.annotations)
        ):
            annotated = tuple(f"annotation:{n} (user-certified)" for n in link.annotations)
            hyp = annotated + row.hypotheses + link.hypotheses
            out += _link_bounds(fb, ctx.name, link, row.rule, hyp, caveats)
    return out


def _witness_links(ctx: ProblemContext) -> list[Link]:
    if ctx.g_connected_witness is None:
        return []
    display, parts = ctx.g_connected_witness
    return [
        Link(
            "infinite",
            TC_G,
            TC_G,
            (f"fixed set X^{display} has {parts} path components",),
            {"witness_subgroup": display, "components": parts},
        )
    ]


def _fixed_set_links(ctx: ProblemContext) -> list[Link]:
    return [
        Link("lower", Quantity("TC", c.fixed_space), TC_G, certificate={"subgroup": c.display})
        for c in ctx.classes
    ]


def _subgroup_links(ctx: ProblemContext) -> list[Link]:
    return [
        Link("le", Quantity("TC_G", "X", c.key), TC_G, (f"subgroup {c.display} <= G",))
        for c in ctx.classes
    ]


def _isotropy_links(ctx: ProblemContext) -> list[Link]:
    out = []
    for key in ctx.isotropy_classes:
        c = next(c for c in ctx.classes if c.key == key)
        # cat_H(X), folding the trivial class to cat(X) and the full one to cat_G(X)
        H = c.subgroup
        cat_h = CAT_X if H.is_trivial else CAT_G if H.is_full else Quantity("cat_G", "X", key)
        out.append(Link("le", cat_h, TC_G,
                        (f"subgroup {c.display} is the isotropy group of a point",)))
    return out


def _rule_R18(fb: FactBase, ctx: ProblemContext) -> list[Bound]:
    """The bundle bound, where the context registers an associated space."""
    if not fb.is_registered(ctx.name, TC_ASSOC):
        return []
    hi_f = fb.upper("fiber", TC_G if fb.is_registered("fiber", TC_G) else TC_X)
    hi_b = fb.upper("base", TC_X)
    if isinf(hi_f.value) or isinf(hi_b.value):
        return []
    return [
        Bound(
            "",
            TC_ASSOC,
            "upper",
            hi_f.value * hi_b.value,
            "R18",
            _ids(hi_f, hi_b),
            {"fiber_upper": hi_f.value, "base_upper": hi_b.value},
            ("numerable principal bundle (user-certified): " + ctx.problem.bundle_justification,),
        )
    ]


# The saturation rules in their canonical order, which fixes the derivation
# recorded first.  R9 precedes R7 so the canonical derivation of an infinite
# TC_G carries the disconnected-fixed-set witness (R7 would reach infinity
# via the seeded TC of the disconnected fixed space instead).
RULES: tuple[Row, ...] = (
    Row("R3", (Link("le", CAT_X, TC_X), Link("le", TC_X, CAT_XX)), (PATH_CONNECTED,)),
    Row("R5", (Link("affine", CAT_X, CAT_XX),), (PATH_CONNECTED,)),
    Row(
        "R6",
        (
            Link("le", CAT_ORBIT, CAT_G),
            Link("le", CAT_G, CAT_ORBIT, annotations=("free_action", "metrizable")),
        ),
    ),
    Row("R9", _witness_links),
    Row("R7", _fixed_set_links),
    Row("R8", _subgroup_links),
    Row("R10", (Link("le", TC_G, CAT_G_XX),), (G_CONNECTED,)),
    Row("R11", _isotropy_links, (G_CONNECTED,)),
    Row(
        "R12",
        (Link("le", CAT_G, TC_G), Link("affine+inverse", CAT_G, TC_G)),
        (G_CONNECTED, FIXED_POINT),
    ),
    Row("R14", (Link("affine", CAT_G, CAT_G_XX),), (G_CONNECTED, FIXED_POINT, NORMAL)),
    Row("R15", (Link("affine", CAT_G, CAT_GXG_XX),), (PATH_CONNECTED, NORMAL)),
    Row(
        "R16",
        (Link("eq", TC_G, CAT_G, annotations=("topological_group_homomorphism_action",)),),
        (G_CONNECTED,),
    ),
    Row(
        "R17",
        (Link("eq", TC_G, CAT_X, annotations=("left_translation_action", "metrizable")),),
        (PATH_CONNECTED,),
    ),
    Row("R18", derive=_rule_R18),
    Row("R19", (Link("le", TC_X, TC_G),)),
)


def saturate(fb: FactBase) -> FactBase:
    """Apply the rules of RULES, in order, to a fixed point.

    Values live in a finite lattice, every rule is monotone, and only strict
    improvements are recorded, so this terminates; the fixed point does not
    depend on the rule order.
    """
    for _ in range(MAX_PASSES):
        improved = False
        for row in RULES:
            for ctx in list(fb.contexts.values()):
                for bound in _emit(row, fb, ctx):
                    if fb.add_bound(bound):
                        improved = True
        if not improved:
            return fb
    raise AssertionError("saturation did not reach a fixed point within the pass limit")


def analyze_problem(problem: Problem, config: EngineConfig | None = None) -> FactBase:
    """validate -> regularize -> seed -> saturate."""
    fb = seed_facts(problem, config)
    return saturate(fb)


# ---------------------------------------------------------------------------
# reports


def _sorted_quantities(fb: FactBase) -> list[tuple[str, Quantity]]:
    def sort_key(item: tuple[str, Quantity]):
        ctx_name, q = item
        return (
            ("", "fiber", "base").index(ctx_name),
            _KIND_ORDER[q.kind],
            q.space,
            q.group or "",
        )

    return sorted(fb.best, key=sort_key)


def _interval_text(lo: str, hi: str) -> str:
    if lo == "infinity":
        return "= infinity"
    if lo == hi:
        return f"= {lo}"
    if hi == "infinity":
        return f"in [{lo}, infinity) (no finite upper bound derived)"
    return f"in [{lo}, {hi}]"


def structured_report(fb: FactBase) -> dict:
    """The report model; `text_report` renders this same dict."""
    quantities = []
    for ctx_name, q in _sorted_quantities(fb):
        ctx = fb.contexts[ctx_name]
        lo, hi = fb.best[(ctx_name, q)]["lower"], fb.best[(ctx_name, q)]["upper"]
        quantities.append(
            {
                "context": ctx.label(),
                "kind": q.kind,
                "space": q.space,
                "group": q.group,
                "display": quantity_display(ctx, q),
                "lower": fmt_value(lo.value),
                "upper": fmt_value(hi.value),
                "lower_bound_id": lo.id,
                "upper_bound_id": hi.id,
            }
        )
    bounds = []
    for b in fb.bounds:
        bounds.append(
            {
                "id": b.id,
                "context": fb.contexts[b.context].label(),
                "quantity": quantity_display(fb.contexts[b.context], b.quantity),
                "side": b.side,
                "value": fmt_value(b.value),
                "rule": b.rule,
                "statement": RULE_STATEMENTS[b.rule],
                "premises": list(b.premises),
                "certificate": b.certificate,
                "hypotheses": list(b.hypotheses),
                "caveats": list(b.caveats),
            }
        )
    contexts = []
    for ctx in fb.contexts.values():
        spaces = []
        for key, info in sorted(ctx.spaces.items()):
            spaces.append(
                {
                    "key": key,
                    "display": info.display,
                    "formal": info.complex is None,
                    "empty": info.empty,
                    "dim": info.dim,
                    "connected": info.connected,
                    "vertex_count": None if info.complex is None else info.complex.vertex_count,
                    "simplex_count": info.simplex_count,
                    "betti": {f: list(v) for f, v in sorted(info.betti.items())},
                    "skip_reason": info.skip_reason,
                }
            )
        entry = {
            "context": ctx.label(),
            "problem": ctx.problem.name,
            "equivariant": ctx.equivariant,
            "annotations": list(ctx.problem.annotations),
            "spaces": spaces,
            "notes": list(ctx.notes),
        }
        if ctx.problem.is_associated_space:
            entry["bundle_justification"] = ctx.problem.bundle_justification
        if ctx.regular is not None:
            entry["subdivision_rounds"] = ctx.regular.subdivision_rounds
            # read off K, so the report does not sort the subdivided complex
            f = ctx.spaces["X"].complex.f_vector()
            for _ in range(ctx.regular.subdivision_rounds):
                f = subdivision_f_vector(f)
            entry["regularized_f_vector"] = list(f)
        if ctx.equivariant:
            entry["group_order"] = ctx.regular.group.order
            entry["subgroup_classes"] = [
                {"key": c.key, "display": c.display, "order": c.subgroup.order}
                for c in ctx.classes
            ]
            entry["g_connected"] = ctx.g_connected
            entry["g_connected_witness"] = (
                {
                    "subgroup": ctx.g_connected_witness[0],
                    "components": ctx.g_connected_witness[1],
                }
                if ctx.g_connected_witness
                else None
            )
            entry["empty_fixed_sets"] = list(ctx.empty_fixed_classes)
            entry["has_fixed_vertex"] = ctx.fixed_vertex
            entry["isotropy_classes"] = list(ctx.isotropy_classes)
        contexts.append(entry)
    return {
        "schema_version": 1,
        "problem": fb.contexts[""].problem.name,
        "config": {
            "fields": list(fb.config.fields),
            "depth_cap": fb.config.depth_cap,
            "subgroup_mode": fb.config.subgroup_mode,
            "max_ring_simplices": fb.config.max_ring_simplices,
        },
        "contexts": contexts,
        "quantities": quantities,
        "bounds": bounds,
        "inconsistencies": [
            {
                "context": fb.contexts[lo.context].label(),
                "quantity": quantity_display(fb.contexts[lo.context], lo.quantity),
                "lower_bound_id": lo.id,
                "upper_bound_id": hi.id,
            }
            for lo, hi in fb.inconsistencies
        ],
    }


def _connectivity(space: dict) -> str:
    return "connected" if space["connected"] else "disconnected"


def _context_lines(ctx: dict) -> list[str]:
    lines = ["", f"context {ctx['context']}: {ctx['problem']}"]
    if "bundle_justification" in ctx:
        lines.append(
            "  formal associated space X_G; bundle hypothesis: " + ctx["bundle_justification"]
        )
        return lines
    x = next(s for s in ctx["spaces"] if s["key"] == "X")
    lines.append(
        f"  complex: {x['vertex_count']} vertices, "
        f"{x['simplex_count']} simplices, dim {x['dim']}, {_connectivity(x)}"
    )
    if ctx["equivariant"]:
        lines.append(
            f"  group: order {ctx['group_order']}, "
            f"{len(ctx['subgroup_classes'])} subgroup classes, regularized after "
            f"{ctx['subdivision_rounds']} subdivision(s)"
        )
        if ctx["g_connected"]:
            empty = ", ".join(f"X^{d}" for d in ctx["empty_fixed_sets"])
            caveat = f" (empty fixed sets counted as connected: {empty})" if empty else ""
            lines.append(f"  G-connected: yes{caveat}")
        else:
            w = ctx["g_connected_witness"]
            lines.append(
                f"  G-connected: no (fixed set X^{w['subgroup']} has "
                f"{w['components']} path components)"
            )
        lines.append(f"  fixed vertex: {'yes' if ctx['has_fixed_vertex'] else 'no'}")
        display = {c["key"]: c["display"] for c in ctx["subgroup_classes"]}
        iso = ", ".join(display[k] for k in ctx["isotropy_classes"])
        lines.append(f"  isotropy subgroup classes of points: {iso}")
    if ctx["annotations"]:
        lines.append(f"  annotations: {', '.join(ctx['annotations'])}")
    for space in ctx["spaces"]:
        if space["formal"]:
            continue
        if space["empty"]:
            lines.append(f"  space {space['display']}: empty")
            continue
        betti = " ".join(
            f"{f}=({','.join(map(str, v))})" for f, v in space["betti"].items()
        )
        extra = f" betti {betti}" if betti else ""
        skip = f" [{space['skip_reason']}]" if space["skip_reason"] else ""
        lines.append(
            f"  space {space['display']}: dim {space['dim']}, "
            f"{_connectivity(space)}{extra}{skip}"
        )
    lines.extend(f"  note: {note}" for note in ctx["notes"])
    return lines


def text_report(fb: FactBase) -> str:
    doc = structured_report(fb)
    cfg = doc["config"]
    cap = "auto" if cfg["depth_cap"] is None else str(cfg["depth_cap"])
    lines = [
        f"problem: {doc['problem']}",
        f"config: fields={','.join(cfg['fields'])} depth-cap={cap} "
        f"subgroups={cfg['subgroup_mode']}",
    ]
    for ctx in doc["contexts"]:
        lines.extend(_context_lines(ctx))
    lines.append("")
    lines.append("quantities:")
    for q in doc["quantities"]:
        lines.append(f"  {q['display']} {_interval_text(q['lower'], q['upper'])}")
    lines.append("")
    lines.append("derivations:")
    for b in doc["bounds"]:
        symbol = ">=" if b["side"] == "lower" else "<="
        lines.append(
            f"  #{b['id']} {b['quantity']} {symbol} {b['value']} [{b['rule']}] {b['statement']}"
        )
        if b["premises"]:
            lines.append(f"      premises: {', '.join('#' + str(p) for p in b['premises'])}")
        if b["certificate"]:
            lines.append(f"      certificate: {json.dumps(b['certificate'], sort_keys=True)}")
        if b["hypotheses"]:
            lines.append(f"      hypotheses: {'; '.join(b['hypotheses'])}")
        if b["caveats"]:
            lines.append(f"      caveats: {'; '.join(b['caveats'])}")
    lines.append("")
    if doc["inconsistencies"]:
        lines.append("INCONSISTENT:")
        for clash in doc["inconsistencies"]:
            lo = doc["bounds"][clash["lower_bound_id"] - 1]
            hi = doc["bounds"][clash["upper_bound_id"] - 1]
            lines.append(
                f"  {clash['quantity']}: lower {lo['value']} from #{lo['id']} "
                f"[{lo['rule']}] clashes with upper {hi['value']} from #{hi['id']} [{hi['rule']}]"
            )
    else:
        lines.append("inconsistencies: none")
    return "\n".join(lines) + "\n"


def report(fb: FactBase, fmt: str = "text") -> str:
    if fmt == "text":
        return text_report(fb)
    if fmt == "json":
        return json.dumps(structured_report(fb), indent=2, sort_keys=True) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")
