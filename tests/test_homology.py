from __future__ import annotations

import random
from fractions import Fraction

import pytest

from eqtc.complex_core import (
    barycentric_subdivision,
    empty_complex,
    from_maximal_simplices,
)
from eqtc.homology import (
    betti_numbers,
    coboundary_matrix,
    cohomology_basis,
    parse_field,
)
from eqtc.linalg import (
    FieldError,
    LinearSolver,
    PrimeField,
    _reduce_columns,
    column_space_basis,
    nullspace,
    rank,
)
from eqtc.problems import builtin_examples
from complexes import (
    boundary_sphere,
    cycle_complex,
    euler_characteristic,
    klein_bottle_grid,
    perfbench_corpus,
    projective_plane_six_vertex,
    random_complex,
    solid_simplex,
    torus_seven_vertex,
    varied_complexes,
)
from oracles import (
    boundary_matrices,
    boundary_matrix,
    dense_coboundary_matrix,
    field_add,
    field_sub,
    is_cocycle,
    is_zero,
    mat_vec,
    oracle_betti,
    oracle_nullspace,
    oracle_rank,
    oracle_representatives,
    oracle_rref,
    to_columns,
    to_dense,
    to_rows,
    to_sparse,
    zero,
)

F2 = parse_field("F2")
F3 = parse_field("F3")
F5 = parse_field("F5")
Q = parse_field("Q")
FIELDS = [F2, F3, Q]


def dense_boundaries(K, field):
    """boundary_matrices(K, field) as dense rows."""
    f = K.f_vector()
    return [to_rows(m, f[d], field) for d, m in enumerate(boundary_matrices(K, field))]


def same_scalars(got: list[list], want: list[list]) -> bool:
    """Equal rows of scalars, each an int where its value is integral and a
    Fraction otherwise, the form eqtc.linalg keeps rationals in."""
    return [len(g) for g in got] == [len(w) for w in want] and all(
        a == b and type(a) is (int if b.denominator == 1 else Fraction)
        for g, w in zip(got, want) for a, b in zip(g, w))


def coboundary_part(basis, d, vec):
    """Dense vec minus its projection onto the representatives."""
    field = basis.field
    n_d = len(basis.complex.simplices_of_dim(d))
    coords = basis.project(d, to_sparse(vec, field))
    rest = list(vec)
    for i, c in coords.items():
        rep = to_dense(basis.representatives[d][i], n_d, field)
        rest = [field_sub(field, a, field.mul(c, b)) for a, b in zip(rest, rep)]
    return rest


def test_single_edge_boundary_matrix():
    K = from_maximal_simplices(2, [[0, 1]])
    B1 = to_rows(boundary_matrix(K, Q, 1), 2, Q)
    assert B1 == [[Fraction(-1)], [Fraction(1)]]


def test_triangle_boundary_columns_sum_to_zero():
    K = cycle_complex(3)
    B1 = to_rows(boundary_matrix(K, Q, 1), 3, Q)
    assert len(B1) == 3 and len(B1[0]) == 3
    for j in range(3):
        assert sum(B1[i][j] for i in range(3)) == 0


@pytest.mark.parametrize("field", FIELDS)
def test_boundary_squared_is_zero_on_sphere(field):
    K = boundary_sphere(3)
    mats = dense_boundaries(K, field)
    for d in range(1, len(mats)):
        lower, upper = mats[d - 1], mats[d]
        for j in range(len(upper[0])):
            col = [upper[i][j] for i in range(len(upper))]
            assert all(is_zero(field, x) for x in mat_vec(lower, col, field))


def test_boundary_squared_on_random_complexes():
    rng = random.Random(1)
    for _ in range(20):
        K = random_complex(rng)
        for field in (F2, Q):
            mats = dense_boundaries(K, field)
            for d in range(1, len(mats)):
                lower, upper = mats[d - 1], mats[d]
                for j in range(len(upper[0])):
                    col = [upper[i][j] for i in range(len(upper))]
                    assert all(is_zero(field, x) for x in mat_vec(lower, col, field))


def test_betti_of_sphere_and_circle():
    assert betti_numbers(boundary_sphere(2), F2) == (1, 0, 1)
    assert betti_numbers(boundary_sphere(2), Q) == (1, 0, 1)
    assert betti_numbers(cycle_complex(4), Q) == (1, 1)
    assert betti_numbers(cycle_complex(4), F3) == (1, 1)


def test_betti_of_seven_vertex_torus_with_oracle():
    K = torus_seven_vertex()
    assert K.f_vector() == (7, 21, 14)
    assert betti_numbers(K, Q) == (1, 2, 1)
    # independent oracle: b_d = f_d - rank B_d - rank B_{d+1}
    b1 = oracle_rank(to_rows(boundary_matrix(K, Q, 1), 7, Q))
    b2 = oracle_rank(to_rows(boundary_matrix(K, Q, 2), 21, Q))
    assert (7 - b1, 21 - b1 - b2, 14 - b2) == (1, 2, 1)


def test_prime_field_inverse_is_an_inverse():
    # F7 is the smallest field where a^(p+2) and a^(p-2) differ
    F7 = PrimeField(7)
    assert [F7.mul(a, F7.inv(a)) for a in range(1, 7)] == [1] * 6


def test_field_characteristic_limit_is_2_to_the_32():
    assert parse_field("F1000000007").p == 1_000_000_007  # ten digits, below 2^32
    with pytest.raises(FieldError, match="must be below 2\\^32"):
        parse_field("F4294967311")  # the least prime above 2^32


def test_betti_empty_complex_rejected():
    with pytest.raises(FieldError):
        betti_numbers(empty_complex(), Q)


@pytest.mark.parametrize("field", FIELDS)
def test_euler_characteristic_equals_alternating_betti(field):
    for K in [cycle_complex(5), boundary_sphere(2), torus_seven_vertex(), solid_simplex(3)]:
        b = betti_numbers(K, field)
        assert sum((-1) ** d * x for d, x in enumerate(b)) == euler_characteristic(K)


def test_betti_subdivision_invariance():
    for K in [cycle_complex(4), boundary_sphere(2), torus_seven_vertex()]:
        sd, _ = barycentric_subdivision(K)
        for field in FIELDS:
            assert betti_numbers(sd, field) == betti_numbers(K, field)


def test_betti_field_agreement_without_torsion():
    # all builtins here are torsion-free, so F_p and Q agree
    for K in [cycle_complex(6), boundary_sphere(3), torus_seven_vertex()]:
        assert betti_numbers(K, F2) == betti_numbers(K, Q)
        assert betti_numbers(K, F3) == betti_numbers(K, Q)


def test_components_agree_with_zeroth_betti_over_f2():
    complexes = [
        from_maximal_simplices(2, [[0], [1]]),
        cycle_complex(4),
        boundary_sphere(0),
        torus_seven_vertex(),
        from_maximal_simplices(5, [[0, 1], [2, 3], [4]]),
    ]
    for K in complexes:
        assert betti_numbers(K, F2)[0] == K.connected_components()


def test_cochain_basis_counts_match_betti():
    for K in [cycle_complex(4), boundary_sphere(2), torus_seven_vertex()]:
        for field in FIELDS:
            basis = cohomology_basis(K, field)
            assert basis.betti_vector() == betti_numbers(K, field)


def test_square_degree_one_representative_is_cocycle():
    K = cycle_complex(4)
    basis = cohomology_basis(K, F2)
    reps = basis.representatives[1]
    assert len(reps) == 1
    assert is_cocycle(K, F2, 1, reps[0])
    coords = to_dense(basis.project(1, reps[0]), 1, F2)
    assert coords == [F2.one]


def test_sphere_degree_zero_is_constant():
    basis = cohomology_basis(boundary_sphere(2), Q)
    reps = basis.representatives[0]
    assert len(reps) == 1
    assert all(x == 1 for x in to_dense(reps[0], basis.complex.vertex_count, Q))


def test_contractible_has_no_positive_classes():
    basis = cohomology_basis(solid_simplex(3), Q)
    assert basis.betti_vector() == (1, 0, 0, 0)


def test_projection_of_representatives_is_unit_coordinate():
    for K in [torus_seven_vertex(), boundary_sphere(2)]:
        for field in FIELDS:
            basis = cohomology_basis(K, field)
            for d in range(K.dim + 1):
                n_d = len(K.simplices_of_dim(d))
                for i, rep in enumerate(basis.representatives[d]):
                    coords = to_dense(basis.project(d, rep), basis.betti(d), field)
                    cob = coboundary_part(basis, d, to_dense(rep, n_d, field))
                    expect = [field.one if j == i else zero(field) for j in range(len(coords))]
                    assert coords == expect
                    assert all(is_zero(field, x) for x in cob)


def test_projection_splits_cocycle_into_basis_plus_coboundary():
    # a random combination of representatives plus the coboundary of a random
    # cochain projects to exactly those coefficients and that coboundary
    rng = random.Random(4)
    complexes = [torus_seven_vertex(), projective_plane_six_vertex(), klein_bottle_grid(),
                 cycle_complex(4)]
    for K in complexes:
        for field in FIELDS:
            basis = cohomology_basis(K, field)
            for d in range(K.dim + 1):
                reps = basis.representatives[d]
                n_d = len(K.simplices_of_dim(d))
                coeffs = [field.of_int(rng.randint(-2, 2)) for _ in reps]
                vec = [zero(field)] * n_d
                for c, rep in zip(coeffs, reps):
                    rep = to_dense(rep, n_d, field)
                    vec = [field_add(field, a, field.mul(c, b)) for a, b in zip(vec, rep)]
                cob = [zero(field)] * n_d
                if d >= 1:
                    a = [field.of_int(rng.randint(-2, 2)) for _ in K.simplices_of_dim(d - 1)]
                    cob = mat_vec(dense_coboundary_matrix(K, field, d - 1), a, field)
                vec = [field_add(field, x, y) for x, y in zip(vec, cob)]
                assert is_cocycle(K, field, d, to_sparse(vec, field))
                coords = to_dense(basis.project(d, to_sparse(vec, field)), len(reps), field)
                part = coboundary_part(basis, d, vec)
                assert coords == coeffs, (K.f_vector(), field, d)
                assert part == cob, (K.f_vector(), field, d)


def test_coboundary_basis_is_a_basis_of_the_coboundaries():
    # each degree's solver holds the coboundary basis in its first skip
    # columns and the representatives after them; one table entry per
    # column shows that all of them are independent
    for K in [torus_seven_vertex(), projective_plane_six_vertex(), klein_bottle_grid()]:
        for field in FIELDS:
            basis = cohomology_basis(K, field)
            assert basis._solvers[0][1] == 0
            for d in range(1, K.dim + 1):
                solver, skip = basis._solvers[d]
                delta = dense_coboundary_matrix(K, field, d - 1)
                assert skip == len(oracle_rref(delta, field)[1])
                assert len(solver.table) == skip + basis.betti(d)
                # every column of delta_{d-1} solves with no class
                # coordinate, so rank delta_{d-1} independent coboundaries
                # span all of them
                assert all(basis.project(d, col) == {} for col in to_columns(delta, field))
                n_d = len(K.simplices_of_dim(d))
                cocycles = oracle_nullspace(dense_coboundary_matrix(K, field, d), field, n_d)
                assert skip + basis.betti(d) == len(cocycles)


def test_coboundary_matrix_is_transposed_boundary_matrix():
    # the complex finds its faces once; each field fills delta_d from them,
    # with +-1 ints over Q and their residues over F_p
    two_pieces = from_maximal_simplices(5, [[0, 1, 2], [3, 4]])
    complexes = [torus_seven_vertex(), klein_bottle_grid(), boundary_sphere(3), two_pieces]
    for K in complexes + varied_complexes(19):
        for field in (F2, F3, F5, Q):
            f = K.f_vector() + (0,)
            units = {1, -1} if field is Q else {1, field.char - 1}
            for d in range(K.dim + 1):
                B = to_rows(boundary_matrix(K, field, d + 1), f[d], field)
                cols = coboundary_matrix(K, field, d)
                delta = to_rows(cols, f[d + 1], field)
                assert delta == [list(col) for col in zip(*B)], d
                assert delta == dense_coboundary_matrix(K, field, d), d
                assert all(a in units and type(a) is int for c in cols for a in c.values())
            assert coboundary_matrix(K, field, -1) == coboundary_matrix(K, field, K.dim + 1) == []


def test_unit_pivots_over_q_match_dense_gauss_jordan():
    # entries in -2..2, so lowest entries +-1 (their own inverse, no
    # division) and +-2 (inverted through Fraction) both become pivots; the
    # columns come as ints, as the coboundary gives them, and as Fractions;
    # either way an integral result is an int
    rng = random.Random(23)
    leads = set()
    for _ in range(80):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        ints = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
        mat = [[Fraction(a) for a in row] for row in ints]
        _, pivots = oracle_rref(mat, Q)
        kernel = oracle_nullspace(mat, Q, cols)
        for sparse in (to_columns(ints, Q), to_columns(mat, Q)):
            assert rank(sparse, Q) == len(pivots)
            assert column_space_basis(sparse, Q) == pivots
            got = nullspace(sparse, Q)
            assert same_scalars([to_dense(v, cols, Q) for v in got], kernel)
            leads |= {v[low] for low, (v, _, _) in _reduce_columns(sparse, Q)[1].items()}
            # the unique solution on the independent columns, read off the
            # RREF of the augmented matrix
            x = [Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in pivots]
            sub = [[row[c] for c in pivots] for row in mat]
            rhs = mat_vec(sub, x, Q)
            work, aug_pivots = oracle_rref([row + [b] for row, b in zip(sub, rhs)], Q)
            assert aug_pivots == list(range(len(pivots)))
            solved = LinearSolver([sparse[c] for c in pivots], Q).solve(to_sparse(rhs, Q))
            assert same_scalars([to_dense(solved, len(pivots), Q)],
                                [[work[i][-1] for i in range(len(pivots))]])
    assert {1, -1, 2, -2} <= leads


def test_elimination_routines_agree_on_random_matrices():
    rng = random.Random(2)
    for field in FIELDS:
        for _ in range(30):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            mat = [[field.of_int(rng.choice((0, 0, 0, 1, -1, 2))) for _ in range(cols)]
                   for _ in range(rows)]
            sparse = to_columns(mat, field)
            kernel = [to_dense(v, cols, field) for v in nullspace(sparse, field)]
            pivots = column_space_basis(sparse, field)
            assert len(pivots) == rank(sparse, field) == cols - len(kernel)
            for v in kernel:
                assert all(is_zero(field, x) for x in mat_vec(mat, v, field))
            # a kernel vector ends in its free column; the other columns are pivots
            last = {max(j for j, x in enumerate(v) if not is_zero(field, x)) for v in kernel}
            assert sorted(set(range(cols)) - last) == pivots
            # the solver recovers x from M x on the independent columns
            sub = [[row[c] for c in pivots] for row in mat]
            x = [field.of_int(rng.randint(-3, 3)) for _ in pivots]
            solver = LinearSolver(to_columns(sub, field), field)
            solved = solver.solve(to_sparse(mat_vec(sub, x, field), field))
            assert to_dense(solved, len(pivots), field) == x
            # built on a prefix and given the rest one by one, a solver
            # continues the same pass; a column that ends off its pivot rows
            # enters the table there, unreduced
            head = rng.randint(0, len(pivots))
            grown = LinearSolver(to_columns(sub, field)[:head], field)
            for col in to_columns(sub, field)[head:]:
                size, off = len(grown.table), max(col) not in grown.table
                grown.append([col])
                assert len(grown.table) == size + 1
                if off:
                    assert grown.table[max(col)][0] == col
            assert grown.solve(to_sparse(mat_vec(sub, x, field), field)) == solved
            outside = 0
            for i in range(rows):
                e = to_sparse([field.one if r == i else zero(field) for r in range(rows)], field)
                try:
                    got = solver.solve(e)
                except FieldError:
                    outside += 1
                    with pytest.raises(FieldError):
                        grown.solve(e)
                else:
                    assert grown.solve(e) == got
            # some unit vector lies outside the column space
            assert (outside > 0) == (len(pivots) < rows)


def test_sparse_elimination_matches_dense_gauss_jordan():
    # kernel entries over Q are ints where integral and Fractions otherwise
    rng = random.Random(5)
    for field in FIELDS:
        for _ in range(60):
            rows, cols = rng.randint(1, 8), rng.randint(1, 8)
            density = rng.choice((0.2, 0.5, 0.9))
            mat = [[zero(field)] * cols for _ in range(rows)]
            for i in range(rows):
                for j in range(cols):
                    if rng.random() < density:
                        a = rng.choice((1, -1, 2, 3))
                        mat[i][j] = (Fraction(a, rng.choice((1, 1, 2, 3))) if field is Q
                                     else field.of_int(a))
            sparse = to_columns(mat, field)
            kernel = [to_dense(v, cols, field) for v in nullspace(sparse, field)]
            assert same_scalars(kernel, oracle_nullspace(mat, field, cols))
            _, pivots = oracle_rref(mat, field)
            assert column_space_basis(sparse, field) == pivots
            assert rank(sparse, field) == len(pivots)
            assert to_rows(sparse, rows, field) == mat  # the input is left as it was


def test_representatives_match_the_dense_rule_on_builtins():
    # builtins and their first subdivision, over F2, F3 and Q
    for problem in builtin_examples().values():
        if problem.is_associated_space:
            continue  # no complex of its own
        K = from_maximal_simplices(problem.vertex_count,
                                   [list(s) for s in problem.maximal_simplices])
        for X in (K, barycentric_subdivision(K)[0]):
            for field in FIELDS:
                reps = cohomology_basis(X, field).representatives
                got = {d: [to_dense(v, len(X.simplices_of_dim(d)), field) for v in vs]
                       for d, vs in reps.items()}
                assert repr(got) == repr(oracle_representatives(X, field)), (problem.name, field)


def test_representatives_are_the_cocycles_ending_off_the_lower_pivot_rows():
    # in degree d >= 1 the representatives are exactly the kernel vectors of
    # delta_d whose own (last) column is not a pivot row of the reduced
    # delta_{d-1}, so choosing them needs no elimination of its own
    complexes = []
    for problem in builtin_examples().values():
        if not problem.is_associated_space:
            K = from_maximal_simplices(problem.vertex_count,
                                       [list(s) for s in problem.maximal_simplices])
            complexes += [K, barycentric_subdivision(K)[0]]
    rng = random.Random(7)
    # eight simplices, so that some of them leave classes in degrees 1 and 2
    complexes += [random_complex(rng, 8) for _ in range(40)]
    for K in complexes:
        for field in FIELDS:
            reps = cohomology_basis(K, field).representatives
            for d in range(1, K.dim + 1):
                pivot_rows = _reduce_columns(coboundary_matrix(K, field, d - 1), field)[1]
                cocycles = nullspace(coboundary_matrix(K, field, d), field)
                assert reps[d] == [v for v in cocycles if max(v) not in pivot_rows], (
                    K.f_vector(), field.name, d)


def test_clearing_skips_exactly_the_columns_that_reduce_to_zero(monkeypatch):
    # the columns of delta_d at the pivot rows of degree d's coboundary basis
    # are left out of its reduction; each of them depends on earlier columns,
    # and every kernel vector of the rest is a representative, the same as
    # the kernel vectors of all of delta_d that end off those rows
    widths = []
    monkeypatch.setattr("eqtc.homology.nullspace", lambda mat, field, table=None: (
        widths.append(len(mat)) or nullspace(mat, field, table)))
    rng = random.Random(11)
    complexes = [torus_seven_vertex(), klein_bottle_grid(), projective_plane_six_vertex()]
    complexes += [random_complex(rng, 8) for _ in range(40)]
    for K in complexes:
        for field in FIELDS:
            widths.clear()
            basis = cohomology_basis(K, field)
            for d in range(1, K.dim + 1):
                solver, skip = basis._solvers[d]
                # the coboundary basis enters the solver without masks
                rows = {r for r, (_, mask, _) in solver.table.items() if mask is None}
                assert len(rows) == skip
                cocycles = nullspace(coboundary_matrix(K, field, d), field)
                assert basis.representatives[d] == [v for v in cocycles if max(v) not in rows], (
                    K.f_vector(), field.name, d)
                assert widths[d - 1] == len(K.simplices_of_dim(d)) - skip
                _, pivots = oracle_rref(dense_coboundary_matrix(K, field, d), field)
                assert rows.isdisjoint(pivots), (K.f_vector(), field.name, d)


def test_betti_numbers_reduce_only_the_columns_off_the_lower_pivot_rows(monkeypatch):
    # clearing in betti_numbers: in degree d, rank gets the columns of
    # delta_d that are not pivot rows of delta_{d-1}, f_d - rank delta_{d-1}
    # of them, and fills the table it is given with one key per pivot, the
    # pivot rows of all of delta_d
    calls = []

    def recording_rank(mat, field, table=None):
        r = rank(mat, field, table)
        calls.append((mat, r, table))
        return r

    monkeypatch.setattr("eqtc.homology.rank", recording_rank)
    rng = random.Random(13)
    complexes = [torus_seven_vertex(), klein_bottle_grid(), projective_plane_six_vertex(),
                 boundary_sphere(3), barycentric_subdivision(torus_seven_vertex())[0]]
    complexes += [random_complex(rng, 8) for _ in range(30)]
    for K in complexes:
        for field in (F2, F3, F5, Q):
            calls.clear()
            betti_numbers(K, field)
            assert len(calls) == K.dim
            lower_rows: set = set()  # the pivot rows of delta_{d-1}
            for d, (mat, r, table) in enumerate(calls):
                delta = coboundary_matrix(K, field, d)
                assert len(mat) == len(delta) - len(lower_rows), (K.f_vector(), field.name, d)
                assert mat == [c for j, c in enumerate(delta) if j not in lower_rows]
                full_table = _reduce_columns(delta, field)[1]
                assert r == len(full_table) == len(table)
                assert set(table) == set(full_table), (K.f_vector(), field.name, d)
                lower_rows = set(full_table)


def test_betti_numbers_agree_with_cochain_basis_and_dense_oracle():
    # on the builtins and their subdivisions, random complexes and the corpus
    # families that run fast; the dense oracle is left out where its pure-Python
    # elimination would take minutes, and the family's known numbers stand in
    corpus = perfbench_corpus()
    complexes = [(K, None) for K in varied_complexes(19)]
    for family in sorted(set(corpus.FAMILIES) - {"S4-Z3", "T3-3-Z3", "T4-3", "T4-3-ring"}):
        data = corpus.build(family, 0)
        K = from_maximal_simplices(data["vertex_count"], data["maximal_simplices"])
        complexes.append((K, corpus.FAMILIES[family].betti))
    for K, known in complexes:
        for field in (F2, F3, F5, Q):
            betti = betti_numbers(K, field)
            assert betti == cohomology_basis(K, field).betti_vector(), (K.f_vector(), field.name)
            if max(K.f_vector()) <= 400:
                assert betti == oracle_betti(K, field), (K.f_vector(), field.name)
            if known is not None:
                assert betti == known, (K.f_vector(), field.name)


def test_coboundary_squared_is_zero():
    K = boundary_sphere(3)
    for field in (F2, Q):
        f = K.f_vector()
        for d in range(K.dim - 1):
            d1 = to_rows(coboundary_matrix(K, field, d), f[d + 1], field)
            d2 = to_rows(coboundary_matrix(K, field, d + 1), f[d + 2], field)
            for j in range(len(d1[0])):
                col = [d1[i][j] for i in range(len(d1))]
                assert all(is_zero(field, x) for x in mat_vec(d2, col, field))
