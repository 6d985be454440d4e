"""Exact abelian-group arithmetic: SNF, elements, homs, kernels, subgroups."""

import math
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coincalc import fgab
from coincalc.fgab import (
    Cmp,
    FgAbError,
    FgAbGroup,
    Homomorphism,
    Subgroup,
    _hnf,
    direct_sum,
    image,
    int_det,
    kernel,
    kernel_into_coords,
    smith_normal_form,
    subgroup_cmp,
)


def mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def snf_ok(matrix):
    u, d, v = smith_normal_form(matrix)
    rows, cols = len(matrix), len(matrix[0]) if matrix else 0
    if rows and cols:
        assert mat_mul(mat_mul(u, [list(r) for r in matrix]), v) == d
    assert abs(int_det(u)) == 1
    assert abs(int_det(v)) == 1
    diag = [d[i][i] for i in range(min(rows, cols))]
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
    return diag


class TestSmithNormalForm:
    def test_worked_example(self):
        # d1 = gcd of entries = 2, d1*d2 = |det| = |16 - 24| = 8.
        assert snf_ok([[2, 4], [6, 8]]) == [2, 4]

    def test_identity(self):
        assert snf_ok([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == [1, 1, 1]

    def test_zero_matrix(self):
        assert snf_ok([[0, 0, 0], [0, 0, 0]]) == [0, 0]

    def test_empty_shapes(self):
        for matrix in ([], [[]], [[], []]):
            snf_ok(matrix)

    def test_determinant_of_a_singular_matrix(self):
        # No pivot in the first column: Bareiss stops at once.
        assert int_det([[0, 1], [0, 2]]) == 0
        assert int_det([[0, 1], [1, 0]]) == -1

    def test_ragged_rejected(self):
        with pytest.raises(FgAbError):
            smith_normal_form([[1, 2], [3]])

    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=1, max_size=5),
            min_size=1,
            max_size=5,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    @settings(max_examples=150, deadline=None)
    def test_random_property(self, matrix):
        snf_ok(matrix)

    @pytest.mark.parametrize(
        "matrix,diagonal",
        [
            ([[2, 0], [0, 3]], [1, 6]),  # diagonal, but 2 does not divide 3: a restart
            ([[0, 0], [0, -4]], [4, 0]),  # a negative pivot
            ([[6, 10, 15]], [1]),
            ([[6], [10], [15]], [1]),
        ],
        ids=["restart", "negative-pivot", "row", "column"],
    )
    def test_exact_diagonal(self, matrix, diagonal):
        assert snf_ok(matrix) == diagonal

    def test_consecutive_fibonacci_chains(self):
        # det = +-1 with the longest Euclidean chains for entries of their size.
        fib = [0, 1]
        while len(fib) <= 80:
            fib.append(fib[-1] + fib[-2])
        for k in range(1, 79):
            assert snf_ok([[fib[k], fib[k + 1]], [fib[k + 1], fib[k + 2]]]) == [1, 1]

    @pytest.mark.parametrize("seed", range(4))
    def test_large_entries_match_determinantal_divisors(self, seed):
        # d_1 ... d_k is the gcd of the k x k minors.  In odd seeds the last
        # row is a combination of two others, so the rank drops, and every
        # nonzero 4 x 4 minor reads row 3, times 10: d_4 is a multiple of 10.
        rng = random.Random(seed)
        matrix = [[rng.randint(-10**6, 10**6) for _ in range(5)] for _ in range(5)]
        if seed % 2:
            matrix[4] = [6 * a - 4 * b for a, b in zip(matrix[0], matrix[1])]
            matrix[3] = [10 * a for a in matrix[3]]
        divisors = [1]
        for k in range(1, 6):
            minors = (int_det([[matrix[i][j] for j in cs] for i in rs])
                      for rs in combinations(range(5), k) for cs in combinations(range(5), k))
            divisors.append(math.gcd(*minors))
        expected = [b // a if a else 0 for a, b in zip(divisors, divisors[1:])]
        assert snf_ok(matrix) == expected


class TestGroupsAndElements:
    def test_invariant_factor_enforced(self):
        with pytest.raises(FgAbError):
            FgAbGroup(0, (4, 2))
        with pytest.raises(FgAbError):
            FgAbGroup(0, (1,))
        with pytest.raises(FgAbError):
            FgAbGroup(-1)

    def test_trivial(self):
        assert FgAbGroup.trivial().is_trivial
        assert not FgAbGroup(1).is_trivial
        assert not FgAbGroup(0, (2,)).is_trivial

    def test_modular_reduction(self):
        z24 = FgAbGroup.cyclic(24)
        assert (z24.element([20]) + z24.element([8])).coeffs == (4,)

    def test_inverse(self):
        g = FgAbGroup(1, (2,))
        assert (g.element([3, 1]) + g.element([-3, 1])).is_zero

    def test_scale_kills(self):
        z12 = FgAbGroup.cyclic(12)
        assert z12.element([4]).scale(3).is_zero
        # brute-force check: repeated addition agrees
        acc = z12.zero()
        for _ in range(3):
            acc = acc + z12.element([4])
        assert acc.is_zero

    def test_orders(self):
        z24 = FgAbGroup.cyclic(24)
        assert z24.zero().order() == 1
        assert z24.element([1]).order() == 24
        g = FgAbGroup(1, (2,))
        assert g.element([1, 0]).order() is None

    def test_parent_mismatch(self):
        with pytest.raises(FgAbError):
            FgAbGroup.cyclic(2).element([1]) + FgAbGroup.cyclic(3).element([1])

    def test_elem_op_dispatch(self):
        z12 = FgAbGroup.cyclic(12)
        a, b = z12.element([7]), z12.element([8])
        assert (a + b).coeffs == (3,)
        assert (a - b).coeffs == (11,)
        assert (-a).coeffs == (5,)
        assert z12.element([4]).scale(3).is_zero
        with pytest.raises(TypeError):
            a * b

    @given(st.integers(-40, 40), st.integers(-40, 40))
    @settings(max_examples=60, deadline=None)
    def test_canonical_form_is_idempotent(self, a, b):
        g = FgAbGroup(1, (6,))
        x = g.element([a, b])
        assert g.element(x.coeffs) == x
        assert (x + g.zero()) == x
        assert (x - x).is_zero


class TestHomomorphisms:
    def test_well_definedness_rejected(self):
        z2, z3 = FgAbGroup.cyclic(2), FgAbGroup.cyclic(3)
        # Z/2 -> Z/3 sending the generator to 1 is not a homomorphism.
        with pytest.raises(FgAbError):
            Homomorphism(z2, z3, ((1,),))

    @given(st.integers(2, 9), st.integers(2, 9), st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_random_invalid_columns(self, t_dom, t_cod, c):
        dom, cod = FgAbGroup.cyclic(t_dom), FgAbGroup.cyclic(t_cod)
        ok = (t_dom * c) % t_cod == 0
        if ok:
            Homomorphism(dom, cod, ((c,),))
        else:
            with pytest.raises(FgAbError):
                Homomorphism(dom, cod, ((c,),))

    def test_zero_map_apply(self):
        z6 = FgAbGroup.cyclic(6)
        z = Homomorphism(z6, FgAbGroup(1), ((0,),))
        assert z.apply(z6.element([5])).is_zero


class TestKernelImageSubgroups:
    def test_kernel_of_identity(self):
        z24 = FgAbGroup.cyclic(24)
        assert kernel(Homomorphism(z24, z24, ((1,),))).is_trivial

    def test_zero_map_kernel_is_whole(self):
        z2 = FgAbGroup.cyclic(2)
        k = kernel(Homomorphism(z2, z2, ((0,),)))
        assert subgroup_cmp(k, Subgroup.whole(z2)) is Cmp.EQUAL

    def test_forced_zero_map_z3_to_z2(self):
        z3, z2 = FgAbGroup.cyclic(3), FgAbGroup.cyclic(2)
        # The only homomorphism Z/3 -> Z/2 is zero; its kernel is everything.
        h = Homomorphism(z3, z2, ((0,),))
        assert kernel(h).is_whole()

    def test_subgroup_cmp_examples(self):
        z2 = FgAbGroup.cyclic(2)
        assert subgroup_cmp(Subgroup.trivial(z2), Subgroup.whole(z2)) is Cmp.PROPER_SUB
        z12 = FgAbGroup.cyclic(12)
        four = Subgroup(z12, (z12.element([4]),))
        two = Subgroup(z12, (z12.element([2]),))
        assert subgroup_cmp(four, two) is Cmp.PROPER_SUB
        assert subgroup_cmp(two, four) is Cmp.PROPER_SUPER
        assert four.enumerate() == {(0,), (4,), (8,)}

    def test_incomparable(self):
        g = FgAbGroup(0, (2, 2))
        a = Subgroup(g, (g.element([1, 0]),))
        b = Subgroup(g, (g.element([0, 1]),))
        assert subgroup_cmp(a, b) is Cmp.INCOMPARABLE

    def test_membership_on_infinite_ambient(self):
        z = FgAbGroup(1)
        even = Subgroup(z, (z.element([2]),))
        assert even.contains(z.element([4]))
        assert not even.contains(z.element([3]))

    def test_kernel_matches_snf_and_meets_hadamard_bound(self):
        # Full-row-rank n x (n+e) matrices into a free codomain: the kernel
        # is the span of V's last e columns, and its generators (the canonical
        # basis) obey the Cramer/Hadamard bound r * prod |row_i| of a
        # saturated kernel.
        rng = random.Random(1905)
        for n in range(6, 17):
            for e in range(1, 4):
                while True:
                    m = [[rng.randint(-9, 9) for _ in range(n + e)] for _ in range(n)]
                    _u, d, v = smith_normal_form(m)
                    if all(d[i][i] for i in range(n)):
                        break
                dom = FgAbGroup.free(n + e)
                ker = kernel_into_coords(dom, m, [0] * n)
                cols = [dom.element([row[j] for row in v]) for j in range(n, n + e)]
                assert ker == Subgroup(dom, tuple(cols))
                bound_sq = e * e * math.prod(sum(x * x for x in row) for row in m)
                assert len(ker.generators_) == e
                assert all(x * x <= bound_sq for g in ker.generators_ for x in g.coeffs), (n, e)


def random_finite_group(rng, max_order=10_000):
    orders = []
    total = 1
    for _ in range(rng.randint(1, 3)):
        t = rng.choice([2, 2, 3, 4, 5, 6, 8, 9, 12, 16, 25])
        if total * t > max_order:
            break
        orders.append(t)
        total *= t
    if not orders:
        orders = [2]
    return direct_sum([FgAbGroup.cyclic(t) for t in orders])


def random_hom(rng, dom, cod):
    cols = []
    for t in dom.coord_orders():
        while True:
            cand = cod.element([rng.randint(0, 11) for _ in range(cod.rank)])
            if t == 0 or cand.scale(t).is_zero:
                cols.append(cand)
                break
    return Homomorphism.from_columns(dom, cod, cols)


def test_oracle_equivalence_sample():
    # Smaller version of the acceptance sweep: enumeration agrees with the
    # SNF-based kernel, image and comparison on finite groups.
    rng = random.Random(2024)
    for _ in range(40):
        dom = random_finite_group(rng, max_order=600)
        cod = random_finite_group(rng, max_order=400)
        h = random_hom(rng, dom, cod)
        ker = kernel(h)
        brute_ker = {x.coeffs for x in dom.elements() if h.apply(x).is_zero}
        assert ker.enumerate() == brute_ker
        img = image(h)
        brute_img = {h.apply(x).coeffs for x in dom.elements()}
        assert img.enumerate() == brute_img
        sub = Subgroup(dom, tuple(ker.generators_[:1]))
        verdict = subgroup_cmp(sub, ker)
        inc_fwd = ker.enumerate() >= sub.enumerate()
        inc_bwd = sub.enumerate() >= ker.enumerate()
        expected = {
            (True, True): Cmp.EQUAL,
            (True, False): Cmp.PROPER_SUB,
            (False, True): Cmp.PROPER_SUPER,
            (False, False): Cmp.INCOMPARABLE,
        }[(inc_fwd, inc_bwd)]
        assert verdict is expected


@st.composite
def generating_sets(draw, max_gens=4):
    """(ambient, gens): a random generating set in Z^r + Z/t1 + ... (r >= 1),
    kept apart from the Subgroup, which keeps only its canonical basis."""
    free = draw(st.integers(1, 2))
    orders = draw(st.lists(st.sampled_from([2, 3, 4, 6, 8, 9, 12]), max_size=2))
    ambient = direct_sum([FgAbGroup.free(free)] + [FgAbGroup.cyclic(t) for t in orders])
    vector = st.lists(st.integers(-6, 6), min_size=ambient.rank, max_size=ambient.rank)
    gens = draw(st.lists(vector, max_size=max_gens))
    return ambient, tuple(ambient.element(g) for g in gens)


def recombine(gens, rnd):
    """Another generating set of the same subgroup: elementary unimodular
    moves (add a multiple of one to another, swap, negate), then redundant
    integer combinations appended."""
    out = list(gens)
    for _ in range(rnd.randint(0, 8) if len(out) >= 2 else 0):
        i, j = rnd.sample(range(len(out)), 2)
        move = rnd.randrange(3)
        if move == 0:
            out[i] = out[i] + out[j].scale(rnd.randint(-3, 3))
        elif move == 1:
            out[i], out[j] = out[j], out[i]
        else:
            out[i] = -out[i]
    for _ in range(rnd.randint(0, 2) if out else 0):
        extra = out[0].group.zero()
        for g in out:
            extra = extra + g.scale(rnd.randint(-2, 2))
        out.insert(rnd.randint(0, len(out)), extra)
    return tuple(out)


class TestCanonicalBasis:
    @given(generating_sets(), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_generating_sets_of_one_subgroup_share_a_basis(self, drawn, rnd):
        amb, raw = drawn
        sub, other = Subgroup(amb, raw), Subgroup(amb, recombine(raw, rnd))
        assert other.basis == sub.basis
        assert other == sub and hash(other) == hash(sub)
        assert subgroup_cmp(sub, other) is Cmp.EQUAL

    @given(generating_sets())
    @settings(max_examples=150, deadline=None)
    def test_entries_reduced_below_pivots(self, drawn):
        sub = Subgroup(*drawn)
        orders = sub.ambient.coord_orders()
        pivots = [next(j for j, x in enumerate(row) if x) for row in sub.basis]
        assert pivots == sorted(set(pivots))
        for i, (row, c) in enumerate(zip(sub.basis, pivots)):
            assert row[c] > 0
            assert all(other[c] == 0 for other in sub.basis[i + 1 :])
            assert all(0 <= other[c] < row[c] for other in sub.basis[:i])
        # Each torsion coordinate has a pivot dividing its order, so no
        # other basis entry there reaches the order.
        for j, t in enumerate(orders):
            if t:
                assert j in pivots and t % sub.basis[pivots.index(j)][j] == 0
                assert all(0 <= row[j] < t for row, c in zip(sub.basis, pivots) if c != j)

    def test_whole_and_trivial(self):
        g = FgAbGroup(1, (2, 6))
        assert Subgroup.whole(g).basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert Subgroup.trivial(g).basis == ((0, 2, 0), (0, 0, 6))
        assert Subgroup(g, (g.element([2, 1, 3]), g.element([0, 1, 3]))).basis == (
            (2, 0, 0), (0, 1, 3), (0, 0, 6)
        )


def random_invariant_group(rng):
    """Free rank 0-2 and up to 3 torsion orders, in invariant-factor form;
    the trivial group is drawn too."""
    orders = [rng.choice([2, 3, 4, 6, 8, 12]) for _ in range(rng.randint(0, 3))]
    return direct_sum([FgAbGroup.free(rng.randint(0, 2))] + [FgAbGroup.cyclic(t) for t in orders])


def random_map_rows(rng, domain, coord_orders):
    """Rows of a well-defined map from domain into coordinates with these
    orders (0 = free): an order-t generator goes to an element killed by t."""
    rows = [[0] * domain.rank for _ in coord_orders]
    for j, t in enumerate(domain.coord_orders()):
        for i, u in enumerate(coord_orders):
            if t == 0:
                rows[i][j] = rng.randint(-7, 7)
            elif u:
                rows[i][j] = rng.randint(-3, 3) * (u // math.gcd(t, u))
    return rows


class TestCanonicalConstructor:
    """Subgroups built from a basis that is already canonical (kernels,
    trivial, whole) are the values the public constructor gives."""

    def assert_canonical(self, sub):
        amb = sub.ambient
        again = Subgroup(amb, sub.generators_)
        assert again == sub and again.basis == sub.basis and hash(again) == hash(sub)
        assert tuple(map(tuple, _hnf(sub.basis, amb.coord_orders()))) == sub.basis
        nonzero = (amb.element(row) for row in sub.basis)
        assert sub.generators_ == tuple(g for g in nonzero if not g.is_zero)

    def test_kernels_trivial_and_whole(self):
        rng = random.Random(909)
        ranks = set()
        for _ in range(300):
            dom = random_invariant_group(rng)
            ranks.add(dom.rank)
            coord_orders = [rng.choice([0, 0, 2, 3, 4, 6, 12]) for _ in range(rng.randint(0, 3))]
            ker = kernel_into_coords(dom, random_map_rows(rng, dom, coord_orders), coord_orders)
            for sub in (ker, Subgroup.trivial(dom), Subgroup.whole(dom)):
                self.assert_canonical(sub)
            assert Subgroup.trivial(dom) == Subgroup(dom, ())
            units = tuple(dom.element([int(i == j) for j in range(dom.rank)]) for i in range(dom.rank))
            assert Subgroup.whole(dom) == Subgroup(dom, units)
            gens = tuple(dom.element([rng.randint(-9, 9) for _ in range(dom.rank)]) for _ in range(2))
            self.assert_canonical(Subgroup(dom, gens))
        assert {0, 1, 2, 3}.issubset(ranks)

    def test_shared_trivial_and_whole_equal_a_fresh_build(self, tables, monkeypatch):
        monkeypatch.setattr(fgab, "_TRIVIALS", {})
        monkeypatch.setattr(fgab, "_WHOLES", {})
        raw = tables.raw
        groups = {e.group for e in raw.entries.values()} | {s.group for s in raw.stems.values()}
        assert len(groups) > 10
        for g in groups:
            units = tuple(g.element([int(i == j) for j in range(g.rank)]) for i in range(g.rank))
            assert Subgroup.whole(g) == Subgroup(g, units)
            assert Subgroup.trivial(g) == Subgroup(g, ())
            # An equal group value of another table gets the same shared value.
            twin = FgAbGroup(g.free_rank, g.torsion)
            assert Subgroup.whole(twin) is Subgroup.whole(g)
            assert Subgroup.trivial(twin) is Subgroup.trivial(g)
        assert set(fgab._TRIVIALS) == set(fgab._WHOLES) == groups

    def test_relation_rows_are_not_generators(self):
        g = FgAbGroup(0, (2, 4))
        ker = kernel_into_coords(g, [[1, 1]], [2])
        assert ker.basis == ((1, 1), (0, 2))
        assert [x.coeffs for x in ker.generators_] == [(1, 1), (0, 2)]
        assert Subgroup.trivial(g).generators_ == ()
        assert [x.coeffs for x in kernel_into_coords(g, [[0, 0]], [0]).generators_] == [(1, 0), (0, 1)]


KERNEL_ORDERS = (0, 2, 3, 4, 8, 12, 24, 240)


def graph_kernel(domain, rows, coord_orders):
    """The kernel as the graph HNF reads it, for a domain of any rank: the
    rows of the HNF of (M e_j | e_j), with both sides' relations, whose
    codomain part is zero, taken as the canonical basis."""
    c_dim = len(rows)
    graph = [
        [row[j] for row in rows] + [int(i == j) for i in range(domain.rank)]
        for j in range(domain.rank)
    ]
    hnf = _hnf(graph, tuple(coord_orders) + domain.coord_orders())
    return Subgroup._canonical(domain, [r[c_dim:] for r in hnf if not any(r[:c_dim])])


def kills(x, v, t):
    """Is x * v zero in a coordinate of order t (0 = free)?"""
    return x * v % t == 0 if t else x * v == 0


def cyclic_maps(rng, count):
    """(domain, rows, coord_orders, well_defined) for a domain Z or Z/d and
    0-6 coordinates, with d and every order drawn from KERNEL_ORDERS.  Half
    the columns are drawn well defined on Z/d, the other half at random."""
    for _ in range(count):
        d = rng.choice(KERNEL_ORDERS)
        orders = [rng.choice(KERNEL_ORDERS) for _ in range(rng.randint(0, 6))]
        if rng.random() < 0.5:
            # x -> x * v is well defined on Z/d when d * v is zero in each coordinate.
            column = [rng.randint(-3, 3) * (t // math.gcd(d, t) if t else d == 0) for t in orders]
        else:
            column = [rng.randint(-2 * t - 3, 2 * t + 3) for t in orders]
        rows = [[v] for v in column]
        yield FgAbGroup.cyclic(d), rows, orders, all(kills(d, v, t) for v, t in zip(column, orders))


def identity_basis(rank):
    return tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))


class TestCyclicDomainKernels:
    """kernel_into_coords answers a domain Z or Z/d in closed form, from the
    order of the generator's image; the graph HNF is the reference."""

    def test_closed_form_is_the_graph_hnf_kernel(self):
        kinds = Counter()
        for domain, rows, orders, well_defined in cyclic_maps(random.Random(2026), 3000):
            ker, ref = kernel_into_coords(domain, rows, orders), graph_kernel(domain, rows, orders)
            assert ker == ref and ker.basis == ref.basis, (domain, rows, orders)
            assert ker.generators_ == ref.generators_
            kinds[domain.is_finite, well_defined] += 1
        # Z, and Z/d under maps both well defined and not, each often.
        assert len(kinds) == 3 and min(kinds.values()) > 300, kinds

    def test_well_defined_maps_from_z_mod_d_match_enumeration(self):
        checked = 0
        for domain, rows, orders, well_defined in cyclic_maps(random.Random(2027), 2000):
            if not (domain.is_finite and well_defined):
                continue
            brute = {
                (x,) for x in range(domain.torsion[0])
                if all(kills(x, v, t) for (v,), t in zip(rows, orders))
            }
            assert kernel_into_coords(domain, rows, orders).enumerate() == brute, (domain, rows, orders)
            checked += 1
        assert checked > 500

    @given(generating_sets())
    @settings(max_examples=150, deadline=None)
    def test_is_whole_is_the_identity_basis(self, drawn):
        amb = drawn[0]
        for sub in (Subgroup(*drawn), Subgroup.whole(amb), Subgroup.trivial(amb)):
            assert sub.is_whole() == (sub.basis == identity_basis(amb.rank))

    def test_is_whole_on_cyclic_kernels(self):
        answers = Counter()
        for domain, rows, orders, _ in cyclic_maps(random.Random(2028), 1000):
            ker = kernel_into_coords(domain, rows, orders)
            answers[ker.is_whole()] += 1
            assert ker.is_whole() == (ker.basis == identity_basis(1))
        assert min(answers[True], answers[False]) > 100, answers


@pytest.fixture(scope="module")
def lattice_hnf():
    """The sympy HNF of the lattice spanned by some rows and the ambient's
    torsion relations: equal lattices give equal matrices."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form

    def hnf(ambient, rows):
        rows = [list(r) for r in rows]
        for i, t in enumerate(ambient.coord_orders()):
            if t:
                rows.append([t if j == i else 0 for j in range(ambient.rank)])
        if not rows:
            return sympy.zeros(ambient.rank, 0)
        return hermite_normal_form(sympy.Matrix(rows).T)

    return hnf


class TestSympyOracle:
    @given(generating_sets(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_contains_agrees(self, lattice_hnf, drawn, data):
        amb, raw = drawn
        sub = Subgroup(amb, raw)
        gens = [g.coeffs for g in raw]
        assert lattice_hnf(amb, sub.basis) == lattice_hnf(amb, gens)
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(gens), max_size=len(gens)))
        inside = amb.zero()
        for c, g in zip(coeffs, raw):
            inside = inside + g.scale(c)
        anywhere = amb.element(
            data.draw(st.lists(st.integers(-6, 6), min_size=amb.rank, max_size=amb.rank))
        )
        for x in (inside, anywhere, inside + anywhere):
            expected = lattice_hnf(amb, gens + [x.coeffs]) == lattice_hnf(amb, gens)
            assert sub.contains(x) is expected
        assert sub.contains(inside)

    @given(generating_sets(max_gens=3), st.data())
    @settings(max_examples=150, deadline=None)
    def test_subgroup_cmp_agrees(self, lattice_hnf, drawn, data):
        amb, raw_a = drawn
        vector = st.lists(st.integers(-6, 6), min_size=amb.rank, max_size=amb.rank)
        extra = data.draw(st.lists(vector, max_size=2))
        # b shares a's generators half the time, so that inclusions occur.
        base = data.draw(st.sampled_from([(), raw_a, raw_a[:1]]))
        raw_b = tuple(base) + tuple(amb.element(v) for v in extra)
        a, b = Subgroup(amb, raw_a), Subgroup(amb, raw_b)
        ga = [g.coeffs for g in raw_a]
        gb = [g.coeffs for g in raw_b]
        both = lattice_hnf(amb, ga + gb)
        sub, sup = both == lattice_hnf(amb, gb), both == lattice_hnf(amb, ga)
        expected = {
            (True, True): Cmp.EQUAL,
            (True, False): Cmp.PROPER_SUB,
            (False, True): Cmp.PROPER_SUPER,
            (False, False): Cmp.INCOMPARABLE,
        }[(sub, sup)]
        assert subgroup_cmp(a, b) is expected
        assert (a.basis == b.basis) is (expected is Cmp.EQUAL)
        assert (a == b) is (expected is Cmp.EQUAL)


class TestDirectSum:
    def test_crt(self):
        assert direct_sum([FgAbGroup.cyclic(2), FgAbGroup.cyclic(3)]) == FgAbGroup.cyclic(6)

    def test_big_target_shape(self):
        # The eight-summand target of the total Hopf-James invariant at
        # (m, q) = (9, 2): Z/240 + Z/2 + 0 + 0 + Z/24 + Z/2 + Z/2 + Z.
        parts = [
            FgAbGroup.cyclic(240),
            FgAbGroup.cyclic(2),
            FgAbGroup.trivial(),
            FgAbGroup.trivial(),
            FgAbGroup.cyclic(24),
            FgAbGroup.cyclic(2),
            FgAbGroup.cyclic(2),
            FgAbGroup.free(1),
        ]
        total = direct_sum(parts)
        assert total == FgAbGroup(1, (2, 2, 2, 24, 240))

    def test_enumeration_oracle(self):
        got = direct_sum([FgAbGroup.cyclic(4), FgAbGroup.cyclic(6)])
        assert got == FgAbGroup(0, (2, 12))
        assert math.prod(got.torsion) == 24

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 60), max_size=6))
    def test_torsion_is_the_snf_diagonal(self, orders):
        """The torsion of a sum of cyclic groups is the part > 1 of the Smith
        normal form of diag(orders); 0 is a free summand."""
        got = direct_sum([FgAbGroup.cyclic(t) for t in orders])
        diag = [[t if i == j else 0 for j in range(len(orders))] for i, t in enumerate(orders)]
        _u, d, _v = smith_normal_form(diag)
        assert got.free_rank == orders.count(0)
        assert got.torsion == tuple(d[i][i] for i in range(len(orders)) if d[i][i] > 1)
