"""Exact abelian-group arithmetic: SNF, elements, homs, kernels, subgroups."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coincalc.fgab import (
    Cmp,
    FgAbError,
    FgAbGroup,
    Homomorphism,
    Subgroup,
    direct_sum,
    image,
    int_det,
    kernel,
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

    def test_compose_and_apply(self):
        z4 = FgAbGroup.cyclic(4)
        z2 = FgAbGroup.cyclic(2)
        h = Homomorphism(z4, z2, ((1,),))  # reduction mod 2
        g = Homomorphism(z2, z2, ((1,),))
        gh = g.compose(h)
        for k in range(4):
            assert gh.apply(z4.element([k])) == g.apply(h.apply(z4.element([k])))

    def test_zero_map_apply(self):
        z6 = FgAbGroup.cyclic(6)
        z = Homomorphism.zero(z6, FgAbGroup(1))
        assert z.apply(z6.element([5])).is_zero


class TestKernelImageSubgroups:
    def test_kernel_of_identity(self):
        z24 = FgAbGroup.cyclic(24)
        assert kernel(Homomorphism.identity(z24)).is_trivial

    def test_zero_map_kernel_is_whole(self):
        z2 = FgAbGroup.cyclic(2)
        k = kernel(Homomorphism.zero(z2, z2))
        assert subgroup_cmp(k, Subgroup.whole(z2)) is Cmp.EQUAL

    def test_forced_zero_map_z3_to_z2(self):
        z3, z2 = FgAbGroup.cyclic(3), FgAbGroup.cyclic(2)
        # The only homomorphism Z/3 -> Z/2 is zero; its kernel is everything.
        h = Homomorphism.zero(z3, z2)
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
        assert got.order() == 24
