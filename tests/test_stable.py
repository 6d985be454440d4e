"""Stable stems: pinned groups, the partial product, named classes."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coincalc.stable import StableElement, StableRing, Unknown
from coincalc.tables import OutOfTabulatedRange, UnregisteredName, parse_tables

PINNED_STEMS = {
    0: "Z",
    1: "Z_2",
    2: "Z_2",
    3: "Z_24",
    4: "0",
    5: "0",
    6: "Z_2",
    7: "Z_240",
    8: "Z_2 + Z_2",
    11: "Z_504",
    12: "0",
}


def test_pinned_stems(tables):
    for k, want in PINNED_STEMS.items():
        assert str(tables.ring.stem(k).group) == want


def test_stem_generators(tables):
    assert tables.ring.stem(1).gen_names == ("eta",)
    assert tables.ring.stem(3).gen_names == ("nu",)
    assert tables.ring.stem(4).gen_names == ()


def test_range_errors(tables):
    with pytest.raises(OutOfTabulatedRange):
        tables.ring.stem(20)
    with pytest.raises(OutOfTabulatedRange):
        tables.ring.stem(-1)


def test_named_registry(tables):
    ring = tables.ring
    two = ring.named("two")
    assert two.degree == 0 and two.value.coeffs == (2,)
    eta3 = ring.named("eta3")
    assert eta3.degree == 3 and eta3.order() == 2
    a13 = ring.named("einf_alpha1_3")
    assert a13.degree == 3 and a13.order() == 3 and a13.value.coeffs == (8,)
    with pytest.raises(LookupError) as err:
        ring.named("nosuch")
    assert "eta" in str(err.value)  # the error lists what exists


@pytest.mark.parametrize("text", ["", "stem 0 0\n", "stem 0 0 2,2\ngen a\ngen b\n"])
def test_derived_class_needs_its_stem_at_its_rank(text):
    # two, eta3 and einf_alpha1_3 are vectors in a fixed stem: where that stem
    # is missing or of another rank they are unregistered, not a shape error.
    ring = StableRing(parse_tables(text))
    for name in ("two", "eta3", "einf_alpha1_3"):
        with pytest.raises(UnregisteredName, match=f"unknown stable class '{name}'"):
            ring.named(name)
    assert not {"two", "eta3", "einf_alpha1_3"} & set(ring.available_names())


def test_orders(tables):
    ring = tables.ring
    assert ring.named("eta").order() == 2
    assert ring.named("nu").order() == 24
    assert ring.named("iota").order() is None
    assert ring.named("two").order() is None


def _multiply_by_elements(ring, tables, a, b):
    """The product of a and b, summed one scaled generator product at a time;
    None where a needed generator product is not tabulated."""
    k = a.degree + b.degree
    total = ring.stem(k).group.zero()
    if total.group.is_trivial or a.is_zero or b.is_zero:
        return StableElement(k, total)
    if a.degree == 0:
        return StableElement(k, b.value.scale(a.value.coeffs[0]))
    if b.degree == 0:
        return StableElement(k, a.value.scale(b.value.coeffs[0]))
    names_a, names_b = ring.stem(a.degree).gen_names, ring.stem(b.degree).gen_names
    pairs = itertools.product(enumerate(a.value.coeffs), enumerate(b.value.coeffs))
    for (i, ca), (j, cb) in pairs:
        if ca and cb:
            entry, sign = tables.products.get((names_a[i], names_b[j])), 1
            if entry is None:
                entry = tables.products.get((names_b[j], names_a[i]))
                sign = -1 if a.degree % 2 and b.degree % 2 else 1
            if entry is None:
                return None
            total = total + ring.element(k, entry.coeffs).value.scale(sign * ca * cb)
    return StableElement(k, total)


class TestMultiply:
    def test_summed_product_equals_generator_by_generator(self, tables):
        # Every class with coefficients in -2..2 times every multiple -2..2 of
        # each generator of every stem it can be multiplied with.
        ring, stems = tables.ring, tables.raw.stems
        known = 0
        for ka, kb in itertools.product(stems, repeat=2):
            if ka + kb > ring.max_degree:
                continue
            rank_b = stems[kb].group.rank
            for coeffs in itertools.product(range(-2, 3), repeat=stems[ka].group.rank):
                a = ring.element(ka, coeffs)
                for j, c in itertools.product(range(rank_b), range(-2, 3)):
                    b = ring.element(kb, [c if i == j else 0 for i in range(rank_b)])
                    got = ring.multiply(a, b)
                    want = _multiply_by_elements(ring, tables.raw, a, b)
                    if want is None:
                        assert isinstance(got, Unknown), (a, b)
                    else:
                        assert got == want, (a, b)
                        known += not want.is_zero
        assert known > 100

    def test_two_eta_vanishes(self, tables):
        ring = tables.ring
        prod = ring.multiply(ring.named("two"), ring.named("eta"))
        assert prod.is_zero

    def test_eta_squared_nonzero(self, tables):
        ring = tables.ring
        prod = ring.multiply(ring.named("eta"), ring.named("eta"))
        assert prod == ring.named("eta2")

    def test_eta_cubed_is_12_nu(self, tables):
        ring = tables.ring
        prod = ring.multiply(ring.named("eta"), ring.named("eta2"))
        assert prod == ring.named("eta3")
        assert prod.value.coeffs == (12,)

    def test_nu_eta_vanishes(self, tables):
        ring = tables.ring
        prod = ring.multiply(ring.named("nu"), ring.named("eta"))
        assert prod.is_zero and prod.degree == 4

    def test_nu_squared_nonzero(self, tables):
        ring = tables.ring
        prod = ring.multiply(ring.named("nu"), ring.named("nu"))
        assert prod == ring.named("nu2")

    def test_twice_the_order_three_class(self, tables):
        ring = tables.ring
        prod = ring.multiply(ring.named("two"), ring.named("einf_alpha1_3"))
        assert prod.value.coeffs == (16,) and not prod.is_zero

    def test_unit(self, tables):
        ring = tables.ring
        sigma = ring.named("sigma")
        assert ring.multiply(ring.named("iota"), sigma) == sigma

    def test_zero_factor(self, tables):
        ring = tables.ring
        assert ring.multiply(StableElement(3, ring.stem(3).group.zero()), ring.named("eta")).is_zero

    def test_unknown_product_is_honest(self, tables):
        ring = tables.ring
        out = ring.multiply(ring.named("sigma"), ring.named("sigma"))
        assert isinstance(out, Unknown)
        assert "sigma" in out.reason

    def test_out_of_range_degree(self, tables):
        # A degree past the last stem is a gap of the table like any other.
        ring = tables.ring
        out = ring.multiply(ring.named("zeta"), ring.named("etamu_beta1"))
        assert out == Unknown("product degree 21 beyond tabulated stems (max 19)")

    def test_acceptance_products_all_known(self, tables):
        # Every product the coincidence criteria rely on must be tabulated.
        ring = tables.ring
        pairs = [
            ("two", "eta"),
            ("eta", "eta"),
            ("eta", "eta2"),
            ("nu", "eta"),
            ("nu", "nu"),
            ("two", "einf_alpha1_3"),
        ]
        for a, b in pairs:
            out = ring.multiply(ring.named(a), ring.named(b))
            assert isinstance(out, StableElement), (a, b)

    def test_bilinearity_on_known_products(self, tables):
        ring = tables.ring
        eta, nu = ring.named("eta"), ring.named("nu")
        for k in range(1, 5):
            left = ring.multiply(StableElement(1, eta.value.scale(k)), nu)
            right = ring.multiply(eta, nu)
            assert left.value == right.value.scale(k)
        a = ring.named("eta")
        b = ring.named("eta2")
        lhs = ring.multiply(StableElement(1, a.value + a.value), b)
        rhs = ring.multiply(a, b).value + ring.multiply(a, b).value
        assert lhs.value == rhs

    def test_graded_commutativity_on_stored_pairs(self, tables):
        ring = tables.ring
        for (na, nb), entry in tables.raw.products.items():
            a, b = ring.named(na), ring.named(nb)
            ab = ring.multiply(a, b)
            ba = ring.multiply(b, a)
            sign = -1 if (a.degree % 2 == 1 and b.degree % 2 == 1) else 1
            assert ab.value == ba.value.scale(sign), (na, nb)

    def test_order_coherence(self, tables):
        # order(a*b) divides gcd(order(a), order(b)) for finite orders.
        from math import gcd

        ring = tables.ring
        for (na, nb), entry in tables.raw.products.items():
            a, b = ring.named(na), ring.named(nb)
            ab = ring.multiply(a, b)
            oa, ob = a.order(), b.order()
            if oa is None or ob is None:
                continue
            assert gcd(oa, ob) % ab.order() == 0, (na, nb)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_product_core_is_unknown_exactly_when_multiply_is(tables, data):
    # multiply wraps StableRing.product; validate() asks the core alone.
    ring, stems = tables.ring, tables.raw.stems
    ka = data.draw(st.integers(0, ring.max_degree))
    kb = data.draw(st.integers(0, ring.max_degree - ka))
    a, b = (
        ring.element(k, data.draw(st.lists(
            st.integers(-3, 3), min_size=stems[k].group.rank, max_size=stems[k].group.rank,
        )))
        for k in (ka, kb)
    )
    core = ring.product(ka, a.value.coeffs, kb, b.value.coeffs)
    full = ring.multiply(a, b)
    assert isinstance(core, Unknown) == isinstance(full, Unknown)
    assert core == (full if isinstance(full, Unknown) else full.value.coeffs)


def test_hopf_stable(tables):
    ring = tables.ring
    assert ring.hopf_stable("R").order() is None  # 2*iota, infinite order
    assert ring.hopf_stable("C").order() == 2
    assert ring.hopf_stable("H").order() == 24
    with pytest.raises(ValueError):
        ring.hopf_stable("O")


def test_hopf_stable_is_resolved_once_per_ring(table_text):
    # Each ring keeps the Hopf class it resolves for a field, and answers
    # every later ask with that same object.
    ring = StableRing(parse_tables(table_text))
    for tag in ("R", "C", "H"):
        first = ring.hopf_stable(tag)
        assert ring.hopf_stable(tag) is first
        assert first == ring.named({"R": "two", "C": "eta", "H": "nu"}[tag])


def test_missing_hopf_class_is_the_same_unknown_on_every_ask():
    # A table without eta has no Hopf class for C: every ask returns the one
    # Unknown naming it, while R and H still resolve.
    ring = StableRing(parse_tables("stem 0 1\ngen iota\nstem 1 0 2\ngen e\n"
                                   "stem 2 0 2\ngen e2\nstem 3 0 24\ngen nu\n"))
    first = ring.hopf_stable("C")
    assert isinstance(first, Unknown)
    assert first.reason.startswith("unknown stable class 'eta'; available: ")
    for _ in range(2):
        assert ring.hopf_stable("C") is first
    assert ring.hopf_stable("R").degree == 0 and ring.hopf_stable("H").degree == 3
