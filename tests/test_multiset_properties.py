"""Property-based tests: the algebraic laws of bag multiplicity arithmetic.

These laws are what make the paper's Theorems 3.1-3.3 true at the
container level; hypothesis explores the multiplicity space far beyond
the hand-written cases.
"""

import pytest
from hypothesis import given

from repro.multiset import Multiset
from tests.conftest import int_bags


class TestUnionLaws:
    @given(int_bags, int_bags)
    def test_union_commutative(self, a, b):
        assert a.union(b) == b.union(a)

    @given(int_bags, int_bags, int_bags)
    def test_union_associative(self, a, b, c):
        assert a.union(b).union(c) == a.union(b.union(c))

    @given(int_bags)
    def test_union_identity(self, a):
        assert a.union(Multiset.empty()) == a

    @given(int_bags, int_bags)
    def test_union_cardinality_adds(self, a, b):
        assert len(a.union(b)) == len(a) + len(b)


class TestIntersectionLaws:
    @given(int_bags, int_bags)
    def test_intersection_commutative(self, a, b):
        assert a.intersection(b) == b.intersection(a)

    @given(int_bags, int_bags, int_bags)
    def test_intersection_associative(self, a, b, c):
        assert a.intersection(b).intersection(c) == a.intersection(
            b.intersection(c)
        )

    @given(int_bags)
    def test_intersection_idempotent(self, a):
        assert a.intersection(a) == a

    @given(int_bags, int_bags)
    def test_intersection_is_lower_bound(self, a, b):
        meet = a.intersection(b)
        assert meet <= a
        assert meet <= b


class TestMonusLaws:
    @given(int_bags)
    def test_difference_self_is_empty(self, a):
        assert not a.difference(a)

    @given(int_bags)
    def test_difference_empty_identity(self, a):
        assert a.difference(Multiset.empty()) == a

    @given(int_bags, int_bags)
    def test_theorem_3_1_min_via_monus(self, a, b):
        """max(0, A(x) − max(0, A(x) − B(x))) = min(A(x), B(x)) — the proof
        obligation inside Theorem 3.1, at full container level."""
        assert a.difference(a.difference(b)) == a.intersection(b)

    @given(int_bags, int_bags)
    def test_monus_then_union_overshoots_to_max(self, a, b):
        """(A − B) ⊎ B has multiplicity max(A(x), B(x))."""
        assert a.difference(b).union(b) == a.max_union(b)

    @given(int_bags, int_bags, int_bags)
    def test_monus_antidistribution(self, a, b, c):
        """(A − B) − C = A − (B ⊎ C)."""
        assert a.difference(b).difference(c) == a.difference(b.union(c))


class TestMaxUnionLaws:
    @given(int_bags, int_bags)
    def test_max_union_commutative(self, a, b):
        assert a.max_union(b) == b.max_union(a)

    @given(int_bags, int_bags, int_bags)
    def test_max_union_associative(self, a, b, c):
        assert a.max_union(b).max_union(c) == a.max_union(b.max_union(c))

    @given(int_bags)
    def test_max_union_idempotent(self, a):
        assert a.max_union(a) == a

    @given(int_bags, int_bags, int_bags)
    def test_min_max_absorption(self, a, b, c):
        """min/max lattice absorption: A ∩ (A ∪max B) = A."""
        assert a.intersection(a.max_union(b)) == a


class TestDistinctLaws:
    @given(int_bags)
    def test_distinct_idempotent(self, a):
        assert a.distinct().distinct() == a.distinct()

    @given(int_bags)
    def test_distinct_preserves_support(self, a):
        assert a.distinct().support() == a.support()

    @given(int_bags, int_bags)
    def test_delta_union_max_identity(self, a, b):
        """δ(A ⊎ B) = δA ∪max δB — the valid form of the δ/⊎ relation."""
        assert a.union(b).distinct() == a.distinct().max_union(b.distinct())

    @given(int_bags, int_bags)
    def test_delta_does_not_distribute_over_union(self, a, b):
        """δ(A ⊎ B) = δA ⊎ δB iff supports are disjoint — the paper's
        Section 3.3 warning, stated precisely."""
        lhs = a.union(b).distinct()
        rhs = a.distinct().union(b.distinct())
        disjoint = not (a.support() & b.support())
        assert (lhs == rhs) == disjoint

    @given(int_bags, int_bags)
    def test_delta_union_double_delta(self, a, b):
        """δ(A ⊎ B) = δ(δA ⊎ δB) always holds."""
        assert a.union(b).distinct() == a.distinct().union(b.distinct()).distinct()


class TestScaleLaws:
    @given(int_bags)
    def test_scale_one_identity(self, a):
        assert a.scale(1) == a

    @given(int_bags, int_bags)
    def test_scale_distributes_over_union(self, a, b):
        assert a.union(b).scale(3) == a.scale(3).union(b.scale(3))

    @given(int_bags)
    def test_scale_composes(self, a):
        assert a.scale(2).scale(3) == a.scale(6)


class TestMapFilterLaws:
    @given(int_bags)
    def test_filter_true_is_identity(self, a):
        assert a.filter(lambda value: True) == a

    @given(int_bags)
    def test_filter_false_is_empty(self, a):
        assert not a.filter(lambda value: False)

    @given(int_bags)
    def test_map_preserves_cardinality(self, a):
        """Bag projection never changes cardinality (no dedup)."""
        assert len(a.map(lambda value: value % 2)) == len(a)

    @given(int_bags, int_bags)
    def test_map_distributes_over_union(self, a, b):
        image = lambda value: value % 3
        assert a.union(b).map(image) == a.map(image).union(b.map(image))

    @given(int_bags, int_bags)
    def test_filter_distributes_over_union(self, a, b):
        keep = lambda value: value % 2 == 0
        assert a.union(b).filter(keep) == a.filter(keep).union(b.filter(keep))

    @given(int_bags, int_bags)
    def test_product_cardinality_multiplies(self, a, b):
        product = a.product(b, lambda left, right: (left, right))
        assert len(product) == len(a) * len(b)


class TestOrderingLaws:
    @given(int_bags, int_bags)
    def test_submultiset_antisymmetric(self, a, b):
        if a <= b and b <= a:
            assert a == b

    @given(int_bags, int_bags, int_bags)
    def test_submultiset_transitive(self, a, b, c):
        if a <= b and b <= c:
            assert a <= c

    @given(int_bags, int_bags)
    def test_difference_then_check(self, a, b):
        assert a.difference(b) <= a


class TestPatchLaws:
    @given(int_bags, int_bags, int_bags)
    def test_patch_is_monus_then_union(self, a, b, c):
        # Definition 4.1's statement form: (R − M) ⊎ A with M = R ∩ E,
        # and R − (R ∩ E) = R − E under monus.
        patched = a.patched(a.intersection(b), c)
        assert patched == a.difference(b).union(c)
        assert len(patched) == len(a.difference(b)) + len(c)

    @given(int_bags)
    def test_patch_rejects_a_non_submultiset(self, a):
        with pytest.raises(ValueError):
            a.patched(a.union(Multiset([0])), Multiset.empty())
