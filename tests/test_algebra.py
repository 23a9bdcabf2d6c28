"""Exact arithmetic in the path algebra.

Core claims:
    - trivial paths are orthogonal idempotents summing to the identity
    - multiplication extends the delta rule bilinearly and is associative
    - the commutator is antisymmetric and satisfies the Jacobi identity
    - normalization prunes zero coefficients so equality is structural
    - sums, differences, negations, products, multiples and commutators of
      seeded elements, exact cancellation included, equal the element the
      public constructor builds from a dict-of-Fraction model, and store
      only nonzero exact coefficients, ints where every operand is integral
    - int, Fraction and mixed coefficient terms build equal elements that
      store an int for each integral coefficient and a Fraction only
      otherwise; a bool or a float is converted exactly
"""

from fractions import Fraction

import pytest

from quiverdiff.algebra import AlgebraElement
from quiverdiff.errors import QuiverMismatchError

from helpers import fixture_quiver, random_acyclic_quiver, random_element, seeded


# -- Helpers -----------------------------------------------------------------

def _path_elem(q, name):
    return AlgebraElement.from_path(q, q.arrow_path(name))


def _vertex_elem(q, name):
    return AlgebraElement.from_path(q, q.trivial_path(name))


# -- Idempotents and identity ------------------------------------------------

def test_trivial_paths_are_orthogonal_idempotents():
    q = fixture_quiver("a3")
    for v in q.vertex_names:
        e = _vertex_elem(q, v)
        assert e * e == e
    for v in q.vertex_names:
        for w in q.vertex_names:
            if v != w:
                assert (_vertex_elem(q, v) * _vertex_elem(q, w)).is_zero


def test_identity_element():
    rng = seeded(2101)
    for name in ("a3", "k2", "triangle_tails"):
        q = fixture_quiver(name)
        e = AlgebraElement.identity(q)
        for _ in range(5):
            a = random_element(rng, q)
            assert e * a == a
            assert a * e == a


# -- Multiplication ----------------------------------------------------------

def test_delta_rule_examples():
    q = fixture_quiver("a3")
    a = _vertex_elem(q, "v1") + _path_elem(q, "p1")
    prod = a * _path_elem(q, "p2")
    assert prod.support() == (q.concat(q.arrow_path("p1"), q.arrow_path("p2")),)
    assert prod.coefficient(prod.support()[0]) == 1

    q2 = fixture_quiver("a2")
    assert (_path_elem(q2, "p1") * _path_elem(q2, "p1")).is_zero


def test_scalar_and_bilinearity():
    rng = seeded(2102)
    q = fixture_quiver("triangle_tails")
    for _ in range(20):
        a = random_element(rng, q)
        b = random_element(rng, q)
        c = random_element(rng, q)
        s = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        assert (a + b) * c == a * c + b * c
        assert a * (b + c) == a * b + a * c
        assert (s * a) * b == s * (a * b)


def test_multiplication_associative_randomized():
    rng = seeded(2103)
    for _ in range(8):
        q = random_acyclic_quiver(rng)
        for _ in range(15):
            a = random_element(rng, q)
            b = random_element(rng, q)
            c = random_element(rng, q)
            assert (a * b) * c == a * (b * c)


# -- Commutator --------------------------------------------------------------

def test_commutator_examples():
    q = fixture_quiver("a3")
    p1p2 = AlgebraElement.from_path(
        q, q.concat(q.arrow_path("p1"), q.arrow_path("p2"))
    )
    assert _path_elem(q, "p1").commutator(_path_elem(q, "p2")) == p1p2

    q2 = fixture_quiver("a2")
    assert _vertex_elem(q2, "v1").commutator(_path_elem(q2, "p1")) == _path_elem(q2, "p1")


def test_commutator_antisymmetric():
    rng = seeded(2104)
    q = fixture_quiver("k2")
    for _ in range(10):
        a = random_element(rng, q)
        b = random_element(rng, q)
        assert a.commutator(a).is_zero
        assert a.commutator(b) == -(b.commutator(a))


def test_jacobi_identity_randomized():
    rng = seeded(2105)
    for name in ("a4", "k2", "triangle_tails"):
        q = fixture_quiver(name)
        for _ in range(10):
            a = random_element(rng, q)
            b = random_element(rng, q)
            c = random_element(rng, q)
            total = (
                a.commutator(b.commutator(c))
                + b.commutator(c.commutator(a))
                + c.commutator(a.commutator(b))
            )
            assert total.is_zero


# -- Results against a dict model --------------------------------------------

def _model_sum(*terms):
    acc = {}
    for sign, elem in terms:
        for p, c in elem.items():
            acc[p] = acc.get(p, Fraction(0)) + sign * c
    return acc


def _model_product(q, a, b):
    acc = {}
    for p, cp in a.items():
        for r, cr in b.items():
            s = q.concat(p, r)
            if s is not None:
                acc[s] = acc.get(s, Fraction(0)) + cp * cr
    return acc


def _cancelling_element(rng, q, paths):
    """Few terms with coefficients in +-1, +-2, +-1/2, so that sums and
    products of two such elements often cancel to zero."""
    return AlgebraElement(
        q,
        [(paths[rng.randrange(len(paths))], rng.choice((1, -1, 2, -2, Fraction(1, 2))))
         for _ in range(rng.randint(0, 4))],
    )


def _assert_is_model(result, q, model, integral):
    """result is the element of ``model``, with nonzero exact coefficients,
    ints where every operand was ``integral``."""
    assert result == AlgebraElement(q, model)
    kinds = (int,) if integral else (int, Fraction)
    assert all(type(c) in kinds and c for _, c in result.items())


def _cancelling_products(q):
    """(r + e, s - rs) for arrows r, s with s leaving the head of r and e
    the idempotent at the tail of r: the product is rs - rs = 0."""
    for r in range(q.num_arrows):
        for s in q.out_arrows(q.arrows[r].head):
            rp, sp = q.arrow_path(r), q.arrow_path(s)
            e = q.trivial_path(q.arrows[r].tail)
            a = AlgebraElement.from_path(q, rp) + AlgebraElement.from_path(q, e)
            yield a, AlgebraElement.from_path(q, sp) - AlgebraElement.from_path(q, q.concat(rp, sp))


def test_arithmetic_matches_a_dict_model():
    rng = seeded(2107)
    cancelled_sums = cancelled_products = integral_cases = 0
    for name in ("a2", "a3", "a5", "k2", "k3", "triangle_tails", "grid2x2", "torus_k4"):
        q = fixture_quiver(name)
        paths = q.paths()
        pairs = [
            (_cancelling_element(rng, q, paths), _cancelling_element(rng, q, paths))
            for _ in range(40)
        ]
        for a, b in pairs + list(_cancelling_products(q)):
            scalar = rng.choice((0, 1, -3, Fraction(2, 3), Fraction(-1, 2)))
            models = (
                (a + b, _model_sum((1, a), (1, b))),
                (a - b, _model_sum((1, a), (-1, b))),
                (a - a, {}),
                (-a, _model_sum((-1, a))),
                (a * b, _model_product(q, a, b)),
                (scalar * a, _model_sum((scalar, a))),
                (a * scalar, _model_sum((scalar, a))),
                (a.commutator(b), _model_sum(
                    (1, AlgebraElement(q, _model_product(q, a, b))),
                    (-1, AlgebraElement(q, _model_product(q, b, a))),
                )),
            )
            operands = [c for _, c in a.items() + b.items()] + [scalar]
            integral = all(type(c) is int for c in operands)
            integral_cases += integral
            for result, model in models:
                _assert_is_model(result, q, model, integral)
            cancelled_sums += any(c == 0 for c in models[0][1].values())
            cancelled_products += any(c == 0 for c in models[4][1].values())
    # the draws reach exact cancellation in sums and in products, and
    # integral operands
    assert cancelled_sums >= 10 and cancelled_products >= 10 and integral_cases >= 10


# -- Normalization and errors ------------------------------------------------

def test_normalization_prunes_zeros():
    q = fixture_quiver("a2")
    a = _path_elem(q, "p1")
    diff = a - a
    assert diff.is_zero
    assert diff.support() == ()
    assert diff == AlgebraElement.zero(q)


def test_coefficient_of_absent_path_is_zero():
    q = fixture_quiver("a2")
    a = _path_elem(q, "p1")
    assert a.coefficient(q.trivial_path("v1")) == 0


def test_zero_coefficient_terms_not_stored():
    q = fixture_quiver("a2")
    a = AlgebraElement(q, [(q.arrow_path("p1"), Fraction(0))])
    assert a.is_zero


def test_int_fraction_and_mixed_terms_give_equal_elements():
    # every coefficient is converted exactly, and the element stores an int
    # for an integral sum, a Fraction only for another
    q = fixture_quiver("a3")
    p1, p2, v1 = q.arrow_path("p1"), q.arrow_path("p2"), q.trivial_path("v1")
    ints = AlgebraElement(q, [(p1, 2), (p2, -3), (p1, 1), (v1, 4), (v1, -4)])
    fractions = AlgebraElement(
        q, [(p1, Fraction(2)), (p2, Fraction(-3)), (p1, Fraction(1)), (v1, Fraction(4)),
            (v1, Fraction(-4))]
    )
    mixed = AlgebraElement(q, [(p1, Fraction(5, 2)), (p2, -3), (p1, Fraction(1, 2)), (v1, 4),
                               (v1, Fraction(-4))])
    as_dict = AlgebraElement(q, {p1: 3, p2: Fraction(-3)})
    assert ints == fractions == mixed == as_dict
    for elem in (ints, fractions, mixed, as_dict):
        assert elem._terms == {p1: 3, p2: -3}
        assert all(type(c) is int for c in elem._terms.values())
    converted = AlgebraElement(q, [(p1, True), (p2, 2.0)])._terms
    assert converted == {p1: 1, p2: 2} and all(type(c) is int for c in converted.values())
    half = Fraction(1, 2)
    assert AlgebraElement(q, [(p1, half), (p1, half)]) == AlgebraElement(q, [(p1, 1)])
    # a float is converted exactly before it meets a Fraction
    quarters = AlgebraElement(q, [(p1, 0.25), (p1, Fraction(1, 4))])._terms
    assert quarters == {p1: half} and type(quarters[p1]) is Fraction
    assert type(AlgebraElement.from_path(q, p1, Fraction(4, 2)).coefficient(p1)) is int
    assert type((Fraction(3, 3) * AlgebraElement.from_path(q, p1)).coefficient(p1)) is int
    assert AlgebraElement(q, [(p1, half), (p1, -half)]).is_zero


def test_quiver_mismatch_rejected():
    a = AlgebraElement.identity(fixture_quiver("a2"))
    b = AlgebraElement.identity(fixture_quiver("a3"))
    with pytest.raises(QuiverMismatchError):
        a * b
    with pytest.raises(QuiverMismatchError):
        a + b
