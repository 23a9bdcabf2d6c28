"""Derivations of the path algebra: operators, bases, brackets, oracle.

Core claims:
    - inner derivations and the arrow-splice operators D_{r,s} match the
      hand-computed examples, and D_{r,s} agrees with its recursion form
    - the coefficient-condition checker agrees exactly with the direct
      Leibniz test, including on randomized non-derivations
    - q.products() is a full concat scan over every pair of basis paths,
      and the Leibniz and coefficient checks read off it give the same
      verdicts and the same violations, in order, as the per-pair
      references on the acyclic fixtures and 30 seeded quivers, for the
      basis members, the oracle solutions and seeded perturbations; on
      torus_k4 the members and the checks multiply no element, build no
      operator matrix and make no more than |P|^2 concatenations, all of
      them building the table
    - the canonical basis is independent, spans the oracle's solution
      space, and carries the expected labels
    - the oracle's streamed equations have one to three unknowns each
      and, summed and scaled to a leading 1, are the Fraction rows it
      used to build; its solution space is their kernel, its operators
      equal their dense rebuild and, operator for operator, those of the
      row-set route it replaced (tests/helpers.py), on every acyclic
      fixture and on seeded quivers of up to 40 paths; on A_10, T_5 and
      K_58, near the oracle's path cap, the rows are the Fraction rows
      and the oracle's dimension is that of the canonical basis; there
      and on two seeded quivers of 100 to 200 paths the oracle gives the
      row-set route's operators; with the cap
      raised, on T_8, A_20, K_200 and seeded quivers of 200 to 400 paths
      (and T_9, marked slow), the oracle and the canonical basis have
      equal dimensions and spans
    - bracket identities: [D_p, D_r] = D_{[p,r]}, the edge-edge identity,
      and a single consistent global sign for [D_p, D_{r,s}], whose check
      raises on a nonzero bracket at a central image, on a bracket off
      the image and on disagreeing signs; the identities' check
      runs on A_6 and T_4, and each verdict turns False when only its
      right-hand side is wrong: the edge-edge one is _bracket_pairs, the
      routine the HH1 structure table runs, and a wrong term or a
      dropped term of it is caught; on torus_k4 it runs under 40,000
      Python lines in linalg, so no operand is rescanned per product
    - the inner span of acyclic paths is nilpotent with depth bounded by
      the longest path, while ad D_{p,p} fixes D_p forever
    - the span splits: inner members form an ideal, edge members a
      subalgebra
    - the sparse operator arithmetic (bracket, sums, scalars, apply)
      agrees with dense matrix arithmetic, and coordinates_of rejects
      every operator that fails the Leibniz rule
    - coordinates read off directly round-trip on the fixtures, T_5 and
      K_4
    - inner_subspace builds no operator and no algebra element on the
      acyclic fixtures
    - canonical_basis on T_6 and inner_derivation of seeded elements
      read each row of an inner member off _product_sum once per path it
      moves, in increasing order, and on no other path; each D_{r,s}
      writes the paths through r and no other
    - arrow indices -1 and |E| raise ValueError in arrow_path, d_rs and
      d_rs_apply; a Path that is not a path of the quiver (a vertex or
      arrow out of range, or arrows that do not compose) raises
      ValueError in inner_derivation, d_rs, d_rs_apply and the helpers'
      verify_inner_expansion, the last two on cyclic quivers too
    - is_derivation rejects an operator whose one Leibniz failure is a
      pair of paths with zero images, and agrees with the per-pair
      reference on every single-entry operator of a3, k2 and T_3
    - on T_6's members, is_derivation forms at most 2,000 _product_sum
      rows and check_coefficient_conditions looks up |V| path indices
      per member: neither visits every partner or parallel path
    - verify_bracket_identities and inner_edge_bracket_sign, which form
      a product or a bracket only where their operands' supports meet,
      give the verdicts, signs and raised messages of the all-pairs
      references on the acyclic fixtures, the DIFFERENTIAL inputs,
      T_1..T_6 and seeded quivers; with every D_p and D_{r,s} of the
      basis they check perturbed both checks fail, the same way as the
      references; with one member built as zero they fail through the
      pairs they do not multiply; and on torus_k4 the identities' check
      forms at most a third of the 692 products of every ordered pair,
      on a3 at least one
    - the identities' check adds no RationalMatrix and builds one inner
      right side per distinct (p_i p_j, p_j p_i); neither check builds a
      member of the basis it is given, and only the identities' check
      builds a D_p of a path, the |V| vertex idempotents; the sign check
      applies d_rs_apply only where r is on p; LinearOperator.bracket
      negates no operand
"""

import re
import sys
from fractions import Fraction

import pytest

from quiverdiff import _brackets, cohomology, derivations, linalg
from quiverdiff.algebra import AlgebraElement
from quiverdiff.derivations import (
    LinearOperator,
    canonical_basis,
    check_coefficient_conditions,
    d_rs,
    d_rs_apply,
    derivation_space_oracle,
    inner_derivation,
    inner_edge_bracket_sign,
    inner_subspace,
    is_derivation,
    verify_bracket_identities,
)
from quiverdiff.embedding import RotationSystem, face_derivation, trace_faces
from quiverdiff.errors import InternalCheckError, NotParallelError, TooLargeError
from quiverdiff.linalg import EchelonBasis, RationalMatrix
from quiverdiff.quiver import Path, Quiver

import helpers
from helpers import (
    DIFFERENTIAL_FIXTURES,
    EMBEDDED_FIXTURES,
    FIXTURE_DIR,
    ReferenceOperator,
    chain,
    differential_inputs,
    fixture_quiver,
    fraction_leibniz_rows,
    identity_operator,
    is_exact,
    is_valid_path,
    kronecker,
    longest_path_length,
    mat_vec,
    matrix_difference,
    matrix_entry,
    negated,
    operator_from_coordinates,
    operator_from_matrix,
    rand_frac,
    random_acyclic_quiver,
    random_derivation,
    random_element,
    reference_coefficient_conditions,
    reference_d_rs,
    reference_d_rs_element,
    reference_face_derivation,
    reference_inner_derivation,
    reference_inner_edge_bracket_sign,
    reference_is_derivation,
    reference_verify_bracket_identities,
    row_set_oracle,
    seeded,
    sized_acyclic_quiver,
    sparse_kernel,
    tournament,
    verify_inner_expansion,
)


# -- Helpers -----------------------------------------------------------------

def _elem(q, path):
    return AlgebraElement.from_path(q, path)


def _d_rs_recursive(q, r, s, p):
    """Peel the leading arrow: D(p) = [first = r] s*rest + first*D(rest)."""
    if p.is_trivial:
        return AlgebraElement.zero(q)
    first = p.arrows[0]
    rest = Path(q.arrows[first].head, p.arrows[1:])
    out = AlgebraElement.zero(q)
    for w, c in _d_rs_recursive(q, r, s, rest).items():
        out = out + AlgebraElement.from_path(q, q.concat(q.arrow_path(first), w), c)
    if first == r:
        out = out + AlgebraElement.from_path(q, q.concat(s, rest))
    return out


def _perturbed(rng, q, basis):
    """Sometimes a derivation, sometimes a corrupted one."""
    op = random_derivation(rng, q, basis)
    if rng.random() < 0.5:
        n = len(q.paths())
        i, j = rng.randrange(n), rng.randrange(n)
        bump = RationalMatrix(
            [[1 if (a, b) == (i, j) else 0 for b in range(n)] for a in range(n)], n
        )
        op = op + operator_from_matrix(q, bump)
    return op


def _two_cycle():
    return Quiver(["v1", "v2"], [("a", "v1", "v2"), ("b", "v2", "v1")])


# -- Operator plumbing -------------------------------------------------------

def test_zero_and_identity_apply():
    q = fixture_quiver("a3")
    a = _elem(q, q.arrow_path("p1")) + 2 * _elem(q, q.trivial_path("v2"))
    assert LinearOperator.zero(q).apply(a).is_zero
    assert identity_operator(q).apply(a) == a


def test_apply_is_linear():
    rng = seeded(4100)
    q = fixture_quiver("k2")
    op = random_derivation(rng, q)
    a = _elem(q, q.arrow_path("p1"))
    b = _elem(q, q.trivial_path("v1"))
    assert op.apply(a + 3 * b) == op.apply(a) + 3 * op.apply(b)


def test_flatten_is_row_major():
    q = fixture_quiver("a2")
    op = d_rs(q, "p1", q.arrow_path("p1"))
    n = len(q.paths())
    flat = op.flatten()
    assert len(flat) == n * n
    assert flat[op.matrix.num_cols * 2 + 2] == matrix_entry(op.matrix, 2, 2)


# -- Inner derivations -------------------------------------------------------

def test_inner_derivation_examples():
    q = fixture_quiver("a2")
    d = inner_derivation(q, q.arrow_path("p1"))
    assert d.apply(_elem(q, q.trivial_path("v1"))) == -_elem(q, q.arrow_path("p1"))
    assert d.apply(_elem(q, q.trivial_path("v2"))) == _elem(q, q.arrow_path("p1"))
    assert d.apply(_elem(q, q.arrow_path("p1"))).is_zero


def test_inner_derivation_of_identity_vanishes():
    for name in ("a3", "k2", "triangle_tails"):
        q = fixture_quiver(name)
        assert inner_derivation(q, AlgebraElement.identity(q)).is_zero


def test_vertex_derivations_sum_to_zero():
    for name in EMBEDDED_FIXTURES:
        q = fixture_quiver(name)
        total = LinearOperator.zero(q)
        for v in range(q.num_vertices):
            total = total + inner_derivation(q, q.trivial_path(v))
        assert total.is_zero, name


def test_inner_derivations_pass_leibniz():
    q = fixture_quiver("triangle_tails")
    for p in q.paths():
        assert is_derivation(inner_derivation(q, p))


# -- D_{r,s} -----------------------------------------------------------------

def test_d_rs_apply_pinned_examples():
    k2 = fixture_quiver("k2")
    p1, p2 = k2.arrow_path("p1"), k2.arrow_path("p2")
    assert d_rs_apply(k2, "p1", p2, p2).is_zero
    assert d_rs_apply(k2, "p1", p2, p1) == _elem(k2, p2)
    assert d_rs_apply(k2, "p1", p2, k2.trivial_path("v1")).is_zero

    a3 = fixture_quiver("a3")
    p1p2 = a3.concat(a3.arrow_path("p1"), a3.arrow_path("p2"))
    assert d_rs_apply(a3, "p1", a3.arrow_path("p1"), p1p2) == _elem(a3, p1p2)


def test_d_rs_apply_counts_every_occurrence():
    # loop: one vertex, one loop arrow; aa has two splice positions
    q = Quiver(["v"], [("a", "v", "v")])
    a = q.arrow_path("a")
    aa = q.concat(a, a)
    assert d_rs_apply(q, "a", a, aa) == 2 * _elem(q, aa)

    # cyclic quiver where r occurs twice in a longer path
    q2 = Quiver(["u", "v", "w"], [("r", "u", "v"), ("x", "v", "u"), ("y", "v", "w")])
    p = Path(0, (0, 1, 0, 2))  # r x r y
    assert is_valid_path(q2, p)
    assert d_rs_apply(q2, "r", q2.arrow_path("r"), p) == 2 * _elem(q2, p)
    # a longer parallel companion: s = r x r, still u -> v
    s = Path(0, (0, 1, 0))
    image = d_rs_apply(q2, "r", s, p)
    assert image == _elem(q2, Path(0, (0, 1, 0, 1, 0, 2))) + _elem(
        q2, Path(0, (0, 1, 0, 1, 0, 2))
    )


def test_d_rs_apply_rejects_non_parallel():
    q = fixture_quiver("a3")
    with pytest.raises(NotParallelError):
        d_rs_apply(q, "p1", q.arrow_path("p2"), q.arrow_path("p1"))
    with pytest.raises(NotParallelError):
        d_rs(q, "p1", q.arrow_path("p2"))


@pytest.mark.parametrize("r", [-1, 2], ids=["minus_one", "num_arrows"])
def test_arrow_indices_out_of_range_raise_value_error(r):
    # on K_2, index -1 would otherwise read p2: p2 is parallel to it, but
    # no path contains the arrow -1, so D_{-1,p2}(p2) came out zero
    q = fixture_quiver("k2")
    p2 = q.arrow_path("p2")
    with pytest.raises(ValueError, match=f"arrow index {r} out of range"):
        q.arrow_path(r)
    with pytest.raises(ValueError, match=f"arrow index {r} out of range"):
        d_rs(q, r, p2)
    with pytest.raises(ValueError, match=f"arrow index {r} out of range"):
        d_rs_apply(q, r, p2, p2)


def _one_loop():
    return Quiver(["a"], [("x", "a", "a")])


# (quiver, a Path that is not one of its paths, the call that gets it); on the
# two-cycle, b after the vertex v1 does not compose but ends where it starts
_NOT_A_PATH = {
    "inner_derivation_vertex": (lambda: fixture_quiver("a3"), Path(7), inner_derivation),
    "inner_derivation_arrow": (lambda: fixture_quiver("a3"), Path(0, (9,)), inner_derivation),
    "d_rs_parallel": (lambda: fixture_quiver("a3"), Path(0, (9,)), lambda q, s: d_rs(q, 0, s)),
    "d_rs_apply_path": (
        _one_loop, Path(9, (0,)), lambda q, p: d_rs_apply(q, 0, q.arrow_path(0), p)
    ),
    "d_rs_apply_parallel": (
        _one_loop, Path(0, (3,)), lambda q, s: d_rs_apply(q, 0, s, q.arrow_path(0))
    ),
    "d_rs_apply_uncomposed": (
        _two_cycle, Path(0, (1,)), lambda q, p: d_rs_apply(q, 1, q.arrow_path(1), p)
    ),
    "inner_expansion_arrow": (_one_loop, Path(0, (3,)), verify_inner_expansion),
    "inner_expansion_uncomposed": (_two_cycle, Path(0, (1,)), verify_inner_expansion),
}


@pytest.mark.parametrize("case", list(_NOT_A_PATH.values()), ids=list(_NOT_A_PATH))
def test_paths_not_of_the_quiver_raise_value_error(case):
    # each used to raise IndexError, return an element holding the
    # non-path, or run the check on it as if it were a cycle
    make, path, call = case
    with pytest.raises(ValueError, match=re.escape(f"path {path!r} does not belong")):
        call(make(), path)


def test_d_rs_matrix_pinned_examples():
    a2 = fixture_quiver("a2")
    d = d_rs(a2, "p1", a2.arrow_path("p1"))
    assert d.apply(_elem(a2, a2.trivial_path("v1"))).is_zero
    assert d.apply(_elem(a2, a2.trivial_path("v2"))).is_zero
    assert d.apply(_elem(a2, a2.arrow_path("p1"))) == _elem(a2, a2.arrow_path("p1"))

    k2 = fixture_quiver("k2")
    d12 = d_rs(k2, "p1", k2.arrow_path("p2"))
    assert d12.apply(_elem(k2, k2.arrow_path("p1"))) == _elem(k2, k2.arrow_path("p2"))
    assert d12.apply(_elem(k2, k2.arrow_path("p2"))).is_zero

    a3 = fixture_quiver("a3")
    d11 = d_rs(a3, "p1", a3.arrow_path("p1"))
    p1p2 = a3.concat(a3.arrow_path("p1"), a3.arrow_path("p2"))
    assert d11.apply(_elem(a3, a3.arrow_path("p1"))) == _elem(a3, a3.arrow_path("p1"))
    assert d11.apply(_elem(a3, a3.arrow_path("p2"))).is_zero
    assert d11.apply(_elem(a3, p1p2)) == _elem(a3, p1p2)


def test_d_rs_agrees_with_recursion():
    for name in ("a3", "a4", "k2", "k3", "triangle_tails"):
        q = fixture_quiver(name)
        for r, s in ((r, s) for r in range(q.num_arrows) for s in q.parallel_paths(q.arrow_path(r))):
            op = d_rs(q, r, s)
            for p in q.paths():
                assert op.apply(_elem(q, p)) == _d_rs_recursive(q, r, s, p), name


def test_d_rs_operators_are_derivations():
    for name in ("a3", "k2", "triangle_tails"):
        q = fixture_quiver(name)
        for r in range(q.num_arrows):
            for s in q.parallel_paths(q.arrow_path(r)):
                assert is_derivation(d_rs(q, r, s)), name


# -- Leibniz test vs coefficient conditions ----------------------------------

def test_is_derivation_rejects_projector():
    q = fixture_quiver("a2")
    e1 = q.trivial_path("v1")
    op = LinearOperator.from_images(
        q, lambda p: _elem(q, e1) if p == e1 else AlgebraElement.zero(q)
    )
    assert not is_derivation(op)
    assert check_coefficient_conditions(op)


def test_condition_checker_pinned_examples():
    q = fixture_quiver("a2")
    assert check_coefficient_conditions(inner_derivation(q, q.arrow_path("p1"))) == []

    p1 = _elem(q, q.arrow_path("p1"))
    bad_pair = LinearOperator.from_images(
        q, lambda p: p1 if p.is_trivial else AlgebraElement.zero(q)
    )
    violations = check_coefficient_conditions(bad_pair)
    assert any(v.rule == "vertex-coefficient-sum" for v in violations)

    # a trivial path can never appear in the image of an arrow
    e1 = _elem(q, q.trivial_path("v1"))
    off_support = LinearOperator.from_images(
        q, lambda p: e1 if p == q.arrow_path("p1") else AlgebraElement.zero(q)
    )
    violations = check_coefficient_conditions(off_support)
    assert any(v.rule == "path-image-support" for v in violations)


def test_condition_checker_reports_forced_terms():
    # on the 3-chain the vertex images force p1p2 inside D(p2)
    q = fixture_quiver("a3")
    p1 = _elem(q, q.arrow_path("p1"))

    def img(p):
        if p == q.trivial_path("v2"):
            return p1
        if p == q.trivial_path("v1"):
            return -p1
        return AlgebraElement.zero(q)

    op = LinearOperator.from_images(q, img)
    assert not is_derivation(op)
    violations = check_coefficient_conditions(op)
    assert any(v.rule == "path-image-support" for v in violations)


def test_vertex_image_reassembly_is_a_derivation():
    # the same vertex images with the forced arrow terms filled in pass
    q = fixture_quiver("a3")
    d = inner_derivation(q, q.arrow_path("p1"))
    assert check_coefficient_conditions(-d) == []
    assert is_derivation(-d)


def test_condition_checker_matches_leibniz_randomized():
    rng = seeded(4101)
    for name in ("a3", "k2", "triangle_tails"):
        q = fixture_quiver(name)
        basis = canonical_basis(q)
        for _ in range(25):
            op = _perturbed(rng, q, basis)
            assert (check_coefficient_conditions(op) == []) == is_derivation(op), name


# -- The basis-product table against the per-pair checks ---------------------

_BUMPS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 3))


@pytest.fixture(scope="module")
def product_quivers():
    """Every acyclic fixture, then 30 seeded random acyclic quivers."""
    qs = [fixture_quiver(f.stem) for f in sorted(FIXTURE_DIR.glob("*.quiver"))]
    qs = [q for q in qs if q.is_acyclic()]
    rng = seeded(4120)
    return qs + [random_acyclic_quiver(rng) for _ in range(30)]


def _bumped(rng, q, op):
    """op with 1-3 terms c w added to the images of random basis paths,
    c one of +-1, 2 and 1/3."""
    n = len(q.paths())
    images = {j: dict(row) for j, row in op.images.items()}
    for _ in range(rng.randint(1, 3)):
        j, w = rng.randrange(n), rng.randrange(n)
        row = images.setdefault(j, {})
        row[w] = row.get(w, 0) + rng.choice(_BUMPS)
        if not row[w]:
            del row[w]
        if not row:
            del images[j]
    return LinearOperator._of(q, images)


def test_products_equal_a_full_concat_scan(product_quivers):
    for q in product_quivers:
        paths = q.paths()
        scan = tuple(
            {j: q.path_index(ab) for j, ab in enumerate(q.concat(a, b) for b in paths)
             if ab is not None}
            for a in paths
        )
        assert q.products() == scan, q
        assert all(list(row) == sorted(row) for row in q.products()), q
        assert q.products() is q.products(), q


def test_checks_match_the_per_pair_references(product_quivers):
    rng = seeded(4121)
    rules = set()
    for q in product_quivers:
        basis = canonical_basis(q)
        ops = list(basis.operators) + derivation_space_oracle(q)
        ops += [_bumped(rng, q, op) for op in basis.operators for _ in range(2)]
        for op in ops:
            verdict, violations = is_derivation(op), check_coefficient_conditions(op)
            assert verdict == reference_is_derivation(op), q
            assert violations == reference_coefficient_conditions(op), q
            assert verdict == (not violations), q
            rules.update(v.rule for v in violations)
    # the perturbations reach every family of conditions
    assert rules == {
        derivations.RULE_VERTEX_SUPPORT,
        derivations.RULE_VERTEX_PAIR,
        derivations.RULE_PATH_FORCED,
        derivations.RULE_FACTOR,
    }


def test_derivation_checks_multiply_no_element_and_build_no_matrix(monkeypatch):
    # the basis products come from one table, which the members read too: at
    # most |P|^2 concatenations build it, counted from a fresh quiver, and
    # neither the members nor the checks form an AlgebraElement product or
    # an operator matrix
    counts = {"mul": 0, "concat": 0}

    def counted(name, method):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)
        return wrapper

    def refuse(self):
        raise AssertionError("an operator matrix was built by a derivation check")

    monkeypatch.setattr(AlgebraElement, "__mul__", counted("mul", AlgebraElement.__mul__))
    monkeypatch.setattr(Quiver, "concat", counted("concat", Quiver.concat))
    monkeypatch.setattr(LinearOperator, "matrix", property(refuse))
    q = fixture_quiver("torus_k4")
    ops = canonical_basis(q).operators
    assert counts["mul"] == 0
    assert 0 < counts["concat"] <= len(q.paths()) ** 2
    built = counts["concat"]
    assert all([is_derivation(op) for op in ops])
    assert not any(check_coefficient_conditions(op) for op in ops)
    assert counts == {"mul": 0, "concat": built}


# -- Canonical basis ---------------------------------------------------------

def test_canonical_basis_k2_labels():
    q = fixture_quiver("k2")
    basis = canonical_basis(q)
    assert basis.display_labels() == (
        "Inner(p1)",
        "Inner(p2)",
        "EdgePair(p1,p1)",
        "EdgePair(p1,p2)",
        "EdgePair(p2,p1)",
        "EdgePair(p2,p2)",
    )


def test_canonical_basis_sizes():
    expected = {"a2": 2, "a3": 5, "a4": 9, "a5": 14,
                "k2": 6, "k3": 12, "triangle_tails": 12, "grid2x2": 10, "torus_k4": 22}
    for name, dim in expected.items():
        assert len(canonical_basis(fixture_quiver(name))) == dim, name


def test_canonical_basis_empty_for_single_vertex():
    q = fixture_quiver("single_vertex")
    assert len(canonical_basis(q)) == 0


def test_canonical_basis_is_independent():
    for name in ("a3", "k2", "triangle_tails"):
        basis = canonical_basis(fixture_quiver(name))
        assert basis.flat_rows().rank() == len(basis), name


def test_canonical_basis_members_are_derivations():
    for name in ("a4", "k3", "grid2x2"):
        q = fixture_quiver(name)
        for op in canonical_basis(q).operators:
            assert is_derivation(op), name


def test_coordinates_roundtrip():
    rng = seeded(4102)
    quivers = [fixture_quiver(name) for name in ("a3", "k2", "triangle_tails")]
    for q in quivers + [_transitive_tournament(5), _kronecker(4)]:
        basis = canonical_basis(q)
        for _ in range(5):
            op = random_derivation(rng, q, basis)
            coords = basis.coordinates_of(op)
            assert coords is not None
            assert operator_from_coordinates(basis, coords) == op


def test_coordinates_of_non_member_is_none():
    q = fixture_quiver("a3")
    basis = canonical_basis(q)
    assert basis.coordinates_of(identity_operator(q)) is None


# -- Brute-force oracle ------------------------------------------------------

def test_oracle_dimensions_pinned():
    assert len(derivation_space_oracle(fixture_quiver("a2"))) == 2
    assert len(derivation_space_oracle(fixture_quiver("a3"))) == 5
    assert len(derivation_space_oracle(fixture_quiver("k2"))) == 6


def test_oracle_members_are_derivations():
    q = fixture_quiver("k2")
    for op in derivation_space_oracle(q):
        assert is_derivation(op)


def test_oracle_and_canonical_basis_span_the_same_space():
    for name in ("a2", "a3", "a4", "k2", "k3"):
        q = fixture_quiver(name)
        basis = canonical_basis(q)
        oracle = derivation_space_oracle(q)
        assert len(oracle) == len(basis), name
        ech = EchelonBasis(len(q.paths()) ** 2)
        for row in basis.flat_rows().rows:
            ech.insert(row)
        for op in oracle:
            assert ech.contains(op.flatten()), name


def test_oracle_path_cap():
    with pytest.raises(TooLargeError):
        derivation_space_oracle(fixture_quiver("a3"), max_paths=3)


@pytest.fixture(scope="module")
def oracle_quivers():
    """Every acyclic fixture, then seeded quivers of up to 40 paths."""
    qs = [fixture_quiver(f.stem) for f in sorted(FIXTURE_DIR.glob("*.quiver"))]
    qs = [q for q in qs if q.is_acyclic()]
    fixtures = len(qs)
    rng = seeded(4309)
    while len(qs) < fixtures + 8:
        nv = rng.randint(4, 8)
        q = sized_acyclic_quiver(rng, nv, nv - 1 + rng.randint(0, 5))
        if len(q.paths()) <= 40:
            qs.append(q)
    assert fixtures == 11 and max(len(q.paths()) for q in qs) >= 35
    return qs


def _streamed_rows(q):
    """The oracle's streamed equations as the Fraction rows write them:
    repeated unknowns summed, empty rows dropped, each row sorted and
    scaled to a leading 1; every equation has one to three unknowns."""
    rows = set()
    for row in derivations._leibniz_rows(q):
        assert 1 <= len({u for u, _ in row}) <= len(row) <= 3
        assert all(type(c) is int and c for _, c in row)
        summed = {}
        for u, c in row:
            summed[u] = summed.get(u, 0) + c
        entries = sorted((u, c) for u, c in summed.items() if c)
        if entries:
            rows.add(tuple((u, Fraction(c, entries[0][1])) for u, c in entries))
    return rows


def test_oracle_rows_are_the_fraction_rows_as_primitive_integer_rows(oracle_quivers):
    # the same lines as the Fraction rows, however often each one streams
    for q in oracle_quivers:
        assert _streamed_rows(q) == fraction_leibniz_rows(q)


def test_oracle_solution_space_is_the_kernel_of_the_fraction_rows(oracle_quivers):
    for q in oracle_quivers:
        n = len(q.paths())
        oracle = derivation_space_oracle(q)
        flat = RationalMatrix([op.flatten() for op in oracle], n * n)
        kernel = sparse_kernel(fraction_leibniz_rows(q), n * n)
        assert flat.num_rows == kernel.num_rows
        assert flat.rref() == kernel.rref()


def test_oracle_operators_equal_their_dense_rebuild(oracle_quivers):
    # the oracle builds each operator from its solution's nonzeros; the
    # public constructor builds it from the dense matrix
    for q in oracle_quivers:
        for op in derivation_space_oracle(q):
            assert op == operator_from_matrix(q, op.matrix)
            for image in op.images.values():
                assert image and all(is_exact(c) and c for c in image.values())


@pytest.mark.parametrize(
    "q", [chain(10), tournament(5)[0], kronecker(58)[0]], ids=["A10", "T5", "K58"]
)
def test_oracle_near_its_cap_keeps_the_fraction_rows_and_the_basis_dimension(q):
    # 55, 31 and 60 paths: the chain's products are dense, the tournament
    # has many factorizations per path, and K_58 is at the cap
    assert len(q.paths()) <= derivations.ORACLE_MAX_PATHS
    assert _streamed_rows(q) == fraction_leibniz_rows(q)
    assert len(derivation_space_oracle(q)) == len(canonical_basis(q))


def test_oracle_is_the_row_set_route_operator_for_operator(oracle_quivers):
    for q in oracle_quivers:
        assert derivation_space_oracle(q) == row_set_oracle(q)


def _row_set_inputs():
    """A_10, T_5, K_58 and two seeded quivers of 100 to 200 paths."""
    inputs = [("A10", chain(10)), ("T5", tournament(5)[0]), ("K58", kronecker(58)[0])]
    rng = seeded(4421)
    while len(inputs) < 5:
        nv = rng.randint(7, 11)
        q = sized_acyclic_quiver(rng, nv, nv + rng.randint(2, 8))
        if 100 <= q.num_paths() <= 200:
            inputs.append((f"random{len(inputs) - 2}", q))
    return [pytest.param(q, id=name) for name, q in inputs]


@pytest.mark.parametrize("q", _row_set_inputs())
def test_oracle_is_the_row_set_route_near_and_past_its_cap(q):
    # the same operators in the same order as the route that kept every
    # equation once, as a primitive integer row in one set
    assert derivation_space_oracle(q, max_paths=len(q.paths())) == row_set_oracle(q)


def _hundreds_of_paths():
    """T_8, A_20, K_200 and four seeded quivers of 200 to 400 paths, then
    T_9 (511 paths), which is marked slow."""
    inputs = [("T8", tournament(8)[0]), ("A20", chain(20)), ("K200", kronecker(200)[0])]
    rng = seeded(4417)
    while len(inputs) < 7:
        nv = rng.randint(8, 14)
        q = sized_acyclic_quiver(rng, nv, nv + rng.randint(4, 10))
        if 200 <= q.num_paths() <= 400:
            inputs.append((f"random{len(inputs) - 3}", q))
    params = [pytest.param(q, id=name) for name, q in inputs]
    return params + [pytest.param(tournament(9)[0], id="T9", marks=pytest.mark.slow)]


@pytest.mark.parametrize("q", _hundreds_of_paths())
def test_oracle_spans_the_canonical_basis_at_hundreds_of_paths(q):
    # the cap raised as a library argument; the spans are equal when both
    # sets are independent and stacking one on the other adds nothing
    n = len(q.paths())
    assert n >= 200
    ops = derivation_space_oracle(q, max_paths=n)
    oracle_rows = RationalMatrix._of([op.flat_row() for op in ops], n * n)
    basis_rows = canonical_basis(q).flat_rows()
    assert len(ops) == basis_rows.num_rows == oracle_rows.rank() == basis_rows.rank()
    assert RationalMatrix.stack(oracle_rows, basis_rows).rank() == len(ops)


# -- Inner subspace ----------------------------------------------------------

def test_inner_subspace_ranks():
    assert inner_subspace(fixture_quiver("k2")).rank() == 3
    assert inner_subspace(fixture_quiver("a3")).rank() == 5
    assert inner_subspace(fixture_quiver("single_vertex")).rank() == 0


def test_inner_rank_is_path_count_minus_one():
    for name in EMBEDDED_FIXTURES:
        q = fixture_quiver(name)
        assert inner_subspace(q).rank() == len(q.paths()) - 1, name


def test_inner_subspace_builds_no_operator_or_element(monkeypatch):
    # the rows are written from the quiver: no D_p is built or read back
    def refuse(*args, **kwargs):
        raise AssertionError("an operator or an algebra element was built by inner_subspace")

    for name in ("__init__", "_of", "from_images"):
        monkeypatch.setattr(LinearOperator, name, refuse)
    for name in ("__init__", "_of", "items"):
        monkeypatch.setattr(AlgebraElement, name, refuse)
    for name in EMBEDDED_FIXTURES + ("single_vertex", "disconnected"):
        q = fixture_quiver(name)
        assert inner_subspace(q).num_rows == len(q.paths()), name


# -- Cyclic-quiver expansion of inner derivations ----------------------------

def test_inner_expansion_on_loop():
    q = Quiver(["v"], [("a", "v", "v")])
    assert verify_inner_expansion(q, q.arrow_path("a"))


def test_inner_expansion_on_two_cycle():
    q = _two_cycle()
    c = q.concat(q.arrow_path("a"), q.arrow_path("b"))
    assert verify_inner_expansion(q, c)
    c2 = q.concat(q.arrow_path("b"), q.arrow_path("a"))
    assert verify_inner_expansion(q, c2)


def test_inner_expansion_rejects_non_cycles():
    q = _two_cycle()
    with pytest.raises(ValueError, match="nontrivial oriented cycles"):
        verify_inner_expansion(q, q.trivial_path("v1"))
    with pytest.raises(ValueError, match="nontrivial oriented cycles"):
        verify_inner_expansion(q, q.arrow_path("a"))


# -- Bracket identities ------------------------------------------------------

def test_bracket_of_inner_derivations_pinned():
    q = fixture_quiver("a3")
    d1 = inner_derivation(q, q.arrow_path("p1"))
    d2 = inner_derivation(q, q.arrow_path("p2"))
    p1p2 = q.concat(q.arrow_path("p1"), q.arrow_path("p2"))
    assert d1.bracket(d2) == inner_derivation(q, p1p2)
    assert d1.bracket(d1).is_zero


def test_edge_edge_bracket_pinned():
    q = fixture_quiver("k2")
    p1, p2 = q.arrow_path("p1"), q.arrow_path("p2")
    lhs = d_rs(q, "p1", p2).bracket(d_rs(q, "p2", p1))
    assert lhs == d_rs(q, "p2", p2) + -d_rs(q, "p1", p1)


def test_bracket_identities_on_fixtures():
    for name in ("a3", "k2", "triangle_tails"):
        verdict = verify_bracket_identities(canonical_basis(fixture_quiver(name)))
        assert verdict == {"inner_inner": True, "edge_edge": True}, name


def test_bracket_identities_randomized_quivers():
    rng = seeded(4103)
    for _ in range(5):
        q = random_acyclic_quiver(rng, max_vertices=4, max_extra=2)
        if len(q.paths()) > 14:
            continue
        verdict = verify_bracket_identities(canonical_basis(q))
        assert verdict == {"inner_inner": True, "edge_edge": True}


def _transitive_tournament(n):
    vertices = [f"v{i}" for i in range(n)]
    arrows = [(f"a{i}{j}", vertices[i], vertices[j]) for i in range(n) for j in range(i + 1, n)]
    return Quiver(vertices, arrows)


def _kronecker(m):
    return Quiver(["v1", "v2"], [(f"p{i}", "v1", "v2") for i in range(1, m + 1)])


@pytest.mark.parametrize(
    "q, num_paths", [(chain(6), 21), (_transitive_tournament(4), 15)], ids=["A6", "T4"]
)
def test_bracket_identities_at_baseline_sizes(q, num_paths):
    assert len(q.paths()) == num_paths
    assert verify_bracket_identities(canonical_basis(q)) == {"inner_inner": True, "edge_edge": True}


def _without_the_second_term(left, right):
    """_bracket_pairs with the term of "p runs along s" dropped."""
    out = {}
    for (r, s), c in left.items():
        for (p, t), d in right.items():
            for u in _brackets._splices(r, s, t):
                out[p, u] = out.get((p, u), 0) + c * d
    return {key: c for key, c in out.items() if c}


def test_edge_edge_verdict_fails_on_a_wrong_right_hand_side(monkeypatch):
    # the HH1 table brackets with the very routine the verdict checks: both
    # read _brackets._bracket_pairs and bind no copy of their own
    assert not hasattr(cohomology, "_bracket_pairs")
    assert not hasattr(derivations, "_bracket_pairs")
    true_bracket_pairs = _brackets._bracket_pairs

    def skewed(left, right):
        # D_{r,r} added for each left label r: on the pair of (r, s) with
        # itself the right-hand side is then D_{r,r}, not zero
        out = dict(true_bracket_pairs(left, right))
        for r, _ in left:
            key = (r, (r,))
            out[key] = out.get(key, 0) + 1
        return out

    # without its second term the pair of (r, r) with itself gives
    # D_{r, D_{r,r}(r)} = D_{r,r}, not zero
    for mutant in (skewed, _without_the_second_term):
        monkeypatch.setattr(_brackets, "_bracket_pairs", mutant)
        for name in ("a3", "k2", "triangle_tails"):
            verdict = verify_bracket_identities(canonical_basis(fixture_quiver(name)))
            assert verdict == {"inner_inner": True, "edge_edge": False}, (mutant, name)


def test_inner_inner_verdict_fails_on_a_wrong_right_hand_side(monkeypatch):
    # only the right-hand side D_{pr - rp} passes an AlgebraElement
    true_inner_derivation = derivations.inner_derivation

    def doubled(q, a):
        op = true_inner_derivation(q, a)
        return 2 * op if isinstance(a, AlgebraElement) else op

    monkeypatch.setattr(derivations, "inner_derivation", doubled)
    for name in ("a3", "k2", "triangle_tails"):
        verdict = verify_bracket_identities(canonical_basis(fixture_quiver(name)))
        assert verdict == {"inner_inner": False, "edge_edge": True}, name


def test_bracket_check_on_torus_k4_does_not_rescan_its_operands():
    # the work of one check, as the Python lines run in linalg, which sees
    # it whatever type the coefficients have: 13,483 with each operand's
    # nonzero entries read once per product; re-reading either operand
    # from its dense rows in every product brings it above 110,000
    lines = 0

    def trace(frame, event, arg):
        if frame.f_code.co_filename != linalg.__file__:
            return None

        def count(frame, event, arg):
            nonlocal lines
            lines += event == "line"
            return count

        return count

    q = fixture_quiver("torus_k4")
    tracer = sys.gettrace()
    sys.settrace(trace)
    try:
        verdict = verify_bracket_identities(canonical_basis(q))
    finally:
        sys.settrace(tracer)
    assert verdict == {"inner_inner": True, "edge_edge": True}
    assert 0 < lines < 40_000


def test_inner_edge_bracket_sign_is_globally_consistent():
    signs = {
        inner_edge_bracket_sign(canonical_basis(fixture_quiver(name)))
        for name in ("a2", "a3", "k2", "k3", "triangle_tails")
    }
    assert signs == {-1}


def test_inner_edge_bracket_sign_rejects_a_nonzero_bracket_on_a_central_image(monkeypatch):
    # every image D_{r,s}(p) read as zero: [D_p1, D_{p1,p1}] = -D_p1 is not
    monkeypatch.setattr(derivations, "d_rs_apply", lambda q, r, s, p: AlgebraElement.zero(q))
    with pytest.raises(InternalCheckError, match="nonzero on a central image"):
        inner_edge_bracket_sign(canonical_basis(fixture_quiver("a3")))


def test_inner_edge_bracket_sign_rejects_a_bracket_off_the_image(monkeypatch):
    true_d_rs_apply = derivations.d_rs_apply
    monkeypatch.setattr(
        derivations, "d_rs_apply", lambda q, r, s, p: 2 * true_d_rs_apply(q, r, s, p)
    )
    with pytest.raises(InternalCheckError, match="not proportional"):
        inner_edge_bracket_sign(canonical_basis(fixture_quiver("a3")))


def test_inner_edge_bracket_sign_rejects_signs_that_disagree(monkeypatch):
    # the images of the first arrow's edge pairs negated: on k2 the
    # instances (p1, p1, p1) and (p2, p2, p2) then give opposite signs
    true_d_rs_apply = derivations.d_rs_apply

    def flipped(q, r, s, p):
        image = true_d_rs_apply(q, r, s, p)
        return -image if r == 0 else image

    monkeypatch.setattr(derivations, "d_rs_apply", flipped)
    with pytest.raises(InternalCheckError, match="not globally consistent"):
        inner_edge_bracket_sign(canonical_basis(fixture_quiver("k2")))


def test_brackets_of_derivations_are_derivations():
    rng = seeded(4104)
    q = fixture_quiver("k2")
    basis = canonical_basis(q)
    for _ in range(10):
        a = random_derivation(rng, q, basis)
        b = random_derivation(rng, q, basis)
        assert is_derivation(a.bracket(b))


# -- Nilpotency and the semidirect split --------------------------------------

def _lower_central_depth(q):
    """Largest k with C_k nonzero, for C_1 = span of acyclic-path inners."""
    gens = [inner_derivation(q, s) for s in q.acyclic_paths()]
    if not gens:
        return 0
    n2 = len(q.paths()) ** 2
    current = gens
    depth = 1
    while True:
        ech = EchelonBasis(n2)
        nxt = []
        for g in gens:
            for c in current:
                b = g.bracket(c)
                if not b.is_zero and ech.insert(b.flatten()):
                    nxt.append(b)
        if not nxt:
            return depth
        current = nxt
        depth += 1
        assert depth <= 20, "runaway central series"


def test_acyclic_inner_span_is_nilpotent():
    for name in ("a3", "a4", "k2", "triangle_tails"):
        q = fixture_quiver(name)
        assert _lower_central_depth(q) <= longest_path_length(q), name


def test_chain_nilpotency_depth_is_sharp():
    q = fixture_quiver("a4")
    assert _lower_central_depth(q) == longest_path_length(q) == 3


def test_arrow_rescaling_fixes_its_inner_derivation():
    # ad D_{p,p} applied to D_p returns D_p, so no nilpotency for Diff
    for name in ("a3", "k2", "triangle_tails"):
        q = fixture_quiver(name)
        for r in range(q.num_arrows):
            p = q.arrow_path(r)
            assert d_rs(q, r, p).bracket(inner_derivation(q, p)) == inner_derivation(q, p), name


def test_inner_ideal_and_edge_subalgebra():
    rng = seeded(4105)
    for name in ("a3", "k2", "triangle_tails"):
        q = fixture_quiver(name)
        basis = canonical_basis(q)
        n_inner = len(q.acyclic_paths())
        ops = basis.operators
        for _ in range(10):
            i = rng.randrange(len(ops))
            j = rng.randrange(len(ops))
            coords = basis.coordinates_of(ops[i].bracket(ops[j]))
            assert coords is not None, name
            if i < n_inner or j < n_inner:
                assert all(c == 0 for c in coords[n_inner:]), name
            else:
                assert all(c == 0 for c in coords[:n_inner]), name


# -- Sparse operators against dense matrices -----------------------------------

def test_sparse_arithmetic_matches_dense_matrices():
    rng = seeded(4106)
    for name in DIFFERENTIAL_FIXTURES:
        q = fixture_quiver(name)
        basis = canonical_basis(q)
        for _ in range(4):
            a, b = _perturbed(rng, q, basis), _perturbed(rng, q, basis)
            ma, mb = a.matrix, b.matrix
            c = rand_frac(rng)
            scaled = RationalMatrix([[c * x for x in row] for row in ma.rows], ma.num_cols)
            assert a.bracket(b).matrix == matrix_difference(ma * mb, mb * ma), name
            assert (a + b).matrix == ma + mb, name
            assert (a + -b).matrix == matrix_difference(ma, mb), name
            assert (-a).matrix == negated(ma), name
            assert (c * a).matrix == scaled, name
            assert operator_from_matrix(q, ma) == a, name
            assert (a + -a).is_zero, name


def test_sparse_apply_matches_mat_vec():
    rng = seeded(4107)
    for name in DIFFERENTIAL_FIXTURES:
        q = fixture_quiver(name)
        basis = canonical_basis(q)
        for _ in range(4):
            op = _perturbed(rng, q, basis)
            elem = random_element(rng, q, size=4)
            expected = mat_vec(op.matrix, [elem.coefficient(p) for p in q.paths()])
            assert tuple(op.apply(elem).coefficient(p) for p in q.paths()) == expected, name


def test_coordinates_of_rejects_perturbed_non_derivations():
    rng = seeded(4108)
    for name in DIFFERENTIAL_FIXTURES:
        q = fixture_quiver(name)
        basis = canonical_basis(q)
        rejected = 0
        for _ in range(8):
            op = _perturbed(rng, q, basis)
            coords = basis.coordinates_of(op)
            if is_derivation(op):
                assert operator_from_coordinates(basis, coords) == op, name
            else:
                assert coords is None, name
                rejected += 1
        assert rejected, name


# -- One operator format: the nonzero images as sparse rows --------------------

def _assert_sparse_rows(q, op, integral=False):
    """op stores only nonzero images, each a nonempty row of nonzero exact
    coefficients keyed by path index, ints only for an ``integral`` op, and
    the public bridge from its AlgebraElement images rebuilds it."""
    n = len(q.paths())
    kinds = (int,) if integral else (int, Fraction)
    for j, row in op.images.items():
        assert type(j) is int and 0 <= j < n
        assert row and all(
            type(k) is int and 0 <= k < n and type(c) in kinds and c for k, c in row.items()
        )
    assert LinearOperator.from_images(q, op.apply) == op


def _d_rs_sum(q, r, elem):
    """The sum of c D_{r,s} over the terms c s of elem with s parallel to r."""
    parallel = q.parallel_paths(q.arrow_path(r))
    terms = [c * d_rs(q, r, s) for s, c in elem.items() if s in parallel]
    return sum(terms, LinearOperator.zero(q))


def _every_operator(rng, q):
    """The canonical basis, one operator from each other constructor, and
    brackets, sums, differences and scalar multiples of random members;
    the members, which come first, are integral."""
    ops = list(canonical_basis(q).operators)
    elem = random_element(rng, q, size=4)
    ops.append(inner_derivation(q, elem))
    ops += [_d_rs_sum(q, r, elem + _elem(q, q.arrow_path(r))) for r in range(q.num_arrows)]
    ops += [face_derivation(q, face) for face in trace_faces(RotationSystem.canonical(q))]
    ops.append(face_derivation(q, [rand_frac(rng) for _ in range(q.num_arrows)]))
    if len(q.paths()) <= 30:
        ops += derivation_space_oracle(q)
    for _ in range(6):
        a, b = rng.choice(ops), rng.choice(ops)
        ops += [a.bracket(b), a + b, a + -b, rand_frac(rng) * a, a + -a, 0 * a]
    return ops


def test_every_operator_stores_only_nonzero_rows(product_quivers):
    rng = seeded(4121)
    for q in product_quivers:
        members = len(canonical_basis(q))
        for i, op in enumerate(_every_operator(rng, q)):
            _assert_sparse_rows(q, op, integral=i < members)


def test_canonical_basis_builds_no_algebra_element(monkeypatch, product_quivers):
    calls = []
    init = AlgebraElement.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(AlgebraElement, "__init__", counted)
    for q in product_quivers + [tournament(6)[0], kronecker(4)[0]]:
        canonical_basis(q)
    assert not calls


def _moved_by_inner(q, elem):
    """The paths p with wp or pw nonzero for a term w of elem, by a full scan."""
    return [
        p for p in q.paths()
        if any(q.concat(w, p) is not None or q.concat(p, w) is not None for w in elem.support())
    ]


def _through_arrow(q, r):
    return [p for p in q.paths() if r in p.arrows]


def _recorded_product_sums(monkeypatch):
    """Patch _product_sum to record the path p_j of each call: an inner
    derivation reads a p_j - p_j a off it once per path p_j it moves."""
    calls = []
    product_sum = derivations._product_sum

    def recorded(products, left, j, i, right):
        calls.append(j)
        return product_sum(products, left, j, i, right)

    monkeypatch.setattr(derivations, "_product_sum", recorded)
    return calls


def test_canonical_basis_visits_only_the_paths_each_member_moves(monkeypatch):
    calls = _recorded_product_sums(monkeypatch)
    q = tournament(6)[0]
    paths = q.paths()
    basis = canonical_basis(q)
    inner = [label.path for label in basis.labels if label.kind == "inner"]
    # each inner member reads its moved paths once, in increasing path order
    assert [paths[j] for j in calls] == [
        p for s in inner for p in _moved_by_inner(q, _elem(q, s))
    ]
    # each D_{r,s} writes the paths through r, and only those
    written = 0
    for label, op in zip(basis.labels, basis.operators):
        if label.kind == "edge_pair":
            assert [paths[j] for j in op.images] == _through_arrow(q, label.arrow), label
            written += len(op.images)
    assert len(calls) + written < len(basis) * len(paths) // 4


def test_inner_derivation_reads_the_products_of_exactly_the_paths_it_moves(monkeypatch):
    calls = _recorded_product_sums(monkeypatch)
    rng = seeded(4124)
    qs = [tournament(5)[0], kronecker(3)[0], fixture_quiver("triangle_tails")]
    qs += [random_acyclic_quiver(rng, max_vertices=7, max_extra=6) for _ in range(10)]
    for q in qs:
        elem = random_element(rng, q, size=4)
        calls.clear()
        inner_derivation(q, elem)
        assert [q.paths()[j] for j in calls] == _moved_by_inner(q, elem), q


def test_is_derivation_rejects_a_failure_on_a_pair_of_zero_images():
    # D(p1 p2) = p1 p2 and every other image zero: the one pair where the
    # Leibniz rule fails is (p1, p2), and D(p1) = D(p2) = 0
    q = fixture_quiver("a3")
    p12 = q.concat(q.arrow_path("p1"), q.arrow_path("p2"))
    j = q.path_index(p12)
    op = LinearOperator._of(q, {j: {j: Fraction(1)}})
    failing = [
        (x, y) for x in q.paths() for y in q.paths()
        if op.apply(_elem(q, x) * _elem(q, y))
        != op.apply(x) * _elem(q, y) + _elem(q, x) * op.apply(y)
    ]
    assert failing == [(q.arrow_path("p1"), q.arrow_path("p2"))]
    assert not is_derivation(op)
    assert not reference_is_derivation(op)


def test_is_derivation_agrees_with_the_reference_on_every_single_entry_operator():
    verdicts = set()
    for q in (fixture_quiver("a3"), fixture_quiver("k2"), tournament(3)[0]):
        n = len(q.paths())
        for j in range(n):
            for w in range(n):
                op = LinearOperator._of(q, {j: {w: Fraction(-2)}})
                verdict = is_derivation(op)
                assert verdict == reference_is_derivation(op), (q, j, w)
                verdicts.add(verdict)
    assert verdicts == {True, False}


def test_member_checks_visit_only_what_the_images_can_make_nonzero(monkeypatch):
    # T_6 (63 paths, 114 members): is_derivation forms 1,520 _product_sum
    # rows, where visiting every partner of a path with a nonzero image
    # formed 58,902; the bound is the measured count with a third more
    # for headroom.  check_coefficient_conditions looks up the |V|
    # idempotents of each member and nothing else, where listing the
    # paths parallel to each checked split looked up 11,744 indices
    q = tournament(6)[0]
    ops = canonical_basis(q).operators
    calls = {"_product_sum": 0, "path_index": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    product_sum = counted("_product_sum", derivations._product_sum)
    monkeypatch.setattr(derivations, "_product_sum", product_sum)
    assert all([is_derivation(op) for op in ops])
    assert 0 < calls["_product_sum"] <= 2_000
    monkeypatch.setattr(Quiver, "path_index", counted("path_index", Quiver.path_index))
    assert not any([check_coefficient_conditions(op) for op in ops])
    assert calls["path_index"] == q.num_vertices * len(ops)


def _canonically_embedded(q):
    return q, RotationSystem.canonical(q)


# the DIFFERENTIAL inputs hold T_2..T_5 and K_2..K_8 already
_REFERENCE_INPUTS = differential_inputs()
_REFERENCE_INPUTS += [("t1", tournament(1)), ("t6", tournament(6)), ("k1", kronecker(1))]
_REFERENCE_INPUTS += [(f"chain{n}", _canonically_embedded(chain(n))) for n in range(2, 9)]
_REFERENCE_INPUTS += [
    (f"random{seed}", _canonically_embedded(random_acyclic_quiver(seeded(seed), 7, 6)))
    for seed in range(4130, 4135)
]


@pytest.mark.parametrize(
    "embedded", [e for _, e in _REFERENCE_INPUTS], ids=[n for n, _ in _REFERENCE_INPUTS]
)
def test_operators_match_the_per_path_references(embedded):
    q, rot = embedded
    basis = canonical_basis(q)
    refs = [
        reference_inner_derivation(q, label.path) if label.kind == "inner"
        else reference_d_rs(q, label.arrow, label.path)
        for label in basis.labels
    ]
    for label, op, ref in zip(basis.labels, basis.operators, refs):
        assert op.matrix == ref.matrix, label.display(q)
    rng = seeded(4122)
    elem = random_element(rng, q, size=4)
    assert inner_derivation(q, elem).matrix == reference_inner_derivation(q, elem).matrix
    for r in range(q.num_arrows):
        bumped = elem + _elem(q, q.arrow_path(r))
        assert _d_rs_sum(q, r, bumped).matrix == reference_d_rs_element(q, r, bumped).matrix
    for face in trace_faces(rot):
        assert face_derivation(q, face).matrix == reference_face_derivation(q, face).matrix
    if not refs:
        return
    for _ in range(6):
        # the same random combination of members on either side
        picks = [(rng.randrange(len(refs)), rand_frac(rng)) for _ in range(4)]
        a = sum((c * basis.operators[i] for i, c in picks[:2]), LinearOperator.zero(q))
        b = sum((c * basis.operators[i] for i, c in picks[2:]), LinearOperator.zero(q))
        ra = sum((c * refs[i] for i, c in picks[:2]), ReferenceOperator.zero(q))
        rb = sum((c * refs[i] for i, c in picks[2:]), ReferenceOperator.zero(q))
        assert a.matrix == ra.matrix
        assert a.bracket(b).matrix == ra.bracket(rb).matrix
        assert (a + b).matrix == (ra + rb).matrix
        assert (a + -b).matrix == (ra - rb).matrix
        c = rand_frac(rng)
        assert (c * a).matrix == (c * ra).matrix


# -- The support test of the --verify checks -----------------------------------

def _bracket_inputs():
    """The acyclic fixtures, the DIFFERENTIAL inputs, T_1..T_6 and ten
    seeded quivers, each once by name."""
    inputs = {f.stem: fixture_quiver(f.stem) for f in sorted(FIXTURE_DIR.glob("*.quiver"))}
    inputs = {name: q for name, q in inputs.items() if q.is_acyclic()}
    inputs.update((name, e[0]) for name, e in differential_inputs())
    inputs.update((f"t{n}", tournament(n)[0]) for n in range(1, 7))
    rng = seeded(4126)
    inputs.update((f"random{i}", random_acyclic_quiver(rng)) for i in range(10))
    return list(inputs.items())


_BRACKET_INPUTS = _bracket_inputs()


def _sign_outcome(check, arg):
    """The sign check's return value on ``arg``, or the message it raises."""
    try:
        return check(arg)
    except InternalCheckError as exc:
        return f"raised: {exc}"


@pytest.mark.parametrize("q", [q for _, q in _BRACKET_INPUTS], ids=[n for n, _ in _BRACKET_INPUTS])
def test_bracket_checks_match_the_all_pairs_references(q):
    verdict = verify_bracket_identities(canonical_basis(q))
    assert verdict == reference_verify_bracket_identities(q)
    assert verdict == {"inner_inner": True, "edge_edge": True}
    sign = _sign_outcome(inner_edge_bracket_sign, canonical_basis(q))
    assert sign == _sign_outcome(reference_inner_edge_bracket_sign, q)
    assert sign == (-1 if q.num_arrows else None)


@pytest.mark.parametrize("q", [q for _, q in _BRACKET_INPUTS], ids=[n for n, _ in _BRACKET_INPUTS])
def test_bracket_checks_fail_as_the_references_do_on_perturbed_operands(monkeypatch, q):
    # every D_p of a path p and every D_{r,s} gets 1-3 terms added, the
    # same ones in both versions: each bump is drawn from its own argument
    true_inner_derivation, true_d_rs = derivations.inner_derivation, derivations.d_rs

    def bumped_inner(q, a):
        op = true_inner_derivation(q, a)
        return _bumped(seeded(f"inner {a!r}"), q, op) if isinstance(a, Path) else op

    def bumped_d_rs(q, r, s):
        return _bumped(seeded(f"edge {r} {s!r}"), q, true_d_rs(q, r, s))

    for module in (derivations, helpers):
        monkeypatch.setattr(module, "inner_derivation", bumped_inner)
        monkeypatch.setattr(module, "d_rs", bumped_d_rs)
    # the basis is built after the patches, so its members are the perturbed ones
    basis = canonical_basis(q)
    verdict = verify_bracket_identities(basis)
    sign = _sign_outcome(inner_edge_bracket_sign, basis)
    assert verdict == reference_verify_bracket_identities(q)
    assert sign == _sign_outcome(reference_inner_edge_bracket_sign, q)
    if q.num_arrows:
        assert False in verdict.values() and str(sign).startswith("raised: ")


def test_bracket_check_forms_products_only_where_supports_meet(monkeypatch):
    products = 0
    true_mul = RationalMatrix.__mul__

    def counted(a, b):
        nonlocal products
        products += 1
        return true_mul(a, b)

    monkeypatch.setattr(RationalMatrix, "__mul__", counted)
    holds = {"inner_inner": True, "edge_edge": True}
    assert verify_bracket_identities(canonical_basis(fixture_quiver("a3"))) == holds
    # the benchmark counts matrix multiply-adds on a3 and needs some
    assert products >= 1
    products = 0
    q = fixture_quiver("torus_k4")
    assert verify_bracket_identities(canonical_basis(q)) == holds
    # two products for every ordered pair of members: 692 on torus_k4
    every_pair = 2 * (len(q.paths()) ** 2 + len(q.edge_pairs()) ** 2)
    assert every_pair == 692
    assert products <= every_pair // 3


@pytest.mark.parametrize("name", ["k2", "triangle_tails", "torus_k4"])
def test_bracket_checks_decide_the_pairs_they_do_not_multiply(monkeypatch, name):
    # D_p of the first arrow and the first D_{r,s} built as zero: every pair
    # with one of them is zero by support, and only its right side, which
    # is not zero for some of them, can fail it
    q = fixture_quiver(name)
    first_arrow, first_pair = q.arrow_path(0), q.edge_pairs()[0]
    true_inner_derivation, true_d_rs = derivations.inner_derivation, derivations.d_rs

    def zeroed_inner(q, a):
        return LinearOperator.zero(q) if a == first_arrow else true_inner_derivation(q, a)

    def zeroed_d_rs(q, r, s):
        return LinearOperator.zero(q) if (r, s) == first_pair else true_d_rs(q, r, s)

    for module in (derivations, helpers):
        monkeypatch.setattr(module, "inner_derivation", zeroed_inner)
        monkeypatch.setattr(module, "d_rs", zeroed_d_rs)
    # the basis is built after the patches, so its two zeroed members are checked
    basis = canonical_basis(q)
    verdict = verify_bracket_identities(basis)
    assert verdict == reference_verify_bracket_identities(q)
    assert verdict == {"inner_inner": False, "edge_edge": False}
    sign = _sign_outcome(inner_edge_bracket_sign, basis)
    assert sign == _sign_outcome(reference_inner_edge_bracket_sign, q)
    assert sign == "raised: bracket is not proportional to the inner derivation of the image"


@pytest.mark.parametrize("name", ["torus_k4", "triangle_tails"])
def test_bracket_check_builds_each_right_side_once_and_adds_no_matrix(monkeypatch, name):
    # R is compared row by row, so no RationalMatrix sum; the inner right
    # side depends only on (p_i p_j, p_j p_i) and is built once per call;
    # the operands and the members an edge right side names are read off
    # the basis, so neither check builds a member: D_{e_v}, which is none,
    # is the only D_p of a path built
    def no_sum(*args):
        raise AssertionError("a RationalMatrix sum was formed")

    q = fixture_quiver(name)
    basis = canonical_basis(q)
    inner_sides, inner_paths, members = [], [], []
    true_inner_derivation = derivations.inner_derivation

    def recorded_inner(q, a):
        (inner_sides if isinstance(a, AlgebraElement) else inner_paths).append(a)
        return true_inner_derivation(q, a)

    def recorded(fn):
        def call(q, *args):
            members.append((fn.__name__, args))
            return fn(q, *args)
        return call

    monkeypatch.setattr(RationalMatrix, "__add__", no_sum)
    monkeypatch.setattr(derivations, "inner_derivation", recorded_inner)
    for fn in (derivations._member, derivations.d_rs):
        monkeypatch.setattr(derivations, fn.__name__, recorded(fn))
    assert verify_bracket_identities(basis) == {"inner_inner": True, "edge_edge": True}
    products = q.products()
    n = len(q.paths())
    distinct = {(products[i].get(j), products[j].get(i)) for i in range(n) for j in range(n)}
    distinct = {(ij, ji) for ij, ji in distinct if ij != ji}
    assert 0 < len(inner_sides) <= len(distinct) < n * n
    assert len({frozenset(a.items()) for a in inner_sides}) == len(inner_sides)
    assert inner_paths == [q.trivial_path(v) for v in range(q.num_vertices)]
    inner_paths.clear()
    assert inner_edge_bracket_sign(basis) == -1
    assert inner_paths == [] and members == []


def test_sign_check_applies_d_rs_only_where_r_runs_along_p(monkeypatch):
    # D_{r,s}(p) = 0 unless the arrow r is on p: no target is built there
    asked = []
    true_d_rs_apply = derivations.d_rs_apply

    def recorded(q, r, s, p):
        asked.append((p, r, s))
        return true_d_rs_apply(q, r, s, p)

    monkeypatch.setattr(derivations, "d_rs_apply", recorded)
    q = fixture_quiver("torus_k4")
    assert inner_edge_bracket_sign(canonical_basis(q)) == -1
    on_p = [(p, r, s) for p in q.acyclic_paths() for r, s in q.edge_pairs() if r in p.arrows]
    assert asked == on_p
    assert len(on_p) < len(q.acyclic_paths()) * len(q.edge_pairs())


def test_operator_bracket_negates_no_operand(monkeypatch):
    # [A, B] maps through B and A and negates only the rows it reads
    def no_negation(self):
        raise AssertionError("an operand was negated")

    rng = seeded(4418)
    q = fixture_quiver("torus_k4")
    ops = list(canonical_basis(q).operators)
    pairs = [(rng.choice(ops), rng.choice(ops)) for _ in range(40)]
    monkeypatch.setattr(LinearOperator, "__neg__", no_negation)
    for a, b in pairs:
        matrix = matrix_difference(a.matrix * b.matrix, b.matrix * a.matrix)
        assert a.bracket(b) == operator_from_matrix(q, matrix)
