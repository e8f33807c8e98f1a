"""Core algebra: forms, products, adjoints, embeddings, serialization."""

import cmath
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    add_points,
    direct_sum_form,
    rand_point,
    rand_poly,
    same_bits,
    symplectic_form,
)
from eprbell import (
    ZERO_THRESHOLD,
    SearchConfig,
    StateFunctional,
    TermBudgetError,
    WeylPolynomial,
    adjoint,
    collinearity_check,
    from_records,
    is_self_adjoint,
    monomial_candidate,
    monomial_family_value,
    multiplicativity_check,
    one_norm,
    parse_points,
    point,
    tensor_embed,
    to_records,
    traciality_check,
    uniqueness_support_check,
    weyl_double,
    weyl_multiply,
)
import eprbell.weyl
from eprbell.weyl import LATTICE_BITS, read_lattice, unit_phase


class TestForms:
    def test_canonical_pair(self):
        assert symplectic_form(point(1, 0), point(0, 1)) == Fraction(1, 2)

    def test_antisymmetry_diagonal(self):
        x = point(Fraction(3, 7), Fraction(-2, 5))
        assert symplectic_form(x, x) == 0

    def test_hand_value(self):
        # (2*7 - 3*5)/2 = -1/2
        assert symplectic_form(point(2, 3), point(5, 7)) == Fraction(-1, 2)

    def test_direct_sum_reduces_to_first_pair(self):
        assert direct_sum_form(point(1, 0, 0, 0), point(0, 1, 0, 0)) == Fraction(1, 2)

    def test_direct_sum_diagonal(self):
        x = point(1, 2, 3, 4)
        assert direct_sum_form(x, x) == 0

    def test_direct_sum_both_pairs(self):
        assert direct_sum_form(point(1, 0, 1, 0), point(0, 1, 0, 1)) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            symplectic_form(point(1, 0, 0, 0), point(1, 0, 0, 0))
        with pytest.raises(ValueError):
            direct_sum_form(point(1, 0), point(1, 0))

    def test_point_validation(self):
        with pytest.raises(ValueError):
            point(1, 2, 3)
        assert point("1/2", 3) == (Fraction(1, 2), Fraction(3))

    @pytest.mark.parametrize(
        "bad, says",
        [
            (0.1, "string or an int"),
            (1.0, "string or an int"),
            (True, "string or an int"),
            ("1/0", "Fraction(1, 0)"),
            ("1/x", "Invalid literal"),
            (None, "Rational"),
        ],
    )
    def test_point_rejects_floats_bools_and_zero_denominators(self, bad, says):
        with pytest.raises(ValueError) as info:
            point("1", bad, "0", "0")
        assert f"coordinate 1 is {bad!r}" in str(info.value)
        assert says in str(info.value)

    def test_parse_points_names_the_row(self):
        assert parse_points([["1", 2], ["1/2", "0"]]) == [point(1, 2), point("1/2", 0)]
        with pytest.raises(ValueError, match="record 1: coordinate 0 is 0.5"):
            parse_points([["1", "2"], [0.5, "0"]], "record")

    @pytest.mark.parametrize("row", ["0000", "12", 7, {"a": 1}])
    def test_parse_points_rejects_rows_that_are_not_arrays(self, row):
        with pytest.raises(ValueError, match="point 1: a point is an array"):
            parse_points([["0", "0", "0", "0"], row])


def _fraction_coordinate(j: int, c) -> Fraction:
    """Coordinate ``j`` as ``Fraction`` reads it, floats and bools refused."""
    if type(c) is Fraction:
        return c
    if isinstance(c, (bool, float)):
        raise ValueError(f"coordinate {j} is {c!r}; give it as a string or an int")
    try:
        return Fraction(c)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"coordinate {j} is {c!r}: {exc}") from None


def _fraction_lattice(points) -> tuple[int, list[tuple[int, ...]]]:
    """The least common denominator of ``Fraction`` points, and each point
    times it as a tuple of ints."""
    points = list(points)
    den = math.lcm(*(c.denominator for p in points for c in p))
    return den, [tuple(c.numerator * (den // c.denominator) for c in p) for p in points]


def _fraction_read(rows, label):
    """The reader's oracle: ``Fraction`` per coordinate, each row checked
    and named in turn, the lcm taken row by row against the budget, then
    the scaled coordinates checked."""
    pts, den = [], 1
    for i, row in enumerate(rows):
        try:
            if not isinstance(row, (list, tuple)):
                raise ValueError(f"a point is an array of coordinates, not {row!r}")
            if len(row) not in (2, 4):
                raise ValueError(f"phase-space points have 2 or 4 coordinates, got {len(row)}")
            pts.append(tuple(_fraction_coordinate(j, c) for j, c in enumerate(row)))
        except ValueError as exc:
            raise ValueError(f"{label} {i}: {exc}" if label else str(exc)) from None
        den = math.lcm(den, *(c.denominator for c in pts[-1]))
        if den.bit_length() > LATTICE_BITS:
            raise TermBudgetError("denominator")
    den, ints = _fraction_lattice(pts)
    if any(v.bit_length() > LATTICE_BITS for p in ints for v in p):
        raise TermBudgetError("scaled coordinate")
    return den, ints


def _outcome(parse, rows):
    """What ``parse(rows)`` returns, the type and message of a ValueError
    it raises, or the type of a budget error."""
    try:
        return parse(rows)
    except TermBudgetError:
        return TermBudgetError
    except Exception as exc:
        return type(exc), str(exc)


#: Coordinates the reader reads itself: ints, and ASCII "p" and "p/q"
#: strings, unreduced, signed zeros, and numerators or denominators of
#: 4000 digits, which pass the lattice budget.
_PLAIN = st.one_of(
    st.integers(-(10**30), 10**30),
    st.integers(-(10**30), 10**30).map(str),
    st.builds("{}/{}".format, st.integers(-99, 99), st.integers(1, 99)),
    st.sampled_from(["2/4", "-0", "0/7", "-6/4", "007/010", "3" * 4000, "-1/" + "7" * 4000,
                     "1/" + str(2**4095), "-1/" + str(3**2584)]),
)
#: Coordinates the reader reads through Fraction: the fallback grammar and
#: Fractions, some at the edge of the budget.
_OTHER = st.one_of(
    st.sampled_from(["+3", " 3/4", "1e3", "0.5", "\u0663", "\uff13/4", "1_000", "-0.0",
                     Fraction(1, 2**4095), Fraction(1, 2**4096), Fraction(2**4096 - 1, 5)]),
    st.fractions(),
)
#: Coordinates that are refused: a zero denominator, a numerator past
#: int()'s digit limit, floats, bools, null and nested arrays.
_REFUSED = st.one_of(
    st.sampled_from(["1/0", "9" * 5000, "1/" + "3" * 4400, "1/x", "", "-", "3/-4", None,
                     True, False, [1], [["0", "0"]], {"a": 1}]),
    st.floats(),
)
_COORD = st.one_of(_PLAIN, _PLAIN, _PLAIN, _PLAIN, _OTHER, _REFUSED)
_ROW = st.one_of(
    st.lists(_COORD, min_size=4, max_size=4),
    st.lists(_COORD, min_size=4, max_size=4),
    st.lists(_COORD, min_size=2, max_size=2),
    st.tuples(_COORD, _COORD),
    st.lists(_COORD, min_size=3, max_size=3),
    st.sampled_from(["0000", "12", 7, None]),
)
#: Rows of plain coordinates only, which the reader reads without Fraction.
_PLAIN_ROW = st.one_of(st.lists(_PLAIN, min_size=4, max_size=4), st.tuples(_PLAIN, _PLAIN))


class TestReadLattice:
    """``read_lattice`` is the ``Fraction`` route then the lcm, within the
    budget: values and errors."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(st.one_of(st.lists(_PLAIN_ROW, max_size=6), st.lists(_ROW, max_size=6)),
           st.sampled_from(["point", "record", None]))
    # a bool or a float equal to a coordinate read before it, and a
    # numerator past int()'s digit limit
    @example([[1, "1", 0, 0], [True, 0, 0, 0]], "point")
    @example([[1, 0], ["1", 1.0]], "point")
    @example([["1/2", "0"], ["9" * 5000, "1", "0", "0"]], "record")
    def test_matches_the_fraction_route(self, rows, label):
        want = _outcome(lambda r: _fraction_read(r, label), rows)
        assert _outcome(lambda r: read_lattice(r, label), rows) == want
        assert _outcome(lambda r: read_lattice(iter(r), label), rows) == want
        if want is not TermBudgetError and isinstance(want[0], int):
            den, ints = want
            want = [tuple(Fraction(v, den) for v in p) for p in ints]
        assert _outcome(lambda r: parse_points(r, label), rows) == want

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(st.lists(_PLAIN_ROW, max_size=6))
    def test_plain_rows_take_no_fraction(self, rows):
        # Fraction is patched away, so these values are the direct path's
        want = _outcome(lambda r: _fraction_read(r, "point"), rows)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(eprbell.weyl, "Fraction", None)
            assert _outcome(read_lattice, rows) == want

    @pytest.mark.parametrize("dim", [2, 4])
    def test_a_denominator_of_the_budget_is_read_and_one_bit_more_raises(self, dim):
        zeros = ["0"] * (dim - 1)
        den, ints = read_lattice([["0"] * dim, ["1/" + str(2**4095), *zeros]])
        assert den.bit_length() == LATTICE_BITS and ints[1] == (1, *[0] * (dim - 1))
        with pytest.raises(TermBudgetError, match="point 1: the common denominator has 4097 bits"):
            read_lattice([["0"] * dim, ["1/" + str(2**4096), *zeros]])

    def test_a_scaled_coordinate_past_the_budget_raises(self):
        den, ints = read_lattice([["1/3", str(2**4094)]])
        assert (den, ints) == (3, [(1, 3 * 2**4094)])
        with pytest.raises(TermBudgetError, match="scaled to the common denominator has 4097"):
            read_lattice([["1/3", str(2**4095)]])

    def test_sums_and_products_past_the_budget_raise(self):
        # each denominator is within the budget, their lcm is not
        p = WeylPolynomial.generator(point("1/" + str(3**1400), 0))
        q = WeylPolynomial.generator(point(0, "1/" + str(5**1000)))
        for combine in (weyl_multiply, WeylPolynomial.__add__):
            with pytest.raises(TermBudgetError, match="common denominator of a polynomial has"):
                combine(p, q)
        assert len(weyl_multiply(p, p)) == len(p + p) == 1


_STATE = StateFunctional.epr(0.3, 0.7)

#: Public entry points that take exact coordinates as arguments: each reads
#: the value v as its coordinate j.
_ENTRY_POINTS = {
    "uniqueness_support_check": (0, lambda v: uniqueness_support_check(_STATE, (v, 1, -2, 1))),
    "multiplicativity_check": (
        1, lambda v: multiplicativity_check(_STATE, 1, v, probes=[(1, 2, -1, 2)])),
    "collinearity_check": (2, lambda v: collinearity_check(1, "1/3", v, -1, _STATE)),
    "monomial_candidate": (0, lambda v: monomial_candidate(v, 1, 0.3, 0.7, -0.2, 1.1)),
    "monomial_family_value": (
        1, lambda v: monomial_family_value(1, v, 0.3, 0.7, -0.2, 1.1, _STATE)),
    "weyl_double": (0, lambda v: weyl_double(v, "-1/2", _STATE)),
    "traciality_check": (0, lambda v: traciality_check(_STATE, (v, 1), (-2, -1))),
    "SearchConfig": (0, lambda v: SearchConfig((((v, 0), (-2, 0)),) * 4)),
}


class TestOneReader:
    """Every entry point reads its coordinates as ``read_lattice`` does."""

    @pytest.mark.parametrize("name", _ENTRY_POINTS)
    @pytest.mark.parametrize("bad", [0.5, True])
    def test_a_float_or_bool_coordinate_is_refused(self, name, bad):
        j, call = _ENTRY_POINTS[name]
        with pytest.raises(ValueError, match=f"coordinate {j} is {bad!r}; give it as a string"
                           " or an int"):
            call(bad)

    @pytest.mark.parametrize("name", _ENTRY_POINTS)
    def test_spellings_of_one_value_give_one_result(self, name):
        _, call = _ENTRY_POINTS[name]
        want = call(2)
        assert call("4/2") == want
        assert call(Fraction(2)) == want

    def test_a_search_config_refuses_a_float_when_made(self):
        supports = (((0.5, 0), ("-1/2", 0)),) * 4
        with pytest.raises(ValueError, match="support 0 point 0: coordinate 0 is 0.5; give"):
            SearchConfig(supports, restarts=1, max_iters=1)
        # made directly or from a spec, a config reads its supports alike
        spec = {"supports": [[["1/2", "0"], ["-1/2", "0"]]] * 4, "restarts": 1}
        direct = SearchConfig((((Fraction(1, 2), 0), ("-1/2", 0)),) * 4, restarts=1)
        assert direct == SearchConfig.from_spec(spec)
        assert direct.supports[0] == (point("1/2", 0), point("-1/2", 0))


class TestProduct:
    def test_generator_product_phase(self):
        p = weyl_multiply(
            WeylPolynomial.generator(point(1, 0)),
            WeylPolynomial.generator(point(0, 1)),
        )
        assert p.points() == [point(1, 1)]
        coeff = p.terms[point(1, 1)]
        assert coeff == pytest.approx(complex(math.cos(0.5), math.sin(0.5)), abs=1e-15)

    def test_identity_is_two_sided_unit(self):
        rng = random.Random(11)
        one = WeylPolynomial.identity(4)
        for _ in range(20):
            p = rand_poly(rng, 4)
            assert weyl_multiply(one, p) == p
            assert weyl_multiply(p, one) == p

    def test_generators_unitary(self):
        rng = random.Random(12)
        for dim in (2, 4):
            for _ in range(20):
                g = WeylPolynomial.generator(rand_point(rng, dim))
                assert weyl_multiply(g, adjoint(g)) == WeylPolynomial.identity(dim)

    def test_associativity(self):
        rng = random.Random(13)
        for _ in range(40):
            p, q, r = (rand_poly(rng, 4) for _ in range(3))
            left = weyl_multiply(weyl_multiply(p, q), r)
            right = weyl_multiply(p, weyl_multiply(q, r))
            assert one_norm(left - right) <= 1e-10

    def test_involution_antimultiplicative(self):
        rng = random.Random(14)
        for _ in range(40):
            p, q = rand_poly(rng, 4), rand_poly(rng, 4)
            lhs = adjoint(weyl_multiply(p, q))
            rhs = weyl_multiply(adjoint(q), adjoint(p))
            assert one_norm(lhs - rhs) <= 1e-10

    def test_product_phases_unimodular(self):
        rng = random.Random(21)
        for _ in range(40):
            g = WeylPolynomial.generator(rand_point(rng, 4))
            h = WeylPolynomial.generator(rand_point(rng, 4))
            (coeff,) = weyl_multiply(g, h).terms.values()
            assert abs(abs(coeff) - 1.0) <= 1e-12

    @pytest.mark.parametrize("op", [weyl_multiply, operator.add, operator.sub])
    def test_dimension_mismatch(self, op):
        with pytest.raises(ValueError, match="polynomials of different dimension"):
            op(WeylPolynomial.identity(2), WeylPolynomial.identity(4))

    def test_star_of_two_polynomials_is_weyl_multiply(self):
        rng = random.Random(16)
        for dim in (2, 4):
            for _ in range(10):
                p, q = rand_poly(rng, dim), rand_poly(rng, dim)
                got, want = p * q, weyl_multiply(p, q)
                assert got == want and list(got._terms) == list(want._terms)
                assert same_bits(np.array(list(got._terms.values()), dtype=complex),
                                 np.array(list(want._terms.values()), dtype=complex))

    def test_term_budget(self):
        rng = random.Random(15)
        big = WeylPolynomial(2, {rand_point(rng, 2): 1.0 for _ in range(90)})
        with pytest.raises(TermBudgetError):
            weyl_multiply(big, big)

    def test_commutation_phase_relative_position(self):
        # [W(s,0) x W(-s,0)] past [W(a,b) x W(c,d)] picks up e^{i s (b - d)}
        rng = random.Random(16)
        for _ in range(25):
            s = rand_point(rng, 2)[0]
            a, b, c, d = rand_point(rng, 4)
            u = WeylPolynomial.generator((s, Fraction(0), -s, Fraction(0)))
            w = WeylPolynomial.generator((a, b, c, d))
            uw = weyl_multiply(u, w)
            wu = weyl_multiply(w, u)
            zpt = uw.points()[0]
            ratio = uw.terms[zpt] / wu.terms[zpt]
            expected = complex(
                math.cos(float(s) * float(b - d)), math.sin(float(s) * float(b - d))
            )
            assert abs(ratio - expected) <= 1e-12

    def test_commutation_phase_total_momentum(self):
        # [W(0,t) x W(0,t)] past [W(a,b) x W(c,d)] picks up e^{-i t (a + c)};
        # the sign is pinned by the orientation of the form in the product
        # relation, via s((0,t),(a,b)) = -ta/2.
        rng = random.Random(17)
        for _ in range(25):
            t = rand_point(rng, 2)[0]
            a, b, c, d = rand_point(rng, 4)
            u = WeylPolynomial.generator((Fraction(0), t, Fraction(0), t))
            w = WeylPolynomial.generator((a, b, c, d))
            uw = weyl_multiply(u, w)
            wu = weyl_multiply(w, u)
            zpt = uw.points()[0]
            ratio = uw.terms[zpt] / wu.terms[zpt]
            expected = complex(
                math.cos(-float(t) * float(a + c)), math.sin(-float(t) * float(a + c))
            )
            assert abs(ratio - expected) <= 1e-12


class TestAdjoint:
    def test_conjugates_and_negates(self):
        p = adjoint(WeylPolynomial(2, {point(1, 2): 1j}))
        assert p == WeylPolynomial(2, {point(-1, -2): -1j})

    def test_identity_self_adjoint(self):
        one = WeylPolynomial.identity(2)
        assert adjoint(one) == one

    def test_involution(self):
        rng = random.Random(18)
        for _ in range(20):
            p = rand_poly(rng, 2)
            assert adjoint(adjoint(p)) == p


class TestEmbed:
    def test_slots(self):
        g = WeylPolynomial(2, {point(1, 2): 0.5j})
        assert tensor_embed(g, 1) == WeylPolynomial(4, {point(1, 2, 0, 0): 0.5j})
        assert tensor_embed(g, 2) == WeylPolynomial(4, {point(0, 0, 1, 2): 0.5j})

    def test_no_cross_phase(self):
        rng = random.Random(19)
        for _ in range(20):
            x, y = rand_point(rng, 2), rand_point(rng, 2)
            prod = weyl_multiply(
                tensor_embed(WeylPolynomial.generator(x), 1),
                tensor_embed(WeylPolynomial.generator(y), 2),
            )
            target = (x[0], x[1], y[0], y[1])
            assert prod.terms[target] == 1.0 + 0j

    def test_bad_slot(self):
        with pytest.raises(ValueError):
            tensor_embed(WeylPolynomial.identity(2), 3)
        with pytest.raises(ValueError):
            tensor_embed(WeylPolynomial.identity(4), 1)


class TestNorms:
    def test_single_generator(self):
        assert one_norm(WeylPolynomial.generator(point(1, 1))) == 1.0

    def test_two_halves(self):
        p = WeylPolynomial(2, {point(1, 0): 0.5, point(0, 1): 0.5})
        assert one_norm(p) == 1.0

    def test_zero(self):
        assert one_norm(WeylPolynomial(2)) == 0.0

    def test_self_adjoint_symmetric_pair(self):
        x = point(2, 3)
        p = WeylPolynomial.generator(x) + WeylPolynomial.generator(point(-2, -3))
        assert is_self_adjoint(p)
        assert one_norm(p - adjoint(p)) <= 1e-12

    def test_not_self_adjoint(self):
        assert not is_self_adjoint(WeylPolynomial(2, {point(1, 0): 1j}))

    def test_phase_pair_self_adjoint(self):
        alpha = 0.8345
        phase = complex(math.cos(alpha), math.sin(alpha))
        p = WeylPolynomial(
            2, {point(1, 2): phase, point(-1, -2): phase.conjugate()}
        )
        assert is_self_adjoint(p)
        assert one_norm(p - adjoint(p)) <= 1e-12


class TestCanonicalForm:
    def test_dimension_is_2_or_4(self):
        with pytest.raises(ValueError, match="must be 2 or 4, got 3"):
            WeylPolynomial(3)

    def test_merges_duplicate_points(self):
        p = WeylPolynomial(2, [(point(1, 0), 0.5), (point(1, 0), 0.25)])
        assert p.terms[point(1, 0)] == 0.75

    def test_drops_tiny_coefficients(self):
        p = WeylPolynomial(2, {point(1, 0): 1e-16})
        assert len(p) == 0

    def test_an_operand_that_is_no_polynomial_is_not_implemented(self):
        # each side returns NotImplemented, so == falls back to identity
        # and + has no method left to try
        assert (WeylPolynomial(2) == 0) is False
        with pytest.raises(TypeError):
            WeylPolynomial(2) + 1

    def test_cancellation_drops_term(self):
        g = WeylPolynomial.generator(point(1, 0))
        assert len(g - g) == 0

    def test_product_lands_on_least_denominator(self):
        half = WeylPolynomial.generator(point("1/2", 0))
        square = weyl_multiply(half, half)
        assert square == WeylPolynomial.generator(point(1, 0))
        assert square._den == 1
        third, sixth = point("1/3", 0), point("1/6", 0)
        prod = weyl_multiply(
            WeylPolynomial.generator(third), WeylPolynomial.generator(sixth)
        )
        assert prod._den == 2

    def test_difference_with_itself_is_zero(self):
        rng = random.Random(22)
        for dim in (2, 4):
            for _ in range(10):
                p = rand_poly(rng, dim)
                assert p - p == WeylPolynomial(dim)

    def test_equality_ignores_term_order_and_written_denominators(self):
        p = WeylPolynomial(2, {("2/4", "3"): 0.5, (1, "6/3"): 1j})
        q = WeylPolynomial(
            2, [((Fraction(1), 2), 1j), ((Fraction(3, 6), Fraction(9, 3)), 0.5)]
        )
        assert p == q
        assert p + WeylPolynomial(2, {point("1/4", 0): 0.25}) == (
            WeylPolynomial(2, {point("2/8", 0): 0.25}) + q
        )

    def test_terms_are_reduced_fractions(self):
        p = WeylPolynomial(4, {("2/4", "3", "-10/15", 0): 1.0, (1, 2, 3, 4): 0.5})
        assert list(p.terms) == [
            (Fraction(1, 2), Fraction(3), Fraction(-2, 3), Fraction(0)),
            (Fraction(1), Fraction(2), Fraction(3), Fraction(4)),
        ]
        for pt in p.points():
            assert all(type(c) is Fraction for c in pt)
        prod = weyl_multiply(p, adjoint(p))
        assert all(type(c) is Fraction for pt in prod.terms for c in pt)
        assert prod.terms[point(0, 0, 0, 0)] == pytest.approx(1.25)

    @pytest.mark.parametrize(
        "bad, says",
        [
            (0.1, "string or an int"),
            (True, "string or an int"),
            ("1/0", "Fraction(1, 0)"),
        ],
    )
    def test_constructors_reject_floats_bools_and_zero_denominators(self, bad, says):
        for build in (
            lambda: WeylPolynomial.generator(("0", bad)),
            lambda: WeylPolynomial(2, {("0", bad): 1.0}),
            lambda: WeylPolynomial(4, [(("0", bad, "0", "0"), 1.0)]),
        ):
            with pytest.raises(ValueError) as info:
                build()
            assert f"coordinate 1 is {bad!r}" in str(info.value)
            assert says in str(info.value)


class TestSerialization:
    def test_round_trip(self):
        rng = random.Random(20)
        for dim in (2, 4):
            for _ in range(10):
                p = rand_poly(rng, dim)
                assert from_records(to_records(p)) == p

    def test_rational_strings(self):
        recs = [{"point": ["1/2", "-3"], "re": 0.25, "im": -1.0}]
        p = from_records(recs)
        assert p.terms[point("1/2", -3)] == 0.25 - 1j

    def test_recanonicalizes(self):
        recs = [
            {"point": ["1", "0"], "re": 0.5, "im": 0.0},
            {"point": ["1", "0"], "re": 0.5, "im": 0.0},
        ]
        assert from_records(recs).terms[point(1, 0)] == 1.0

    def test_empty_needs_dim(self):
        with pytest.raises(ValueError, match="^cannot infer dimension from an empty record list$"):
            from_records([])

    def test_the_dimension_is_the_first_points(self):
        two = {"point": ["1", "0"], "re": 1.0, "im": 0.0}
        four = {"point": ["1", "0", "-1", "0"], "re": 1.0, "im": 0.0}
        assert from_records([four]).dim == 4 and from_records([two]).dim == 2
        with pytest.raises(ValueError, match="^point of length 4 in a dimension-2 polynomial$"):
            from_records([two, four])
        with pytest.raises(ValueError, match="^point of length 2 in a dimension-4 polynomial$"):
            from_records([four, two])

    def test_records_sorted(self):
        p = WeylPolynomial(2, {point(3, 0): 1.0, point(-1, 0): 1.0})
        recs = to_records(p)
        assert recs[0]["point"] == ["-1", "0"]


#: Coordinates in the range of the CLI's random batteries (numerators up to
#: 8, denominators up to 6), and wide ones.
_SMALL = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 6))
_WIDE = st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**3))
_COEFF = st.builds(complex, st.floats(-1, 1), st.floats(-1, 1))


def _polys(coord, dim: int):
    """Polynomials of one to four terms."""
    pts = st.tuples(*[coord] * dim)
    terms = st.dictionaries(pts, _COEFF, min_size=1, max_size=4)
    return terms.map(lambda t: WeylPolynomial(dim, t))


_PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)


class TestAlgebraicLaws:
    """The *-algebra laws as properties over generated polynomials."""

    @_PROPERTY
    @given(_polys(_SMALL, 4), _polys(_SMALL, 4), _polys(_SMALL, 4))
    def test_associative(self, p, q, r):
        """Drawn from the batteries' range.  At wide coordinates the law does
        not hold within 1e-12 today: phase angles are rounded to doubles
        before they are reduced mod 2 pi, so (PQ)R and P(QR) differ by up to
        7.6e-7 in one-norm over 300 random four-term triples."""
        left = weyl_multiply(weyl_multiply(p, q), r)
        right = weyl_multiply(p, weyl_multiply(q, r))
        assert one_norm(left - right) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 4])
    @_PROPERTY
    @given(data=st.data())
    def test_adjoint_reverses_products(self, dim, data):
        p, q = data.draw(_polys(_WIDE, dim)), data.draw(_polys(_WIDE, dim))
        lhs = adjoint(weyl_multiply(p, q))
        rhs = weyl_multiply(adjoint(q), adjoint(p))
        assert one_norm(lhs - rhs) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 4])
    @_PROPERTY
    @given(data=st.data())
    def test_adjoint_is_an_involution(self, dim, data):
        p = data.draw(_polys(_WIDE, dim))
        assert adjoint(adjoint(p)) == p

    @_PROPERTY
    @given(_polys(_WIDE, 2), _polys(_WIDE, 2))
    def test_slots_commute_exactly(self, p, q):
        left, right = tensor_embed(p, 1), tensor_embed(q, 2)
        assert weyl_multiply(left, right) == weyl_multiply(right, left)

    @pytest.mark.parametrize("dim", [2, 4])
    @_PROPERTY
    @given(data=st.data())
    def test_records_round_trip(self, dim, data):
        p = data.draw(_polys(_WIDE, dim))
        records = to_records(p)
        if records:
            assert from_records(records) == p
        else:  # the zero polynomial's records name no dimension
            with pytest.raises(ValueError, match="cannot infer dimension"):
                from_records(records)


def _fraction_product(p: WeylPolynomial, q: WeylPolynomial) -> dict:
    """The product as formed on ``Fraction`` points, term pair by term pair,
    p-major and q-minor: the reference for the lattice engine's keys,
    insertion order and coefficient bits."""
    form = symplectic_form if p.dim == 2 else direct_sum_form
    acc = {}
    for x, a in p.terms.items():
        for y, b in q.terms.items():
            z = add_points(x, y)
            acc[z] = acc.get(z, 0j) + a * b * unit_phase(form(x, y))
    return {z: c for z, c in acc.items() if abs(c) >= ZERO_THRESHOLD}


#: Coordinates past int64 once scaled to a common denominator.
_HUGE = st.builds(Fraction, st.integers(-(10**20), 10**20), st.integers(1, 10**12))
_SCALES = {"batteries": _SMALL, "wide": _WIDE, "past_int64": _HUGE}


class TestFractionOracle:
    """Products are bit for bit the ``Fraction`` loop's."""

    @pytest.mark.parametrize("dim", [2, 4])
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_fraction_loop(self, dim, data):
        coord = _SCALES[data.draw(st.sampled_from(sorted(_SCALES)))]
        # points are mostly small integer combinations of one or two base
        # points, so sum points collide; between collinear points the phase
        # is exactly 1, and coefficients of +-1 and +-1/2 then cancel
        bases = data.draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=2))
        combo = st.tuples(*[st.integers(-2, 2)] * len(bases)).map(
            lambda ks: tuple(sum(k * b[i] for k, b in zip(ks, bases)) for i in range(dim))
        )
        pts = st.one_of(combo, combo, st.tuples(*[coord] * dim))
        coeff = st.one_of(st.sampled_from([1, -1, 0.5, -0.5, 1j]), _COEFF)
        terms = st.lists(st.tuples(pts, coeff), max_size=8)
        p = WeylPolynomial(dim, data.draw(terms))
        q = WeylPolynomial(dim, data.draw(terms))
        for left, right in ((p, q), (q, p), (p, p), (p, adjoint(p))):
            got, want = weyl_multiply(left, right).terms, _fraction_product(left, right)
            assert list(got) == list(want)
            assert same_bits(
                np.array(list(got.values()), dtype=complex),
                np.array(list(want.values()), dtype=complex),
            )


    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(data=st.data())
    def test_a_dimension_2_product_is_the_slot_2_product_read_back(self, data):
        # the one-particle form is the direct-sum form restricted to either
        # slot, so slot 2 gives the same L, keys, order and bits as slot 1
        coord = _SCALES[data.draw(st.sampled_from(sorted(_SCALES)))]
        p, q = data.draw(_polys(coord, 2)), data.draw(_polys(coord, 2))
        for left, right in ((p, q), (q, p), (p, adjoint(p))):
            got = weyl_multiply(left, right)
            slot2 = weyl_multiply(tensor_embed(left, 2), tensor_embed(right, 2))
            assert got.dim == 2 and got._den == slot2._den
            assert list(got._terms) == [z[2:] for z in slot2._terms]
            assert same_bits(
                np.array(list(got._terms.values()), dtype=complex),
                np.array(list(slot2._terms.values()), dtype=complex),
            )


#: Lattice coordinates of either sign, past int64 too.
_ROW_INT = st.one_of(st.integers(-(10**6), 10**6), st.integers(-(10**20), 10**20))


def _fraction_constructor(dim: int, terms) -> tuple[int, dict]:
    """The constructor as it summed on ``Fraction`` points, then put the kept
    points on the lattice: the reference for the denominator, keys,
    insertion order and coefficient bits of the lattice constructor."""
    items = terms.items() if isinstance(terms, dict) else terms
    acc = {}
    for pt, coeff in items:
        pt = tuple(Fraction(c) for c in pt)
        acc[pt] = acc.get(pt, 0j) + complex(coeff)
    kept = {p: c for p, c in acc.items() if abs(c) >= ZERO_THRESHOLD}
    den, ints = _fraction_lattice(kept)
    return den, dict(zip(ints, kept.values()))


def _written(f: Fraction):
    """A coordinate as callers write it: an int, a string or a Fraction."""
    forms = [str(f), f] + ([int(f)] if f.denominator == 1 else [])
    return st.sampled_from(forms)


def _assert_same_lattice(p: WeylPolynomial, want: tuple[int, dict]):
    den, terms = want
    assert p._den == den
    assert list(p._terms) == list(terms)
    assert same_bits(
        np.array(list(p._terms.values()), dtype=complex),
        np.array(list(terms.values()), dtype=complex),
    )


class TestConstructorOracle:
    """The constructor sums on the lattice to the ``Fraction`` loop's terms."""

    @pytest.mark.parametrize("dim", [2, 4])
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_fraction_loop(self, dim, data):
        coord = _SCALES[data.draw(st.sampled_from(sorted(_SCALES)))]
        # a few distinct points, drawn with repeats so duplicates add up and
        # coefficients of +-1 and +-1/2 cancel
        pool = data.draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=4))
        coeff = st.one_of(st.sampled_from([1, -1, 0.5, -0.5, 1j, 0]), _COEFF)
        terms = data.draw(st.lists(st.tuples(st.sampled_from(pool), coeff), max_size=10))
        written = [
            (tuple(data.draw(_written(c)) for c in pt), a) for pt, a in terms
        ]
        want = _fraction_constructor(dim, written)
        _assert_same_lattice(WeylPolynomial(dim, written), want)
        _assert_same_lattice(WeylPolynomial(dim, iter(written)), want)
        # a mapping keys each written form once; "1/2" and Fraction(1, 2)
        # are two keys for one point
        mapping = dict(written)
        _assert_same_lattice(WeylPolynomial(dim, mapping), _fraction_constructor(dim, mapping))

    def test_cancelling_the_largest_denominator_lands_on_its_least(self):
        terms = [(("1/3", 0), 1.0), ((Fraction(1, 3), 0), -1.0), ((1, 0), 1.0)]
        p = WeylPolynomial(2, terms)
        assert p._den == 1
        assert p == WeylPolynomial.generator(point(1, 0))
        _assert_same_lattice(p, _fraction_constructor(2, terms))

    def test_duplicates_add_in_input_order(self):
        terms = [((1, "1/2"), 0.1), ((0, 0), 1j), (("2/2", Fraction(2, 4)), 0.2),
                 ((1, "1/2"), 0.3)]
        p = WeylPolynomial(2, terms)
        assert list(p.terms) == [point(1, "1/2"), point(0, 0)]
        assert p.terms[point(1, "1/2")] == (0.1 + 0.2) + 0.3
        _assert_same_lattice(p, _fraction_constructor(2, terms))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.sampled_from([2, 4]).flatmap(lambda dim: st.tuples(*[_ROW_INT] * dim)),
           st.integers(1, 10**3), st.integers(1, 60))
    @example((0, 0), 6, 1)
    @example((0, 0, 0, 0), 5, 12)
    @example((-3, 2), 7, 5)
    @example((-4, 6, 0, -10), 3, 6)
    def test_a_row_over_a_den_is_the_generator_of_its_fractions(self, row, den, k):
        # k is a factor the row and den share, which only _reduced removes
        row, den = tuple(v * k for v in row), den * k
        got = WeylPolynomial.generator(row, den)
        want = WeylPolynomial.generator(tuple(Fraction(v, den) for v in row))
        assert got == want
        (got_den, got_items), (want_den, want_items) = got.lattice_items(), want.lattice_items()
        assert got_den == want_den and list(got_items) == list(want_items)


def _reduced_oracle(den: int, terms: dict) -> tuple[int, dict]:
    """``_reduced`` as it rebuilt every dict and took the gcd of every
    coordinate: the reference for L, the keys, their order and the bits."""
    terms = {p: c for p, c in terms.items() if abs(c) >= ZERO_THRESHOLD}
    g = math.gcd(den, *(v for p in terms for v in p))
    if g > 1:
        den //= g
        terms = {tuple(v // g for v in p): c for p, c in terms.items()}
    if den.bit_length() > LATTICE_BITS:
        raise TermBudgetError("the common denominator of a polynomial")
    return den, terms


#: Coefficients that canonical form must drop (nan, sub-threshold, zero) or
#: keep (infinite, at the threshold), and ordinary ones.
_EDGE_COEFF = st.one_of(
    st.sampled_from([math.nan, complex(math.nan, 1), complex(0, math.nan), math.inf,
                     -math.inf, complex(1, -math.inf), 1e-16, -1e-16j, 0, -0.0,
                     ZERO_THRESHOLD, 1, -1, 0.5, 1j]),
    _COEFF,
)


@st.composite
def _lattice_terms(draw):
    """A denominator and lattice terms over it, most of them sharing a
    factor with it, so that dropping the others makes it reducible."""
    dim = draw(st.sampled_from([2, 4]))
    g = draw(st.sampled_from([1, 2, 3, 6, 2**70]))
    den = g * draw(st.integers(1, 12))
    shared = st.tuples(*[st.integers(-5, 5).map(lambda v: g * v)] * dim)
    other = st.tuples(*[st.integers(-7, 7)] * dim)
    pts = st.one_of(shared, shared, other)
    return den, draw(st.dictionaries(pts, _EDGE_COEFF, max_size=5))


def _assert_canonical(p: WeylPolynomial):
    """gcd(L, coordinates) is 1 (so L is 1 without terms), and every
    coefficient passes the threshold."""
    den, items = p.lattice_items()
    assert math.gcd(den, *(v for x, _ in items for v in x)) == 1
    assert all(abs(c) >= ZERO_THRESHOLD for _, c in items)


class TestCanonicalFormKept:
    """Canonical form holds after every operation, though only some reduce."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(_lattice_terms())
    @example((1, {}))
    @example((6, {}))
    @example((6, {(3, 0): 1.0, (1, 0): 1e-16}))
    @example((6, {(3, 0, 0, 3): 1.0, (1, 0, 0, 0): math.nan, (0, 3, 0, 0): -math.inf}))
    @example((4, {(2, 2): 1e-16j}))
    def test_reduced_matches_the_rebuild_everything_body(self, case):
        den, terms = case
        got_den, got = eprbell.weyl._reduced(den, dict(terms))
        want_den, want = _reduced_oracle(den, dict(terms))
        assert got_den == want_den and list(got) == list(want)
        assert same_bits(np.array(list(got.values()), dtype=complex),
                         np.array(list(want.values()), dtype=complex))

    def test_reduced_keeps_the_budget(self):
        big = 2 ** (LATTICE_BITS + 1)
        with pytest.raises(TermBudgetError, match="common denominator of a polynomial"):
            eprbell.weyl._reduced(big, {(1, 0): 1.0})
        # a dropped term that held L up: the rest reduces inside the budget
        assert eprbell.weyl._reduced(big, {(big, 0): 1.0, (1, 0): math.nan}) == (1, {(1, 0): 1.0})

    @pytest.mark.parametrize("dim", [2, 4])
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(data=st.data())
    def test_every_operation_keeps_it(self, dim, data):
        coord = _SCALES[data.draw(st.sampled_from(sorted(_SCALES)))]
        # shared points, so terms merge and cancel, with a point of a larger
        # denominator whose loss makes L reducible
        pool = data.draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=3))
        pool.append(tuple(c / 7 for c in pool[0]))
        terms = st.lists(st.tuples(st.sampled_from(pool), _EDGE_COEFF), max_size=6)
        p, q = WeylPolynomial(dim, data.draw(terms)), WeylPolynomial(dim, data.draw(terms))
        x, y = (data.draw(st.sampled_from(pool))[:2] for _ in range(2))
        c, scalar = data.draw(_EDGE_COEFF), data.draw(_EDGE_COEFF)
        p2 = WeylPolynomial(2, [(pt[:2], a) for pt, a in data.draw(terms)])
        records = [
            {"point": [str(v) for v in pt], "re": complex(a).real, "im": complex(a).imag}
            for pt, a in data.draw(terms) if cmath.isfinite(a)
        ]
        results = [
            WeylPolynomial.generator(pool[-1]), WeylPolynomial(dim, {pool[-1]: c}), p + q, p - q, p - p, p * scalar,
            scalar * p, weyl_multiply(p, q), weyl_multiply(p, adjoint(p)), -p, adjoint(p),
            tensor_embed(p2, 1), tensor_embed(p2, 2), WeylPolynomial.generator((*x, *y)),
        ]
        if records:
            results.append(from_records(records))
        else:
            with pytest.raises(ValueError, match="cannot infer dimension"):
                from_records(records)
        for r in [p, q, p2, *results]:
            _assert_canonical(r)
        # each result owns its terms dict
        assert len({id(r._terms) for r in [p, q, p2, *results]}) == len(results) + 3
