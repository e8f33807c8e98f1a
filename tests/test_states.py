"""State functional: values, kernel positivity, support, uniqueness."""

import ast
import cmath
import math
import random
import re
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    direct_sum_form,
    distinct_points,
    rand_fraction,
    rand_point,
    rand_poly,
    same_bits,
)
from test_weyl import (
    _COEFF, _SCALES, _SMALL, _assert_same_lattice, _fraction_lattice, _polys
)
from eprbell import (
    EquivalenceError,
    StateFunctional,
    SupportPartition,
    WeylPolynomial,
    adjoint,
    eval_point,
    eval_poly,
    eval_product,
    kernel_matrix,
    multiplicativity_check,
    positivity_check,
    psd_check,
    point,
    rank_one_class_check,
    support_relation,
    tensor_embed,
    traciality_check,
    uniqueness_support_check,
    weyl_multiply,
)
import eprbell
import eprbell.states
from eprbell.states import PSD_TOL
from eprbell.weyl import LATTICE_BITS, ZERO_THRESHOLD, TermBudgetError, unit_phase


class TestEvalPoint:
    def test_relative_position_value(self):
        state = StateFunctional.epr(lam=0.73)
        for a in (Fraction(1), Fraction(-5, 3), Fraction(7, 2)):
            value = eval_point(state, (a, Fraction(0), -a, Fraction(0)))
            expected = complex(math.cos(float(a) * 0.73), math.sin(float(a) * 0.73))
            assert abs(value - expected) <= 1e-15

    def test_total_momentum_value(self):
        state = StateFunctional.epr(mu=-1.21)
        for b in (Fraction(2), Fraction(1, 3)):
            value = eval_point(state, (Fraction(0), b, Fraction(0), b))
            expected = complex(math.cos(float(b) * -1.21), math.sin(float(b) * -1.21))
            assert abs(value - expected) <= 1e-15

    def test_off_manifold_exact_zero(self):
        state = StateFunctional.epr(lam=1.0, mu=2.0)
        assert eval_point(state, point(1, 2, 3, 4)) == 0j

    def test_normalization(self):
        assert eval_point(StateFunctional.epr(), point(0, 0, 0, 0)) == 1.0
        assert eval_point(StateFunctional.regular(), point(0, 0, 0, 0)) == 1.0

    def test_hermiticity(self):
        rng = random.Random(30)
        for state in (StateFunctional.epr(0.9, -0.4), StateFunctional.regular()):
            for _ in range(50):
                x = rand_point(rng, 4)
                neg = tuple(-c for c in x)
                assert abs(eval_point(state, neg) - eval_point(state, x).conjugate()) <= 1e-12

    def test_regular_gaussian_value(self):
        x = point(1, 1, 1, 1)
        assert eval_point(StateFunctional.regular(), x) == pytest.approx(
            math.exp(-1.0), abs=1e-15
        )

    def test_dimension_error(self):
        with pytest.raises(ValueError):
            eval_point(StateFunctional.epr(), point(1, 0))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(data=st.data())
    def test_fraction_points_are_their_lattice_ints(self, data):
        """``Fraction`` coordinates at den = 1 give the bits of their ints
        over the common denominator L, for coordinates past 2^53 too."""
        past_2_53 = st.integers(-(2**70), 2**70).map(Fraction)
        coord = st.one_of(*_SCALES.values(), past_2_53)
        a, b = data.draw(coord), data.draw(coord)
        c, d = data.draw(st.one_of(st.just((-a, b)), st.tuples(coord, coord)))
        x = (a, b, c, d)
        den, (ints,) = eprbell.weyl.read_lattice([x], None)
        state = StateFunctional.epr(*data.draw(st.tuples(*[st.floats(-10, 10)] * 2)))
        pairs = [(state.angle(a, b), state.angle(ints[0], ints[1], den))]
        pairs.append((state.phase(a, b), state.phase(ints[0], ints[1], den)))
        for s in (state, StateFunctional.regular()):
            pairs.append((eval_point(s, x), eval_point(s, ints, den)))
        for got, want in pairs:
            assert same_bits(np.array([got], complex), np.array([want], complex))


class TestEvalPoly:
    def test_single_generator_zero_parameters(self):
        state = StateFunctional.epr()
        assert eval_poly(state, WeylPolynomial.generator(point(1, 0, -1, 0))) == 1.0

    def test_linearity_on_identity(self):
        state = StateFunctional.epr()
        assert eval_poly(state, 2.0 * WeylPolynomial.identity(4)) == 2.0

    def test_product_chain_has_zero_net_phase(self):
        # [W(1,0) x W(-1,0)] [W(0,1) x W(0,1)] lands on W(1,1,-1,1) with
        # exactly cancelling product phases, so the value is e^{i(lam+mu)}.
        state = StateFunctional.epr(0.31, 1.7)
        a = weyl_multiply(
            tensor_embed(WeylPolynomial.generator(point(1, 0)), 1),
            tensor_embed(WeylPolynomial.generator(point(-1, 0)), 2),
        )
        b = weyl_multiply(
            tensor_embed(WeylPolynomial.generator(point(0, 1)), 1),
            tensor_embed(WeylPolynomial.generator(point(0, 1)), 2),
        )
        prod = weyl_multiply(a, b)
        assert prod.terms[point(1, 1, -1, 1)] == 1.0 + 0j
        expected = complex(math.cos(0.31 + 1.7), math.sin(0.31 + 1.7))
        assert abs(eval_poly(state, prod) - expected) <= 1e-12

    def test_dimension_error(self):
        with pytest.raises(ValueError):
            eval_poly(StateFunctional.epr(), WeylPolynomial.identity(2))

    def test_one_eval_point_call_per_term(self, monkeypatch):
        # the benchmark's tracer counts eval_point calls and nonzero values
        # by wrapping the module global, as here
        values = []

        def counted(*args, **kwargs):
            values.append(eval_point(*args, **kwargs))
            return values[-1]

        monkeypatch.setattr(eprbell.states, "eval_point", counted)
        rng = random.Random(45)
        state = StateFunctional.epr(0.6, -1.3)
        for _ in range(20):
            terms = []
            for _ in range(rng.randint(1, 6)):
                a, b = rand_fraction(rng), rand_fraction(rng)
                on = rng.random() < 0.5
                terms.append(((a, b, -a, b) if on else rand_point(rng, 4), 1.0))
            p = WeylPolynomial(4, terms)
            for q in (p, weyl_multiply(adjoint(p), p)):
                values.clear()
                eval_poly(state, q)
                on_manifold = sum(c == -a and d == b for a, b, c, d in q.terms)
                assert len(values) == len(q)
                assert sum(v != 0 for v in values) == on_manifold


class TestKernel:
    def test_collinear_pair(self):
        m = kernel_matrix(StateFunctional.epr(), [point(0, 0, 0, 0), point(1, 0, -1, 0)])
        assert np.allclose(m, np.ones((2, 2)), atol=1e-15)

    def test_single_point(self):
        m = kernel_matrix(StateFunctional.epr(), [point(3, 1, 2, 5)])
        assert m.shape == (1, 1) and m[0, 0] == 1.0

    def test_off_manifold_pair_identity(self):
        m = kernel_matrix(StateFunctional.epr(), [point(0, 0, 0, 0), point(1, 0, 0, 0)])
        assert np.array_equal(m, np.eye(2))

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            kernel_matrix(StateFunctional.epr(), [point(0, 0, 0, 0)] * 2)

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            kernel_matrix(StateFunctional.epr(), [])
        with pytest.raises(ValueError):
            psd_check(np.empty((0, 0), dtype=complex))

    def test_integer_coordinates_coerced(self):
        m = kernel_matrix(StateFunctional.epr(), [(0, 0, 0, 0), (1, 0, -1, 0)])
        assert np.allclose(m, np.ones((2, 2)), atol=1e-15)

    def test_hermitian(self):
        rng = random.Random(31)
        for state in (StateFunctional.epr(2.2, 0.4), StateFunctional.regular()):
            pts = distinct_points(rng, 24, 4)
            m = kernel_matrix(state, pts)
            assert float(np.max(np.abs(m - m.conj().T))) <= 1e-12

    def test_epr_kernel_psd_random_parameters(self):
        rng = random.Random(32)
        for _ in range(4):
            state = StateFunctional.epr(rng.uniform(-5, 5), rng.uniform(-5, 5))
            pts = distinct_points(rng, 64, 4)
            res = psd_check(kernel_matrix(state, pts))
            assert res["passed"]

    def test_regular_kernel_psd(self):
        rng = random.Random(33)
        pts = distinct_points(rng, 48, 4)
        res = psd_check(kernel_matrix(StateFunctional.regular(), pts))
        assert res["passed"]

    def test_corrupted_kernel_fails(self):
        rng = random.Random(34)
        state = StateFunctional.from_spec({"kind": "regular", "corrupt_kernel": True})
        pts = distinct_points(rng, 16, 4)
        res = psd_check(kernel_matrix(state, pts))
        assert not res["passed"]
        assert res["min_eigenvalue"] <= -0.4


def _kernel_reference(state: StateFunctional, points) -> np.ndarray:
    """kernel_matrix as the scalar double loop over exact Fraction points."""
    points = [tuple(Fraction(c) for c in p) for p in points]
    if not points:
        raise ValueError("at least one point is required")
    if len(set(points)) != len(points):
        raise ValueError("points must be pairwise distinct")
    for i, p in enumerate(points):
        if len(p) != 4:
            raise ValueError(f"point {i}: states are defined on the dimension-4 algebra,"
                             f" got {len(p)} coordinates")
    n = len(points)
    m = np.empty((n, n), dtype=complex)
    for j, xj in enumerate(points):
        for k, xk in enumerate(points):
            diff = tuple(u - v for u, v in zip(xj, xk))
            g = eval_point(state, diff)
            if g == 0:
                m[j, k] = 0.0
            else:
                m[j, k] = g * unit_phase(-direct_sum_form(xj, xk))
    if state.corrupt_kernel:
        m[n - 1, n - 1] -= 1.5
    return m


#: Coordinate families: (numerator, denominator) bounds of the CLI's own
#: batteries, of wide ones, and numerators past int64; or JSON floats, read
#: as their exact binary fractions.
_COORDS = {
    "small": st.builds(Fraction, st.integers(-8, 8), st.integers(1, 6)),
    "wide": st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**3)),
    "huge": st.builds(Fraction, st.integers(-(10**20), 10**20), st.integers(1, 7)),
    "float": st.floats(-8, 8, allow_nan=False).map(Fraction),
}


@st.composite
def _kernel_points(draw):
    """Distinct dimension-4 points, each either on one of a few EPR support
    classes (a + c, b - d) = (u, v) or anywhere."""
    coord = _COORDS[draw(st.sampled_from(sorted(_COORDS)))]
    invariants = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=3))
    pts = []
    for _ in range(draw(st.integers(1, 16))):
        if draw(st.booleans()):
            u, v = draw(st.sampled_from(invariants))
            a, b = draw(coord), draw(coord)
            p = (a, b, u - a, b - v)
        else:
            p = tuple(draw(coord) for _ in range(4))
        if p not in pts:
            pts.append(p)
    return pts


_PARAMETER = st.floats(-5, 5, allow_nan=False)
_STATES = st.one_of(
    st.builds(StateFunctional.epr, _PARAMETER, _PARAMETER),
    st.just(StateFunctional.regular()),
    st.builds(
        StateFunctional,
        st.sampled_from(["epr", "regular"]),
        _PARAMETER,
        _PARAMETER,
        st.just(True),
    ),
)

#: The identity checks' draws: lambda and mu in [-3, 3], and rationals with
#: denominators up to 64 and |value| <= 16, where the phase angles, rounded
#: to doubles, stay far inside IDENTITY_TOL.
_IDENTITY_PARAMETER = st.floats(-3, 3)
_IDENTITY_RATIONAL = st.fractions(min_value=-16, max_value=16, max_denominator=64)
_IDENTITY_POINT_2 = st.tuples(*[_IDENTITY_RATIONAL] * 2)
_IDENTITY_POINT_4 = st.tuples(*[_IDENTITY_RATIONAL] * 4)


class TestKernelOracle:
    """kernel_matrix returns bit for bit what the scalar loop returns."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_STATES, _kernel_points())
    @example(StateFunctional.epr(-0.5, -0.25), [(3, 1, 2, 5)])
    # the binary fractions of the doubles 0.1, 0.2 and 0.3
    @example(StateFunctional.regular(), [tuple(map(Fraction, (0.1, 0.2, -0.1, 0.2))),
                                         (Fraction(0.3), 0, 0, 0)])
    # a subnormal Gaussian factor, |x - y|^2 / 4 = 743.5, whose products with
    # the phase underflow to zeros whose signs a conjugated mirror flips
    @example(StateFunctional.regular(), [(12, 40, -9, 5), (-19, 30, 34, -3)])
    def test_matches_scalar_loop(self, state, pts):
        assert same_bits(kernel_matrix(state, pts), _kernel_reference(state, pts))

    @pytest.mark.parametrize(
        "pts, bad", [([(0.1, 0, -0.1, 0), ("0", "0", "0", "0")], "0: coordinate 0 is 0.1"),
                     ([("0", "0", "0", "0"), (True, 0, -1, 0)], "1: coordinate 0 is True")]
    )
    def test_refuses_float_and_bool_coordinates(self, pts, bad):
        # a float is not read as its binary fraction, nor true as 1
        with pytest.raises(ValueError, match=f"point {bad}; give it as a string or an int"):
            kernel_matrix(StateFunctional.epr(0.3, 0.7), pts)

    @pytest.mark.parametrize(
        "state", [StateFunctional.epr(1.3, -0.7), StateFunctional.regular()]
    )
    def test_matches_scalar_loop_at_the_int64_limit(self, state):
        # 4 max|coordinate|^2 and 2 L^2 on either side of 2^53, where the
        # scaled coordinates leave int64 for Python ints
        for k in (47453132, 47453133):
            pts = [(k, 1, -k, 1), (k - 1, 2, 1 - k, 2), (0, 0, 0, 0), (k, -k, 3, 2)]
            assert same_bits(kernel_matrix(state, pts), _kernel_reference(state, pts))
        for den in (2**26 - 1, 2**26):
            tiny = Fraction(1, den)
            pts = [(tiny, 0, -tiny, 0), (1, 2, -1, 2), (0, 0, 0, 0)]
            assert same_bits(kernel_matrix(state, pts), _kernel_reference(state, pts))

    def test_matches_scalar_loop_across_passes(self):
        # classes and a regular kernel of more pairs than one pass holds
        rng = random.Random(44)
        pts = distinct_points(rng, 30, 4)
        for u, v in ((Fraction(1, 2), Fraction(-2, 3)), (Fraction(3), Fraction(0))):
            while len(pts) < 30 + 40 * (1 + (u == 3)):
                a, b = rand_fraction(rng), rand_fraction(rng)
                if (a, b, u - a, b - v) not in pts:
                    pts.append((a, b, u - a, b - v))
        rng.shuffle(pts)
        for state in (
            StateFunctional.epr(rng.uniform(-3, 3), rng.uniform(-3, 3)),
            StateFunctional.regular(),
            StateFunctional("epr", 0.4, -1.1, True),
        ):
            assert same_bits(kernel_matrix(state, pts), _kernel_reference(state, pts))

    @pytest.mark.parametrize(
        "pts, message",
        [
            ([], "at least one point is required"),
            ([(0, 0, 0, 0), (0, 0, 0, 0)], "points must be pairwise distinct"),
            ([(1, 0), (0, 1)], "point 0: states are defined on the dimension-4 algebra, got 2"
                               " coordinates"),
            ([(1, 0, -1, 0), (0, 1)], "point 1: states are defined on the dimension-4 algebra,"
                                      " got 2 coordinates"),
            ([(0, 1), (1, 0, -1, 0)], "point 0: states are defined on the dimension-4 algebra,"
                                      " got 2 coordinates"),
        ],
    )
    def test_rejections_keep_their_messages(self, pts, message):
        for build in (kernel_matrix, _kernel_reference):
            with pytest.raises(ValueError) as raised:
                build(StateFunctional.epr(), pts)
            assert str(raised.value) == message


def _eval_poly_reference(state: StateFunctional, p: WeylPolynomial) -> complex:
    """eval_poly as it read the reduced ``Fraction`` points: the oracle of
    evaluation on the lattice."""
    return sum((c * eval_point(state, x) for x, c in p.terms.items()), 0j)


@st.composite
def _manifold_polys(draw):
    """Dimension-4 polynomials of zero to eight terms, each on the EPR
    manifold {c = -a, d = b} or anywhere."""
    coord = _SCALES[draw(st.sampled_from(sorted(_SCALES)))]
    terms = []
    for _ in range(draw(st.integers(0, 8))):
        a, b = draw(coord), draw(coord)
        if draw(st.booleans()):
            pt = (a, b, -a, b)
        else:
            pt = (a, b, draw(coord), draw(coord))
        terms.append((pt, draw(_COEFF)))
    return WeylPolynomial(4, terms)


class TestEvalPolyOracle:
    """eval_poly on the lattice is bit for bit the ``Fraction`` loop."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.builds(StateFunctional.epr, _PARAMETER, _PARAMETER),
            st.just(StateFunctional.regular()),
        ),
        _manifold_polys(),
    )
    @example(StateFunctional.epr(0.3, 0.7), WeylPolynomial(4))
    @example(
        StateFunctional.epr(0.3, 0.7),
        WeylPolynomial(4, {("1/3", "2/7", "-1/3", "2/7"): 0.5, (1, 2, 3, 4): 1j}),
    )
    @example(
        StateFunctional.regular(),
        WeylPolynomial(4, {(10**20, 1, -(10**20), 1): 1.0, ("1/6", 0, 0, 0): 1.0}),
    )
    def test_matches_fraction_loop(self, state, p):
        for q in (p, weyl_multiply(adjoint(p), p)):
            got, want = eval_poly(state, q), _eval_poly_reference(state, q)
            assert same_bits(np.array([got]), np.array([want]))


class TestPsdCheck:
    def test_rank_one_ones(self):
        # eigenvalues {2, 0} by hand
        res = psd_check(np.ones((2, 2), dtype=complex))
        assert res["passed"] and abs(res["min_eigenvalue"]) <= 1e-12

    def test_identity(self):
        res = psd_check(np.eye(3, dtype=complex))
        assert res["passed"] and res["min_eigenvalue"] == pytest.approx(1.0)

    def test_indefinite(self):
        # eigenvalues {3, -1} by hand
        res = psd_check(np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex))
        assert not res["passed"]
        assert res["min_eigenvalue"] == pytest.approx(-1.0, abs=1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            psd_check(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("m, entry", [
        ([[-1.0, 0], [0, math.nan]], "(1, 1) is nan"),
        ([[math.nan]], "(0, 0) is nan"),
        ([[math.inf]], "(0, 0) is inf"),
        ([[1.0, complex(0, math.inf)], [complex(0, -math.inf), 1.0]], "(0, 1) is infj"),
    ])
    def test_non_finite_entry_rejected(self, m, entry):
        # the Hermiticity deviation is nan, which no bound on it passes
        with pytest.raises(ValueError, match=re.escape(f"matrix entry {entry}, not a finite")):
            psd_check(np.array(m))


class TestPositivity:
    def test_unitary_generator(self):
        state = StateFunctional.epr(1.4, -0.3)
        assert positivity_check(state, WeylPolynomial.generator(point(1, 2, 3, 4))) == 1.0

    def test_zero_element(self):
        g = WeylPolynomial.generator(point(1, 0, 0, 0))
        assert positivity_check(StateFunctional.epr(), g - g) == 0.0

    def test_hand_value(self):
        # P = W(0) + i W(1,0,-1,0) at lam = 1: omega(P*P) = 2 - 2 sin(1)
        state = StateFunctional.epr(1.0)
        p = WeylPolynomial(4, {point(0, 0, 0, 0): 1.0, point(1, 0, -1, 0): 1j})
        assert positivity_check(state, p) == pytest.approx(2 - 2 * math.sin(1), abs=1e-14)

    def test_gram_form_identity(self):
        # omega(P*P) must equal sum_{j,k} d_j conj(d_k) M[j,k] over the terms
        # d_j W(y_j) of P*, with M the kernel on the y_j.  The same form over
        # P's own terms is omega(P P*), which differs once several terms
        # share a support class, so every other P gets four terms in one.
        rng = random.Random(35)
        for i in range(60):
            state = StateFunctional.epr(rng.uniform(-3, 3), rng.uniform(-3, 3))
            p = rand_poly(rng, 4)
            if i % 2:
                u, v = rand_fraction(rng), rand_fraction(rng)
                for _ in range(4):
                    a, b = rand_fraction(rng), rand_fraction(rng)
                    coeff = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                    p = p + WeylPolynomial(4, {(a, b, u - a, b - v): coeff})
            p_star = adjoint(p)
            pts = p_star.points()
            coeffs = np.array([p_star.terms[y] for y in pts])
            m = kernel_matrix(state, pts)
            quad = float(np.real(coeffs @ m @ coeffs.conj()))
            direct = positivity_check(state, p)
            assert abs(direct - quad) <= 1e-9
            assert direct >= -1e-10

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.floats(-3, 3), st.floats(-3, 3), _polys(_SMALL, 4))
    @example(0.3, 0.7, WeylPolynomial(4, {
        point(1, 2, -1, 2): 1.0, point("1/2", 0, "-1/2", 0): -1j, point(0, 0, 0, 0): 0.5,
    }))
    def test_nonnegative_on_generated_polynomials(self, lam, mu, p):
        """omega(P*P) >= -1e-10, drawn from the batteries' range.  At large
        coordinates the law fails today: phase angles are rounded to doubles
        before they are reduced mod 2 pi, and six-term polynomials in one
        support class, with numerators up to 1e8 over denominators 7 and 3,
        reach omega(P*P) = -0.05 in 300 draws."""
        for state in (StateFunctional.epr(lam, mu), StateFunctional.regular()):
            assert positivity_check(state, p) >= -1e-10

    def test_imaginary_part_small(self):
        rng = random.Random(36)
        for _ in range(30):
            state = StateFunctional.epr(rng.uniform(-3, 3), rng.uniform(-3, 3))
            p = rand_poly(rng, 4)
            full = eval_poly(state, weyl_multiply(adjoint(p), p))
            assert abs(full.imag) <= 1e-10


#: Coefficient moduli on either side of the zero threshold, where canonical
#: form drops a product term.
_NEAR_THRESHOLD = [ZERO_THRESHOLD * (1 + k * 2.0**-50) for k in range(-3, 4)]


@st.composite
def _product_pairs(draw):
    """Two dimension-4 polynomials whose terms crowd a few support classes:
    each term of P is in a class of invariant w, each term of Q in a class of
    -w (the partner class) or w, or either is anywhere.  Coefficients are in
    the unit square or at the zero threshold, and a last pair of terms can
    land on the point of an earlier pair and cancel it to below the
    threshold."""
    coord = _COORDS[draw(st.sampled_from(sorted(_COORDS)))]
    invariants = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=3))

    def terms(signs):
        out = {}
        for _ in range(draw(st.integers(0, 8))):
            if draw(st.booleans()):
                u, v = draw(st.sampled_from(invariants))
                sign = draw(st.sampled_from(signs))
                a, b = draw(coord), draw(coord)
                x = (a, b, sign * u - a, b - sign * v)
            else:
                x = tuple(draw(coord) for _ in range(4))
            if draw(st.booleans()):
                out[x] = draw(_COEFF)
            else:
                angle = draw(st.floats(-math.pi, math.pi))
                out[x] = cmath.rect(draw(st.sampled_from(_NEAR_THRESHOLD)), angle)
        return out

    p_terms, q_terms = terms([1]), terms([-1, -1, 1])
    if p_terms and q_terms and draw(st.booleans()):
        # a W(x) b W(y) + c W(x') W(y') with x' + y' = x + y and c chosen so
        # that the two products cancel, up to rounding
        x, y = draw(st.sampled_from(sorted(p_terms))), draw(st.sampled_from(sorted(q_terms)))
        x2 = tuple(draw(coord) for _ in range(4))
        y2 = tuple(u + v - w for u, v, w in zip(x, y, x2))
        if x2 not in p_terms and y2 not in q_terms:
            first = p_terms[x] * q_terms[y] * unit_phase(direct_sum_form(x, y))
            p_terms[x2] = -first / unit_phase(direct_sum_form(x2, y2))
            q_terms[y2] = 1.0
    return WeylPolynomial(4, p_terms), WeylPolynomial(4, q_terms)


def _assert_same_product(state, p, q):
    """eval_product and the full product give the same bits, or both raise
    the same error."""
    try:
        want = eval_poly(state, weyl_multiply(p, q))
    except (ValueError, TermBudgetError) as exc:
        with pytest.raises(type(exc)) as got:
            eval_product(state, p, q)
        assert str(got.value) == str(exc)
        return
    got = eval_product(state, p, q)
    assert same_bits(np.array([got]), np.array([want])), (got, want)


class TestEvalProduct:
    """eval_product is bit for bit eval_poly of the full product."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_IDENTITY_PARAMETER, _IDENTITY_PARAMETER, _product_pairs())
    @example(0.3, -1.1, (WeylPolynomial(4), WeylPolynomial.identity(4)))
    @example(0.3, -1.1, (
        WeylPolynomial(4, {(1, 2, -1, 2): 0.5, ("1/3", 0, "2/3", 1): 1j}),
        WeylPolynomial(4, {(-1, 0, 0, 1): -0.25, (2, 1, "-3", 0): 1.0}),
    ))
    def test_matches_the_full_product(self, lam, mu, pair):
        p, q = pair
        for state in (StateFunctional.epr(lam, mu), StateFunctional.regular()):
            for f, g in ((p, q), (q, p), (adjoint(p), p), (adjoint(q), q)):
                _assert_same_product(state, f, g)

    def test_huge_coefficients_in_two_classes_give_nan_on_both_sides(self):
        # the products across classes overflow to a non-finite coefficient,
        # and its 0j value is a nan in the full sum
        p = WeylPolynomial(4, {(1, 0, -1, 0): 1e200, (0, 1, 1, 0): 1.0})
        q = WeylPolynomial(4, {(0, 0, -1, 1): 1e200, (2, 0, -2, 0): 1.0})
        state = StateFunctional.epr(0.3, -1.1)
        assert cmath.isnan(eval_product(state, p, q))
        _assert_same_product(state, p, q)

    def test_over_the_term_cap_raises_the_same_error(self):
        p = WeylPolynomial(4, {(k, 0, -k, 0): 1.0 for k in range(65)})
        q = WeylPolynomial(4, {(0, k, 0, k): 1.0 for k in range(64)})
        with pytest.raises(TermBudgetError, match="65 x 64 terms"):
            eval_product(StateFunctional.epr(), p, q)
        _assert_same_product(StateFunctional.epr(), p, q)

    def test_dimension_2_factors_raise_the_same_error(self):
        state = StateFunctional.epr()
        one = WeylPolynomial(2, {(1, 2): 1.0, (0, 0): 0.5})
        for p, q in ((one, one), (one, tensor_embed(one, 1)), (tensor_embed(one, 2), one)):
            with pytest.raises(ValueError):
                eval_product(state, p, q)
            _assert_same_product(state, p, q)

    def test_common_denominator_past_the_budget_gives_the_same_error(self):
        # 2^2048 and 3^2048 are each within the budget, their lcm is not
        half = LATTICE_BITS // 2
        p = WeylPolynomial(4, {(Fraction(1, 2**half), 0, 0, 0): 1.0})
        q = WeylPolynomial(4, {(Fraction(-1, 3**half), 0, 0, 0): 1.0, (0, 0, 0, 0): 1j})
        with pytest.raises(TermBudgetError, match="common denominator"):
            eval_product(StateFunctional.epr(), p, q)
        _assert_same_product(StateFunctional.epr(), p, q)

    def test_overflowing_angle_gives_the_same_error(self):
        state = StateFunctional.epr(1e308, 0.0)
        p = WeylPolynomial(4, {(2, 0, 0, 0): 1.0, (1, 0, 0, 0): 1.0})
        q = WeylPolynomial(4, {(0, 0, -2, 0): 1.0, (0, 0, -1, 0): 1.0})
        with pytest.raises(ValueError, match="a = 2, b = 0"):
            eval_product(state, p, q)
        _assert_same_product(state, p, q)

    def test_positivity_forms_only_the_pairs_within_a_class(self, monkeypatch):
        # 64 terms in 8 classes of 8: P* P meets each term with the 8 of its
        # own class, 512 phases where the full product makes 4,096
        calls = []

        def counted(*args):
            calls.append(args)
            return unit_phase(*args)

        monkeypatch.setattr(eprbell.weyl, "unit_phase", counted)
        terms = {(a, k, u - a, k): complex(1 / (1 + a), k) for u in range(8) for a, k in (
            (u + j, j) for j in range(8))}
        p = WeylPolynomial(4, terms)
        assert len(p) == 64
        value = positivity_check(StateFunctional.epr(0.3, -1.1), p)
        assert len(calls) == 512
        assert value > 0


class TestSupport:
    def test_three_point_example(self):
        pts = [point(0, 0, 0, 0), point(1, 0, -1, 0), point(1, 0, 0, 0)]
        part = support_relation(kernel_matrix(StateFunctional.epr(), pts))
        assert part.classes == ((0, 1), (2,))

    def test_singleton(self):
        m = kernel_matrix(StateFunctional.epr(), [point(5, 1, 2, 2)])
        part = support_relation(m)
        assert part.classes == ((0,),)

    def test_momentum_pair_single_class(self):
        pts = [point(0, 0, 0, 0), point(0, 1, 0, 1)]
        part = support_relation(kernel_matrix(StateFunctional.epr(), pts))
        assert part.classes == ((0, 1),)

    def test_classes_group_by_invariant(self):
        # the relation is the kernel of x -> (a+c, b-d)
        rng = random.Random(37)
        pts = distinct_points(rng, 40, 4)
        part = support_relation(kernel_matrix(StateFunctional.epr(0.2, 0.9), pts))
        invariant = lambda x: (x[0] + x[2], x[1] - x[3])
        for cls in part.classes:
            values = {invariant(pts[j]) for j in cls}
            assert len(values) == 1
        all_values = [invariant(pts[cls[0]]) for cls in part.classes]
        assert len(set(all_values)) == len(all_values)

    def test_labels_are_least_class_indices(self):
        pts = [point(1, 0, 0, 0), point(0, 0, 0, 0), point(2, 0, -1, 0), point(1, 0, -1, 0)]
        part = support_relation(kernel_matrix(StateFunctional.epr(), pts))
        assert part.labels.tolist() == [0, 1, 0, 1]
        assert part.classes == ((0, 2), (1, 3))
        assert len(part.labels) == 4

    def test_gaussian_tail_violates_transitivity(self):
        # chained near/far Gaussian points: x~y and y~z but not x~z once the
        # kernel tail drops below threshold
        pts = [point(0, 0, 0, 0), point(6, 0, 0, 0), point(12, 0, 0, 0)]
        m = kernel_matrix(StateFunctional.regular(), pts)
        with pytest.raises(EquivalenceError):
            support_relation(m)


def _closure_classes(related) -> tuple[tuple[int, ...], ...]:
    """Brute-force support classes: every axiom checked entry by entry,
    transitivity through a Warshall closure."""
    n = len(related)
    rel = [[bool(related[j][k]) for k in range(n)] for j in range(n)]
    if not all(rel[j][j] for j in range(n)):
        raise EquivalenceError("support relation is not reflexive")
    if any(rel[j][k] != rel[k][j] for j in range(n) for k in range(n)):
        raise EquivalenceError("support relation is not symmetric")
    closure = [row[:] for row in rel]
    for k in range(n):
        for j in range(n):
            for l in range(n):
                closure[j][l] = closure[j][l] or (closure[j][k] and closure[k][l])
    if closure != rel:
        raise EquivalenceError("support relation is not transitive")
    classes = []
    for j in range(n):
        if not any(j in cls for cls in classes):
            classes.append(tuple(k for k in range(n) if rel[j][k]))
    return tuple(classes)


@st.composite
def _relations(draw):
    """A partition's relation with a few entries flipped, mirrored or not, so
    that all three axioms fail in some draws and hold in others."""
    n = draw(st.integers(1, 8))
    labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    related = np.equal.outer(labels, labels)
    index = st.integers(0, n - 1)
    flips = st.lists(st.tuples(index, index, st.booleans()), max_size=3)
    for j, k, mirror in draw(flips):
        related[j, k] = not related[j, k]
        if mirror:
            related[k, j] = related[j, k]
    return related


class TestSupportProperties:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(_relations())
    def test_matches_brute_force_closure(self, related):
        m = np.where(related, 0.6 - 0.8j, 0j)
        try:
            expected = _closure_classes(related)
        except EquivalenceError as exc:
            with pytest.raises(EquivalenceError) as raised:
                support_relation(m)
            assert str(raised.value) == str(exc)
            return
        part = support_relation(m)
        assert part.classes == expected
        assert all(type(j) is int for cls in part.classes for j in cls)


class TestRankOne:
    def test_singleton_classes_pass(self):
        pts = [point(0, 0, 0, 0), point(1, 0, 0, 0)]
        state = StateFunctional.epr()
        m = kernel_matrix(state, pts)
        part = support_relation(m)
        assert max(rank_one_class_check(m, part).values()) <= 1e-12

    def test_collinear_class_cocycle(self):
        state = StateFunctional.epr(1.0)
        pts = [point(0, 0, 0, 0), point(1, 0, -1, 0), point(2, 0, -2, 0)]
        m = kernel_matrix(state, pts)
        part = support_relation(m)
        assert part.classes == ((0, 1, 2),)
        assert max(rank_one_class_check(m, part).values()) <= 1e-12

    def test_random_batteries(self):
        rng = random.Random(38)
        for _ in range(10):
            state = StateFunctional.epr(rng.uniform(-4, 4), rng.uniform(-4, 4))
            pts = distinct_points(rng, 24, 4)
            # seed extra on-manifold collisions so classes are nontrivial
            base = rand_point(rng, 2)
            for k in range(1, 4):
                cand = (
                    base[0] + k,
                    base[1],
                    -(base[0] + k) + Fraction(1, 2),
                    base[1] - Fraction(1, 3),
                )
                if cand not in pts:
                    pts.append(cand)
            m = kernel_matrix(state, pts)
            part = support_relation(m)
            assert max(rank_one_class_check(m, part).values()) <= 1e-10
            assert psd_check(m)["passed"]


    def test_matches_triple_loop_on_wide_clustered_batteries(self):
        # the array check reproduces the entry-by-entry reference bit for bit,
        # also where wide coordinates make the cocycle deviations nonzero
        rng = random.Random(41)
        for battery in range(24):
            num, den = ((8, 6), (10**6, 10**3), (10**8, 7))[battery % 3]
            frac = lambda: Fraction(rng.randint(-num, num), rng.randint(1, den))
            invariants = [(frac(), frac()) for _ in range(rng.randint(1, 4))]
            pts, n = set(), rng.randint(2, 36)
            while len(pts) < n:
                u, v = rng.choice(invariants)
                a, b = frac(), frac()
                pts.add((a, b, u - a, b - v))
            state = StateFunctional.epr(rng.uniform(-3, 3), rng.uniform(-3, 3))
            m = kernel_matrix(state, sorted(pts))
            part = support_relation(m)
            if battery % 2:
                j, k = rng.randrange(len(pts)), rng.randrange(len(pts))
                m[j, k] += complex(rng.gauss(0, 1e-7), rng.gauss(0, 1e-7))
            assert rank_one_class_check(m, part) == _rank_one_reference(m, part)


def _rank_one_reference(m, partition: SupportPartition) -> dict:
    """rank_one_class_check written entry by entry with scalar arithmetic."""
    modulus_dev = cocycle_dev = cross_leak = 0.0
    for cls in partition.classes:
        for j in cls:
            for k in cls:
                modulus_dev = max(modulus_dev, abs(abs(m[j, k]) - 1.0))
                for l in cls:
                    cocycle_dev = max(cocycle_dev, abs(m[j, k] * m[k, l] - m[j, l]))
    cls_of = {j: ci for ci, cls in enumerate(partition.classes) for j in cls}
    for j in range(len(partition.labels)):
        for k in range(len(partition.labels)):
            if cls_of[j] != cls_of[k]:
                cross_leak = max(cross_leak, abs(m[j, k]))
    return {
        "max_modulus_dev": float(modulus_dev),
        "max_cocycle_dev": float(cocycle_dev),
        "max_cross_leak": float(cross_leak),
    }


def _kernel_per_class(state: StateFunctional, points) -> np.ndarray:
    """kernel_matrix one support class at a time, each entry of both
    triangles computed directly, never as a mirror: the oracle of the
    stacked triangle passes, through the same elementwise code."""
    points = [tuple(Fraction(c) for c in p) for p in points]
    n = len(points)
    scale, ints = _fraction_lattice(points)
    big = max(abs(v) for p in ints for v in p)
    coords = eprbell.states._lattice_array(ints, big, scale)
    classes: dict = {}
    for j, (a, b, c, d) in enumerate(ints):
        key = (a + c, b - d) if state.kind == "epr" else 0
        classes.setdefault(key, []).append(j)
    m = np.zeros((n, n), dtype=complex)
    for cls in classes.values():
        x = coords[cls]
        block = np.ix_(cls, cls)
        m.real[block], m.imag[block], _, _ = eprbell.states._kernel_entries(
            state, x[:, None], x[None, :], scale
        )
    if state.corrupt_kernel:
        m[n - 1, n - 1] -= 1.5
    return m


def _psd_dense(m: np.ndarray) -> dict:
    """psd_check as one eigvalsh of the whole matrix."""
    lam_min = float(np.linalg.eigvalsh(m)[0])
    return {"min_eigenvalue": lam_min, "passed": lam_min >= -PSD_TOL}


def _rank_one_per_class(m, partition: SupportPartition) -> dict:
    """rank_one_class_check one class at a time, and one k at a time
    within it."""
    same = np.zeros((len(partition.labels),) * 2, dtype=bool)
    max_cocycle_dev = 0.0
    for cls in partition.classes:
        block = np.ix_(cls, cls)
        same[block] = True
        re, im = m.real[block], m.imag[block]
        for k in range(len(cls)):
            a, b = re[:, k, None], im[:, k, None]
            dev = np.hypot(a * re[k] - b * im[k] - re, a * im[k] + b * re[k] - im)
            max_cocycle_dev = max(max_cocycle_dev, float(dev.max()))
    modulus = np.hypot(m.real, m.imag)
    max_modulus_dev = float(np.max(np.abs(modulus - 1.0), where=same, initial=0.0))
    max_cross_leak = float(np.max(modulus, where=~same, initial=0.0))
    return {
        "max_modulus_dev": max_modulus_dev,
        "max_cocycle_dev": max_cocycle_dev,
        "max_cross_leak": max_cross_leak,
    }


@st.composite
def _batteries(draw):
    """A state and distinct points: scattered, or in support classes of
    mixed sizes, with small, wide, past-int64 or float coordinates, in an
    order that interleaves the classes; a single point; or a regular
    kernel whose Gaussian underflows along a path 0 ~ 40 ~ 80 on one axis,
    a zero pattern that is not a union of cliques."""
    family = draw(st.sampled_from(["classes", "single", "path"]))
    if family == "path":
        ends = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True))
        pts = [(40 * k, 0, 0, 0) for k in ends] + [(0, 1, 0, 0), (200, 0, 0, 0)]
        return StateFunctional.regular(), draw(st.permutations(pts))
    coord = _COORDS[draw(st.sampled_from(sorted(_COORDS)))]
    state = draw(_STATES)
    if family == "single":
        return state, [tuple(draw(coord) for _ in range(4))]
    pts = []
    for _ in range(draw(st.integers(0, 4))):
        u, v = draw(coord), draw(coord)
        for _ in range(draw(st.integers(1, 12))):
            a, b = draw(coord), draw(coord)
            pts.append((a, b, u - a, b - v))
    pts += [tuple(draw(coord) for _ in range(4)) for _ in range(draw(st.integers(0, 8)))]
    pts = list(dict.fromkeys(pts)) or [(0, 0, 0, 0)]
    return state, draw(st.permutations(pts))


@contextmanager
def _pass_entries(budget):
    """Passes of at most ``budget`` entries in every stacked stage, or the
    module's own budgets for None."""
    with pytest.MonkeyPatch.context() as patch:
        if budget is not None:
            patch.setattr(eprbell.states, "_PASS_ENTRIES", budget)
            patch.setattr(eprbell.states, "_KERNEL_PASS_ENTRIES", budget)
        yield


#: Pass budgets: one entry (every class and k in a pass of its own), a few
#: classes per pass, and the module's own.
_BUDGETS = st.sampled_from([1, 40, None])


class TestStackedPasses:
    """The stacked kernel, rank-one check and block spectra against the
    per-class loops and the dense spectrum they replace."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(_batteries(), _BUDGETS)
    def test_kernel_matches_per_class_loop(self, battery, budget):
        state, pts = battery
        with _pass_entries(budget):
            m = kernel_matrix(state, pts)
        assert same_bits(m, _kernel_per_class(state, pts))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(_batteries(), _BUDGETS)
    def test_rank_one_record_matches_per_class_loop(self, battery, budget):
        state, pts = battery
        m = kernel_matrix(state, pts)
        try:
            part = support_relation(m)
        except EquivalenceError:
            return
        with _pass_entries(budget):
            got = rank_one_class_check(m, part)
        assert got == _rank_one_per_class(m, part)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(_batteries(), _BUDGETS)
    def test_block_spectrum_matches_dense_spectrum(self, battery, budget):
        state, pts = battery
        m = kernel_matrix(state, pts)
        with _pass_entries(budget):
            got = psd_check(m)
        want = _psd_dense(m)
        assert abs(got["min_eigenvalue"] - want["min_eigenvalue"]) <= 1e-13
        assert got["passed"] == want["passed"]

    def test_entries_in_one_triangle_join_blocks(self):
        # Hermitian only within the tolerance: row 2 reaches rows 0 and 1,
        # but neither reaches back, and eigvalsh reads this lower triangle
        m = np.eye(3, dtype=complex)
        m[2, 0], m[2, 1] = 5e-11, 3e-11j
        got, want = psd_check(m), _psd_dense(m)
        assert abs(got["min_eigenvalue"] - want["min_eigenvalue"]) <= 1e-13

    def test_path_pattern_is_one_block(self, monkeypatch):
        # 0 ~ 40 and 40 ~ 80 but the Gaussian at 80 underflows to 0: the
        # three points are one component although not one clique
        pts = [(80, 0, 0, 0), (0, 0, 0, 0), (40, 0, 0, 0)]
        m = kernel_matrix(StateFunctional.regular(), pts)
        assert m[0, 1] == 0 and m[0, 2] != 0 and m[1, 2] != 0
        want = _psd_dense(m)
        shapes = _spy_eigvalsh(monkeypatch)
        assert psd_check(m) == want
        assert shapes == [(3, 3)]

    def test_spectrum_never_solves_more_than_a_class(self, monkeypatch):
        # 8 classes of 32, interleaved: every solve is at most 32 x 32, and
        # the classes of one size share the solves, so 4 classes take as
        # many as 8
        shapes = _spy_eigvalsh(monkeypatch)
        calls = {}
        for count in (4, 8):
            pts = [
                (a, b, Fraction(k, 3) - a, b - k)
                for a in range(-4, 4)
                for b in range(4)
                for k in range(count)
            ]
            m = kernel_matrix(StateFunctional.epr(0.7, -1.3), pts)
            shapes.clear()
            assert psd_check(m)["passed"]
            assert shapes and max(shape[-1] for shape in shapes) == 32
            calls[count] = len(shapes)
        assert calls[8] <= calls[4]


def _spy_eigvalsh(monkeypatch) -> list:
    """Record the shape of every matrix numpy.linalg.eigvalsh is given."""
    shapes, solve = [], np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return shapes


class TestUniqueness:
    def test_on_manifold(self):
        state = StateFunctional.epr(0.6, -1.5)
        res = uniqueness_support_check(state, point(1, 1, -1, 1))
        assert res["passed"] and res["on_manifold"]
        expected = complex(math.cos(0.6 - 1.5), math.sin(0.6 - 1.5))
        assert abs(res["value"] - expected) <= 1e-12

    def test_fails_on_a_phase_not_fixed_by_the_defining_families(self, monkeypatch):
        """The on-manifold value is checked against the two defining families,
        so a state phase that is not additive in (a, b) fails."""
        angle = StateFunctional.angle
        monkeypatch.setattr(
            StateFunctional, "angle",
            lambda self, a, b, den=1: angle(self, a, b, den) + 0.01 * (a / den) * (b / den),
        )
        res = uniqueness_support_check(StateFunctional.epr(0.6, -1.5), point(1, 1, -1, 1))
        assert res["on_manifold"] and not res["passed"]
        assert res["deviation"] > 1e-3

    def test_momentum_mismatch(self):
        res = uniqueness_support_check(StateFunctional.epr(), point(1, 1, -1, 2))
        assert res["passed"] and res["value"] == 0j

    def test_position_mismatch(self):
        res = uniqueness_support_check(StateFunctional.epr(), point(1, 1, 1, 1))
        assert res["passed"] and res["value"] == 0j

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(_IDENTITY_PARAMETER, _IDENTITY_PARAMETER, st.one_of(
        _IDENTITY_POINT_2.map(lambda ab: (ab[0], ab[1], -ab[0], ab[1])), _IDENTITY_POINT_4))
    def test_battery(self, lam, mu, x):
        assert uniqueness_support_check(StateFunctional.epr(lam, mu), x)["passed"]

    def test_derivation_chain_matches_direct_evaluation(self):
        # every on-manifold monomial factors as
        # [W(a,0) x W(-a,0)][W(0,b) x W(0,b)] with cancelling phases, so the
        # product route through the two defining families must agree with
        # the closed-form value
        rng = random.Random(42)
        state = StateFunctional.epr(1.7, -2.4)
        for _ in range(50):
            a, b = rand_fraction(rng), rand_fraction(rng)
            pos_pair = weyl_multiply(
                tensor_embed(WeylPolynomial.generator(point(a, 0)), 1),
                tensor_embed(WeylPolynomial.generator(point(-a, 0)), 2),
            )
            mom_pair = weyl_multiply(
                tensor_embed(WeylPolynomial.generator(point(0, b)), 1),
                tensor_embed(WeylPolynomial.generator(point(0, b)), 2),
            )
            chain = eval_poly(state, weyl_multiply(pos_pair, mom_pair))
            direct = eval_point(state, (a, b, -a, b))
            assert abs(chain - direct) <= 1e-12

    def test_requires_epr(self):
        with pytest.raises(ValueError):
            uniqueness_support_check(StateFunctional.regular(), point(0, 0, 0, 0))


class TestMultiplicativity:
    def test_unit_phases_cancel(self):
        res = multiplicativity_check(StateFunctional.epr(), Fraction(1), Fraction(1))
        assert res["passed"] and res["max_deviation"] == 0.0

    def test_trivial_at_zero(self):
        res = multiplicativity_check(StateFunctional.epr(2.0, 1.0), Fraction(0), Fraction(3))
        assert res["passed"]

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(_IDENTITY_PARAMETER, _IDENTITY_PARAMETER, _IDENTITY_RATIONAL, _IDENTITY_RATIONAL,
           st.lists(_IDENTITY_POINT_4, min_size=2, max_size=2))
    def test_random_probes(self, lam, mu, s, t, probes):
        state = StateFunctional.epr(lam, mu)
        res = multiplicativity_check(state, s, t, probes=probes)
        assert res["passed"]
        # probes read together share one L, and each is still brought to its own
        alone = [multiplicativity_check(state, s, t, probes=[x]) for x in probes]
        assert res["max_deviation"] == max(r["max_deviation"] for r in alone)

    def test_a_bad_probe_is_named(self):
        probes = [(0, 0, 0, 0), (1, 0, -1, 0), (1, 0.5, 0, 0)]
        with pytest.raises(ValueError, match="^probe 2: coordinate 1 is 0.5; give it as a"):
            multiplicativity_check(StateFunctional.epr(), 1, 1, probes=probes)

    def test_a_probe_needs_four_coordinates(self):
        with pytest.raises(ValueError) as raised:
            multiplicativity_check(StateFunctional.epr(), 1, 1, probes=[(0, 0, 0, 0), (1, 0)])
        assert str(raised.value) == (
            "probe 1: states are defined on the dimension-4 algebra, got 2 coordinates")


class TestTraciality:
    def test_off_subgroup_both_zero(self):
        res = traciality_check(StateFunctional.epr(), point(1, 0), point(0, 1))
        assert res["passed"]
        assert res["forward"] == 0j and res["reverse"] == 0j

    def test_inverse_pair_gives_identity(self):
        a = point(Fraction(2, 3), Fraction(-1, 2))
        b = point(Fraction(-2, 3), Fraction(1, 2))
        res = traciality_check(StateFunctional.epr(0.5, 0.5), a, b)
        assert res["passed"]
        assert res["forward"] == 1.0 + 0j and res["reverse"] == 1.0 + 0j

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(_IDENTITY_PARAMETER, _IDENTITY_PARAMETER, _IDENTITY_POINT_2, _IDENTITY_POINT_2)
    def test_random_pairs(self, lam, mu, a, b):
        assert traciality_check(StateFunctional.epr(lam, mu), a, b)["passed"]

    def test_reads_its_points(self):
        # b = -a however the coordinates are written: both sides are 1
        state = StateFunctional.epr(0.5, 0.5)
        for a, b in (((Fraction(1, 2), 0), ("-1/2", 0)), (("1/2", "0"), ("-1/2", "0"))):
            res = traciality_check(state, a, b)
            assert res["passed"]
            assert res["forward"] == 1.0 + 0j and res["reverse"] == 1.0 + 0j
        with pytest.raises(ValueError, match="coordinate 1 is 0.5; give it as a string"):
            traciality_check(state, (1, 0), (-1, 0.5))
        with pytest.raises(ValueError, match="dimension-2 points"):
            traciality_check(state, (1, 0, 0, 0), (-1, 0))

    def test_names_a_malformed_point(self):
        with pytest.raises(ValueError, match="^a point is an array of coordinates, not 5$"):
            traciality_check(StateFunctional.epr(), 5, (1, 0))

    def test_a_pair_past_the_budget_is_refused_at_the_read(self):
        # each denominator is within the budget, their lcm is not: the two
        # points are read together, so the read refuses the second one
        a, b = ("1/" + str(3**1400), 0), (0, "1/" + str(5**1000))
        with pytest.raises(TermBudgetError, match="^point 1: the common denominator has 4541 bits"):
            traciality_check(StateFunctional.epr(), a, b)


def _assert_engine_pair(x, y):
    """The generator of (x, y) has the L, keys and bits of the engine's
    product (W(x) x I)(I x W(y)), so the checks may build W(x) x W(y) as it."""
    want = weyl_multiply(tensor_embed(WeylPolynomial.generator(x), 1),
                         tensor_embed(WeylPolynomial.generator(y), 2))
    _assert_same_lattice(WeylPolynomial.generator((*x, *y)), (want._den, want._terms))


class TestEmbeddedPair:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data())
    def test_is_the_engines_product_bit_for_bit(self, data):
        coord = _SCALES[data.draw(st.sampled_from(sorted(_SCALES)))]
        coord = st.one_of(coord, st.sampled_from([0, Fraction(0), "0"]))
        _assert_engine_pair(*(data.draw(st.tuples(coord, coord)) for _ in range(2)))

    @pytest.mark.parametrize("x, y", [
        (("1/3", 0), (0, "-5/4")),
        ((0, 0), (0, 0)),
        (("2/6", "1/2"), ("3/9", 7)),
        ((Fraction(1, 2**80), 1), (0, Fraction(3, 5))),
    ])
    def test_cases_on_different_denominators_and_zero_coordinates(self, x, y):
        _assert_engine_pair(x, y)


class TestSpecRoundTrip:
    def test_spec_round_trip(self):
        spec = {"kind": "epr", "lambda": 3.7, "mu": -1.2}
        state = StateFunctional.from_spec(spec)
        assert state.to_spec() == spec

    def test_corrupt_flag_round_trip(self):
        spec = {"kind": "regular", "lambda": 0.0, "mu": 0.0, "corrupt_kernel": True}
        assert StateFunctional.from_spec(spec).to_spec() == spec

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            StateFunctional.from_spec({"kind": "thermal"})


def _owned_nodes(module: str, owners: set[str]):
    """Each AST node of ``eprbell.<module>`` with whether it lies inside a
    function or class named in ``owners``."""
    tree = ast.parse((Path(eprbell.__file__).parent / f"{module}.py").read_text())

    def walk(node, inside):
        for child in ast.iter_child_nodes(node):
            owned = inside or (
                isinstance(child, (ast.FunctionDef, ast.ClassDef)) and child.name in owners
            )
            yield child, owned
            yield from walk(child, owned)

    return walk(tree, False)


class TestPhaseSeam:
    def test_phases_of_exact_data_are_made_only_at_the_seam(self):
        """weyl.unit_phase and its array form states._phase are the only code
        that turns an angle into cos/sin, the state's phases included, so a
        change to how angles are reduced is made there."""
        calls = {("np", "cos"), ("np", "sin"), ("cmath", "rect"), ("cmath", "exp")}
        owners = {"unit_phase", "_phase"}
        owned_calls = 0
        for module in ("states", "gns", "bell", "weyl"):
            for node, owned in _owned_nodes(module, owners):
                func = node.func if isinstance(node, ast.Call) else None
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and (func.value.id, func.attr) in calls
                ):
                    assert owned, f"{module}.py:{node.lineno} makes a phase"
                    owned_calls += 1
        assert owned_calls > 0  # the walk does reach the owners' calls

    def test_lambda_and_mu_are_read_only_by_the_state(self):
        modules = [p.stem for p in Path(eprbell.__file__).parent.glob("*.py")]
        for module in modules:
            for node, owned in _owned_nodes(module, {"StateFunctional"}):
                if isinstance(node, ast.Attribute) and node.attr in ("lam", "mu"):
                    assert owned, f"{module}.py:{node.lineno} reads .{node.attr}"

    @pytest.mark.parametrize("lam, mu", [(1e308, 0.0), (0.0, -1e308), (1e308, 1e308)])
    def test_both_forms_reject_an_overflowing_angle_alike(self, lam, mu):
        state = StateFunctional.epr(lam, mu)
        with pytest.raises(ValueError, match="'lambda'.*'mu'.*a = 2, b = 2") as scalar:
            state.phase(4, 4, 2)
        a = b = np.array([[0, 4], [-4, 0]])
        with pytest.raises(ValueError) as array:
            state.phases(a, b, 2)
        assert str(array.value) == str(scalar.value)
        with pytest.raises(ValueError, match="a = 2, b = 2"):
            eval_point(state, point(2, 2, -2, 2))
        with pytest.raises(ValueError, match="a = -2, b = -2"):
            kernel_matrix(state, [point(0, 0, 0, 0), point(2, 2, -2, 2)])
