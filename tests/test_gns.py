"""Finite frames: Gram matrices, compressions, collinearity, norm bounds."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import add_points, direct_sum_form, rand_point, same_bits
from test_states import _COORDS, _IDENTITY_PARAMETER, _IDENTITY_POINT_4, _PARAMETER
from test_weyl import _COEFF
from eprbell import (
    DEFAULT_TERM_CAP,
    GnsFrame,
    StateFunctional,
    TermBudgetError,
    WeylPolynomial,
    ZERO_THRESHOLD,
    adjoint,
    build_frame,
    collinearity_check,
    compress_operator,
    eval_poly,
    norm_lower_bound,
    one_norm,
    point,
    trace_vector_check,
    weyl_multiply,
)
import eprbell.gns
from eprbell.states import kernel_matrix
from eprbell.weyl import negate, unit_phase


def _compress_reference(
    state: StateFunctional, points, p: WeylPolynomial
) -> np.ndarray:
    """compress_operator through the product engine: the oracle of the
    pass over P's terms on the lattice."""
    n = len(points)
    out = np.empty((n, n), dtype=complex)
    gens = [WeylPolynomial.generator(x) for x in points]
    adjs = [adjoint(g) for g in gens]
    for j in range(n):
        left = weyl_multiply(adjs[j], p)
        for k in range(n):
            out[j, k] = eval_poly(state, weyl_multiply(left, gens[k]))
    return out


#: Coefficient moduli on either side of the zero threshold, where the
#: engine's canonical form drops a product term.
_NEAR_THRESHOLD = [ZERO_THRESHOLD * (1 + k * 2.0**-50) for k in range(-3, 4)]

_FRAME_STATES = st.one_of(
    st.builds(StateFunctional.epr, _PARAMETER, _PARAMETER),
    st.just(StateFunctional.regular()),
)


@st.composite
def _frame_and_poly(draw):
    """Distinct frame points, some in shared EPR support classes, and a
    polynomial of zero to six terms: moves x_j - x_k between frame points,
    points on the manifold {c = -a, d = b}, the origin or anywhere, with
    coefficients in the unit square or at the zero threshold."""
    coord = _COORDS[draw(st.sampled_from(sorted(_COORDS)))]
    invariant = (draw(coord), draw(coord))
    pts = []
    for _ in range(draw(st.integers(0, 10))):
        a, b = draw(coord), draw(coord)
        if draw(st.booleans()):
            p = (a, b, invariant[0] - a, b - invariant[1])
        else:
            p = (a, b, draw(coord), draw(coord))
        if p not in pts:
            pts.append(p)
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["move", "manifold", "origin", "any"]))
        if kind == "move" and pts:
            xj, xk = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
            y = tuple(u - v for u, v in zip(xj, xk))
        elif kind == "manifold":
            a, b = draw(coord), draw(coord)
            y = (a, b, -a, b)
        elif kind == "origin":
            y = (0, 0, 0, 0)
        else:
            y = tuple(draw(coord) for _ in range(4))
        if draw(st.booleans()):
            c = draw(_COEFF)
        else:
            angle = draw(st.floats(-math.pi, math.pi))
            c = cmath.rect(draw(st.sampled_from(_NEAR_THRESHOLD)), angle)
        terms.append((y, c))
    return pts, WeylPolynomial(4, terms)


def _checked_frame(state: StateFunctional, pts) -> GnsFrame:
    """build_frame's frame, whose Gram must be the kernel on the negated
    points bit for bit: gram[j,k] = F(-x_j, -x_k).

    At large coordinates a Gram can fail its positivity check, because phase
    angles are rounded to doubles before they are reduced mod 2 pi; there
    the kernel must fail it too, and a frame on the kernel is returned."""
    pts = tuple(tuple(Fraction(c) for c in p) for p in pts)
    want = (
        kernel_matrix(state, [negate(p) for p in pts])
        if pts
        else np.empty((0, 0), dtype=complex)
    )
    try:
        frame = build_frame(state, pts)
    except AssertionError as exc:
        assert str(exc).startswith("frame Gram"), exc
        assert float(np.linalg.eigvalsh(want)[0]) < -1e-10
        return GnsFrame(pts, want)
    assert same_bits(frame.gram, want)
    return frame


class TestFrameOracles:
    """build_frame's Gram is the kernel on the negated points, and
    compress_operator returns bit for bit what the product engine returns."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(_FRAME_STATES, _frame_and_poly())
    @example(StateFunctional.epr(0.3, 0.7), ([], WeylPolynomial.identity(4)))
    @example(StateFunctional.regular(), ([(1, 0, -1, 0)], WeylPolynomial(4)))
    @example(
        StateFunctional.epr(-0.5, -0.25),
        ([(0, 0, 0, 0), (1, 2, -1, 2)], WeylPolynomial.identity(4)),
    )
    # a*lambda overflows only off the manifold, where eval_point is 0j
    @example(StateFunctional.epr(1e308, 0.0), ([(0, 0, 0, 0), (2, 0, 0, 0)], WeylPolynomial.identity(4)))
    def test_match_product_engine(self, state, frame_and_poly):
        pts, p = frame_and_poly
        frame = _checked_frame(state, pts)
        assert same_bits(
            compress_operator(state, frame, p),
            _compress_reference(state, frame.points, p),
        )

    @pytest.mark.parametrize(
        "state",
        [StateFunctional.epr(1.3, -0.7), StateFunctional.epr(), StateFunctional.regular()],
    )
    def test_match_product_engine_on_python_ints(self, state):
        # one coordinate of 10^10/7 puts every array on Python ints
        far = Fraction(10**10, 7)
        pts = [(far, 1, -far, 1), (0, 0, 0, 0), (1, 2, -1, 2), ("1/3", 0, 0, 5)]
        move = tuple(u - v for u, v in zip(pts[0], pts[2]))
        p = WeylPolynomial(4, {move: 0.5 - 1j, (0, 0, 0, 0): 2.0, (far, 0, 0, 0): 1j})
        frame = _checked_frame(state, pts)
        assert same_bits(
            compress_operator(state, frame, p),
            _compress_reference(state, frame.points, p),
        )

    @pytest.mark.parametrize("state", [StateFunctional.epr(1.3, -0.7), StateFunctional.regular()])
    def test_match_product_engine_at_the_int64_limit(self, state):
        # 16 max|coordinate|^2 on either side of 2^53: the compression's
        # coordinates y - x_j reach twice the largest input, so its arrays
        # leave int64 at half the kernel's limit
        for k in (23726566, 23726567):
            pts = [(k, 1, -k, 1), (k - 1, 2, 1 - k, 2), (0, 0, 0, 0)]
            p = WeylPolynomial(4, {(1, -1, -1, -1): 1.0, (k, 0, -k, 0): 0.5j})
            frame = _checked_frame(state, pts)
            assert same_bits(
                compress_operator(state, frame, p),
                _compress_reference(state, frame.points, p),
            )


    @pytest.mark.parametrize(
        "x, y, c",
        [
            # the first product's term stays, the second's is dropped
            (
                ("-5/4", "3/5", 0, "6/5"),
                (2, "-4/5", "-2/3", "6/5"),
                -9.96175943361332e-16 - 8.736984530237242e-17j,
            ),
            # the first product's term is dropped, the second's would stay
            (
                ("-1/3", "5/3", "8/3", 2),
                (1, 2, "4/5", -4),
                6.646496408169627e-16 + 7.471551746202944e-16j,
            ),
        ],
    )
    def test_both_products_drop_terms_below_the_threshold(self, x, y, c):
        state = StateFunctional.regular()
        frame = _checked_frame(state, [x])
        p = WeylPolynomial(4, {y: c})
        assert len(p) == 1
        comp = compress_operator(state, frame, p)
        assert comp[0, 0] == 0
        assert same_bits(comp, _compress_reference(state, frame.points, p))

    def test_match_product_engine_past_int64_inside_the_kernel_limit(self):
        # scaled coordinates under the kernel's int64 limit whose second form
        # s(y - x_j, x_k) passes 2^53: over the denominator 3 an int64 double
        # of it would round twice and move the phase's last bit
        xj = (-47453108, -47453126, -47453117, -47453125)
        xk = (-47453117, 47453101, -47453119, 47453110)
        y = (-47453118, 47453101, 47453129, 47453093)
        thirds = [tuple(Fraction(v, 3) for v in q) for q in (xj, xk, y)]
        state = StateFunctional.epr(0.3, 0.7)
        frame = _checked_frame(state, thirds[:2])
        p = WeylPolynomial.generator(thirds[2])
        comp = compress_operator(state, frame, p)
        assert comp[0, 1] != 0
        assert same_bits(comp, _compress_reference(state, frame.points, p))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_match_product_engine_on_non_finite_coefficients(self):
        inf = math.inf
        pts = [(0, 0, 0, 0), (1, 0, -1, 0), ("1/2", 1, 0, 0)]
        for state in (StateFunctional.epr(0.3, -0.7), StateFunctional.regular()):
            frame = _checked_frame(state, pts)
            for terms in (
                {(0, 0, 0, 0): complex(inf, 0.0), (1, 0, -1, 0): 1.0},
                {(0, 0, 0, 0): complex(0.0, -inf), (2, 0, 0, 0): 1j},
                {(0, 0, 0, 0): 1e308 + 1e308j, (1, 0, -1, 0): 1e308 - 1e308j},
            ):
                p = WeylPolynomial(4, terms)
                assert same_bits(
                    compress_operator(state, frame, p),
                    _compress_reference(state, frame.points, p),
                )


class TestFrameErrors:
    def test_off_unit_diagonal_raises(self, monkeypatch):
        monkeypatch.setattr(eprbell.gns, "eval_poly", lambda state, p: 2.0)
        with pytest.raises(AssertionError, match="frame Gram diagonal"):
            build_frame(StateFunctional.epr(), [point(0, 0, 0, 0)])

    def test_compress_operator_refuses_a_dimension_2_polynomial(self):
        state = StateFunctional.epr()
        frame = build_frame(state, [point(0, 0, 0, 0)])
        with pytest.raises(ValueError, match="compress_operator expects a dimension-4"):
            compress_operator(state, frame, WeylPolynomial.identity(2))

    def test_term_cap_is_the_engine_budget(self):
        # the engine multiplies 1 x len(P) terms: the cap itself passes
        state = StateFunctional.epr()
        frame = build_frame(state, [point(0, 0, 0, 0)])
        terms = {(k, 0, -k, 0): 1.0 for k in range(DEFAULT_TERM_CAP)}
        p = WeylPolynomial(4, terms)
        assert compress_operator(state, frame, p)[0, 0] == DEFAULT_TERM_CAP
        with pytest.raises(TermBudgetError):
            compress_operator(state, frame, p + WeylPolynomial.generator(point(1, 1, 1, 1)))


class TestCorruptKernel:
    def test_build_frame_ignores_the_corrupt_control(self):
        pts = [point(0, 0, 0, 0), point(1, 0, -1, 0), point("1/2", 3, 0, 3)]
        corrupt = StateFunctional("epr", 0.4, -1.1, True)
        frame = build_frame(corrupt, pts)
        assert same_bits(frame.gram, build_frame(StateFunctional.epr(0.4, -1.1), pts).gram)
        kernel = kernel_matrix(StateFunctional.epr(0.4, -1.1), [negate(p) for p in pts])
        assert same_bits(frame.gram, kernel)


class TestBuildFrame:
    def test_factor_one_grid_is_orthonormal(self):
        state = StateFunctional.epr(0.7, -0.2)
        pts = [
            (Fraction(j, 2), Fraction(k, 3), Fraction(0), Fraction(0))
            for j in range(3)
            for k in range(3)
        ]
        frame = build_frame(state, pts)
        assert np.array_equal(frame.gram, np.eye(9))

    def test_singleton(self):
        frame = build_frame(StateFunctional.epr(), [point(0, 0, 0, 0)])
        assert frame.gram.shape == (1, 1) and frame.gram[0, 0] == 1.0

    def test_collinear_pair_matches_kernel_example(self):
        frame = build_frame(
            StateFunctional.epr(), [point(0, 0, 0, 0), point(1, 0, -1, 0)]
        )
        assert np.allclose(frame.gram, np.ones((2, 2)), atol=1e-15)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            build_frame(StateFunctional.epr(), [point(0, 0, 0, 0)] * 2)

    @pytest.mark.parametrize("bad", [0.1, True])
    def test_refuses_float_and_bool_coordinates(self, bad):
        # a float is not stored as its binary fraction, nor true as 1
        with pytest.raises(ValueError, match=f"point 1: coordinate 0 is {bad}; give it as"):
            build_frame(StateFunctional.epr(), [(0, 0, 0, 0), (bad, 0, 0, 0)])

    def test_gram_psd_random(self):
        rng = random.Random(50)
        state = StateFunctional.epr(1.1, 2.3)
        pts = []
        seen = set()
        while len(pts) < 20:
            p = rand_point(rng, 4)
            if p not in seen:
                seen.add(p)
                pts.append(p)
        frame = build_frame(state, pts)
        assert float(np.linalg.eigvalsh(frame.gram)[0]) >= -1e-10


class TestCompress:
    def test_one_compression_function(self):
        assert eprbell.gns.compress_operator is eprbell.states.compress_operator

    def test_identity_compression_is_gram(self):
        rng = random.Random(51)
        state = StateFunctional.epr(0.4, 0.9)
        pts = [point(0, 0, 0, 0), point(1, 0, -1, 0), point(0, 1, 0, 1)]
        frame = build_frame(state, pts)
        comp = compress_operator(state, frame, WeylPolynomial.identity(4))
        assert np.array_equal(comp, frame.gram)

    def test_monomial_matches_independent_formula(self):
        # omega(W(-x_j) W(y) W(x_k)) re-derived with raw forms and phases
        rng = random.Random(52)
        state = StateFunctional.epr(1.3, -0.6)
        pts = [point(0, 0, 0, 0), point(1, 0, 0, 0), point(0, 1, 0, 0)]
        frame = build_frame(state, pts)
        from eprbell.states import eval_point

        for _ in range(10):
            y = rand_point(rng, 4)
            comp = compress_operator(state, frame, WeylPolynomial.generator(y))
            for j, xj in enumerate(pts):
                for k, xk in enumerate(pts):
                    mj = negate(xj)
                    phase = unit_phase(direct_sum_form(mj, y)) * unit_phase(
                        direct_sum_form(add_points(mj, y), xk)
                    )
                    expected = phase * eval_point(
                        state, add_points(add_points(mj, y), xk)
                    )
                    assert abs(comp[j, k] - expected) <= 1e-13

    def test_term_budget_propagates(self):
        from fractions import Fraction as F

        from eprbell import TermBudgetError

        state = StateFunctional.epr()
        frame = build_frame(state, [point(0, 0, 0, 0)])
        big = WeylPolynomial(
            4, {(F(k), F(0), F(0), F(0)): 1.0 for k in range(4097)}
        )
        with pytest.raises(TermBudgetError):
            compress_operator(state, frame, big)

    def test_self_adjoint_gives_hermitian(self):
        rng = random.Random(53)
        state = StateFunctional.epr(0.8, 0.1)
        pts = [point(0, 0, 0, 0), point(1, 1, -1, 1), point(2, 0, 1, 0)]
        frame = build_frame(state, pts)
        for _ in range(10):
            x = rand_point(rng, 4)
            coeff = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            p = WeylPolynomial(4, {x: coeff})
            p = p + adjoint(p)
            comp = compress_operator(state, frame, p)
            assert float(np.max(np.abs(comp - comp.conj().T))) <= 1e-10


class TestCollinearity:
    def test_hand_example(self):
        res = collinearity_check(
            Fraction(1), Fraction(1), Fraction(1), Fraction(1), StateFunctional.epr()
        )
        # t = (ad + bc)/2 = 1
        assert res["passed"]
        assert abs(res["overlap"] - cmath.exp(1j)) <= 1e-15

    def test_identity_overlap(self):
        res = collinearity_check(
            Fraction(0), Fraction(0), Fraction(0), Fraction(0), StateFunctional.epr()
        )
        assert res["overlap"] == 1.0 + 0j

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(_IDENTITY_PARAMETER, _IDENTITY_PARAMETER, _IDENTITY_POINT_4)
    def test_random_quadruples_unimodular(self, lam, mu, x):
        res = collinearity_check(*x, StateFunctional.epr(lam, mu))
        assert res["passed"]
        assert abs(res["modulus"] - 1.0) <= 1e-12


class TestTraceVector:
    def test_cross_generators_vanish(self):
        res = trace_vector_check(
            StateFunctional.epr(),
            WeylPolynomial.generator(point(1, 0)),
            WeylPolynomial.generator(point(0, 1)),
            slot=1,
        )
        assert res["passed"]
        assert res["forward"] == 0j and res["reverse"] == 0j

    def test_refuses_dimension_4_polynomials(self):
        p = WeylPolynomial.identity(4)
        with pytest.raises(ValueError, match="trace_vector_check expects dimension-2"):
            trace_vector_check(StateFunctional.epr(), p, p, slot=1)

    def test_adjoint_pair_gives_identity(self):
        p = WeylPolynomial.generator(point(Fraction(5, 4), Fraction(-1, 3)))
        res = trace_vector_check(StateFunctional.epr(1.0, 1.0), p, adjoint(p), slot=1)
        assert res["passed"] and res["forward"] == 1.0 + 0j

    def test_random_two_term_slot_two(self):
        rng = random.Random(55)
        state = StateFunctional.epr(-0.7, 0.3)
        for _ in range(50):
            p = WeylPolynomial(
                2,
                {
                    rand_point(rng, 2): complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                    rand_point(rng, 2): complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                },
            )
            q = WeylPolynomial(
                2,
                {
                    rand_point(rng, 2): complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                    rand_point(rng, 2): complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                },
            )
            assert trace_vector_check(state, p, q, slot=2)["passed"]


class TestNormLowerBound:
    def _orthonormal_frame(self, state):
        pts = [
            (Fraction(j), Fraction(k), Fraction(0), Fraction(0))
            for j in range(2)
            for k in range(2)
        ]
        return build_frame(state, pts)

    def test_unitary_bounded_by_one(self):
        state = StateFunctional.epr()
        frame = self._orthonormal_frame(state)
        value = norm_lower_bound(state, frame, WeylPolynomial.generator(point(1, 2, 0, 1)))
        assert value <= 1.0 + 1e-9

    def test_empty_frame_bounds_nothing(self):
        state = StateFunctional.epr()
        frame = build_frame(state, [])
        assert norm_lower_bound(state, frame, WeylPolynomial.identity(4)) == 0.0

    def test_scalar(self):
        state = StateFunctional.epr()
        frame = self._orthonormal_frame(state)
        value = norm_lower_bound(state, frame, 2.0 * WeylPolynomial.identity(4))
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_symmetric_pair_with_rayleigh_oracle(self):
        state = StateFunctional.epr()
        x = point(1, 0, -1, 0)
        pts = [point(0, 0, 0, 0), x, negate(x), point(2, 0, -2, 0)]
        p = WeylPolynomial.generator(x) + WeylPolynomial.generator(negate(x))
        with pytest.warns(RuntimeWarning):
            frame = build_frame(state, pts)
            value = norm_lower_bound(state, frame, p)
        comp = compress_operator(state, frame, p)
        rng = random.Random(56)
        oracle = 0.0
        for _ in range(300):
            z = np.array(
                [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in pts]
            )
            denom = float(np.real(z.conj() @ frame.gram @ z))
            if denom < 1e-9:
                continue
            oracle = max(oracle, abs(float(np.real(z.conj() @ comp @ z))) / denom)
        assert oracle <= value + 1e-9
        assert value <= one_norm(p) + 1e-8

    def test_sandwich_property(self):
        rng = random.Random(57)
        state = StateFunctional.epr(0.5, -0.5)
        frame = self._orthonormal_frame(state)
        for _ in range(25):
            terms = {
                rand_point(rng, 4): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                for _ in range(rng.randint(1, 3))
            }
            p = WeylPolynomial(4, terms)
            assert norm_lower_bound(state, frame, p) <= one_norm(p) + 1e-8

    def test_singular_frame_warns(self):
        state = StateFunctional.epr()
        pts = [point(0, 0, 0, 0), point(1, 0, -1, 0)]
        frame = build_frame(state, pts)
        with pytest.warns(RuntimeWarning):
            norm_lower_bound(state, frame, WeylPolynomial.identity(4))

    def test_regular_frame_does_not_warn(self, recwarn):
        state = StateFunctional.epr()
        frame = self._orthonormal_frame(state)
        norm_lower_bound(state, frame, WeylPolynomial.identity(4))
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
