"""State functional: values, kernel positivity, support, uniqueness."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import distinct_points, rand_fraction, rand_point, rand_poly
from eprbell import (
    EquivalenceError,
    StateFunctional,
    WeylPolynomial,
    adjoint,
    eval_point,
    eval_poly,
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
            psd_check(np.empty((0, 0), dtype=complex), 1e-10)

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
            res = psd_check(kernel_matrix(state, pts), 1e-10)
            assert res["passed"]

    def test_regular_kernel_psd(self):
        rng = random.Random(33)
        pts = distinct_points(rng, 48, 4)
        res = psd_check(kernel_matrix(StateFunctional.regular(), pts), 1e-10)
        assert res["passed"]

    def test_corrupted_kernel_fails(self):
        rng = random.Random(34)
        state = StateFunctional.from_spec({"kind": "regular", "corrupt_kernel": True})
        pts = distinct_points(rng, 16, 4)
        res = psd_check(kernel_matrix(state, pts), 1e-10)
        assert not res["passed"]
        assert res["min_eigenvalue"] <= -0.4


class TestPsdCheck:
    def test_rank_one_ones(self):
        # eigenvalues {2, 0} by hand
        res = psd_check(np.ones((2, 2), dtype=complex), 1e-10)
        assert res["passed"] and abs(res["min_eigenvalue"]) <= 1e-12

    def test_identity(self):
        res = psd_check(np.eye(3, dtype=complex), 1e-10)
        assert res["passed"] and res["min_eigenvalue"] == pytest.approx(1.0)

    def test_indefinite(self):
        # eigenvalues {3, -1} by hand
        res = psd_check(np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex), 1e-10)
        assert not res["passed"]
        assert res["min_eigenvalue"] == pytest.approx(-1.0, abs=1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            psd_check(np.array([[0.0, 1.0], [0.0, 0.0]]), 1e-10)


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
                    p = p + WeylPolynomial.generator((a, b, u - a, b - v), coeff)
            p_star = adjoint(p)
            pts = p_star.points()
            coeffs = np.array([p_star.terms[y] for y in pts])
            m = kernel_matrix(state, pts)
            quad = float(np.real(coeffs @ m @ coeffs.conj()))
            direct = positivity_check(state, p)
            assert abs(direct - quad) <= 1e-9
            assert direct >= -1e-10

    def test_imaginary_part_small(self):
        rng = random.Random(36)
        for _ in range(30):
            state = StateFunctional.epr(rng.uniform(-3, 3), rng.uniform(-3, 3))
            p = rand_poly(rng, 4)
            full = eval_poly(state, weyl_multiply(adjoint(p), p))
            assert abs(full.imag) <= 1e-10


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

    def test_gaussian_tail_violates_transitivity(self):
        # chained near/far Gaussian points: x~y and y~z but not x~z once the
        # kernel tail drops below threshold
        pts = [point(0, 0, 0, 0), point(6, 0, 0, 0), point(12, 0, 0, 0)]
        m = kernel_matrix(StateFunctional.regular(), pts)
        with pytest.raises(EquivalenceError):
            support_relation(m, zero_tol=1e-6)


class TestRankOne:
    def test_singleton_classes_pass(self):
        pts = [point(0, 0, 0, 0), point(1, 0, 0, 0)]
        state = StateFunctional.epr()
        m = kernel_matrix(state, pts)
        part = support_relation(m)
        assert rank_one_class_check(m, part, 1e-12)["passed"]

    def test_collinear_class_cocycle(self):
        state = StateFunctional.epr(1.0)
        pts = [point(0, 0, 0, 0), point(1, 0, -1, 0), point(2, 0, -2, 0)]
        m = kernel_matrix(state, pts)
        part = support_relation(m)
        assert part.classes == ((0, 1, 2),)
        res = rank_one_class_check(m, part, 1e-12)
        assert res["passed"]

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
            assert rank_one_class_check(m, part, 1e-10)["passed"]
            assert psd_check(m, 1e-10)["passed"]


class TestUniqueness:
    def test_on_manifold(self):
        state = StateFunctional.epr(0.6, -1.5)
        res = uniqueness_support_check(state, point(1, 1, -1, 1))
        assert res["passed"] and res["on_manifold"]
        expected = complex(math.cos(0.6 - 1.5), math.sin(0.6 - 1.5))
        assert abs(res["value"] - expected) <= 1e-12

    def test_momentum_mismatch(self):
        res = uniqueness_support_check(StateFunctional.epr(), point(1, 1, -1, 2))
        assert res["passed"] and res["value"] == 0j

    def test_position_mismatch(self):
        res = uniqueness_support_check(StateFunctional.epr(), point(1, 1, 1, 1))
        assert res["passed"] and res["value"] == 0j

    def test_battery(self):
        rng = random.Random(39)
        state = StateFunctional.epr(rng.uniform(-3, 3), rng.uniform(-3, 3))
        for i in range(200):
            if i % 2:
                x = rand_point(rng, 4)
            else:
                a, b = rand_fraction(rng), rand_fraction(rng)
                x = (a, b, -a, b)
            assert uniqueness_support_check(state, x)["passed"]

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

    def test_random_probes(self):
        rng = random.Random(40)
        state = StateFunctional.epr(1.9, -0.8)
        for _ in range(50):
            res = multiplicativity_check(
                state,
                rand_fraction(rng),
                rand_fraction(rng),
                probes=[rand_point(rng, 4) for _ in range(2)],
            )
            assert res["passed"]


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

    def test_random_pairs(self):
        rng = random.Random(41)
        state = StateFunctional.epr(3.1, 0.2)
        for _ in range(100):
            res = traciality_check(state, rand_point(rng, 2), rand_point(rng, 2))
            assert res["passed"]


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
