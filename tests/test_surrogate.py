"""Matrix model: construction invariants, correlation law, CHSH, doubles."""

import ast
import math
import random
from pathlib import Path

import numpy as np
import pytest

from eprbell import (
    a_theta,
    bell_expectation,
    build_model,
    chsh_value,
    correlation,
    correlation_grid,
    double_deviation,
    double_of,
    gamma,
)
from eprbell.surrogate import expect_left

SQRT2 = math.sqrt(2.0)


def _random_hermitian(rng: np.random.Generator, m: int) -> np.ndarray:
    raw = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return (raw + raw.conj().T) / 2


# The reshape identity (A x B) vec(M) = vec(A M B^T) applies bipartite
# operators without forming m^2 x m^2 matrices; it is the oracle for the
# elementwise pairings of eprbell.surrogate above the sizes where explicit
# Kronecker products are cheap.


def apply_left(model, a: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """(A x I) applied to a bipartite vector."""
    return (a @ vec.reshape(model.m, model.m)).reshape(-1)


def apply_right(model, b: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """(I x B) applied to a bipartite vector."""
    return (vec.reshape(model.m, model.m) @ b.T).reshape(-1)


def _reshape_bell(model, a1, a2, b1, b2) -> float:
    omega = model.omega
    vec = apply_left(model, a1, apply_right(model, b1 + b2, omega))
    vec2 = apply_left(model, a2, apply_right(model, b1 - b2, omega))
    return float(np.real(np.vdot(omega, 0.5 * (vec + vec2))))


def _reshape_double(model, a, partner) -> float:
    def apply_d(vec):
        return apply_left(model, a, vec) - apply_right(model, partner, vec)

    return float(np.real(np.vdot(model.omega, apply_d(apply_d(model.omega)))))


def _kron_bell(model, a1, a2, b1, b2) -> float:
    dense = 0.5 * (np.kron(a1, b1 + b2) + np.kron(a2, b1 - b2))
    return float(np.real(np.vdot(model.omega, dense @ model.omega)))


def _kron_double(model, a, partner) -> float:
    eye = np.eye(model.m)
    d = np.kron(a, eye) - np.kron(eye, partner)
    return float(np.real(np.vdot(model.omega, d @ (d @ model.omega))))


def _dense_forms(m: int):
    """Explicit Kronecker products where they are small, else the reshape identity."""
    return (_kron_bell, _kron_double) if m <= 4 else (_reshape_bell, _reshape_double)


def _random_contraction(rng: np.random.Generator, m: int) -> np.ndarray:
    """A random Hermitian matrix of operator norm 1, so pairings are O(1)."""
    h = _random_hermitian(rng, m)
    return h / np.linalg.norm(h, 2)


class TestBuildModel:
    def test_minimal_model_matrices(self):
        model = build_model(2)
        assert np.array_equal(model.proj, np.diag([1.0 + 0j, 0.0]))
        expected_v = np.zeros((2, 2), dtype=complex)
        expected_v[0, 1] = 1.0
        assert np.array_equal(model.isometry, expected_v)

    def test_rank_two_projection(self):
        model = build_model(4)
        assert np.linalg.matrix_rank(model.proj) == 2
        assert np.linalg.matrix_rank(np.eye(4) - model.proj) == 2

    def test_projection_equivalent_to_complement(self):
        for m in (2, 4, 8, 16):
            model = build_model(m)
            v = model.isometry
            assert np.allclose(v @ v.conj().T, model.proj, atol=1e-15)
            assert np.allclose(
                v.conj().T @ v, np.eye(m) - model.proj, atol=1e-15
            )
            assert np.max(np.abs(v @ v)) == 0.0

    def test_invalid_dimensions(self):
        for bad in (3, 5, 0, -2, 66):
            with pytest.raises(ValueError):
                build_model(bad)

    def test_trace_vector_identity_random(self):
        rng = np.random.default_rng(70)
        for m in (2, 4, 8):
            model = build_model(m)
            for _ in range(5):
                a = _random_hermitian(rng, m)
                value = expect_left(model, a)
                assert abs(value - np.trace(a) / m) <= 1e-13

    def test_projection_weight_half(self):
        for m in (2, 6, 64):
            model = build_model(m)
            assert abs(expect_left(model, model.proj) - 0.5) <= 1e-13

    def test_trace_vector_symmetry(self):
        rng = np.random.default_rng(71)
        for m in (2, 4):
            model = build_model(m)
            for _ in range(10):
                a = _random_hermitian(rng, m)
                b = _random_hermitian(rng, m)
                lhs = expect_left(model, a @ b)
                rhs = expect_left(model, b @ a)
                assert abs(lhs - rhs) <= 1e-12

    def test_cyclic_vectors_span_everything(self):
        for m in (2, 4, 8):
            model = build_model(m)
            vectors = []
            for i in range(m):
                for j in range(m):
                    unit = np.zeros((m, m), dtype=complex)
                    unit[i, j] = 1.0
                    vectors.append(apply_left(model, unit, model.omega))
            stack = np.array(vectors)
            assert np.linalg.matrix_rank(stack) == m * m


class TestKroneckerOracle:
    """Cross-check the reshape-based application against explicit products."""

    def test_against_dense_kron(self):
        rng = np.random.default_rng(72)
        for m in (2, 4):
            model = build_model(m)
            eye = np.eye(m)
            for _ in range(10):
                a = _random_hermitian(rng, m)
                b = _random_hermitian(rng, m)
                dense_left = np.kron(a, eye) @ model.omega
                dense_right = np.kron(eye, b) @ model.omega
                assert np.allclose(apply_left(model, a, model.omega), dense_left, atol=1e-14)
                assert np.allclose(apply_right(model, b, model.omega), dense_right, atol=1e-14)

    def test_chsh_against_dense_kron(self):
        for m in (2, 4):
            model = build_model(m)
            eye = np.eye(m)
            a1 = a_theta(model, 0.0)
            a2 = a_theta(model, math.pi / 2)
            b1 = gamma(model, a_theta(model, math.pi / 4))
            b2 = gamma(model, a_theta(model, -math.pi / 4))
            dense = 0.5 * (
                np.kron(a1, eye) @ (np.kron(eye, b1) + np.kron(eye, b2))
                + np.kron(a2, eye) @ (np.kron(eye, b1) - np.kron(eye, b2))
            )
            dense_value = float(np.real(np.vdot(model.omega, dense @ model.omega)))
            assert abs(chsh_value(model) - dense_value) <= 1e-14

    def test_double_deviation_against_dense_kron(self):
        rng = np.random.default_rng(73)
        m = 4
        model = build_model(m)
        eye = np.eye(m)
        a = _random_hermitian(rng, m)
        partner = gamma(model, a) + 0.05 * np.eye(m)
        d = np.kron(a, eye) - np.kron(eye, partner)
        dense = float(np.real(np.vdot(model.omega, d @ (d @ model.omega))))
        assert abs(double_deviation(model, a, partner) - dense) <= 1e-13


class TestPairingAgainstDenseForms:
    """The elementwise pairings agree with the dense forms within 1e-13."""

    @pytest.mark.parametrize("m", [2, 4, 8, 42, 64])
    def test_chsh_value(self, m):
        model = build_model(m)
        bell, _ = _dense_forms(m)
        a1 = a_theta(model, 0.0)
        a2 = a_theta(model, math.pi / 2)
        b1 = gamma(model, a_theta(model, math.pi / 4))
        b2 = gamma(model, a_theta(model, -math.pi / 4))
        assert abs(chsh_value(model) - bell(model, a1, a2, b1, b2)) <= 1e-13

    @pytest.mark.parametrize("m", [2, 4, 8, 42, 64])
    def test_bell_expectation(self, m):
        rng = np.random.default_rng(1000 + m)
        model = build_model(m)
        bell, _ = _dense_forms(m)
        for _ in range(3):
            ops = [_random_contraction(rng, m) for _ in range(4)]
            assert abs(bell_expectation(model, *ops) - bell(model, *ops)) <= 1e-13

    @pytest.mark.parametrize("m", [2, 4, 8, 42, 64])
    def test_double_deviation(self, m):
        rng = np.random.default_rng(2000 + m)
        model = build_model(m)
        _, double = _dense_forms(m)
        for _ in range(3):
            a = _random_contraction(rng, m)
            for partner in (
                _random_contraction(rng, m),
                gamma(model, a),
                gamma(model, a) + 0.1 * np.eye(m),
            ):
                value = double_deviation(model, a, partner)
                assert abs(value - double(model, a, partner)) <= 1e-13

    def test_grid_matches_pointwise_at_largest_dimension(self):
        model = build_model(64)
        thetas = np.linspace(0.0, 2 * math.pi, 24)
        grid = correlation_grid(model, thetas)
        for j, t1 in enumerate(thetas):
            for k, t2 in enumerate(thetas):
                assert abs(grid[j, k] - correlation(model, t1, t2)) <= 1e-13


class TestNoMatrixProducts:
    def test_source_has_no_blas_product(self):
        """Matrix products from m = 42 reach threaded BLAS, which can stall a
        surrogate run past a second; the module computes none."""
        import eprbell.surrogate

        tree = ast.parse(Path(eprbell.surrogate.__file__).read_text())
        for node in ast.walk(tree):
            assert not isinstance(node, ast.MatMult)
            if isinstance(node, ast.Attribute):
                assert node.attr not in {"dot", "matmul", "vdot", "tensordot"}
            if isinstance(node, ast.keyword):
                assert node.arg != "optimize"


class TestATheta:
    def test_theta_zero(self):
        model = build_model(4)
        assert np.array_equal(
            a_theta(model, 0.0), model.isometry + model.isometry.conj().T
        )

    def test_self_adjoint_unitary(self):
        model = build_model(6)
        for theta in (0.0, 0.4, 2.2, -1.7):
            a = a_theta(model, theta)
            assert np.max(np.abs(a - a.conj().T)) <= 1e-13
            assert np.max(np.abs(a @ a - np.eye(6))) <= 1e-13

    def test_pi_flips_sign(self):
        model = build_model(2)
        assert np.allclose(a_theta(model, math.pi), -a_theta(model, 0.0), atol=1e-13)

    def test_product_formula(self):
        model = build_model(8)
        rng = random.Random(74)
        eye = np.eye(8)
        for _ in range(20):
            t1, t2 = rng.uniform(-4, 4), rng.uniform(-4, 4)
            product = a_theta(model, t1) @ a_theta(model, t2)
            phase = complex(math.cos(t1 - t2), math.sin(t1 - t2))
            expected = phase * model.proj + phase.conjugate() * (eye - model.proj)
            assert np.max(np.abs(product - expected)) <= 1e-13


class TestGamma:
    def test_identity(self):
        model = build_model(4)
        assert np.array_equal(gamma(model, np.eye(4, dtype=complex)), np.eye(4))

    def test_fixes_omega(self):
        rng = np.random.default_rng(75)
        for m in (2, 4, 8):
            model = build_model(m)
            for _ in range(5):
                a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
                left = apply_left(model, a, model.omega)
                right = apply_right(model, gamma(model, a), model.omega)
                assert np.max(np.abs(left - right)) <= 1e-13

    def test_anti_multiplicative(self):
        rng = np.random.default_rng(76)
        model = build_model(4)
        for _ in range(10):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            lhs = gamma(model, a @ b)
            rhs = gamma(model, b) @ gamma(model, a)
            assert np.max(np.abs(lhs - rhs)) <= 1e-13

    def test_star_preserving(self):
        rng = np.random.default_rng(77)
        model = build_model(4)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.allclose(
            gamma(model, a.conj().T), gamma(model, a).conj().T, atol=1e-15
        )


class TestCorrelation:
    def test_equal_angles(self):
        model = build_model(4)
        assert correlation(model, 1.3, 1.3) == pytest.approx(1.0, abs=1e-13)

    def test_right_angle(self):
        model = build_model(2)
        assert correlation(model, 0.8 + math.pi / 2, 0.8) == pytest.approx(0.0, abs=1e-13)

    def test_pi_over_four(self):
        model = build_model(2)
        assert correlation(model, math.pi / 4, 0.0) == pytest.approx(
            SQRT2 / 2, abs=1e-13
        )

    def test_cosine_law_battery(self):
        rng = random.Random(78)
        for m in (2, 8, 32):
            model = build_model(m)
            for _ in range(40):
                t1, t2 = rng.uniform(-7, 7), rng.uniform(-7, 7)
                assert abs(correlation(model, t1, t2) - math.cos(t1 - t2)) <= 1e-13

    def test_grid_matches_pointwise(self):
        model = build_model(2)
        thetas = np.linspace(0.0, 2 * math.pi, 40)
        grid = correlation_grid(model, thetas)
        rng = random.Random(79)
        for _ in range(60):
            j, k = rng.randrange(40), rng.randrange(40)
            assert abs(grid[j, k] - correlation(model, thetas[j], thetas[k])) <= 1e-15


class TestChsh:
    def test_dimension_independent_maximum(self):
        for m in (2, 8):
            assert abs(chsh_value(build_model(m)) - SQRT2) <= 1e-12

    def test_degenerate_choice_loses(self):
        # replacing B2 by a copy of B1 collapses the second term
        model = build_model(2)
        a1 = a_theta(model, 0.0)
        a2 = a_theta(model, math.pi / 2)
        b1 = gamma(model, a_theta(model, math.pi / 4))
        value = bell_expectation(model, a1, a2, b1, b1)
        assert value == pytest.approx(SQRT2 / 2, abs=1e-13)
        assert value < SQRT2 - 0.5

    def test_angle_sweep_never_exceeds_maximum(self):
        # the family value is cos(tA1-tB1)+cos(tA1-tB2)+cos(tA2-tB1)
        # -cos(tA2-tB2), halved; by rotation invariance fix tA1 = 0 and
        # sweep the other three angles on a 1e-2 grid.
        model = build_model(2)
        thetas = np.arange(0.0, 2 * math.pi, 1e-2)
        best = -np.inf
        for tb1 in thetas:
            # vectorize over (tA2, tB2) for fixed tB1
            term = np.cos(tb1) + np.cos(thetas[:, None] - tb1)
            term = term + np.cos(thetas[None, :]) - np.cos(
                thetas[:, None] - thetas[None, :]
            )
            best = max(best, float(np.max(term)) / 2)
        assert best <= SQRT2 + 1e-9
        assert best >= SQRT2 - 1e-4
        # the engine value at the optimal angles hits sqrt(2) exactly
        assert chsh_value(model) == pytest.approx(SQRT2, abs=1e-12)

    def test_sweep_formula_matches_engine(self):
        rng = random.Random(80)
        model = build_model(4)
        for _ in range(30):
            ta1, ta2, tb1, tb2 = (rng.uniform(0, 2 * math.pi) for _ in range(4))
            engine = bell_expectation(
                model,
                a_theta(model, ta1),
                a_theta(model, ta2),
                gamma(model, a_theta(model, tb1)),
                gamma(model, a_theta(model, tb2)),
            )
            closed = 0.5 * (
                math.cos(ta1 - tb1)
                + math.cos(ta1 - tb2)
                + math.cos(ta2 - tb1)
                - math.cos(ta2 - tb2)
            )
            assert abs(engine - closed) <= 1e-12


class TestDoubles:
    def test_projection_double(self):
        model = build_model(4)
        res = double_of(model, model.proj)
        assert res["deviation"] <= 1e-15
        assert np.array_equal(res["double"], model.proj.T)

    def test_identity_double(self):
        model = build_model(2)
        res = double_of(model, np.eye(2, dtype=complex))
        assert np.array_equal(res["double"], np.eye(2))
        assert res["deviation"] == 0.0

    def test_random_self_adjoint(self):
        rng = np.random.default_rng(81)
        for m in (2, 4, 8):
            model = build_model(m)
            for _ in range(10):
                a = _random_hermitian(rng, m)
                assert abs(double_of(model, a)["deviation"]) <= 1e-12

    def test_perturbed_double_detected(self):
        rng = np.random.default_rng(82)
        model = build_model(4)
        a = _random_hermitian(rng, 4)
        res = double_of(model, a)
        perturbed = res["double"] + 0.1 * np.eye(4)
        assert double_deviation(model, a, perturbed) == pytest.approx(0.01, abs=1e-12)

    def test_rejects_non_self_adjoint(self):
        model = build_model(2)
        with pytest.raises(ValueError):
            double_of(model, np.array([[0.0, 1.0], [0.0, 0.0]]))
