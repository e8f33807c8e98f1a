"""Finite matrix model of the maximally Bell-correlated pair of factors.

The bipartite space is C^m (x) C^m with the maximally entangled unit vector
Omega (coefficients 1/sqrt(m) on matched basis pairs), which implements the
normalized trace of the first factor: <Omega, (A x I) Omega> = tr(A)/m.
A rank-m/2 projection P is equivalent to its complement through a partial
isometry V (V V* = P, V* V = I - P, V^2 = 0), giving the self-adjoint
unitary family A(theta) = e^{i theta} V + e^{-i theta} V*.  The transpose in
the matched basis is the *-anti-isomorphism onto the commutant that fixes
Omega, and the four operators A(0), A(pi/2) and their images at angles
+-pi/4 reach the CHSH expectation 2 cos(pi/4) = sqrt(2), independent of m.

With Omega = vec(I)/sqrt(m), every expectation is a pairing
<Omega, (X x Y) Omega> = tr(X Y^T)/m = sum(X * Y)/m, and a product on one
factor moves to the other as (X Y x I) Omega = (X x Y^T) Omega.  So each is
one elementwise trace, O(m^2), with no matrix product that could stall in
threaded BLAS; tests check the pairings against Kronecker products and the
reshape identity (A x B) vec(M) = vec(A M B^T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BUILD_TOL = 1e-13
MAX_DIM = 64


@dataclass(frozen=True, eq=False)
class MatrixModel:
    m: int
    omega: np.ndarray  # unit vector of length m*m
    proj: np.ndarray  # rank m/2 diagonal projection
    isometry: np.ndarray  # V with V V* = proj, V* V = I - proj


def _pair(model: MatrixModel, x: np.ndarray, y: np.ndarray) -> complex:
    """<Omega, (X x Y) Omega> = tr(X Y^T)/m, as one elementwise trace."""
    return complex(np.sum(x * y)) / model.m


def expect_left(model: MatrixModel, a: np.ndarray) -> complex:
    """<Omega, (A x I) Omega> = tr(A)/m."""
    return _pair(model, a, np.eye(model.m))


def build_model(m: int) -> MatrixModel:
    """Construct and verify the model at factor dimension m (even, <= 64)."""
    if m % 2 != 0 or m < 2 or m > MAX_DIM:
        raise ValueError(f"factor dimension must be even and in [2, {MAX_DIM}]")
    half = m // 2
    omega_mat = np.eye(m, dtype=complex) / math.sqrt(m)
    proj = np.zeros((m, m), dtype=complex)
    proj[:half, :half] = np.eye(half)
    isometry = np.eye(m, k=half, dtype=complex)  # the half shift e_{j+half} -> e_j
    model = MatrixModel(m, omega_mat.reshape(-1), proj, isometry)

    v, v_star, p = isometry, isometry.conj().T, proj
    eye = np.eye(m)
    mul = "ij,jk->ik"  # an unoptimized einsum never calls BLAS
    checks = {
        "VV* = P": np.einsum(mul, v, v_star) - p,
        "V*V = I-P": np.einsum(mul, v_star, v) - (eye - p),
        "V^2 = 0": np.einsum(mul, v, v),
        "(V*)^2 = 0": np.einsum(mul, v_star, v_star),
        # Omega implements the normalized trace of factor 1: checking the
        # reshaped identity Omega_mat Omega_mat* = I/m covers all A by
        # linearity in the matrix units.  Every pairing relies on it.
        "trace vector": np.einsum(mul, omega_mat, omega_mat.conj().T) - eye / m,
    }
    for label, residue in checks.items():
        dev = float(np.max(np.abs(residue)))
        if dev > BUILD_TOL:
            raise AssertionError(f"model invariant {label} fails by {dev}")
    half_weight = expect_left(model, p)
    if abs(half_weight - 0.5) > BUILD_TOL:
        raise AssertionError("projection weight <Omega, P Omega> is not 1/2")
    return model


def a_theta(model: MatrixModel, theta: float) -> np.ndarray:
    """The self-adjoint unitary e^{i theta} V + e^{-i theta} V*."""
    phase = complex(math.cos(theta), math.sin(theta))
    return phase * model.isometry + phase.conjugate() * model.isometry.conj().T


def gamma(model: MatrixModel, a: np.ndarray) -> np.ndarray:
    """Transpose in the matched basis: the anti-isomorphism with gamma(A) Omega = A Omega.

    The returned matrix acts on the second factor, as I x gamma(A).
    """
    return np.array(a).T.copy()


def correlation(model: MatrixModel, theta1: float, theta2: float) -> float:
    """<Omega, (A(theta1) A(theta2) x I) Omega> = <Omega, (A(theta1) x
    gamma(A(theta2))) Omega>; equals cos(theta1 - theta2)."""
    a1, a2 = a_theta(model, theta1), a_theta(model, theta2)
    return _pair(model, a1, gamma(model, a2)).real


def correlation_grid(model: MatrixModel, thetas: np.ndarray) -> np.ndarray:
    """correlation() over all angle pairs, batched.

    Builds every A(theta) once and pairs them as correlation() does, but
    its einsum sums the products in another order than correlation()'s
    np.sum, so the two agree within 1e-14 (the test suite checks this),
    not bit for bit.
    """
    mats = np.stack([a_theta(model, t) for t in np.asarray(thetas, dtype=float)])
    return np.real(np.einsum("jab,kba->jk", mats, mats)) / model.m


def bell_expectation(
    model: MatrixModel,
    a1: np.ndarray,
    a2: np.ndarray,
    b1: np.ndarray,
    b2: np.ndarray,
) -> float:
    """(1/2) <Omega, (A1(B1+B2) + A2(B1-B2)) Omega> with B_i on factor 2."""
    return 0.5 * (_pair(model, a1, b1 + b2) + _pair(model, a2, b1 - b2)).real


def chsh_value(model: MatrixModel) -> float:
    """Bell expectation at angles (0, pi/2) against (pi/4, -pi/4): sqrt(2)."""
    a1 = a_theta(model, 0.0)
    a2 = a_theta(model, math.pi / 2)
    b1 = gamma(model, a_theta(model, math.pi / 4))
    b2 = gamma(model, a_theta(model, -math.pi / 4))
    return bell_expectation(model, a1, a2, b1, b2)


def double_deviation(
    model: MatrixModel, a: np.ndarray, partner: np.ndarray
) -> float:
    """<Omega, D^2 Omega> with D = (A x I) - (I x partner).

    D applied twice, for any partner: D Omega = vec(X)/sqrt(m) with X = A -
    partner^T, and D once more pairs to tr(A X - X partner^T)/m = tr(X X)/m,
    so perturbed partners report their true quadratic deviation.
    """
    x = np.asarray(a) - np.asarray(partner).T
    return _pair(model, x, x.T).real


def double_of(model: MatrixModel, a: np.ndarray) -> dict:
    """The unique perfectly correlated partner gamma(A) of a self-adjoint A."""
    a = np.asarray(a, dtype=complex)
    if float(np.max(np.abs(a - a.conj().T))) > 1e-12:
        raise ValueError("double_of expects a self-adjoint matrix")
    double = gamma(model, a)
    return {"double": double, "deviation": double_deviation(model, a, double)}
