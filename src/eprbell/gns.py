"""Finite frames in the representation space generated by a state.

A state omega turns the polynomial algebra into a pre-Hilbert space with
inner product <P, Q> = omega(P* Q); the vectors W(x) acting on the cyclic
vector span a dense subspace.  The full space for the strictly correlated
state is nonseparable, so everything here is restricted to finite frames of
generator vectors: their Gram matrices, compressions of algebra elements,
and the norm bounds those compressions certify.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

# compress_operator and trace_vector_check are re-exported here, beside the frame checks
from .states import (
    IDENTITY_TOL,
    PSD_TOL,
    StateFunctional,
    compress_operator,
    eval_poly,
    support_labels,
    trace_vector_check,
)
from .weyl import (
    Point,
    WeylPolynomial,
    adjoint,
    read_lattice,
    unit_phase,
    weyl_multiply,
)

#: Eigenvalue floor used when whitening numerically singular Gram matrices.
GRAM_EIGENVALUE_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class GnsFrame:
    """An ordered family of generator vectors W(x_j) Omega with its Gram.

    ``lattice`` is the points as ``read_lattice`` reads them, their least L
    and each point times L; ``points`` and the length are read from it, so
    nothing can disagree with it.  gram[j,k] = omega(W(x_j)* W(x_k));
    diagonal entries are 1 because the generators are unitary.  Equality is
    identity: the Gram is an array.
    """

    lattice: tuple[int, list[tuple[int, ...]]]
    gram: np.ndarray

    @property
    def points(self) -> tuple[Point, ...]:
        den, ints = self.lattice
        return tuple(tuple(Fraction(v, den) for v in p) for p in ints)

    def __len__(self) -> int:
        return len(self.lattice[1])


def build_frame(state: StateFunctional, points: Sequence[Point]) -> GnsFrame:
    """Assemble the Gram matrix of the frame through the product engine.

    gram[j,k] = omega(W(x_j)* W(x_k)) is the twisted kernel on the negated
    points, F(-x_j, -x_k) = G(x_k - x_j) exp{-i s(x_j, x_k)}, never the
    corrupt control's deflated kernel.  Entries between support classes
    (``support_labels``, as the kernel's) are exact zeros, decided on the
    invariant.  Each pair (j, k) of one class goes through weyl_multiply +
    eval_poly, in row-major order, so the frame doubles as a consistency
    probe of the engine; a frame not all of dimension 4 is one class.  The
    Gram must come out positive semidefinite within ``PSD_TOL`` and with
    unit diagonal, else the engine itself is at fault and an
    ``AssertionError`` says so.  The frame keeps the points as this one
    ``read_lattice`` read them.
    """
    den, ints = lattice = read_lattice(points)
    if len(set(ints)) != len(ints):
        raise ValueError("frame points must be pairwise distinct")
    n = len(ints)
    gram = np.zeros((n, n), dtype=complex)
    gens = [WeylPolynomial.generator(p, den) for p in ints]
    adjs = [adjoint(g) for g in gens]
    label = np.array(support_labels(state, ints) if all(len(p) == 4 for p in ints) else [0] * n)
    for j, k in zip(*np.nonzero(label[:, None] == label)):
        gram[j, k] = eval_poly(state, weyl_multiply(adjs[j], gens[k]))
    lam_min = float(np.linalg.eigvalsh(gram)[0]) if n else 0.0
    if lam_min < -PSD_TOL:
        raise AssertionError(f"frame Gram is not positive: eigenvalue {lam_min}")
    if n and np.max(np.abs(np.diag(gram) - 1.0)) > IDENTITY_TOL:
        raise AssertionError("frame Gram diagonal deviates from 1")
    return GnsFrame(lattice, gram)


def collinearity_check(
    a: Fraction, b: Fraction, c: Fraction, d: Fraction, state: StateFunctional
) -> dict:
    """Overlap of W(a,b) x W(c,d) Omega with W(a+c, b-d) x I Omega.

    For the strictly correlated state the two vectors are collinear: the
    overlap is unimodular with phase exp{it} exp{ic*lambda} exp{-id*mu},
    t = (ad + bc)/2.  This is what collapses the two-sided generator family
    onto the first factor alone.
    """
    den, ((a, b, c, d),) = read_lattice([(a, b, c, d)], None)
    psi = WeylPolynomial.generator((a, b, c, d), den)
    phi = WeylPolynomial.generator((a + c, b - d, 0, 0), den)
    overlap = eval_poly(state, weyl_multiply(adjoint(psi), phi))
    expected = (unit_phase(a * d + b * c, 2 * den * den)
                * state.phase(c, 0, den) * state.phase(0, -d, den))
    modulus = abs(overlap)
    phase_dev = abs(overlap - expected)
    return {
        "overlap": overlap,
        "modulus": float(modulus),
        "expected_phase": expected,
        "phase_deviation": float(phase_dev),
        "passed": abs(modulus - 1.0) <= IDENTITY_TOL and phase_dev <= IDENTITY_TOL,
    }


def norm_lower_bound(
    state: StateFunctional, frame: GnsFrame, p: WeylPolynomial
) -> float:
    """Largest singular value of the Gram-whitened compression of P.

    The compression acts on the span of the frame vectors, so its norm can
    never exceed the operator norm of P: the returned value is a certified
    lower bound up to numerical error, complementing the one_norm upper
    bound.  Numerically singular Grams (common here, where many entries are
    exact zeros and ones) lose the directions whose eigenvalue is at most
    ``GRAM_EIGENVALUE_FLOOR``, with a warning exactly when one is lost.
    """
    evals, vecs = np.linalg.eigh(frame.gram)
    keep = evals > GRAM_EIGENVALUE_FLOOR
    if not keep.all():
        warnings.warn(
            "frame Gram is numerically singular; whitening on the"
            f" {int(np.count_nonzero(keep))}-dimensional regular part",
            RuntimeWarning,
            stacklevel=2,
        )
    if not np.any(keep):
        return 0.0
    comp = compress_operator(state, frame, p)
    white = vecs[:, keep] / np.sqrt(evals[keep])
    reduced = white.conj().T @ comp @ white
    return float(np.linalg.svd(reduced, compute_uv=False)[0])
