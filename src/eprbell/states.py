"""State functionals on the composite Weyl algebra over R^4.

The principal state here strictly correlates relative position and total
momentum.  Its generating functional on a generator W(a,b,c,d) is

    G(a,b,c,d) = delta(a+c) delta(b-d) exp{i(a*lambda + b*mu)},

with delta the characteristic function of {0}, decided by exact rational
equality.  A Gaussian reference state, G(x) = exp(-|x|^2/4), runs the same
machinery over an everywhere-supported regular kernel for contrast.

A functional G induces a state exactly when G(0) = 1 and the twisted kernel

    F(x, y) = G(x - y) exp{-i s(x, y)}

is positive semidefinite; the checks in this module make that executable on
finite point sets, together with the support-partition structure and the
multiplicative identities that pin the strictly-correlated state down
uniquely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .weyl import (
    DEFAULT_TERM_CAP,
    LATTICE_BITS,
    ZERO_THRESHOLD,
    Point,
    TermBudgetError,
    WeylPolynomial,
    _expand,
    _reduced,
    adjoint,
    one_norm,
    read_lattice,
    read_number,
    tensor_embed,
    unit_phase,
    weyl_multiply,
)

KIND_EPR = "epr"
KIND_REGULAR = "regular"

#: Entries of modulus at most this are outside the kernel's support relation.
SUPPORT_ZERO_TOL = 1e-9

#: Tolerance of the uniqueness, multiplicativity, traciality and collinearity
#: checks: each compares doubles against a value the identity fixes exactly.
IDENTITY_TOL = 1e-12

#: psd_check's bound on negative eigenvalues and on |M - M*|.
PSD_TOL = 1e-10


class EquivalenceError(Exception):
    """The kernel support relation failed to be an equivalence relation."""


@dataclass(frozen=True)
class StateFunctional:
    """An evaluable state, either strictly correlated ("epr") or Gaussian
    ("regular").

    ``lam`` and ``mu`` are the dispersion-free values of relative position
    and total momentum.  They enter only through the phases that ``angle``,
    ``phase`` and ``phases`` make from an angle rounded to a double (absolute
    error about |angle| 2^-53: false FAILs start at coordinates near 10^8),
    never through support decisions.  ``corrupt_kernel`` deliberately breaks
    kernel positivity, to drive negative-control paths in tests and reports.
    """

    kind: str = KIND_EPR
    lam: float = 0.0
    mu: float = 0.0
    corrupt_kernel: bool = False

    def __post_init__(self):
        if self.kind not in (KIND_EPR, KIND_REGULAR):
            raise ValueError(f"unknown state kind {self.kind!r}")
        for field, value in (("lambda", self.lam), ("mu", self.mu)):
            if not math.isfinite(value):
                raise ValueError(f"state field {field!r} must be finite, got {value!r}")

    @classmethod
    def epr(cls, lam: float = 0.0, mu: float = 0.0) -> "StateFunctional":
        return cls(KIND_EPR, float(lam), float(mu))

    @classmethod
    def regular(cls) -> "StateFunctional":
        return cls(KIND_REGULAR)

    @classmethod
    def from_spec(cls, spec: dict) -> "StateFunctional":
        if not isinstance(spec, dict):
            found = type(spec).__name__
            raise ValueError(f"a state spec must be a JSON object, not {found}")
        corrupt = spec.get("corrupt_kernel", False)
        if not isinstance(corrupt, bool):
            raise ValueError(
                f"state field 'corrupt_kernel' must be true or false, got {corrupt!r}"
            )
        lam, mu = (read_number(spec.get(field, 0.0), f"state field {field!r}")
                   for field in ("lambda", "mu"))
        return cls(spec.get("kind", KIND_EPR), lam, mu, corrupt)

    def angle(self, a, b, den: int = 1) -> float:
        """a*lambda + b*mu at the exact point (a/den, b/den), from each
        coordinate's correctly rounded double (a ``Fraction`` times a float
        is its float() times it); ValueError if not finite."""
        t = a / den * self.lam + b / den * self.mu
        if not math.isfinite(t):
            raise ValueError("state fields 'lambda' and 'mu' give no finite phase angle"
                             f" at the point a = {Fraction(a) / den}, b = {Fraction(b) / den}")
        return t

    def phase(self, a, b, den: int = 1) -> complex:
        """exp{i angle(a, b, den)}, an exact 1 at a zero angle."""
        return unit_phase(self.angle(a, b, den))

    def phases(self, a: np.ndarray, b: np.ndarray, den: int) -> tuple[np.ndarray, np.ndarray]:
        """Real and imaginary parts of ``phase`` over int arrays a and b of one
        shape, but for sin(-0.0) = -0.0, a zero's sign every caller absorbs."""
        with np.errstate(over="ignore", invalid="ignore"):
            t = np.asarray(a / den, float) * self.lam + np.asarray(b / den, float) * self.mu
        bad = ~np.isfinite(t)
        if bad.any():  # the scalar form, bit for bit the same, raises its error
            self.angle(int(a.flat[bad.argmax()]), int(b.flat[bad.argmax()]), den)
        return _phase(t, 1)  # t / 1 is t

    def to_spec(self) -> dict:
        spec = {"kind": self.kind, "lambda": self.lam, "mu": self.mu}
        if self.corrupt_kernel:
            spec["corrupt_kernel"] = True
        return spec


def eval_point(state: StateFunctional, x: Point, den: int = 1) -> complex:
    """Value of the generating functional on a single generator W(x / den).

    ``x`` holds exact rationals, or ints over the lattice denominator
    ``den`` of ``WeylPolynomial.lattice_items``.  For the strictly
    correlated state the two delta factors are decided by exact equality,
    so off-manifold values are exact complex zeros.  Coordinates become
    doubles as in ``StateFunctional.angle``.
    """
    if len(x) != 4:
        raise ValueError("states are defined on the dimension-4 algebra")
    a, b, c, d = x
    if state.kind == KIND_EPR:
        return state.phase(a, b, den) if a + c == 0 and b - d == 0 else 0j
    fa, fb, fc, fd = (float(t / den) for t in x)
    norm_sq = fa * fa + fb * fb + fc * fc + fd * fd
    return complex(math.exp(-norm_sq / 4.0), 0.0)


def eval_poly(state: StateFunctional, p: WeylPolynomial) -> complex:
    """Linear extension of eval_point to polynomials, one call per term on
    the polynomial's lattice points, summed in insertion order."""
    if p.dim != 4:
        raise ValueError("states are defined on the dimension-4 algebra")
    den, items = p.lattice_items()
    return sum((c * eval_point(state, x, den) for x, c in items), 0j)


def eval_product(state: StateFunctional, p: WeylPolynomial, q: WeylPolynomial) -> complex:
    """omega(P Q), bit for bit ``eval_poly(state, weyl_multiply(p, q))``.

    The epr state sees W(x) W(y) only when the invariants (a+c, b-d) of x
    and y sum to 0.  So Q's terms are grouped by their exact invariant on
    the common lattice L, and each term W(x) of P meets, through the
    engine's own loop ``weyl._expand``, only those whose invariant is minus
    its own.  The value keeps every bit:

    - the kept pairs are a subsequence of the product's, in its order, and
      hold every pair that lands on the manifold, so each point there sums
      the same terms in the same order, and the points keep their order;
    - a dropped point is off the manifold, where eval_point is 0j, and its
      coefficient c is finite (below), so c * 0j is a zero of either sign,
      which the sum from 0j, never -0.0, absorbs;
    - dropping points can only raise the gcd that makes L least, which
      moves no quotient a/L and no exact delta test.

    The full product is taken for the regular state, factors not both of
    dimension 4, a product past ``DEFAULT_TERM_CAP``, a common L past
    ``LATTICE_BITS``, or one_norm(P) one_norm(Q) not below 2^1000.  Inside
    these bounds the full product raises no error, and each coefficient,
    a sum of at most ``DEFAULT_TERM_CAP`` terms within a few ulps of
    |a| |b|, is finite.
    """
    m, n, den = len(p), len(q), math.lcm(p._den, q._den)
    if (
        state.kind != KIND_EPR
        or p.dim != 4
        or q.dim != 4
        or max(m, n, m * n) > DEFAULT_TERM_CAP
        or den.bit_length() > LATTICE_BITS
        or not one_norm(p) * one_norm(q) < 2.0**1000
    ):
        return eval_poly(state, weyl_multiply(p, q))
    by_class: dict[tuple[int, int], list] = {}
    for y, b in q._over(den).items():
        by_class.setdefault((y[0] + y[2], y[1] - y[3]), []).append((y, b))
    rows = []
    for x, a in p._over(den).items():
        ys = by_class.get((-x[0] - x[2], x[3] - x[1]))
        if ys:
            rows.append((x, a, ys))
    return eval_poly(state, WeylPolynomial._raw(4, *_reduced(den, _expand(den, rows))))


#: Pairs of one kernel pass: a Python-int lattice holds objects, not
#: doubles, in each temporary.
_KERNEL_PASS_ENTRIES = 2**10

#: Entries of one stacked pass of the spectrum, cocycle and compression.
_PASS_ENTRIES = 2**14


def _passes(count: int, entries: int, budget: int) -> Iterator[slice]:
    """Slices of range(count) that each hold at most ``budget`` entries, at
    ``entries`` per item, and at least one item."""
    step = max(1, budget // entries)
    return (slice(s, s + step) for s in range(0, count, step))


def _by_size(labels: np.ndarray) -> Iterator[np.ndarray]:
    """The index classes of equal nonnegative int labels, stacked by class
    size: one (classes, size) array per distinct size, each row increasing."""
    order = np.argsort(labels, kind="stable")
    counts = np.bincount(labels)
    first = np.cumsum(counts) - counts
    for size in np.unique(counts[counts > 0]):
        yield order[first[counts == size, None] + np.arange(size)]


def kernel_matrix(state: StateFunctional, points: Sequence[Point]) -> np.ndarray:
    """The twisted kernel M[j,k] = G(x_j - x_k) exp{-i s(x_j, x_k)}.

    Hermitian by the hermiticity of G and antisymmetry of the form.  With the
    corrupt flag set, the last diagonal entry is deflated below zero so the
    matrix is guaranteed non-PSD whatever the points.

    ``points`` are rows of exact coordinates, which ``weyl.read_lattice``
    reads onto one common denominator, so the lattice points are distinct
    exactly when the points are.  For the epr state only entries within a
    class of the invariant (a+c, b-d) are computed, and all others are exact
    zeros, so M is block diagonal up to a permutation of its indices.  The
    regular state is one class of every point.  The pairs j <= k of the
    classes of one size are stacked and computed together, a bounded pass at
    a time, and ``_kernel_entries`` gives each entry with its mirror (k, j);
    each entry is computed on its own, so the stacking leaves every bit as
    it is.
    """
    den, points = read_lattice(points)
    if not points:
        raise ValueError("at least one point is required")
    if len(set(points)) != len(points):
        raise ValueError("points must be pairwise distinct")
    for i, p in enumerate(points):
        if len(p) != 4:
            raise ValueError(f"point {i}: states are defined on the dimension-4 algebra,"
                             f" got {len(p)} coordinates")
    n = len(points)
    coords = _lattice_array(points, max(abs(v) for p in points for v in p), den)
    m = np.zeros((n, n), dtype=complex)
    for cls in _by_size(np.array(support_labels(state, points))):
        j, k = np.triu_indices(cls.shape[1])
        rows, cols = cls[:, j].ravel(), cls[:, k].ravel()
        for t in _passes(len(rows), 1, _KERNEL_PASS_ENTRIES):
            r, c = rows[t], cols[t]
            m.real[r, c], m.imag[r, c], m.real[c, r], m.imag[c, r] = _kernel_entries(
                state, coords[r], coords[c], den
            )
    if state.corrupt_kernel:
        m[n - 1, n - 1] -= 1.5
    return m


def support_labels(state: StateFunctional, points: Sequence[tuple[int, ...]]) -> list[int]:
    """Each dimension-4 lattice point's support class, numbered from 0 in
    order of first appearance: for the epr state the class of its exact
    invariant (a+c, b-d), for the regular state one class of every point."""
    if state.kind != KIND_EPR:
        return [0] * len(points)
    classes: dict[tuple[int, int], int] = {}
    return [classes.setdefault((a + c, b - d), len(classes)) for a, b, c, d in points]


def _lattice_array(ints: list[tuple[int, ...]], big: int, scale: int) -> np.ndarray:
    """Scaled integer points, of largest coordinate ``big``, as int64 only
    while every product, sum and divisor formed from them is an integer a
    double holds exactly, so each quotient is correctly rounded, as
    float(Fraction) is; as Python ints otherwise."""
    fits = 4 * big * big < 2**53 and 2 * scale * scale < 2**53
    return np.array(ints, dtype=np.int64 if fits else object)


def _kernel_entries(
    state: StateFunctional, x: np.ndarray, y: np.ndarray, scale: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Real and imaginary parts of M at rows x and columns y of scaled
    integer coordinates, broadcastable (..., 4) arrays, then of its mirror
    at (y, x): eval_point of each exact difference times unit_phase of the
    exact form, the complex product written out over real and imaginary
    parts as Python's complex * does.

    The mirror's difference and form are the exact negatives, so its angles
    are too, but for a zero's sign, which the product absorbs; as numpy's
    cos and sin are even and odd, the mirror is the same product of
    (g_re, 0.0 - g_im) and (p_re, 0.0 - p_im), not the conjugate, whose
    zeros' signs differ where the product underflows."""
    # exp{-i s(x, y)} is the unit_phase of s(y, x)
    p_re, p_im = _phase(_form(y, x), 2 * scale * scale)
    g_re, g_im = _state_factor(state, [x[..., i] - y[..., i] for i in range(4)], scale)
    # an underflowed Gaussian factor gives an exact zero entry
    zero = (g_re == 0.0) & (g_im == 0.0)
    parts = []
    for gi, pi in ((g_im, p_im), (0.0 - g_im, 0.0 - p_im)):
        parts.append(np.where(zero, 0.0, g_re * p_re - gi * pi))
        parts.append(np.where(zero, 0.0, g_re * pi + gi * p_re))
    return tuple(parts)


def _form(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The int 2 L^2 s(x, y) of points scaled by L, coordinates last."""
    sym = x[..., 0] * y[..., 1] - x[..., 1] * y[..., 0]
    return sym + x[..., 2] * y[..., 3] - x[..., 3] * y[..., 2]


def _phase(s: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """unit_phase(s, q) for an int array s, as cos and sin: 1 and +0.0 at s = 0."""
    angle = np.asarray(s / q, dtype=float)
    return np.cos(angle), np.sin(angle)


def _state_factor(
    state: StateFunctional, z: list[np.ndarray], scale: int
) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of eval_point on the scaled integer points
    whose four coordinates are the arrays z, taken on the epr manifold."""
    if state.kind == KIND_EPR:
        return state.phases(z[0], z[1], scale)
    # float() of each exact coordinate
    f = [np.asarray(c / scale, dtype=float) for c in z]
    # left to right, as eval_point sums the squares
    arg = -(f[0] * f[0] + f[1] * f[1] + f[2] * f[2] + f[3] * f[3]) / 4.0
    # math.exp, not np.exp, whose last bit differs from libm's
    g_re = np.fromiter(map(math.exp, arg.ravel()), float, arg.size)
    return g_re.reshape(arg.shape), np.zeros(arg.shape)


def compress_operator(state: StateFunctional, frame, p: WeylPolynomial) -> np.ndarray:
    """C[j,k] = omega(W(x_j)* P W(x_k)) for the points x_j of a ``gns.GnsFrame``
    and a dimension-4 P of at most ``DEFAULT_TERM_CAP`` terms, the engine's cap.

    Each entry is the double eval_poly gives of the engine's product
    (W(x_j)* P) W(x_k), replayed on the integer lattice a block of P's
    terms c W(y) at a time: (1-0j) c times the phase of s(-x_j, y), then
    (1+0j) and the phase of s(y - x_j, x_k), each product's term dropped
    below ``ZERO_THRESHOLD`` as canonical form drops it, then eval_point at
    y - x_j + x_k, summed from 0j in P's order.  Every complex * is written
    out over real and imaginary parts as Python computes it; canonical
    form's 0j + v only clears a zero's sign, as the sum from 0j does.
    """
    if p.dim != 4:
        raise ValueError("compress_operator expects a dimension-4 polynomial")
    if len(p) > DEFAULT_TERM_CAP:
        raise TermBudgetError(f"product of 1 x {len(p)} terms exceeds cap {DEFAULT_TERM_CAP}")
    n = len(frame)
    out = np.zeros((n, n), dtype=complex)
    den, items = p.lattice_items()
    if not n or not items:
        return out
    frame_den, frame_ints = read_lattice(frame.points)
    scale = math.lcm(den, frame_den)
    xs = [tuple(v * (scale // frame_den) for v in q) for q in frame_ints]
    terms, coeffs = zip(*items)
    ys = [tuple(v * (scale // den) for v in q) for q in terms]
    # coordinates of y - x_j reach twice the largest input coordinate
    big = 2 * max(abs(v) for q in xs + ys for v in q)
    x, y = _lattice_array(xs, big, scale), _lattice_array(ys, big, scale)
    c = np.array(coeffs)
    a_re, a_im = 1.0 * c.real - -0.0 * c.imag, 1.0 * c.imag + -0.0 * c.real
    re, im = np.zeros((n, n)), np.zeros((n, n))
    for t in _passes(len(ys), n * n, _PASS_ENTRIES):
        z1 = y[t, None] - x  # terms by j
        p_re, p_im = _phase(_form(-x, y[t, None]), 2 * scale * scale)
        ar, ai = a_re[t, None], a_im[t, None]
        re1, im1 = ar * p_re - ai * p_im, ar * p_im + ai * p_re
        keep = np.hypot(re1, im1) >= ZERO_THRESHOLD
        b_re = (re1 * 1.0 - im1 * 0.0)[..., None]
        b_im = (re1 * 0.0 + im1 * 1.0)[..., None]
        q_re, q_im = _phase(_form(z1[:, :, None], x), 2 * scale * scale)
        re2, im2 = b_re * q_re - b_im * q_im, b_re * q_im + b_im * q_re
        keep = keep[..., None] & (np.hypot(re2, im2) >= ZERO_THRESHOLD)
        z2 = [z1[:, :, None, i] + x[:, i] for i in range(4)]
        if state.kind == KIND_EPR:
            # off the manifold eval_point is 0j, and a kept term, which is
            # finite, times 0j is a zero the sum absorbs: only kept terms get a phase
            keep &= (z2[0] + z2[2] == 0) & (z2[1] - z2[3] == 0)
            z2[:2] = [np.where(keep, v, 0) for v in z2[:2]]
        g_re, g_im = _state_factor(state, z2, scale)
        terms_re = np.where(keep, re2 * g_re - im2 * g_im, 0.0)
        terms_im = np.where(keep, re2 * g_im + im2 * g_re, 0.0)
        for term_re, term_im in zip(terms_re, terms_im):
            re += term_re
            im += term_im
    out.real, out.imag = re, im
    return out


def psd_check(m: np.ndarray) -> dict:
    """Report the minimum eigenvalue of a Hermitian matrix.

    Passes when lambda_min >= -PSD_TOL.  Rejects matrices that are not
    Hermitian within the same tolerance.

    The spectrum is taken per block.  When the exact nonzero pattern m != 0
    (made symmetric and reflexive) is transitive, as a kernel's support
    classes are, its classes are blocks that no nonzero entry joins, so m
    is a permutation of their direct sum and its spectrum is exactly the
    union of theirs.  Blocks of one size go to one stacked eigvalsh per
    bounded pass, so a kernel with classes of size s costs O(sum s^3), not
    O(n^3).  Any other pattern, such as a Gaussian that underflows along a
    path, is one block: m itself.
    """
    if m.size == 0:
        raise ValueError("cannot check an empty matrix")
    with np.errstate(invalid="ignore"):  # inf - inf is a nan deviation, which fails
        dev = float(np.max(np.abs(m - m.conj().T)))
    if not dev <= PSD_TOL:
        bad = np.argwhere(~np.isfinite(m))
        if len(bad):
            j, k = bad[0]
            raise ValueError(f"matrix entry ({j}, {k}) is {m[j, k]}, not a finite number")
        raise ValueError(f"matrix is not Hermitian within {PSD_TOL} (deviation {dev})")
    pattern = (m != 0) | (m.T != 0)
    np.fill_diagonal(pattern, True)
    labels = _classes(pattern)
    lam_min = math.inf
    for blocks in _by_size(np.zeros(len(m), int) if labels is None else labels):
        size = blocks.shape[1]
        for t in _passes(len(blocks), size * size, _PASS_ENTRIES):
            # one block of every index is m itself, in its own order
            sub = m if size == len(m) else m[blocks[t, :, None], blocks[t, None, :]]
            lam_min = min(lam_min, float(np.linalg.eigvalsh(sub).min()))
    return {"min_eigenvalue": lam_min, "passed": lam_min >= -PSD_TOL}


def _classes(related: np.ndarray) -> np.ndarray | None:
    """Each index labelled by its least related index, when the reflexive,
    symmetric boolean relation is transitive; None when it is not.

    Such a relation is transitive exactly when every row equals the row of
    its first related index, which then labels the class.
    """
    first = related.argmax(axis=1) if len(related) else np.zeros(0, dtype=int)
    return first if np.array_equal(related, related[first]) else None


def positivity_check(state: StateFunctional, p: WeylPolynomial) -> float:
    """omega(P* P) as a real number.

    Positivity of the state makes this nonnegative up to roundoff; tests
    assert that and also compare against the kernel quadratic form of
    P* = sum_j d_j W(y_j): omega(P*P) = sum_{j,k} d_j conj(d_k) M[j,k] with
    M = kernel_matrix(state, [y_j]).  The same form over the terms of P
    itself is omega(P P*).  The value is ``eval_product(state, adjoint(p),
    p)``: for the epr state only the pairs of terms in one support class
    are formed, and every bit is the full product's.
    """
    value = eval_product(state, adjoint(p), p)
    return float(value.real)


@dataclass(frozen=True, eq=False)
class SupportPartition:
    """Disjoint index classes S_1..S_m covering {0..n-1}, held as one label
    per index: the least index of its class."""

    labels: np.ndarray

    @property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """The classes in the order of their least indices, each increasing:
        the indices in stable label order, cut where the label changes."""
        order = np.argsort(self.labels, kind="stable")
        starts = np.flatnonzero(np.diff(self.labels[order], prepend=-1)).tolist()
        return tuple(tuple(order[i:j].tolist()) for i, j in zip(starts, starts[1:] + [None]))


def support_relation(m: np.ndarray) -> SupportPartition:
    """Partition the indices of a kernel matrix by the relation (j,k)
    related iff |M[j,k]| > SUPPORT_ZERO_TOL.

    ``m`` is the matrix ``kernel_matrix`` built, so each battery's kernel is
    built once.  Verifies that the relation really is an equivalence
    (reflexive, symmetric, transitive) before returning its classes;
    failure raises ``EquivalenceError``.  For the strictly correlated kernel
    the relation is the kernel of the invariant map x -> (a+c, b-d), so it
    always passes; regular kernels with thresholded tails can genuinely fail.
    """
    related = np.abs(m) > SUPPORT_ZERO_TOL
    if not np.all(np.diag(related)):
        raise EquivalenceError("support relation is not reflexive")
    if not np.array_equal(related, related.T):
        raise EquivalenceError("support relation is not symmetric")
    labels = _classes(related)
    if labels is None:
        raise EquivalenceError("support relation is not transitive")
    return SupportPartition(labels)


def rank_one_class_check(m: np.ndarray, partition: SupportPartition) -> dict:
    """Measure the rank-one phase structure of the kernel on each class.

    Within a class every entry must be unimodular and satisfy the cocycle
    M[j,k] M[k,l] = M[j,l], which is equivalent to a factorization
    M[j,k] = alpha_j conj(alpha_k) with unimodular alphas; across classes
    the kernel must vanish.
    """
    # Moduli via hypot and products written out over real and imaginary
    # parts: numpy's SIMD abs and complex * differ from scalar arithmetic in
    # the last bit, and these values match the scalar ones exactly.
    label = partition.labels
    same = label[:, None] == label[None, :]
    max_cocycle_dev = 0.0
    for cls in _by_size(label):
        for t in _passes(len(cls), cls.shape[1] ** 2, _PASS_ENTRIES):
            block = cls[t, :, None], cls[t, None, :]
            re, im = m.real[block], m.imag[block]
            # M[j,k] M[k,l] - M[j,l] over all (j, l) of the pass's classes
            # at once, a pass of k at a time
            for k in _passes(cls.shape[1], re.size, _PASS_ENTRIES):
                a, b = re[:, :, k, None].swapaxes(1, 2), im[:, :, k, None].swapaxes(1, 2)
                rk, ik = re[:, k, None, :], im[:, k, None, :]
                dev = _max_hypot(a * rk - b * ik - re[:, None], a * ik + b * rk - im[:, None])
                max_cocycle_dev = max(max_cocycle_dev, dev)
    modulus = np.hypot(m.real[same], m.imag[same])
    max_modulus_dev = float(np.max(np.abs(modulus - 1.0), initial=0.0))
    max_cross_leak = _max_hypot(m.real[~same], m.imag[~same])
    return {
        "max_modulus_dev": max_modulus_dev,
        "max_cocycle_dev": max_cocycle_dev,
        "max_cross_leak": max_cross_leak,
    }


def _max_hypot(x: np.ndarray, y: np.ndarray) -> float:
    """The largest np.hypot(x, y), 0.0 for none, taken only where it can be
    largest: hypot is within an ulp of the modulus and x*x + y*y within two
    of its square, so a square short of the largest by 2^-40 of it has the
    smaller hypot.  Where squares leave the normal doubles, every nonzero
    entry counts."""
    square = x * x + y * y
    top = square.max(initial=0.0)
    if 2.0**-960 <= top < math.inf:
        keep = square >= top * (1 - 2.0**-40)
    else:
        keep = (x != 0) | (y != 0)
    return float(np.hypot(x[keep], y[keep]).max(initial=0.0))


def uniqueness_support_check(state: StateFunctional, x: Point) -> dict:
    """The exact value trichotomy on a single generator.

    Off the manifold {c = -a, d = b} the value must be an exact zero; on it,
    within IDENTITY_TOL, the product of the values the defining families
    fix: omega(W(a,0) x W(-a,0)) = e^{i a lambda}, omega(W(0,b) x W(0,b)) = e^{i b mu}.
    """
    if state.kind != KIND_EPR:
        raise ValueError("uniqueness support check applies to the epr state")
    den, (x,) = read_lattice([x], None)
    value = eval_point(state, x, den)  # which checks the dimension
    a, b, c, d = x
    on_manifold = (c == -a) and (d == b)
    expected = 0j
    if on_manifold:
        expected = eval_point(state, (a, 0, -a, 0), den) * eval_point(state, (0, b, 0, b), den)
    deviation = abs(value - expected)
    return {
        "on_manifold": on_manifold,
        "value": value,
        "expected": expected,
        "deviation": float(deviation),
        "passed": deviation <= IDENTITY_TOL and (on_manifold or value == 0),
    }


def multiplicativity_check(
    state: StateFunctional,
    s: Fraction,
    t: Fraction,
    probes: Iterable[Point] = (),
) -> dict:
    """Multiplicativity of the state against the correlated abelian family.

    With A = W(s,0) x W(-s,0) and B = W(0,t) x W(0,t), checks
    omega(AB) = omega(A) omega(B), and for each probe point x checks
    omega(A W(x)) = omega(A) omega(W(x)) and the reversed order, for both
    A and B.  Each probe must have 4 coordinates; an error names the probe.
    """
    den, ((s, t),) = read_lattice([(s, t)], None)
    probe_den, probe_ints = read_lattice(probes, "probe")
    a_poly = WeylPolynomial.generator((s, 0, -s, 0), den)
    b_poly = WeylPolynomial.generator((0, t, 0, t), den)
    wa, wb = eval_poly(state, a_poly), eval_poly(state, b_poly)
    deviations = [abs(eval_poly(state, weyl_multiply(a_poly, b_poly)) - wa * wb)]
    for i, x in enumerate(probe_ints):
        if len(x) != 4:
            raise ValueError(f"probe {i}: states are defined on the dimension-4 algebra,"
                             f" got {len(x)} coordinates")
        # each probe is brought to its own least L, so sharing one costs no bit
        x_poly = WeylPolynomial.generator(x, probe_den)
        wx = eval_poly(state, x_poly)
        for fixed, wf in ((a_poly, wa), (b_poly, wb)):
            deviations.append(abs(eval_poly(state, weyl_multiply(fixed, x_poly)) - wf * wx))
            deviations.append(abs(eval_poly(state, weyl_multiply(x_poly, fixed)) - wx * wf))
    max_dev = float(max(deviations))
    return {"max_deviation": max_dev, "passed": max_dev <= IDENTITY_TOL}


def trace_vector_check(
    state: StateFunctional, p: WeylPolynomial, q: WeylPolynomial, slot: int
) -> dict:
    """omega(embed(P) embed(Q)) = omega(embed(Q) embed(P)) for one-particle P, Q."""
    if p.dim != 2 or q.dim != 2:
        raise ValueError("trace_vector_check expects dimension-2 polynomials")
    p, q = tensor_embed(p, slot), tensor_embed(q, slot)
    forward = eval_poly(state, weyl_multiply(p, q))
    reverse = eval_poly(state, weyl_multiply(q, p))
    deviation = abs(forward - reverse)
    return {
        "forward": forward,
        "reverse": reverse,
        "deviation": float(deviation),
        "passed": deviation <= IDENTITY_TOL,
    }


def traciality_check(state: StateFunctional, a: Point, b: Point) -> dict:
    """omega(W(a)W(b) x I) = omega(W(b)W(a) x I) for one-particle points.

    ``trace_vector_check`` on the two generators in slot 1, read together
    and each at its own least L, with a stricter verdict: when b != -a both
    sides must also be exact zeros; when b = -a both reduce to omega(I) = 1.
    """
    den, (a, b) = read_lattice([a, b], None)
    if len(a) != 2 or len(b) != 2:
        raise ValueError("traciality_check expects dimension-2 points")
    ga, gb = WeylPolynomial.generator(a, den), WeylPolynomial.generator(b, den)
    res = trace_vector_check(state, ga, gb, 1)
    inverse = adjoint(ga) == gb  # b = -a, exactly: canonical form is unique
    passed = res["passed"] and (inverse or res["forward"] == res["reverse"] == 0)
    return {**res, "passed": passed}
