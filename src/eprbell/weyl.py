"""Exact symbolic arithmetic for Weyl algebras over R^2 and R^4.

A Weyl generator W(x) is labelled by a phase-space point x, and products
follow the exponentiated canonical commutation relations

    W(x) W(y) = exp{i s(x, y)} W(x + y),

where s((a,b), (a',b')) = (a*b' - b*a')/2 on R^2 and the direct sum of two
such forms on R^4.  Finite complex combinations of generators make up the
dense polynomial subalgebra that every other module evaluates against.

Support decisions (does a point vanish, do two points coincide) must be
exact, so coordinates are exact rationals: a polynomial holds its points as
Python ints over one common denominator, and hands them out as
`fractions.Fraction`.  Coefficients and the phases exp{i s(x, y)} are
doubles; ``unit_phase(s, q)`` makes each phase from the exact angle s/q
rounded to a double, so its absolute error is about |s/q| 2^-53, and
false FAILs start at coordinates near 10^8.
"""

from __future__ import annotations

import cmath
import math
import re
from fractions import Fraction
from types import MappingProxyType
from typing import ItemsView, Iterable, Mapping

Point = tuple[Fraction, ...]

#: Coefficients below this modulus are dropped during canonicalization.
ZERO_THRESHOLD = 1e-15

#: Bound on term counts accepted by products (term counts square).
DEFAULT_TERM_CAP = 4096

VALID_DIMS = (2, 4)


class TermBudgetError(RuntimeError):
    """A product would exceed the polynomial term cap."""


def point(*coords: int | str | Fraction) -> Point:
    """Build a phase-space point with exact rational coordinates.

    Accepts ints, Fractions, or strings like "3/4".  Floats and bools are
    rejected (a JSON 0.1 is not 1/10, and true is not a number), and so is a
    zero denominator; the error names the coordinate.  Length must be 2
    (one degree of freedom) or 4 (the composite system).
    """
    if len(coords) not in VALID_DIMS:
        raise ValueError(
            f"phase-space points have 2 or 4 coordinates, got {len(coords)}"
        )
    return tuple(_coordinate(i, c) for i, c in enumerate(coords))


def _coordinate(i: int, c) -> Fraction:
    if type(c) is Fraction:
        return c
    if isinstance(c, (bool, float)):
        raise ValueError(f"coordinate {i} is {c!r}; give it as a string or an int")
    try:
        return Fraction(c)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"coordinate {i} is {c!r}: {exc}") from None


def parse_points(rows: Iterable, label: str = "point") -> list[Point]:
    """``point(*row)`` for each row, naming the row's index in any error.

    A row must be a list, as a JSON array reads, or a tuple: a string such
    as "0000" would otherwise unpack into coordinates.
    """
    pts = []
    for i, row in enumerate(rows):
        try:
            if not isinstance(row, (list, tuple)):
                raise ValueError(f"a point is an array of coordinates, not {row!r}")
            pts.append(point(*row))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{label} {i}: {exc}") from None
    return pts


def parse_lattice(
    rows: Iterable, label: str = "point"
) -> tuple[int, list[tuple[int, ...]]]:
    """``lattice(parse_points(rows, label))``, without a ``Fraction``.

    Ints, and ASCII strings "p" or "p/q" with q nonzero, are read straight
    to reduced int ratios, once per distinct coordinate.  A file with any
    other row or coordinate goes through ``parse_points``, so the accepted
    coordinates, the values and every error are the same.
    """
    rows = list(rows)
    ratios: dict[int | str, tuple[int, int]] = {}
    for row in rows:
        if not isinstance(row, (list, tuple)) or len(row) not in VALID_DIMS:
            return lattice(parse_points(rows, label))
        for c in row:
            # an exact type: a bool or a float may equal an int key
            if type(c) is not str and type(c) is not int:
                return lattice(parse_points(rows, label))
            if c not in ratios:
                ratios[c] = _ratio(c)
                if ratios[c] is None:
                    return lattice(parse_points(rows, label))
    den = math.lcm(*(q for _, q in ratios.values()))
    scaled = {c: p * (den // q) for c, (p, q) in ratios.items()}
    return den, [tuple(map(scaled.__getitem__, row)) for row in rows]


#: The coordinate strings ``parse_lattice`` reads itself; Fraction reads
#: each of them to the same value.
_RATIO = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _ratio(c: int | str) -> tuple[int, int] | None:
    """The reduced numerator and denominator of an int, or of a ``_RATIO``
    string with a nonzero denominator; None for any other string."""
    if type(c) is int:
        return c, 1
    match = _RATIO.fullmatch(c)
    try:  # Fraction refuses a string past int()'s digit limit, as int() does
        p, q = (int(match[1]), int(match[2] or 1)) if match else (0, 0)
    except ValueError:
        return None
    g = math.gcd(p, q)
    return (p // g, q // g) if q else None


def negate(x: Point) -> Point:
    return tuple(-c for c in x)


def symplectic_form(x: Point, y: Point) -> Fraction:
    """The form (x1*y2 - x2*y1)/2 on R^2, computed exactly."""
    if len(x) != 2 or len(y) != 2:
        raise ValueError("symplectic_form expects two points of dimension 2")
    return (x[0] * y[1] - x[1] * y[0]) / 2


def direct_sum_form(x: Point, y: Point) -> Fraction:
    """Sum of the symplectic form over both coordinate pairs of R^4."""
    if len(x) != 4 or len(y) != 4:
        raise ValueError("direct_sum_form expects two points of dimension 4")
    return (x[0] * y[1] - x[1] * y[0] + x[2] * y[3] - x[3] * y[2]) / 2


def unit_phase(s: int | Fraction | float, q: int = 1) -> complex:
    """exp(i s/q) from the double nearest the exact ratio s/q, an exact 1
    at a zero angle.  Its array form is ``states._phase``."""
    t = s / q
    if t == 0:
        return complex(1.0, 0.0)
    return cmath.rect(1.0, t)


class WeylPolynomial:
    """A finite combination sum_k c_k W(x_k), stored sparsely in canonical form.

    Canonical form keeps at most one term per point and drops coefficients
    with modulus below ``ZERO_THRESHOLD``.  Points are stored on an integer
    lattice: ``_den`` is the least common denominator L of all coordinates
    and each key of ``_terms`` is a point times L, as Python ints, so sums,
    forms and hashes are integer arithmetic.  ``lattice_items`` hands out
    L and those int points; ``terms`` and ``points`` give the reduced
    ``Fraction`` points.  Instances are immutable by convention:
    all arithmetic returns new polynomials.
    """

    __slots__ = ("_dim", "_den", "_terms")

    def __init__(
        self,
        dim: int,
        terms: Mapping[Point, complex] | Iterable[tuple[Point, complex]] = (),
    ):
        if dim not in VALID_DIMS:
            raise ValueError(f"polynomial dimension must be 2 or 4, got {dim}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        pts, coeffs = [], []
        for pt, coeff in items:
            pt = tuple(_coordinate(i, c) for i, c in enumerate(pt))
            if len(pt) != dim:
                raise ValueError(
                    f"point of length {len(pt)} in a dimension-{dim} polynomial"
                )
            pts.append(pt)
            coeffs.append(complex(coeff))
        den, ints = lattice(pts)
        acc: dict[tuple[int, ...], complex] = {}
        for p, c in zip(ints, coeffs):
            acc[p] = acc.get(p, 0j) + c
        self._dim = dim
        self._den, self._terms = _reduced(den, acc)

    @classmethod
    def _raw(
        cls, dim: int, den: int, terms: dict[tuple[int, ...], complex]
    ) -> "WeylPolynomial":
        """Trusted constructor for internal arithmetic on lattice points over
        the denominator ``den``."""
        self = object.__new__(cls)
        self._dim = dim
        self._den, self._terms = _reduced(den, terms)
        return self

    @classmethod
    def generator(cls, pt: Point, coefficient: complex = 1.0) -> "WeylPolynomial":
        """The single term coefficient * W(pt)."""
        return cls(len(pt), [(pt, coefficient)])

    @classmethod
    def identity(cls, dim: int) -> "WeylPolynomial":
        return cls(dim, {(0,) * dim: 1.0 + 0j})

    @classmethod
    def zero(cls, dim: int) -> "WeylPolynomial":
        return cls(dim, {})

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def terms(self) -> Mapping[Point, complex]:
        return MappingProxyType(dict(zip(self.points(), self._terms.values())))

    def points(self) -> list[Point]:
        den = self._den
        return [tuple(Fraction(v, den) for v in p) for p in self._terms]

    def lattice_items(self) -> tuple[int, ItemsView[tuple[int, ...], complex]]:
        """The least common denominator L and a read-only view of the terms
        keyed by their points times L, as tuples of ints, in insertion
        order: term x maps to the point x / L."""
        return self._den, self._terms.items()

    def _over(self, den: int) -> dict[tuple[int, ...], complex]:
        """The terms with points over ``den``, a multiple of ``_den``."""
        k = den // self._den
        if k == 1:
            return self._terms
        return {tuple(v * k for v in p): c for p, c in self._terms.items()}

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeylPolynomial):
            return NotImplemented
        return (
            self._dim == other._dim
            and self._den == other._den
            and self._terms == other._terms
        )

    def __neg__(self) -> "WeylPolynomial":
        return WeylPolynomial._raw(
            self._dim, self._den, {p: -c for p, c in self._terms.items()}
        )

    def __add__(self, other: "WeylPolynomial") -> "WeylPolynomial":
        if not isinstance(other, WeylPolynomial):
            return NotImplemented
        if self._dim != other._dim:
            raise ValueError("cannot add polynomials of different dimension")
        den = math.lcm(self._den, other._den)
        acc = dict(self._over(den))
        for p, c in other._over(den).items():
            acc[p] = acc.get(p, 0j) + c
        return WeylPolynomial._raw(self._dim, den, acc)

    def __sub__(self, other: "WeylPolynomial") -> "WeylPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, WeylPolynomial):
            return weyl_multiply(self, other)
        return WeylPolynomial._raw(
            self._dim,
            self._den,
            {p: c * complex(other) for p, c in self._terms.items()},
        )

    # called only when the left operand is not a polynomial, and a complex
    # product has the same bits in either order
    __rmul__ = __mul__

    def __repr__(self) -> str:
        if not self._terms:
            return f"WeylPolynomial(dim={self._dim}, 0)"
        parts = [
            f"({c:.6g})*W({', '.join(str(x) for x in p)})"
            for p, c in sorted(self.terms.items())
        ]
        return " + ".join(parts)


def _reduced(
    den: int, terms: dict[tuple[int, ...], complex]
) -> tuple[int, dict[tuple[int, ...], complex]]:
    """Canonical form of lattice terms over ``den``: drops coefficients below
    the zero threshold, then divides out the gcd of ``den`` and every
    coordinate so ``den`` is least again."""
    terms = {p: c for p, c in terms.items() if abs(c) >= ZERO_THRESHOLD}
    g = math.gcd(den, *(v for p in terms for v in p))
    if g > 1:
        den //= g
        terms = {tuple(v // g for v in p): c for p, c in terms.items()}
    return den, terms


def lattice(points: Iterable[Point]) -> tuple[int, list[tuple[int, ...]]]:
    """The least common denominator L of the points' rational coordinates,
    and each point times L as a tuple of ints, in the given order."""
    points = list(points)
    den = math.lcm(*(c.denominator for p in points for c in p))
    return den, [tuple(c.numerator * (den // c.denominator) for c in p) for p in points]


def weyl_multiply(p: WeylPolynomial, q: WeylPolynomial) -> WeylPolynomial:
    """Product of two polynomials under W(x)W(y) = exp{i s(x,y)} W(x+y).

    Both factors are put over one denominator L, so each sum point is exact
    integer addition and each form is an integer s over 2 L^2.  Coefficients
    and phases accumulate in double precision, p-major and q-minor.  Raises
    ``TermBudgetError`` when a factor or the pairwise expansion would exceed
    ``DEFAULT_TERM_CAP`` terms.
    """
    if p.dim != q.dim:
        raise ValueError("cannot multiply polynomials of different dimension")
    cap = DEFAULT_TERM_CAP
    if len(p) > cap or len(q) > cap or len(p) * len(q) > cap:
        raise TermBudgetError(f"product of {len(p)} x {len(q)} terms exceeds cap {cap}")
    den = math.lcm(p._den, q._den)
    two_l2 = 2 * den * den
    ps, qs = p._over(den).items(), q._over(den).items()
    acc: dict[tuple[int, ...], complex] = {}
    if p.dim == 2:
        for (x0, x1), a in ps:
            for (y0, y1), b in qs:
                z = (x0 + y0, x1 + y1)
                s = x0 * y1 - x1 * y0
                acc[z] = acc.get(z, 0j) + a * b * unit_phase(s, two_l2)
    else:
        for (x0, x1, x2, x3), a in ps:
            for (y0, y1, y2, y3), b in qs:
                z = (x0 + y0, x1 + y1, x2 + y2, x3 + y3)
                s = x0 * y1 - x1 * y0 + x2 * y3 - x3 * y2
                acc[z] = acc.get(z, 0j) + a * b * unit_phase(s, two_l2)
    return WeylPolynomial._raw(p.dim, den, acc)


def adjoint(p: WeylPolynomial) -> WeylPolynomial:
    """sum c_k W(x_k)  ->  sum conj(c_k) W(-x_k); the generators are unitary."""
    return WeylPolynomial._raw(
        p.dim,
        p._den,
        {tuple(-v for v in x): c.conjugate() for x, c in p._terms.items()},
    )


def tensor_embed(p: WeylPolynomial, slot: int) -> WeylPolynomial:
    """Embed a one-particle polynomial into the composite algebra.

    Slot 1 maps (a,b) to (a,b,0,0); slot 2 maps (c,d) to (0,0,c,d).
    Coefficients are preserved; embedded factors from different slots commute
    exactly because the direct-sum form vanishes across slots.
    """
    if p.dim != 2:
        raise ValueError("tensor_embed expects a dimension-2 polynomial")
    if slot not in (1, 2):
        raise ValueError(f"slot must be 1 or 2, got {slot}")
    if slot == 1:
        terms = {(a, b, 0, 0): c for (a, b), c in p._terms.items()}
    else:
        terms = {(0, 0, a, b): c for (a, b), c in p._terms.items()}
    return WeylPolynomial._raw(4, p._den, terms)


def one_norm(p: WeylPolynomial) -> float:
    """sum |c_k|: an upper bound on the operator norm (each W is unitary)."""
    return float(sum(abs(c) for c in p._terms.values()))


def is_self_adjoint(p: WeylPolynomial, tol: float) -> bool:
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    return one_norm(p - adjoint(p)) <= tol


def to_records(p: WeylPolynomial) -> list[dict]:
    """Serialize to a list of {point, re, im} records, sorted for determinism."""
    return [
        {"point": [str(x) for x in pt], "re": float(c.real), "im": float(c.imag)}
        for pt, c in sorted(p.terms.items())
    ]


def from_records(records: list[dict], dim: int | None = None) -> WeylPolynomial:
    """Rebuild a polynomial from records; re-canonicalizes on load.

    The dimension is inferred from the first point unless given explicitly
    (required for an empty record list).
    """
    if not records:
        if dim is None:
            raise ValueError("cannot infer dimension from an empty record list")
        return WeylPolynomial.zero(dim)
    pts = parse_points((rec["point"] for rec in records), "record")
    terms = []
    for i, (pt, rec) in enumerate(zip(pts, records)):
        coeff = complex(float(rec["re"]), float(rec["im"]))
        # abs() of a finite coefficient can still overflow, in canonical form
        if not math.isfinite(math.hypot(coeff.real, coeff.imag)):
            raise ValueError(
                f"record {i}: the modulus of coefficient {coeff} is not a finite double"
            )
        terms.append((pt, coeff))
    inferred = len(pts[0])
    if dim is not None and dim != inferred:
        raise ValueError(f"records have dimension {inferred}, expected {dim}")
    return WeylPolynomial(inferred, terms)
