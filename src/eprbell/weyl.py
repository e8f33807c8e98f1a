"""Exact symbolic arithmetic for Weyl algebras over R^2 and R^4.

A Weyl generator W(x) is labelled by a phase-space point x, and products
follow the exponentiated canonical commutation relations

    W(x) W(y) = exp{i s(x, y)} W(x + y),

where s((a,b), (a',b')) = (a*b' - b*a')/2 on R^2 and the direct sum of two
such forms on R^4.  Finite complex combinations of generators make up the
dense polynomial subalgebra that every other module evaluates against.

Support decisions (does a point vanish, do two points coincide) must be
exact, so coordinates are `fractions.Fraction`.  Coefficients and the
transcendental phases exp{i s(x, y)} live in double precision; exactness is
reserved for the rational support logic.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping

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
    if isinstance(c, (bool, float)):
        raise ValueError(f"coordinate {i} is {c!r}; give it as a string or an int")
    try:
        return Fraction(c)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"coordinate {i} is {c!r}: {exc}") from None


def parse_points(rows: Iterable, label: str = "point") -> list[Point]:
    """``point(*row)`` for each row, naming the row's index in any error."""
    pts = []
    for i, row in enumerate(rows):
        try:
            pts.append(point(*row))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{label} {i}: {exc}") from None
    return pts


def negate(x: Point) -> Point:
    return tuple(-c for c in x)


def add_points(x: Point, y: Point) -> Point:
    if len(x) != len(y):
        raise ValueError("cannot add points of different dimension")
    return tuple(a + b for a, b in zip(x, y))


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


def phase_form(x: Point, y: Point) -> Fraction:
    """Dispatch to the form matching the point dimension."""
    if len(x) == 2:
        return symplectic_form(x, y)
    return direct_sum_form(x, y)


def unit_phase(angle: Fraction | float) -> complex:
    """exp(i*angle), returning an exact 1 when the angle is exactly zero."""
    t = float(angle)
    if t == 0.0:
        return complex(1.0, 0.0)
    return cmath.rect(1.0, t)


class WeylPolynomial:
    """A finite combination sum_k c_k W(x_k), stored sparsely in canonical form.

    Canonical form keeps at most one term per point and drops coefficients
    with modulus below ``ZERO_THRESHOLD``.  Instances are immutable by
    convention: all arithmetic returns new polynomials.
    """

    __slots__ = ("_dim", "_terms")

    def __init__(
        self,
        dim: int,
        terms: Mapping[Point, complex] | Iterable[tuple[Point, complex]] = (),
    ):
        if dim not in VALID_DIMS:
            raise ValueError(f"polynomial dimension must be 2 or 4, got {dim}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Point, complex] = {}
        for pt, coeff in items:
            pt = tuple(Fraction(c) for c in pt)
            if len(pt) != dim:
                raise ValueError(
                    f"point of length {len(pt)} in a dimension-{dim} polynomial"
                )
            acc[pt] = acc.get(pt, 0j) + complex(coeff)
        self._dim = dim
        self._terms = {p: c for p, c in acc.items() if abs(c) >= ZERO_THRESHOLD}

    @classmethod
    def _raw(cls, dim: int, terms: dict[Point, complex]) -> "WeylPolynomial":
        """Trusted constructor for internal arithmetic: the terms dict must
        already have canonical points; only the zero-threshold filter runs."""
        self = object.__new__(cls)
        self._dim = dim
        self._terms = {p: c for p, c in terms.items() if abs(c) >= ZERO_THRESHOLD}
        return self

    @classmethod
    def generator(cls, pt: Point, coefficient: complex = 1.0) -> "WeylPolynomial":
        """The single term coefficient * W(pt)."""
        pt = tuple(Fraction(c) for c in pt)
        return cls(len(pt), {pt: complex(coefficient)})

    @classmethod
    def identity(cls, dim: int) -> "WeylPolynomial":
        zero = (Fraction(0),) * dim
        return cls(dim, {zero: 1.0 + 0j})

    @classmethod
    def zero(cls, dim: int) -> "WeylPolynomial":
        return cls(dim, {})

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def terms(self) -> Mapping[Point, complex]:
        return MappingProxyType(self._terms)

    def points(self) -> list[Point]:
        return list(self._terms.keys())

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeylPolynomial):
            return NotImplemented
        return self._dim == other._dim and self._terms == other._terms

    def __neg__(self) -> "WeylPolynomial":
        return WeylPolynomial._raw(
            self._dim, {p: -c for p, c in self._terms.items()}
        )

    def __add__(self, other: "WeylPolynomial") -> "WeylPolynomial":
        if not isinstance(other, WeylPolynomial):
            return NotImplemented
        if self._dim != other._dim:
            raise ValueError("cannot add polynomials of different dimension")
        acc = dict(self._terms)
        for p, c in other._terms.items():
            acc[p] = acc.get(p, 0j) + c
        return WeylPolynomial._raw(self._dim, acc)

    def __sub__(self, other: "WeylPolynomial") -> "WeylPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, WeylPolynomial):
            return weyl_multiply(self, other)
        return WeylPolynomial._raw(
            self._dim, {p: c * complex(other) for p, c in self._terms.items()}
        )

    def __rmul__(self, other) -> "WeylPolynomial":
        return WeylPolynomial._raw(
            self._dim, {p: complex(other) * c for p, c in self._terms.items()}
        )

    def __repr__(self) -> str:
        if not self._terms:
            return f"WeylPolynomial(dim={self._dim}, 0)"
        parts = [
            f"({c:.6g})*W({', '.join(str(x) for x in p)})"
            for p, c in sorted(self._terms.items())
        ]
        return " + ".join(parts)


def weyl_multiply(p: WeylPolynomial, q: WeylPolynomial) -> WeylPolynomial:
    """Product of two polynomials under W(x)W(y) = exp{i s(x,y)} W(x+y).

    The bilinear extension is exact in the points and accumulates phases in
    double precision.  Raises ``TermBudgetError`` when a factor or the
    pairwise expansion would exceed ``DEFAULT_TERM_CAP`` terms.
    """
    if p.dim != q.dim:
        raise ValueError("cannot multiply polynomials of different dimension")
    cap = DEFAULT_TERM_CAP
    if len(p) > cap or len(q) > cap or len(p) * len(q) > cap:
        raise TermBudgetError(f"product of {len(p)} x {len(q)} terms exceeds cap {cap}")
    acc: dict[Point, complex] = {}
    for x, a in p.terms.items():
        for y, b in q.terms.items():
            z = add_points(x, y)
            acc[z] = acc.get(z, 0j) + a * b * unit_phase(phase_form(x, y))
    return WeylPolynomial._raw(p.dim, acc)


def adjoint(p: WeylPolynomial) -> WeylPolynomial:
    """sum c_k W(x_k)  ->  sum conj(c_k) W(-x_k); the generators are unitary."""
    return WeylPolynomial._raw(
        p.dim, {negate(x): c.conjugate() for x, c in p.terms.items()}
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
    zero = Fraction(0)
    if slot == 1:
        terms = {(x[0], x[1], zero, zero): c for x, c in p.terms.items()}
    else:
        terms = {(zero, zero, x[0], x[1]): c for x, c in p.terms.items()}
    return WeylPolynomial._raw(4, terms)


def one_norm(p: WeylPolynomial) -> float:
    """sum |c_k|: an upper bound on the operator norm (each W is unitary)."""
    return float(sum(abs(c) for c in p.terms.values()))


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
        if not cmath.isfinite(coeff):
            raise ValueError(f"record {i}: coefficient {coeff} is not finite")
        terms.append((pt, coeff))
    inferred = len(pts[0])
    if dim is not None and dim != inferred:
        raise ValueError(f"records have dimension {inferred}, expected {dim}")
    return WeylPolynomial(inferred, terms)
