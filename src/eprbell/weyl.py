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
`fractions.Fraction`.  Every coordinate reaches it through ``read_lattice``
once (``generator(row, den)`` takes the reader's own rows), and no lattice
passes ``LATTICE_BITS``.  Coefficients and the phases exp{i s(x, y)} are
doubles; ``unit_phase(s, q)`` makes each phase from the exact angle s/q
rounded to a double, so its absolute error is about |s/q| 2^-53, and false
FAILs start at coordinates near 10^8.
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


#: Bound on the bits of a lattice denominator and of a coordinate over it.
LATTICE_BITS = 4096


class TermBudgetError(RuntimeError):
    """A resource cap was hit: a product would exceed the term cap, a
    lattice ``LATTICE_BITS``, or a Bell search its evaluation cap."""


def _over_budget(what: str, n: int) -> TermBudgetError:
    return TermBudgetError(f"{what} has {n.bit_length()} bits, past the {LATTICE_BITS}-bit budget")


def read_lattice(
    rows: Iterable, label: str | None = "point"
) -> tuple[int, list[tuple[int, ...]]]:
    """The least common denominator L of rows of 2 or 4 exact rational
    coordinates, and each row times L as a tuple of ints.

    A coordinate is an int, a ``Fraction`` or a string such as "3/4" ("p"
    and "p/q" are read directly, each distinct string once, and other
    strings through ``Fraction``).  Floats, bools (a JSON 0.1 is not 1/10)
    and zero denominators are refused, naming the coordinate and, unless
    ``label`` is None, the row.  A ``TermBudgetError`` is raised at the
    first row that takes L past ``LATTICE_BITS``, or after the last if a
    scaled coordinate passes it.
    """
    strings: dict[str, tuple[int, int]] = {}
    read, den = [], 1
    for i, row in enumerate(rows):
        try:
            if not isinstance(row, (list, tuple)):
                raise ValueError(f"a point is an array of coordinates, not {row!r}")
            if len(row) not in VALID_DIMS:
                raise ValueError(f"phase-space points have 2 or 4 coordinates, got {len(row)}")
            pt = []
            for j, c in enumerate(row):
                ratio = strings.get(c) if type(c) is str else None
                if ratio is None:
                    ratio = _ratio(j, c)
                    den = math.lcm(den, ratio[1])
                    if type(c) is str:
                        strings[c] = ratio
                pt.append(ratio)
        except ValueError as exc:
            if label is None:
                raise
            raise ValueError(f"{label} {i}: {exc}") from None
        if den.bit_length() > LATTICE_BITS:
            raise _over_budget(f"{label or 'point'} {i}: the common denominator", den)
        read.append(pt)
    ints = [tuple([p * (den // q) for p, q in pt]) for pt in read]
    big = max(max(map(max, ints)), -min(map(min, ints))) if ints else 0
    if big.bit_length() > LATTICE_BITS:
        raise _over_budget("a coordinate scaled to the common denominator", big)
    return den, ints


#: The strings ``_ratio`` reads itself, each to the value Fraction gives.
_RATIO = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _ratio(j: int, c) -> tuple[int, int]:
    """The reduced numerator and denominator of coordinate ``j``."""
    if type(c) is Fraction:
        return c.as_integer_ratio()
    if type(c) is int:
        return c, 1
    if type(c) is str and (match := _RATIO.fullmatch(c)):
        try:  # past int()'s digit limit, Fraction refuses it as int() does
            p, q = int(match[1]), int(match[2] or 1)
        except ValueError:
            q = 0
        if q:
            g = math.gcd(p, q)
            return p // g, q // g
    if isinstance(c, (bool, float)):
        raise ValueError(f"coordinate {j} is {c!r}; give it as a string or an int")
    try:
        c = Fraction(c)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"coordinate {j} is {c!r}: {exc}") from None
    return c.numerator, c.denominator


def read_number(value, what: str) -> float:
    """A JSON number or numeric string as float() reads it.  JSON true/false
    and null are refused, and so is an integer past the doubles, naming
    ``what`` without echoing its digits."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"{what} is past the range of a double") from None
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{what} must be a number, got {value!r}")


def point(*coords: int | str | Fraction) -> Point:
    """A point of 2 or 4 coordinates as ``parse_points`` reads it, with no row label."""
    return parse_points([coords], None)[0]


def parse_points(rows: Iterable, label: str | None = "point") -> list[Point]:
    """The rows as ``read_lattice(rows, label)`` reads them, as points of
    ``Fraction`` coordinates."""
    den, ints = read_lattice(rows, label)
    return [tuple(Fraction(v, den) for v in p) for p in ints]


def negate(x: Point) -> Point:
    return tuple(-c for c in x)


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
    all arithmetic returns new polynomials, each with a terms dict of its own.

    Only the operations that can break canonical form restore it with
    ``_reduced``: the constructor and ``from_records`` (they merge
    duplicates and take any coefficient), sums and products (terms merge
    and cancel), scalar products (a coefficient can shrink or become nan)
    and ``generator`` (a row's given L can be more than least).  Negation,
    ``adjoint`` and ``tensor_embed`` keep every |c|, and negating or
    appending zero coordinates keeps gcd(L, coordinates) at 1, so they build
    their result with ``_raw`` directly.
    """

    __slots__ = ("_dim", "_den", "_terms")

    def __init__(
        self,
        dim: int,
        terms: Mapping[Point, complex] | Iterable[tuple[Point, complex]] = (),
    ):
        if dim not in VALID_DIMS:
            raise ValueError(f"polynomial dimension must be 2 or 4, got {dim}")
        items = list(terms.items() if isinstance(terms, Mapping) else terms)
        den, ints = read_lattice([pt for pt, _ in items], None)
        coeffs = [complex(c) for _, c in items]
        self._dim = dim
        self._den, self._terms = _reduced(den, _merged(dim, ints, coeffs))

    @classmethod
    def _raw(
        cls, dim: int, den: int, terms: dict[tuple[int, ...], complex]
    ) -> "WeylPolynomial":
        """The polynomial of lattice terms over ``den`` that are already in
        canonical form, which it takes as its own dict.  Operations that can
        break canonical form pass ``_reduced(den, terms)``; those that cannot
        (see the class docstring) pass their terms as they are."""
        self = object.__new__(cls)
        self._dim = dim
        self._den, self._terms = den, terms
        return self

    @classmethod
    def generator(cls, pt: tuple, den: int | None = None) -> "WeylPolynomial":
        """W(pt), read onto the lattice over its least L within the budget.
        Given ``den``, ``pt`` is a row of ints over it as ``read_lattice``
        gives them: W(pt / den) is built unread, at its least L."""
        if den is None:
            den, (pt,) = read_lattice([pt], None)
        return cls._raw(len(pt), *_reduced(den, {pt: 1 + 0j}))

    @classmethod
    def identity(cls, dim: int) -> "WeylPolynomial":
        return cls(dim, {(0,) * dim: 1.0 + 0j})

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
        return {tuple([v * k for v in p]): c for p, c in self._terms.items()}

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
        return WeylPolynomial._raw(self._dim, *_reduced(den, acc))

    def __sub__(self, other: "WeylPolynomial") -> "WeylPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, WeylPolynomial):
            return weyl_multiply(self, other)
        terms = {p: c * complex(other) for p, c in self._terms.items()}
        return WeylPolynomial._raw(self._dim, *_reduced(self._den, terms))

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
    coordinate so ``den`` is least again, and raises ``TermBudgetError`` if
    it has more than ``LATTICE_BITS`` bits.

    ``terms`` comes back as it came unless a coefficient fails
    ``abs(c) >= ZERO_THRESHOLD`` (as a nan does) or the gcd is above 1; the
    gcd stops at the first term that brings it to 1."""
    for c in terms.values():
        if not abs(c) >= ZERO_THRESHOLD:
            terms = {p: c for p, c in terms.items() if abs(c) >= ZERO_THRESHOLD}
            break
    g = den
    for p in terms:
        if g == 1:
            break
        g = math.gcd(g, *p)
    if g > 1:
        den //= g
        terms = {tuple([v // g for v in p]): c for p, c in terms.items()}
    if den.bit_length() > LATTICE_BITS:
        raise _over_budget("the common denominator of a polynomial", den)
    return den, terms


def _merged(dim: int, ints: list, coeffs: list) -> dict[tuple[int, ...], complex]:
    """The coefficients summed per lattice point, each of length ``dim``."""
    acc = {}
    for p, c in zip(ints, coeffs):
        if len(p) != dim:
            raise ValueError(f"point of length {len(p)} in a dimension-{dim} polynomial")
        acc[p] = acc.get(p, 0j) + c
    return acc


def weyl_multiply(p: WeylPolynomial, q: WeylPolynomial) -> WeylPolynomial:
    """Product of two polynomials under W(x)W(y) = exp{i s(x,y)} W(x+y).

    Both factors are put over one denominator L, so each sum point is exact
    integer addition and each form is an integer s over 2 L^2.  Coefficients
    and phases accumulate in double precision, p-major and q-minor.  Raises
    ``TermBudgetError`` when a factor or the pairwise expansion would exceed
    ``DEFAULT_TERM_CAP`` terms, or the product's least L passes ``LATTICE_BITS``.
    """
    dim, m, n = p._dim, len(p._terms), len(q._terms)
    if dim != q._dim:
        raise ValueError("cannot multiply polynomials of different dimension")
    cap = DEFAULT_TERM_CAP
    if m > cap or n > cap or m * n > cap:
        raise TermBudgetError(f"product of {m} x {n} terms exceeds cap {cap}")
    den = math.lcm(p._den, q._den)
    two_l2 = 2 * den * den
    ps, qs = p._over(den).items(), q._over(den).items()
    acc: dict[tuple[int, ...], complex] = {}
    if dim == 2:
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
    return WeylPolynomial._raw(dim, *_reduced(den, acc))


def adjoint(p: WeylPolynomial) -> WeylPolynomial:
    """sum c_k W(x_k)  ->  sum conj(c_k) W(-x_k); the generators are unitary."""
    return WeylPolynomial._raw(
        p.dim,
        p._den,
        {tuple([-v for v in x]): c.conjugate() for x, c in p._terms.items()},
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


#: Bound on one_norm(p - adjoint(p)) for a self-adjoint p.
SELF_ADJOINT_TOL = 1e-10


def is_self_adjoint(p: WeylPolynomial) -> bool:
    return one_norm(p - adjoint(p)) <= SELF_ADJOINT_TOL


def to_records(p: WeylPolynomial) -> list[dict]:
    """Serialize to a list of {point, re, im} records, sorted for determinism."""
    return [
        {"point": [str(x) for x in pt], "re": float(c.real), "im": float(c.imag)}
        for pt, c in sorted(p.terms.items())
    ]


def from_records(records: list[dict], dim: int | None = None) -> WeylPolynomial:
    """Rebuild a polynomial from records; re-canonicalizes on load.

    The dimension is inferred from the first point unless given explicitly
    (required for an empty record list).  Points are read by
    ``read_lattice`` and each part of a coefficient by ``read_number``; an
    error names the record and, where it has one, the key.
    """
    if not isinstance(records, (list, tuple)):
        raise ValueError(f"records are a JSON array, not {type(records).__name__}")
    if not records:
        if dim is None:
            raise ValueError("cannot infer dimension from an empty record list")
        return WeylPolynomial(dim)
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise ValueError(f"record {i}: a record is a JSON object, not {type(rec).__name__}")
        for key in ("point", "re", "im"):
            if key not in rec:
                raise ValueError(f"record {i}: key {key!r} is missing")
    den, ints = read_lattice((rec["point"] for rec in records), "record")
    coeffs = []
    for i, rec in enumerate(records):
        coeff = complex(*(read_number(rec[key], f"record {i}: {key!r}") for key in ("re", "im")))
        # abs() of a finite coefficient can still overflow, in canonical form
        if not math.isfinite(math.hypot(coeff.real, coeff.imag)):
            raise ValueError(
                f"record {i}: the modulus of coefficient {coeff} is not a finite double"
            )
        coeffs.append(coeff)
    inferred = len(ints[0])
    if dim is not None and dim != inferred:
        raise ValueError(f"records have dimension {inferred}, expected {dim}")
    return WeylPolynomial._raw(inferred, *_reduced(den, _merged(inferred, ints, coeffs)))
