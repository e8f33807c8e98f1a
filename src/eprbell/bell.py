"""Bell operators on the composite Weyl algebra and certified lower bounds.

A Bell candidate is a quadruple of self-adjoint contractions, two per
factor; the associated Bell operator is

    R = (A1 (B1 + B2) + A2 (B1 - B2)) / 2,

and the figure of merit is Re omega(R).  For any state and any candidates
the value is capped by sqrt(2); a local hidden variable description of the
correlations forces it down to 1.

Contraction certificates use the coefficient one-norm, which dominates the
operator norm.  That shrinks the feasible set, so every value reported by
the search is a genuine lower bound on the Bell supremum, and no search
result is ever claimed to approach sqrt(2): the supremum is attained only
in a weak closure, which the finite matrix model realizes instead.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .states import StateFunctional, eval_point, eval_poly
from .weyl import (
    DEFAULT_TERM_CAP,
    Point,
    TermBudgetError,
    WeylPolynomial,
    adjoint,
    is_self_adjoint,
    negate,
    one_norm,
    parse_points,
    point,
    tensor_embed,
    to_records,
    unit_phase,
    weyl_multiply,
)

SELF_ADJOINT_TOL = 1e-10
CONTRACTION_TOL = 1e-12

#: Cap on the objective evaluations a search may take in the worst case.
MAX_EVALUATIONS = 1_000_000

SLOT_NAMES = ("a1", "a2", "b1", "b2")


class EvaluationBudgetError(RuntimeError):
    """A search configuration could exceed the objective evaluation cap."""


@dataclass(frozen=True)
class BellCandidate:
    """Two observables per factor, as dimension-2 polynomials.

    a1, a2 live in factor 1 and b1, b2 in factor 2; embedding happens at
    assembly time.  A valid candidate has every component self-adjoint
    within 1e-10 and of one-norm at most 1 + 1e-12.
    """

    a1: WeylPolynomial
    a2: WeylPolynomial
    b1: WeylPolynomial
    b2: WeylPolynomial

    def components(self) -> tuple[WeylPolynomial, ...]:
        return (self.a1, self.a2, self.b1, self.b2)

    def validate(self):
        for name, comp in zip(SLOT_NAMES, self.components()):
            if comp.dim != 2:
                raise ValueError(f"component {name} must have dimension 2")
            if not is_self_adjoint(comp, SELF_ADJOINT_TOL):
                raise ValueError(f"component {name} is not self-adjoint")
            if one_norm(comp) > 1.0 + CONTRACTION_TOL:
                raise ValueError(
                    f"component {name} has one-norm {one_norm(comp)} > 1"
                )

    def term_count(self) -> int:
        return sum(len(c) for c in self.components())

    def to_spec(self) -> dict:
        return {
            name: to_records(comp)
            for name, comp in zip(SLOT_NAMES, self.components())
        }


def bell_operator(candidate: BellCandidate) -> WeylPolynomial:
    """Assemble (A1(B1+B2) + A2(B1-B2))/2 in the composite algebra."""
    candidate.validate()
    a1 = tensor_embed(candidate.a1, 1)
    a2 = tensor_embed(candidate.a2, 1)
    b1 = tensor_embed(candidate.b1, 2)
    b2 = tensor_embed(candidate.b2, 2)
    return 0.5 * (weyl_multiply(a1, b1 + b2) + weyl_multiply(a2, b1 - b2))


def bell_value(state: StateFunctional, candidate: BellCandidate) -> float:
    """Re omega(R) for the candidate's Bell operator."""
    return float(eval_poly(state, bell_operator(candidate)).real)


def monomial_candidate(
    a: Fraction,
    b: Fraction,
    alpha1: float,
    alpha2: float,
    beta1: float,
    beta2: float,
) -> BellCandidate:
    """The single-orbit family used for optimizer calibration.

    A_i = (e^{i alpha_i} W(a,b) + e^{-i alpha_i} W(-a,-b)) / 2 in factor 1
    and B_j = (e^{i beta_j} W(-a,b) + e^{-i beta_j} W(a,-b)) / 2 in factor 2.
    Each component is self-adjoint with one-norm exactly 1.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 and b == 0:
        raise ValueError("the monomial family needs a nonzero point")

    def pair(pt: Point, angle: float) -> WeylPolynomial:
        phase = unit_phase(angle)
        return WeylPolynomial(
            2, {pt: 0.5 * phase, negate(pt): 0.5 * phase.conjugate()}
        )

    xa = point(a, b)
    xb = point(-a, b)
    return BellCandidate(
        a1=pair(xa, alpha1),
        a2=pair(xa, alpha2),
        b1=pair(xb, beta1),
        b2=pair(xb, beta2),
    )


def monomial_family_value(
    a: Fraction,
    b: Fraction,
    alpha1: float,
    alpha2: float,
    beta1: float,
    beta2: float,
    state: StateFunctional,
) -> float:
    """Closed form of the Bell value on the monomial family.

    Each correlator omega(A_i B_j) keeps exactly the two cross terms whose
    points land on the correlation manifold, giving cos(alpha_i + beta_j +
    shift)/2 with shift = a*lambda + b*mu, hence

        value = [cos(p11) + cos(p12) + cos(p21) - cos(p22)] / 4,

    p_ij = alpha_i + beta_j + shift.  The maximum over angles is sqrt(2)/2.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 and b == 0:
        raise ValueError("the monomial family needs a nonzero point")
    shift = float(a) * state.lam + float(b) * state.mu
    p11 = alpha1 + beta1 + shift
    p12 = alpha1 + beta2 + shift
    p21 = alpha2 + beta1 + shift
    p22 = alpha2 + beta2 + shift
    return (math.cos(p11) + math.cos(p12) + math.cos(p21) - math.cos(p22)) / 4.0


@dataclass(frozen=True)
class SearchConfig:
    """Deterministic configuration for the derivative-free Bell search.

    Each slot has its own support (closed under negation so self-adjointness
    is expressible); the seed fixes every random draw, making reports
    reproducible byte for byte.
    """

    supports: tuple[tuple[Point, ...], ...]
    restarts: int = 8
    max_iters: int = 200
    seed: int = 0
    step_init: float = 0.5
    step_decay: float = 0.5
    step_floor: float = 1e-7

    def __post_init__(self):
        if len(self.supports) != 4:
            raise ValueError("expected one support per candidate slot (4)")
        for support in self.supports:
            pts = list(support)
            if len(set(pts)) != len(pts):
                raise ValueError("support points must be distinct")
            for x in pts:
                if len(x) != 2:
                    raise ValueError("support points must have dimension 2")
                if negate(x) not in pts:
                    raise ValueError(
                        "supports must be closed under negation"
                    )
        for name in ("restarts", "max_iters", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be positive")
        for name in ("step_init", "step_decay", "step_floor"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (0 < self.step_decay < 1) or self.step_init <= 0:
            raise ValueError("invalid step schedule")

    @classmethod
    def from_spec(cls, spec: dict) -> "SearchConfig":
        supports = tuple(
            tuple(parse_points(slot, f"support {s} point"))
            for s, slot in enumerate(spec["supports"])
        )
        return cls(
            supports=supports,
            restarts=spec.get("restarts", 8),
            max_iters=spec.get("max_iters", 200),
            seed=spec.get("seed", 0),
            step_init=float(spec.get("step_init", 0.5)),
            step_decay=float(spec.get("step_decay", 0.5)),
            step_floor=float(spec.get("step_floor", 1e-7)),
        )

    def to_spec(self) -> dict:
        return {
            "supports": [
                [[str(c) for c in pt] for pt in slot] for slot in self.supports
            ],
            "restarts": self.restarts,
            "max_iters": self.max_iters,
            "seed": self.seed,
            "step_init": self.step_init,
            "step_decay": self.step_decay,
            "step_floor": self.step_floor,
        }


@dataclass
class SearchResult:
    best: BellCandidate
    value: float
    trace: list[tuple[int, float]] = field(default_factory=list)
    evaluations: int = 0
    #: wall-clock seconds of the coordinate search and of the engine
    #: certification of the winner; not part of the result's value
    search_s: float = field(default=0.0, compare=False)
    certify_s: float = field(default=0.0, compare=False)


def _slot_orbits(support: Sequence[Point]) -> list[Point]:
    """One representative per {x, -x} orbit, in support order."""
    reps: list[Point] = []
    seen: set[Point] = set()
    for x in support:
        if x in seen:
            continue
        seen.add(x)
        seen.add(negate(x))
        reps.append(x)
    return reps


def _candidate_order_key(candidate: BellCandidate):
    """Total order used for deterministic tie-breaking.

    Fewer terms first, then lexicographically smallest support, then the
    serialized coefficients; combined with the value this makes the restart
    reduction independent of completion order.
    """
    supports = tuple(tuple(sorted(c.terms.keys())) for c in candidate.components())
    serialized = tuple(
        (pt, round(c.real, 12), round(c.imag, 12))
        for comp in candidate.components()
        for pt, c in sorted(comp.terms.items())
    )
    return (candidate.term_count(), supports, serialized)


#: The bilinear terms (i, j) of the Bell value, in the order they are summed.
_PAIRS = ((0, 2), (0, 3), (1, 2), (1, 3))


class _FastObjective:
    """Precomputed bilinear evaluation of the Bell value, kept incrementally.

    Factor-1 and factor-2 embeddings commute without any Weyl phase, so
    omega(R) is bilinear in the slot coefficient vectors with weights
    w(x, y) = omega evaluated at the composite point (x0, x1, y0, y1).
    The weights come from eval_point itself, and the winning candidate is
    re-certified through the full polynomial engine, so the shortcut can
    only ever speed the search up, not change what gets reported.

    A search point is scored once in full by ``start``; after that it
    keeps the four slot vectors, the left products a_i @ w[(i, j)] and the
    real parts of the four terms a_i @ w[(i, j)] @ b_j.  A parameter
    belongs to one slot, so ``move`` re-derives only that slot's vector
    and the products and terms that read it, and ``accept`` keeps them.
    Every number is the same floating-point expression on the same operands
    as a full evaluation, and the terms are summed in the same order, so
    the value is bit for bit that of a full evaluation of the moved point.
    """

    def __init__(self, state: StateFunctional, cfg: SearchConfig):
        self.cfg = cfg
        # slot s's vector, viewed as interleaved floats (re, im, re, im, ...),
        # is padded[take[s]] * sign[s]; index -1 is the trailing 0.0 of padded,
        # the imaginary part of the self-negating zero point
        self.take, self.sign, self.slot_of = [], [], []
        for slot, support in enumerate(cfg.supports):
            index = {x: i for i, x in enumerate(support)}
            take = np.full(2 * len(support), -1, dtype=np.intp)
            sign = np.ones(2 * len(support))
            for rep in _slot_orbits(support):
                pos, first = index[rep], len(self.slot_of)
                take[2 * pos] = first
                if rep == negate(rep):
                    self.slot_of.append(slot)
                    continue
                neg = index[negate(rep)]
                take[2 * pos + 1] = first + 1
                take[2 * neg : 2 * neg + 2] = first, first + 1
                sign[2 * neg + 1] = -1.0
                self.slot_of += [slot, slot]
            self.take.append(take)
            self.sign.append(sign)
        self.n_params = len(self.slot_of)
        self.weights = []
        for i, j in _PAIRS:
            w = np.empty((len(cfg.supports[i]), len(cfg.supports[j])), complex)
            for r, x in enumerate(cfg.supports[i]):
                for c, y in enumerate(cfg.supports[j]):
                    w[r, c] = eval_point(state, (x[0], x[1], y[0], y[1]))
            self.weights.append(w)

    def slot_coeffs(self, slot: int, padded: np.ndarray) -> np.ndarray:
        """Self-adjoint contraction coefficients of one slot, in support order.

        ``padded`` holds every parameter followed by one 0.0.  Orbit {x, -x}
        takes a complex coefficient (two parameters, conjugated on -x); the
        self-negating zero point takes one real parameter.  The vector is
        scaled down whenever its one-norm exceeds 1, so every candidate
        built from it is a certified contraction.
        """
        flat = padded[self.take[slot]] * self.sign[slot]
        flat += 0.0  # -0.0 becomes +0.0, as when adding into a zero vector
        coeffs = flat.view(complex)
        norm = float(np.add.reduce(np.abs(coeffs)))
        if norm > 1.0:
            coeffs = coeffs * (1.0 / norm)
        return coeffs

    def vectors(self, params) -> list[np.ndarray]:
        """The four slot coefficient vectors, each in support order."""
        padded = np.array([*params, 0.0])
        return [self.slot_coeffs(slot, padded) for slot in range(4)]

    def candidate(self, params) -> BellCandidate:
        """The candidate whose coefficient vectors the search scores."""
        return BellCandidate(
            *(
                WeylPolynomial(2, zip(support, coeffs))
                for support, coeffs in zip(self.cfg.supports, self.vectors(params))
            )
        )

    @staticmethod
    def _value(terms) -> float:
        return 0.5 * (terms[0] + terms[1] + terms[2] - terms[3])

    def start(self, params) -> float:
        """Score ``params`` in full and make it the current point."""
        self.padded = np.array([*params, 0.0])
        self.vecs = [self.slot_coeffs(slot, self.padded) for slot in range(4)]
        self.left = [self.vecs[i] @ w for (i, _), w in zip(_PAIRS, self.weights)]
        self.terms = [
            float((left @ self.vecs[j]).real) for left, (_, j) in zip(self.left, _PAIRS)
        ]
        return self._value(self.terms)

    def move(self, i: int, value: float) -> float:
        """Score the current point with parameter ``i`` set to ``value``.

        The current point stays as it is until ``accept`` is called.
        """
        slot = self.slot_of[i]
        old = self.padded[i]
        self.padded[i] = value
        vec = self.slot_coeffs(slot, self.padded)
        self.padded[i] = old
        left, terms = list(self.left), list(self.terms)
        for k, (a, b) in enumerate(_PAIRS):
            if slot == a:
                left[k] = vec @ self.weights[k]
                terms[k] = float((left[k] @ self.vecs[b]).real)
            elif slot == b:
                terms[k] = float((left[k] @ vec).real)
        self.pending = (i, value, slot, vec, left, terms)
        return self._value(terms)

    def accept(self):
        """Make the last point scored by ``move`` the current point."""
        i, value, slot, vec, self.left, self.terms = self.pending
        self.padded[i] = value
        self.vecs[slot] = vec


def optimize_bell(state: StateFunctional, cfg: SearchConfig) -> SearchResult:
    """Coordinate search with random restarts over certified contractions.

    Deterministic for a fixed seed.  Every evaluated parameter vector maps
    to a genuine candidate (self-adjoint components, one-norm <= 1), so each
    value seen during the search is a lower bound for the Bell supremum and
    can never exceed sqrt(2) up to roundoff.  Evaluation inside the loop
    uses a precomputed bilinear form, which each one-parameter move updates
    in the one slot it changes; the returned value comes from a full
    engine re-evaluation of the winning candidate, which must agree with
    the search value to 1e-10.  The trace records (evaluation index, value)
    at every improvement of the global best.
    """
    # the final certification multiplies A_i into (B_1 +- B_2); reject
    # configurations whose products would breach the term cap before
    # spending any search time on them
    a_max = max(len(cfg.supports[0]), len(cfg.supports[1]))
    b_total = len(cfg.supports[2]) + len(cfg.supports[3])
    if a_max * b_total > DEFAULT_TERM_CAP:
        raise TermBudgetError(
            f"search supports imply products of up to {a_max * b_total} terms"
            f" (cap {DEFAULT_TERM_CAP})"
        )
    # a search takes one evaluation per restart and at most two per parameter
    # in each sweep; there is one parameter per support point (two per orbit)
    params = sum(len(support) for support in cfg.supports)
    worst = cfg.restarts * (1 + 2 * cfg.max_iters * params)
    if worst > MAX_EVALUATIONS:
        raise EvaluationBudgetError(
            f"search may take up to {worst} evaluations (cap {MAX_EVALUATIONS})"
        )

    start = time.perf_counter()
    fast = _FastObjective(state, cfg)
    n_params = fast.n_params

    counter = 0
    best_value = -math.inf
    best_params: list[float] | None = None
    best_key = None
    trace: list[tuple[int, float]] = []

    for restart in range(cfg.restarts):
        rng = random.Random((cfg.seed * 1_000_003 + restart) & 0xFFFFFFFF)
        params = [rng.uniform(-1.0, 1.0) for _ in range(n_params)]
        value = fast.start(params)
        counter += 1
        step = cfg.step_init
        sweeps = 0
        while step >= cfg.step_floor and sweeps < cfg.max_iters:
            improved = False
            for i in range(n_params):
                for delta in (step, -step):
                    trial = params[i] + delta
                    trial_value = fast.move(i, trial)
                    counter += 1
                    if trial_value > value:
                        fast.accept()
                        value, params[i] = trial_value, trial
                        improved = True
                        break
            if not improved:
                step *= cfg.step_decay
            sweeps += 1
        key = _candidate_order_key(fast.candidate(params))
        if value > best_value or (
            value == best_value and best_key is not None and key < best_key
        ):
            best_value = value
            best_params = params
            best_key = key
            trace.append((counter, value))

    assert best_params is not None
    searched = time.perf_counter()
    best_candidate = fast.candidate(best_params)
    best_candidate.validate()
    certified = bell_value(state, best_candidate)
    if abs(certified - best_value) > 1e-10:
        raise AssertionError(
            "search evaluation diverged from the engine:"
            f" {best_value} vs {certified}"
        )
    return SearchResult(
        best=best_candidate,
        value=certified,
        trace=trace,
        evaluations=counter,
        search_s=searched - start,
        certify_s=time.perf_counter() - searched,
    )


def correlation_deviation(
    state: StateFunctional, left: WeylPolynomial, right: WeylPolynomial
) -> float:
    """omega((L - R)* (L - R)): the quadratic deviation between two elements.

    A positivity value, so real and nonnegative up to roundoff; it vanishes
    exactly when L and R are perfectly correlated in the state.
    """
    diff = left - right
    return float(eval_poly(state, weyl_multiply(adjoint(diff), diff)).real)


def weyl_double(a: Fraction, b: Fraction, state: StateFunctional) -> dict:
    """The perfectly correlated partner of W(a,b) x I in the other factor.

    The partner is exp{i(a*lambda + b*mu)} I x W(a,-b): the quadratic
    deviation omega((U - U')*(U - U')) = 2 - 2 Re omega(U* U') vanishes,
    and so does the deviation of the self-adjoint doubled pair
    A = U + U*, A' = U' + U'*, both computed by full engine expansion.
    """
    a, b = Fraction(a), Fraction(b)
    partner_point = point(a, -b)
    phase = unit_phase(float(a) * state.lam + float(b) * state.mu)
    u = tensor_embed(WeylPolynomial.generator(point(a, b)), 1)
    u_partner = phase * tensor_embed(WeylPolynomial.generator(partner_point), 2)
    deviation = correlation_deviation(state, u, u_partner)
    sa_deviation = correlation_deviation(
        state, u + adjoint(u), u_partner + adjoint(u_partner)
    )
    return {
        "partner": partner_point,
        "phase": phase,
        "deviation": deviation,
        "sa_deviation": sa_deviation,
    }
