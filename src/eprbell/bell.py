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
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np

from .states import StateFunctional, eval_point, eval_poly, positivity_check
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

CONTRACTION_TOL = 1e-12

#: Bound on |search value - engine re-evaluation| of the search's winner.
CERTIFY_TOL = 1e-10

#: Cap on the objective evaluations a search may take in the worst case.
MAX_EVALUATIONS = 1_000_000

#: The search's step schedule: first step, factor after a sweep without an
#: improvement, and the step below which a restart ends.
STEP_INIT, STEP_DECAY, STEP_FLOOR = 0.5, 0.5, 1e-7

SLOT_NAMES = ("a1", "a2", "b1", "b2")


class EvaluationBudgetError(RuntimeError):
    """A search configuration could exceed the objective evaluation cap."""


@dataclass(frozen=True)
class BellCandidate:
    """Two observables per factor, as dimension-2 polynomials.

    a1, a2 live in factor 1 and b1, b2 in factor 2; embedding happens at
    assembly time.  A valid candidate has every component self-adjoint
    within ``weyl.SELF_ADJOINT_TOL`` and of one-norm at most 1 + 1e-12.
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
            if not is_self_adjoint(comp):
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


def _monomial_point(a, b) -> Point:
    """The monomial family's point (a, b), read as ``point`` reads it; it
    must not be zero."""
    x = point(a, b)
    if not any(x):
        raise ValueError("the monomial family needs a nonzero point")
    return x


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
    a, b = _monomial_point(a, b)

    def pair(pt: Point, angle: float) -> WeylPolynomial:
        phase = unit_phase(angle)
        return WeylPolynomial(
            2, {pt: 0.5 * phase, negate(pt): 0.5 * phase.conjugate()}
        )

    xa = (a, b)
    xb = (-a, b)
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
    shift = state.angle(*_monomial_point(a, b))
    p11, p12, p21, p22 = (x + y + shift for x in (alpha1, alpha2) for y in (beta1, beta2))
    return (math.cos(p11) + math.cos(p12) + math.cos(p21) - math.cos(p22)) / 4.0


@dataclass(frozen=True)
class SearchConfig:
    """Deterministic configuration for the derivative-free Bell search.

    Each slot has its own support, rows that ``weyl.parse_points`` reads
    (closed under negation so self-adjointness is expressible); the seed
    fixes every random draw, making reports reproducible byte for byte.
    """

    supports: tuple[tuple[Point, ...], ...]
    restarts: int = 8
    max_iters: int = 200
    seed: int = 0

    def __post_init__(self):
        key = "search config key 'supports'"
        supports = tuple(tuple(parse_points(slot, f"support {s} point"))
                         for s, slot in enumerate(self.supports))
        object.__setattr__(self, "supports", supports)
        if len(supports) != 4:
            raise ValueError(f"{key} must hold one support per candidate slot (4),"
                             f" got {len(supports)}")
        for s, pts in enumerate(supports):
            if len(set(pts)) != len(pts):
                raise ValueError(f"{key}: support {s} points must be distinct,"
                                 f" got {len(set(pts))} distinct of {len(pts)}")
            for i, x in enumerate(pts):
                if len(x) != 2:
                    raise ValueError(f"{key}: support {s} point {i} must have dimension 2,"
                                     f" got {len(x)}")
                if negate(x) not in pts:
                    raise ValueError(f"{key}: support {s} must be closed under negation,"
                                     f" but lacks the negative of point {i}")
        for name in ("restarts", "max_iters", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be positive")

    @classmethod
    def from_spec(cls, spec: dict) -> "SearchConfig":
        """The configuration a JSON spec describes; keys are the field names,
        and an unknown key, or a missing or malformed ``supports``, is named."""
        if not isinstance(spec, dict):
            raise ValueError(f"a search config must be a JSON object, not {type(spec).__name__}")
        unknown = set(spec) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown search config key(s) {sorted(unknown)}")
        slots = spec.get("supports")
        if not isinstance(slots, list) or not all(isinstance(slot, list) for slot in slots):
            problem = "must be a list of lists of points" if "supports" in spec else "is missing"
            raise ValueError(f"search config key 'supports' {problem}")
        return cls(**spec)

    def to_spec(self) -> dict:
        spec = {f.name: getattr(self, f.name) for f in fields(self)}
        spec["supports"] = [
            [[str(c) for c in pt] for pt in slot] for slot in self.supports
        ]
        return spec


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

    Each slot keeps its unscaled coefficients, in support order, as one
    interleaved float array (re, im, re, im, ...).  Parameter i writes
    value * sign + 0.0 at its one or two (position, sign) pairs there: an
    orbit {x, -x} takes a complex coefficient (two parameters, conjugated
    on -x), the self-negating zero point one real parameter.  A slot's
    vector is its array scaled down whenever its one-norm exceeds 1, so
    every candidate built from it is a certified contraction.

    ``start`` scores a point in full and keeps the slot arrays and vectors,
    the left products a_i.dot(w[(i, j)]) and the real parts of the terms
    a_i.dot(w[(i, j)]).dot(b_j).  ``move`` re-derives what one parameter's
    slot changes, and ``accept`` keeps it.  Every number is the same
    floating-point expression on the same operands as a full evaluation
    (``ndarray.dot`` makes the BLAS calls of ``@``), summed in the same
    order, so the value is bit for bit that of a full evaluation of the
    moved point.
    """

    def __init__(self, state: StateFunctional, cfg: SearchConfig):
        self.cfg, sup = cfg, cfg.supports
        weights = {}  # one array per distinct (left support, right support)
        for key in dict.fromkeys((sup[i], sup[j]) for i, j in _PAIRS):
            weights[key] = w = np.empty((len(key[0]), len(key[1])), complex)
            for r, x in enumerate(key[0]):
                for c, y in enumerate(key[1]):
                    w[r, c] = eval_point(state, (x[0], x[1], y[0], y[1]))
        self.weights = [weights[sup[i], sup[j]] for i, j in _PAIRS]
        self.plan = []  # (slot, ((position, sign), ...)) per parameter
        for slot, support in enumerate(sup):
            index = {x: 2 * i for i, x in enumerate(support)}
            for rep in (x for x in support if index[x] <= index[negate(x)]):
                pos, neg = index[rep], index[negate(rep)]
                re, im = ((pos, 1.0), (neg, 1.0)), ((pos + 1, 1.0), (neg + 1, -1.0))
                for writes in [re[:1]] if pos == neg else [re, im]:
                    self.plan.append((slot, writes))
        self.n_params = len(self.plan)

    def _flats(self, params) -> list[np.ndarray]:
        """The four unscaled slot arrays of ``params``, each a new array."""
        flats = [np.zeros(2 * len(support)) for support in self.cfg.supports]
        for (slot, writes), value in zip(self.plan, params):
            for pos, sign in writes:
                flats[slot][pos] = value * sign + 0.0  # -0.0 becomes +0.0
        return flats

    @staticmethod
    def _scaled(flat: np.ndarray) -> np.ndarray:
        coeffs = flat.view(complex)
        norm = float(np.add.reduce(np.abs(coeffs)))
        return coeffs * (1.0 / norm) if norm > 1.0 else coeffs

    def vectors(self, params) -> list[np.ndarray]:
        """The four slot coefficient vectors, each in support order."""
        return [self._scaled(flat) for flat in self._flats(params)]

    def candidate(self, params) -> BellCandidate:
        """The candidate whose coefficient vectors the search scores."""
        return BellCandidate(
            *(
                WeylPolynomial(2, zip(support, coeffs))
                for support, coeffs in zip(self.cfg.supports, self.vectors(params))
            )
        )

    def start(self, params) -> float:
        """Score ``params`` in full and make it the current point."""
        self.flats = self._flats(params)
        self.vecs = [self._scaled(flat) for flat in self.flats]
        self.left = [self.vecs[i].dot(w) for (i, _), w in zip(_PAIRS, self.weights)]
        self.terms = [
            float(left.dot(self.vecs[j]).real) for left, (_, j) in zip(self.left, _PAIRS)
        ]
        return 0.5 * (self.terms[0] + self.terms[1] + self.terms[2] - self.terms[3])

    def move(self, i: int, value: float) -> float:
        """Score the current point with parameter ``i`` set to ``value``.

        The current point stays as it is until ``accept`` is called.
        """
        slot, writes = self.plan[i]
        flat = self.flats[slot].copy()
        for pos, sign in writes:  # as _flats writes them
            flat[pos] = value * sign + 0.0
        vec = self._scaled(flat)
        terms, left = self.terms.copy(), self.left
        if slot < 2:  # the left factor of _PAIRS[2 * slot] and _PAIRS[2 * slot + 1]
            k = 2 * slot
            w, w1 = self.weights[k], self.weights[k + 1]
            left = left.copy()
            left[k] = vec.dot(w)
            left[k + 1] = left[k] if w1 is w else vec.dot(w1)
            terms[k] = float(left[k].dot(self.vecs[2]).real)
            terms[k + 1] = float(left[k + 1].dot(self.vecs[3]).real)
        else:  # the right factor of _PAIRS[slot - 2] and _PAIRS[slot]
            for k in (slot - 2, slot):
                terms[k] = float(left[k].dot(vec).real)
        self.pending = (slot, flat, vec, left, terms)
        return 0.5 * (terms[0] + terms[1] + terms[2] - terms[3])  # as start sums them

    def accept(self):
        """Make the last point scored by ``move`` the current point."""
        slot, self.flats[slot], self.vecs[slot], self.left, self.terms = self.pending


def optimize_bell(state: StateFunctional, cfg: SearchConfig) -> SearchResult:
    """Coordinate search with random restarts over certified contractions.

    Deterministic for a fixed seed.  Every evaluated parameter vector maps
    to a genuine candidate (self-adjoint components, one-norm <= 1), so each
    value seen during the search is a lower bound for the Bell supremum and
    can never exceed sqrt(2) up to roundoff.  Evaluation inside the loop
    uses a precomputed bilinear form, which each one-parameter move updates
    in the one slot it changes; the returned value comes from a full
    engine re-evaluation of the winning candidate, which must agree with
    the search value to ``CERTIFY_TOL``.  The trace records (evaluation index, value)
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
    trace: list[tuple[int, float]] = []

    for restart in range(cfg.restarts):
        rng = random.Random((cfg.seed * 1_000_003 + restart) & 0xFFFFFFFF)
        params = [rng.uniform(-1.0, 1.0) for _ in range(n_params)]
        value = fast.start(params)
        counter += 1
        step = STEP_INIT
        sweeps = 0
        while step >= STEP_FLOOR and sweeps < cfg.max_iters:
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
                step *= STEP_DECAY
            sweeps += 1
        if value > best_value or value == best_value and (
            _candidate_order_key(fast.candidate(params))
            < _candidate_order_key(fast.candidate(best_params))
        ):
            best_value = value
            best_params = params
            trace.append((counter, value))

    assert best_params is not None
    searched = time.perf_counter()
    best_candidate = fast.candidate(best_params)
    certified = bell_value(state, best_candidate)
    if abs(certified - best_value) > CERTIFY_TOL:
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
    """omega((L - R)* (L - R)), defined as ``positivity_check(state, L - R)``.

    Real and nonnegative up to roundoff; it vanishes exactly when L and R
    are perfectly correlated in the state.
    """
    return positivity_check(state, left - right)


def weyl_double(a: Fraction, b: Fraction, state: StateFunctional) -> dict:
    """The perfectly correlated partner of W(a,b) x I in the other factor.

    The partner is exp{i(a*lambda + b*mu)} I x W(a,-b): the quadratic
    deviation omega((U - U')*(U - U')) = 2 - 2 Re omega(U* U') vanishes,
    and so does the deviation of the self-adjoint doubled pair
    A = U + U*, A' = U' + U'*, both computed by full engine expansion.
    """
    a, b = point(a, b)
    partner_point = (a, -b)
    phase = state.phase(a, b)
    u = WeylPolynomial.generator((a, b, 0, 0))
    u_partner = phase * WeylPolynomial.generator((0, 0, *partner_point))
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
