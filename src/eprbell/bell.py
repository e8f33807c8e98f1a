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
import operator
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
    _merged,
    _reduced,
    adjoint,
    is_self_adjoint,
    negate,
    one_norm,
    read_lattice,
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


def _monomial_point(a, b) -> tuple[int, tuple[int, int]]:
    """The monomial family's point (a, b) as ``read_lattice`` reads it, its
    least L and the point times L; it must not be zero."""
    den, (x,) = read_lattice([(a, b)], None)
    if not any(x):
        raise ValueError("the monomial family needs a nonzero point")
    return den, x


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
    den, (a, b) = _monomial_point(a, b)

    def pair(pt: tuple[int, int], angle: float) -> WeylPolynomial:
        phase = unit_phase(angle)
        terms = _merged(2, [pt, negate(pt)], [0.5 * phase, 0.5 * phase.conjugate()])
        return WeylPolynomial._raw(2, *_reduced(den, terms))

    return BellCandidate(pair((a, b), alpha1), pair((a, b), alpha2),
                         pair((-a, b), beta1), pair((-a, b), beta2))


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
    den, (a, b) = _monomial_point(a, b)
    shift = state.angle(a, b, den)
    p11, p12, p21, p22 = (x + y + shift for x in (alpha1, alpha2) for y in (beta1, beta2))
    return (math.cos(p11) + math.cos(p12) + math.cos(p21) - math.cos(p22)) / 4.0


@dataclass(frozen=True)
class SearchConfig:
    """Deterministic configuration for the derivative-free Bell search.

    Each slot has its own support, rows that ``weyl.read_lattice`` reads
    once (closed under negation so self-adjointness is expressible); the
    slot keeps the reader's ``(L, ints)`` in ``lattices`` and its points as
    ``Fraction`` views in ``supports``.  The seed fixes every random draw,
    making reports reproducible byte for byte.
    """

    supports: tuple[tuple[Point, ...], ...]
    restarts: int = 8
    max_iters: int = 200
    seed: int = 0

    def __post_init__(self):
        key = "search config key 'supports'"
        lattices = tuple(read_lattice(slot, f"support {s} point")
                         for s, slot in enumerate(self.supports))
        supports = tuple(tuple(tuple(Fraction(v, den) for v in p) for p in ints)
                         for den, ints in lattices)
        object.__setattr__(self, "supports", supports)
        object.__setattr__(self, "lattices", lattices)
        if len(supports) != 4:
            raise ValueError(f"{key} must hold one support per candidate slot (4),"
                             f" got {len(supports)}")
        for s, pts in enumerate(supports):
            distinct = set(pts)
            if len(distinct) != len(pts):
                raise ValueError(f"{key}: support {s} points must be distinct,"
                                 f" got {len(distinct)} distinct of {len(pts)}")
            for i, x in enumerate(pts):
                if len(x) != 2:
                    raise ValueError(f"{key}: support {s} point {i} must have dimension 2,"
                                     f" got {len(x)}")
                if negate(x) not in distinct:
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
    #: the evaluations the screen could not decide, the near-ties, scored
    #: by the exact move, and the wall-clock seconds of the coordinate
    #: search and of the engine certification of the winner; not part of
    #: the result's value
    exact_moves: int = field(default=0, compare=False)
    search_s: float = field(default=0.0, compare=False)
    certify_s: float = field(default=0.0, compare=False)


#: The bilinear terms (i, j) of the Bell value, in the order they are summed,
#: and the sign each takes in the sum.
_PAIRS = ((0, 2), (0, 3), (1, 2), (1, 3))
_SIGNS = (1.0, 1.0, 1.0, -1.0)

#: The two terms of _PAIRS that read each slot, and the slots on their other
#: side: a factor-1 slot is the left factor of its two terms, a factor-2 slot
#: the right factor of its two.
_SLOT_PAIRS = ((0, 1), (2, 3), (0, 2), (1, 3))
_PARTNERS = ((2, 3), (2, 3), (0, 1), (0, 1))


def _real_form(w: np.ndarray) -> np.ndarray:
    """The real matrix q with Re(a^T w b) = f_a^T q f_b, where f_a and f_b
    interleave the real and imaginary parts of a and b."""
    q = np.empty((2 * w.shape[0], 2 * w.shape[1]))
    q[0::2, 0::2], q[1::2, 1::2] = w.real, -w.real
    q[0::2, 1::2] = q[1::2, 0::2] = -w.imag
    return q


def _gather(q: np.ndarray, writes: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Rows of q combined as a slot's parameters write them: row t is the
    sum of the rows at parameter t's two positions, times their signs."""
    pos, sign = writes
    return sign[:, :1] * q[pos[:, 0]] + sign[:, 1:] * q[pos[:, 1]]


class _FastObjective:
    """Precomputed bilinear evaluation of the Bell value, kept incrementally,
    and a float screen in front of it.

    Factor-1 and factor-2 embeddings commute without any Weyl phase, so
    omega(R) is bilinear in the slot coefficient vectors with weights
    w(x, y) = omega evaluated at the composite point (x0, x1, y0, y1).
    The weights come from eval_point itself, and the winning candidate is
    re-certified through the full polynomial engine, so the shortcut can
    only ever speed the search up, not change what gets reported.

    A slot's unscaled coefficients, in support order, form one
    interleaved float array (re, im, re, im, ...).  Parameter i writes
    value * sign + 0.0 at its one or two (position, sign) pairs there: an
    orbit {x, -x} takes a complex coefficient (two parameters, conjugated
    on -x), the self-negating zero point one real parameter.  A slot's
    vector is its array scaled down whenever its one-norm exceeds 1, so
    every candidate built from it is a certified contraction.

    The exact value keeps, per slot, the vector and, per term k = (i, j),
    the left product a_i.dot(w[k]) and the real part of
    a_i.dot(w[k]).dot(b_j).  ``_vector`` is the one builder of a slot's
    vector from a list of parameters, and ``_value`` the one term update:
    for the slots it is told changed, it recomputes the left products and
    the terms that read them, a left product once when a slot's two terms
    share one weight array, and sums the four terms.  ``accept`` changes a
    parameter and marks its slot stale; ``sync`` rebuilds every stale
    slot's vector and runs ``_value`` on the kept lists, and is the only way
    the current point gets an exact value: ``start`` scores nothing and
    marks every slot stale.  ``move`` builds the moved slot's vector
    with the trial value in place of the current one and runs ``_value``
    on copies, so the current point stays as it is.  Every number is the
    same floating-point expression on the same operands as a full
    evaluation (``ndarray.dot`` makes the BLAS calls of ``@``; a shared
    left product is the very ``dot`` its pair would compute), summed in
    the same order, so each value is bit for bit that of a full evaluation
    of its point, however many accepts came before the sync.

    **The screen.**  ``optimize_bell`` approximates ``move`` in a few
    Python float operations.  With p_s the parameters of slot s, the
    unscaled term k = (i, j) is the real bilinear form T_k = p_i^T R_k p_j,
    where R_k is w's real form (``_real_form``) gathered by the two slots'
    writes (``_gather``, signed sums of entries, not a matrix product), and
    the value is

        0.5 * sum_k sign_k T_k / (S_i S_j),   S_s = max(1, N_s),

    N_s the one-norm of slot s.  A move of parameter t of slot s by d
    changes only the two terms a, b that read s, each by d g[t] with g the
    gradient R_k p_j (or p_i^T R_k), and N_s by the change of one orbit's
    share 2|z|.  Divided by the scales S_oa, S_ob of their other slots oa,
    ob, the two moved terms are c0 + d c1, with c0 = T_a / S_oa + T_b /
    S_ob and c1 = g_a[t] / S_oa + g_b[t] / S_ob.  A sweep walks the slots
    one at a time (``walks``); inside slot s no partner slot moves, so s's
    gradients, the partners' scales, each c1 and the sum of the two scaled
    terms that do not read s stay fixed, and ``enter(s)`` computes them
    once: a trial costs one ``hypot`` and a few float operations.  The one
    numpy call, ``_push(p)``, is a matrix-vector product giving, from p's
    parameters, the gradients of p's two terms; ``enter(s)`` runs it for
    each partner that moved (``pending``), at most four per sweep, and
    ``start`` for two slots.  An ``accept`` in s recomputes from the
    parameters the orbit's modulus, s's norm and scale, the two terms that
    read s (s's gradients dotted with p_s), c0 and ``current``, the
    estimate 0.5 * (q_0 + q_1 + q_2 + q_3) of the current point from the
    signed scaled terms q_k.  Nothing is carried over from an earlier
    point, so there is no drift to bound.

    **The bound.**  ``optimize_bell`` compares a trial's estimate with
    ``current``: it rejects the trial unscored when the estimate is below
    by more than ``bound`` = B, and accepts it unscored when the estimate
    is above by more than B.  Either is sound when the errors of the two
    estimates against the exact values sum to less than B less the rounding
    of current -+ B.  Write u = 2^-53 and gamma_n = n u / (1 - n u), which
    bounds the rounding of an n-term sum in any order, blocked or by SIMD
    lanes, with or without FMA, relative to the sum of the moduli; a
    complex product adds sqrt(2) gamma_2 (Higham, *Accuracy and Stability
    of Numerical Algorithms*, 2nd ed., Sec. 3.1 and 3.6).  Take every
    modulus, numpy's SIMD ``abs`` of a complex as well as libm's ``hypot``,
    within 4u.  Every weight has modulus at most 1, up to rounding (a
    state's values do); every scaled vector has one-norm at most 1, so
    every value lies in [-2, 2] and every scaled term in [-1, 1]; sum |p_i|
    |R_k| |p_j| <= 2 N_i N_j, since each real or imaginary part is written
    by one parameter and |re z| + |im z| <= sqrt(2) |z|; and sum_j |R_k[t,
    j]| |p_j| <= 2 N_j for each row t, since a row adds two rows of the
    real form and |re w| |re b| + |im w| |im b| <= |w| |b|.  For a term k =
    (i, j) with both slots non-empty let L_k = n_i + n_j, the sizes of its
    slots' supports, and L the largest L_k; a term with an empty slot is an
    exact 0.0 on both paths.  To first order in u:

    - *exact path:* each norm is within (n + 4) u of N, each scaled part
      within (n + 6) u; ``zgemv`` and ``zdotu`` add 2 gamma_(n+2) each, so
      each term is within (3L + 20) u, and the value, after its three
      additions, within (6L + 54) u;
    - *the current point's estimate:* a term, recomputed as (p_i R_k) p_j
      or p_i (R_k p_j) from the side that moved last, is within 2 (L + 2) u
      of S_i S_j either way (two roundings in the gather, gamma_(n_i) and
      gamma_(n_j) in the products) and each scale within (n + 4) u of
      itself, so each scaled term is within (3L + 14) u; three additions of
      partial sums at most 2, 3 and 4, then the halving: within (6L + 33) u;
    - *a trial's estimate:* take the errors relative to S', the moved slot's
      scale at the trial, which is at least half its scale S at the current
      point, since a step of at most ``STEP_INIT`` = 0.5 changes a norm by
      at most 1, and write o for oa or ob.  Each term of c0 is within
      4 (L + 2) u, and at most 2, after the division by S_o.  Each gradient
      is within 2 (n_o + 2) u N_o, so with |d| <= 0.5 its share of d c1 is
      within (n_o + 2) u and at most 1.  Each S_o is within (n_o + 4) u of
      itself, and divides both parts of its moved term, at most 1, so it
      adds that much.  The four divisions add 6u; the additions in c0 and
      c1, the rounding of d, the product d c1 and the addition c0 + d c1,
      12u.  The moved slot's norm, the norm without the orbit plus the
      trial's share, is within (2 n_s + 23) u of S', and the division of
      the two moved terms, at most 2, by it adds twice that and 2u.  With
      n_o + n_s <= L the two moved terms are within (12L + 94) u; the two
      others, (3L + 14) u each, their sum and the last addition add
      (6L + 34) u, and after the halving the estimate is within (9L + 64) u.

    So |estimate - exact| <= (15L + 118) u for a trial, |current - exact|
    <= (12L + 87) u for the current point, and with 2u for the rounding of
    current -+ B a decision needs (27L + 207) u < B.  ``bound`` is the least
    power of two at least twice that: 2^-43 for one orbit per slot (L = 4),
    2^-42 for six (L = 24), and 2^-35 at L = 4097, the largest
    ``optimize_bell``'s term cap admits.  A NaN estimate compares false
    both ways and goes to the exact path.
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
        self.plan = []  # ((position, sign), ...) per parameter
        self.orbits = []  # per slot: the parameters of each of its orbits
        self.bounds = []  # per slot: its range of parameters
        # per slot, as the screen walks it: each parameter, the other one of
        # its orbit (None for the zero point) and the orbit's index
        self.walks = []
        for slot, support in enumerate(sup):
            index = {x: 2 * i for i, x in enumerate(support)}
            lo, orbits, walk = len(self.plan), [], []
            for rep in (x for x in support if index[x] <= index[negate(x)]):
                pos, neg = index[rep], index[negate(rep)]
                re, im = ((pos, 1.0), (neg, 1.0)), ((pos + 1, 1.0), (neg + 1, -1.0))
                orbit = [re[:1]] if pos == neg else [re, im]
                ids = range(len(self.plan), len(self.plan) + len(orbit))
                for n, i in enumerate(ids):
                    walk.append((i, ids[1 - n] if len(ids) == 2 else None, len(orbits)))
                orbits.append(tuple(ids))
                self.plan.extend(orbit)
            self.orbits.append(orbits)
            self.bounds.append((lo, len(self.plan)))
            self.walks.append(walk)
        self.n_params = len(self.plan)
        self.owner = [(slot, o) for slot, walk in enumerate(self.walks) for _, _, o in walk]
        # the screen's forms: p_s.dot(stacked[s]) is the gradients, with
        # respect to the other slot, of the two signed terms that read slot
        # s; each slot's writes are (m, 2) positions and signs, a single
        # write padded with a copy of sign 0
        writes = []
        for lo, hi in self.bounds:
            rows = [w + ((w[0][0], 0.0),) if len(w) == 1 else w for w in self.plan[lo:hi]]
            rows = np.array(rows, float).reshape(-1, 2, 2)
            writes.append((rows[:, :, 0].astype(int), rows[:, :, 1]))
        forms = [sign * _gather(_gather(_real_form(w), writes[i]).T, writes[j]).T
                 for (i, j), w, sign in zip(_PAIRS, self.weights, _SIGNS)]
        self.stacked = [np.hstack([forms[k] if s < 2 else forms[k].T for k in _SLOT_PAIRS[s]])
                        for s in range(4)]
        # the screen's bound: the least power of two at least twice the
        # derived error (27L + 207) u, counted in units of u = 2^-53
        sizes = [len(support) for support in sup]
        L = max((sizes[i] + sizes[j] for i, j in _PAIRS if sizes[i] and sizes[j]), default=0)
        self.bound = math.ldexp(1.0, (2 * (27 * L + 207) - 1).bit_length() - 53)

    def _vector(self, slot: int, params) -> np.ndarray:
        """Slot ``slot``'s coefficient vector of ``params``, a new array: its
        unscaled array, scaled down when its one-norm exceeds 1."""
        lo, hi = self.bounds[slot]
        flat = np.zeros(2 * len(self.cfg.supports[slot]))
        for writes, value in zip(self.plan[lo:hi], params[lo:hi]):
            for pos, sign in writes:
                flat[pos] = value * sign + 0.0  # -0.0 becomes +0.0
        coeffs = flat.view(complex)
        norm = float(np.add.reduce(np.abs(coeffs)))
        return coeffs * (1.0 / norm) if norm > 1.0 else coeffs

    def candidate(self, params) -> BellCandidate:
        """The candidate whose coefficient vectors the search scores."""
        return BellCandidate(
            *(
                WeylPolynomial._raw(
                    2, *_reduced(den, _merged(2, ints, self._vector(slot, params).tolist()))
                )
                for slot, (den, ints) in enumerate(self.cfg.lattices)
            )
        )

    def start(self, params):
        """Make ``params`` the current point, with every slot stale: the
        next ``sync`` scores it, and the next ``enter`` settles the screen."""
        self.params = params = list(params)
        self.mods = [[self._modulus(orbit) for orbit in orbits] for orbits in self.orbits]
        self.norms = [sum(mods) for mods in self.mods]
        self.scales = [max(1.0, norm) for norm in self.norms]
        # grads[s][n]: the gradient, with respect to slot s, of the n-th of
        # its two terms, which the n-th of its partners' parameters fix
        self.grads = [[None, None] for _ in range(4)]
        self.pending = {0, 1, 2, 3}  # slots whose partners' gradients are out of date
        self._push(2)
        self._push(3)
        # the signed unscaled terms sign_k T_k, each from its factor-1 side
        self.sterms = [sum(map(operator.mul, self.grads[i][k % 2], params[slice(*self.bounds[i])]))
                       for k, (i, _) in enumerate(_PAIRS)]
        self.slot = None
        self.vecs, self.left, self.terms = [None] * 4, [None] * 4, [None] * 4
        self.stale = set(range(4))

    def _modulus(self, orbit: tuple[int, ...]) -> float:
        """The orbit's share of its slot's one-norm: 2|z| for {x, -x}."""
        if len(orbit) == 1:
            return abs(self.params[orbit[0]])
        return 2.0 * math.hypot(self.params[orbit[0]], self.params[orbit[1]])

    def _push(self, slot: int):
        """Recompute from ``slot``'s parameters the gradients of its two
        terms with respect to its partners: one matrix-vector product."""
        self.pending.discard(slot)
        (lo, hi), (oa, ob) = self.bounds[slot], _PARTNERS[slot]
        grads = np.array(self.params[lo:hi]).dot(self.stacked[slot]).tolist()
        split = len(self.walks[oa])
        # the pair is the (slot % 2)-th of each partner's two
        self.grads[oa][slot % 2], self.grads[ob][slot % 2] = grads[:split], grads[split:]

    def _settle(self):
        """Recompute ``current`` and the entered slot's ``c0``."""
        t0, t1, t2, t3 = terms = self.sterms
        s0, s1, s2, s3 = scales = self.scales
        self.current = 0.5 * (t0 / (s0 * s2) + t1 / (s0 * s3) + t2 / (s1 * s2) + t3 / (s1 * s3))
        (ka, kb), (oa, ob) = _SLOT_PAIRS[self.slot], _PARTNERS[self.slot]
        self.c0 = terms[ka] / scales[oa] + terms[kb] / scales[ob]

    def enter(self, slot: int) -> tuple[list[float], float]:
        """Make ``slot`` the one whose parameters move, after pushing its
        pending partners; return what stays fixed while only they do: each
        parameter's c1 and the sum of the scaled terms that do not read it."""
        for partner in _PARTNERS[slot]:
            if partner in self.pending:
                self._push(partner)
        self.slot = slot
        self._settle()
        (ga, gb), (oa, ob), scales = self.grads[slot], _PARTNERS[slot], self.scales
        sa, sb, sr = scales[oa], scales[ob], scales[slot ^ 1]
        # the terms that do not read a slot are those of the other slot of
        # its factor, which has the same partners in the same order
        kc, kd = _SLOT_PAIRS[slot ^ 1]
        c1 = []  # a loop, not a comprehension: cheaper for a few parameters
        for a, b in zip(ga, gb):
            c1.append(a / sa + b / sb)
        return c1, self.sterms[kc] / (sr * sa) + self.sterms[kd] / (sr * sb)

    def accept(self, i: int, value: float):
        """Set parameter ``i`` of the current point to ``value``, in its slot,
        entered first if it is not.  The screen follows at once, with no
        numpy call; the slot's exact state goes stale until the next
        ``sync``, and its partners' gradients pending."""
        slot, o = self.owner[i]
        if slot != self.slot:
            self.enter(slot)
        params, mods = self.params, self.mods[slot]
        params[i] = value
        mods[o] = self._modulus(self.orbits[slot][o])
        self.norms[slot] = norm = sum(mods)
        self.scales[slot] = max(1.0, norm)
        lo, hi = self.bounds[slot]
        moved, (ga, gb), (ka, kb) = params[lo:hi], self.grads[slot], _SLOT_PAIRS[slot]
        self.sterms[ka] = sum(map(operator.mul, ga, moved))
        self.sterms[kb] = sum(map(operator.mul, gb, moved))
        self._settle()
        self.stale.add(slot)
        self.pending.add(slot)

    def sync(self) -> float:
        """The exact value of the current point, after rebuilding every stale
        slot from the parameters: its vector, then the left products and
        terms that read it."""
        for slot in self.stale:
            self.vecs[slot] = self._vector(slot, self.params)
        value = self._value(self.vecs, self.left, self.terms, self.stale)
        self.stale.clear()
        return value

    def move(self, i: int, value: float) -> float:
        """The exact value of the current point with parameter ``i`` set to
        ``value``; the current point, which must be synced, stays as it is."""
        assert not self.stale, "move needs a synced current point"
        slot, params = self.owner[i][0], self.params.copy()
        params[i] = value
        vecs = self.vecs.copy()
        vecs[slot] = self._vector(slot, params)
        return self._value(vecs, self.left.copy(), self.terms.copy(), (slot,))

    def _value(self, vecs, left, terms, changed) -> float:
        """Bring the left products and terms that read a slot in ``changed``
        up to date with ``vecs``, in place, and return their sum.  A term
        whose weights are its pair's (b1 and b2 on one support) reuses the
        left product just computed for that pair."""
        for k, ((i, j), w) in enumerate(zip(_PAIRS, self.weights)):
            if i in changed:
                left[k] = left[k - 1] if k % 2 and w is self.weights[k - 1] else vecs[i].dot(w)
            if i in changed or j in changed:
                terms[k] = float(left[k].dot(vecs[j]).real)
        return 0.5 * (terms[0] + terms[1] + terms[2] - terms[3])


def optimize_bell(state: StateFunctional, cfg: SearchConfig) -> SearchResult:
    """Coordinate search with random restarts over certified contractions.

    Deterministic for a fixed seed.  Every evaluated parameter vector maps
    to a genuine candidate (self-adjoint components, one-norm <= 1), so each
    value seen during the search is a lower bound for the Bell supremum and
    can never exceed sqrt(2) up to roundoff.  A sweep walks the four slots
    one at a time, and inside a slot estimates each move from what stays
    fixed there (see ``_FastObjective``): a move whose estimate is below the
    current point's by more than the objective's ``bound``, more than the
    two estimates' errors can be, is rejected, and one above it by more is
    accepted, both counted as evaluations but not scored.  Only a near-tie
    is scored and compared exactly, after the exact value of the current
    point is brought up to date, as it is at the end of each restart.  So
    every decision, the search path, the evaluation count and every value
    are bit for bit those of scoring every move exactly.  The returned value
    comes from a full engine re-evaluation of the winning candidate, which
    must agree with the search value to ``CERTIFY_TOL``.  Restarts run in
    index order, and one replaces the best only when its value is strictly
    higher, so of tied restarts the earliest is kept.  The trace records
    (evaluation index, value) at every strict improvement of the best.
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
        raise TermBudgetError(
            f"search may take up to {worst} evaluations (cap {MAX_EVALUATIONS})"
        )

    start = time.perf_counter()
    fast = _FastObjective(state, cfg)
    n_params, bound, hypot = fast.n_params, fast.bound, math.hypot

    counter = exact_moves = 0
    best_value = -math.inf
    best_params: list[float] | None = None
    trace: list[tuple[int, float]] = []

    for restart in range(cfg.restarts):
        rng = random.Random((cfg.seed * 1_000_003 + restart) & 0xFFFFFFFF)
        fast.start([rng.uniform(-1.0, 1.0) for _ in range(n_params)])
        params = fast.params
        counter += 1
        step, sweeps = STEP_INIT, 0
        while step >= STEP_FLOOR and sweeps < cfg.max_iters:
            improved, deltas = False, (step, -step)
            for slot, walk in enumerate(fast.walks):
                c1s, rest = fast.enter(slot)
                norms, mods = fast.norms, fast.mods[slot]
                for (i, other, o), c1 in zip(walk, c1s):
                    x0, c0, base = params[i], fast.c0, norms[slot] - mods[o]
                    partner = None if other is None else params[other]
                    low, high = fast.current - bound, fast.current + bound
                    for delta in deltas:
                        trial = x0 + delta
                        counter += 1
                        # the estimate of the trial's value (see _FastObjective)
                        norm = base + (abs(trial) if partner is None
                                       else 2.0 * hypot(trial, partner))
                        estimate = 0.5 * (rest + (c0 + (trial - x0) * c1)
                                          / (norm if norm > 1.0 else 1.0))
                        if estimate < low:
                            continue  # the exact value is below the current one too
                        if not estimate > high:  # a near-tie, or NaN
                            exact_moves += 1
                            value = fast.sync()
                            if not fast.move(i, trial) > value:
                                continue
                        fast.accept(i, trial)
                        improved = True
                        break
            if not improved:
                step *= STEP_DECAY
            sweeps += 1
        value = fast.sync()
        if value > best_value:
            best_value = value
            best_params = params  # start makes a new list per restart
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
        exact_moves=exact_moves,
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
    den, ((a, b),) = read_lattice([(a, b)], None)
    phase = state.phase(a, b, den)
    u = WeylPolynomial.generator((a, b, 0, 0), den)
    u_partner = phase * WeylPolynomial.generator((0, 0, a, -b), den)
    deviation = correlation_deviation(state, u, u_partner)
    sa_deviation = correlation_deviation(
        state, u + adjoint(u), u_partner + adjoint(u_partner)
    )
    return {
        "partner": (Fraction(a, den), Fraction(-b, den)),
        "phase": phase,
        "deviation": deviation,
        "sa_deviation": sa_deviation,
    }
