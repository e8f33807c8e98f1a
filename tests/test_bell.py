"""Bell candidates, the closed-form family, the search, and doubles."""

import importlib.util
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import same_bits
from eprbell import (
    BellCandidate,
    SearchConfig,
    StateFunctional,
    TermBudgetError,
    WeylPolynomial,
    adjoint,
    bell_operator,
    bell_value,
    correlation_deviation,
    eval_poly,
    monomial_candidate,
    monomial_family_value,
    one_norm,
    optimize_bell,
    point,
    tensor_embed,
    weyl_double,
    weyl_multiply,
)
from eprbell.bell import (
    CERTIFY_TOL,
    STEP_DECAY,
    STEP_FLOOR,
    STEP_INIT,
    _estimate,
    _FastObjective,
)
from eprbell.states import eval_point
from eprbell.weyl import negate

SQRT2 = math.sqrt(2.0)


def family_grid_max(coarse: int = 90, zooms: int = 2) -> float:
    """Brute-force maximum of [cos x + cos y + cos z - cos(y+z-x)]/4.

    The family value at angles (a1, a2, b1, b2) depends only on the three
    independent phases x = a1+b1, y = a1+b2, z = a2+b1 (the fourth is
    y + z - x), so a 3-d grid covers the whole family.  Two zoom rounds
    bring the final grid step under 1e-3.
    """
    lo = np.zeros(3)
    hi = np.full(3, 2 * math.pi)
    best = -np.inf
    for _ in range(zooms + 1):
        axes = [np.linspace(lo[i], hi[i], coarse) for i in range(3)]
        x, y, z = np.meshgrid(*axes, indexing="ij")
        values = (np.cos(x) + np.cos(y) + np.cos(z) - np.cos(y + z - x)) / 4
        idx = np.unravel_index(np.argmax(values), values.shape)
        best = float(values[idx])
        center = np.array([axes[i][idx[i]] for i in range(3)])
        span = 2 * (hi - lo) / (coarse - 1)
        lo, hi = center - span, center + span
    return best


def _contraction(rng: random.Random, support_size: int = 2) -> WeylPolynomial:
    terms = {}
    for _ in range(support_size):
        x = (Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
             Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        terms[x] = terms.get(x, 0j) + c
        terms[negate(x)] = terms.get(negate(x), 0j) + c.conjugate()
    p = WeylPolynomial(2, terms)
    norm = one_norm(p)
    if norm > 1.0:
        p = (1.0 / norm) * p
    return p


class TestCandidates:
    def test_validate_rejects_non_self_adjoint(self):
        bad = WeylPolynomial(2, {point(1, 0): 1j})
        good = WeylPolynomial.identity(2)
        with pytest.raises(ValueError):
            BellCandidate(bad, good, good, good).validate()

    def test_validate_rejects_a_component_of_dimension_4(self):
        good = WeylPolynomial.identity(2)
        with pytest.raises(ValueError, match="component a1 must have dimension 2"):
            BellCandidate(WeylPolynomial.identity(4), good, good, good).validate()

    def test_validate_rejects_expansion(self):
        big = 1.5 * WeylPolynomial.identity(2)
        good = WeylPolynomial.identity(2)
        with pytest.raises(ValueError):
            BellCandidate(big, good, good, good).validate()

    def test_zero_component_is_valid(self):
        zero = WeylPolynomial(2)
        good = WeylPolynomial.identity(2)
        BellCandidate(good, zero, good, zero).validate()


class TestBellOperator:
    def test_all_identity(self):
        one = WeylPolynomial.identity(2)
        r = bell_operator(BellCandidate(one, one, one, one))
        assert r == WeylPolynomial.identity(4)

    def test_zero_second_pair(self):
        one = WeylPolynomial.identity(2)
        zero = WeylPolynomial(2)
        a1 = _contraction(random.Random(60))
        r = bell_operator(BellCandidate(a1, zero, one, zero))
        expected = 0.5 * weyl_multiply(tensor_embed(a1, 1), tensor_embed(one, 2))
        assert one_norm(r - expected) <= 1e-15

    def test_monomial_family_four_terms(self):
        cand = monomial_candidate(Fraction(1), Fraction(2), 0.3, 0.7, -0.2, 1.1)
        r = bell_operator(cand)
        assert len(r) == 4

    def test_assembled_operator_self_adjoint(self):
        rng = random.Random(61)
        for _ in range(20):
            cand = BellCandidate(*(_contraction(rng) for _ in range(4)))
            r = bell_operator(cand)
            assert one_norm(r - adjoint(r)) <= 1e-9


class TestBellValue:
    def test_identity_attains_classical_bound(self):
        one = WeylPolynomial.identity(2)
        assert bell_value(StateFunctional.epr(), BellCandidate(one, one, one, one)) == 1.0

    def test_random_contractions_respect_quantum_bound(self):
        rng = random.Random(62)
        state = StateFunctional.epr(1.2, -2.1)
        for _ in range(60):
            cand = BellCandidate(*(_contraction(rng) for _ in range(4)))
            value = bell_value(state, cand)
            assert abs(value) <= SQRT2 + 1e-9
            imag = eval_poly(state, bell_operator(cand)).imag
            assert abs(imag) <= 1e-10


class TestMonomialFamily:
    def test_optimal_angles(self):
        state = StateFunctional.epr()
        value = monomial_family_value(
            Fraction(1), Fraction(0), 0.0, -math.pi / 2, math.pi / 4, -math.pi / 4, state
        )
        assert value == pytest.approx(SQRT2 / 2, abs=1e-12)

    def test_plain_cosine_arithmetic(self):
        # all four phases zero: (1 + 1 + 1 - 1)/4
        state = StateFunctional.epr()
        value = monomial_family_value(
            Fraction(1), Fraction(0), 0.0, 0.0, 0.0, 0.0, state
        )
        assert value == pytest.approx(0.5, abs=1e-15)

    def test_zero_point_rejected(self):
        with pytest.raises(ValueError):
            monomial_family_value(
                Fraction(0), Fraction(0), 0.0, 0.0, 0.0, 0.0, StateFunctional.epr()
            )
        with pytest.raises(ValueError):
            monomial_candidate(Fraction(0), Fraction(0), 0.0, 0.0, 0.0, 0.0)

    def test_agreement_with_engine(self):
        rng = random.Random(63)
        for _ in range(100):
            state = StateFunctional.epr(rng.uniform(-3, 3), rng.uniform(-3, 3))
            a = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            b = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            if a == 0 and b == 0:
                a = Fraction(1)
            angles = [rng.uniform(0, 2 * math.pi) for _ in range(4)]
            closed = monomial_family_value(a, b, *angles, state)
            engine = bell_value(state, monomial_candidate(a, b, *angles))
            assert abs(closed - engine) <= 1e-10

    def test_grid_oracle_confirms_analytic_maximum(self):
        assert abs(family_grid_max() - SQRT2 / 2) <= 1e-6


class TestSearchConfig:
    def test_requires_negation_closure(self):
        with pytest.raises(ValueError):
            SearchConfig(supports=((point(1, 0),),) * 4)

    def test_requires_four_slots(self):
        with pytest.raises(ValueError):
            SearchConfig(supports=((point(0, 0),),) * 3)

    def test_spec_round_trip(self):
        cfg = SearchConfig(
            supports=(
                (point(1, 0), point(-1, 0)),
                (point(1, 0), point(-1, 0)),
                (point(0, "1/2"), point(0, "-1/2")),
                (point(0, "1/2"), point(0, "-1/2")),
            ),
            restarts=3,
            max_iters=50,
            seed=7,
        )
        assert SearchConfig.from_spec(cfg.to_spec()) == cfg


#: Every weight of this search pairs (+-1, 0) with (0, +-1), off the
#: correlation manifold, so its objective is exactly 0.0 at every parameter.
_ALL_TIES = {
    "supports": [[["1", "0"], ["-1", "0"]]] * 2 + [[["0", "1"], ["0", "-1"]]] * 2,
    "restarts": 4,
    "max_iters": 40,
    "seed": 0,
}


class TestOptimizer:
    def _family_config(self, seed=0, restarts=8, max_iters=200):
        xa, xb = point(1, 2), point(-1, 2)
        return SearchConfig(
            supports=(
                (xa, negate(xa)),
                (xa, negate(xa)),
                (xb, negate(xb)),
                (xb, negate(xb)),
            ),
            restarts=restarts,
            max_iters=max_iters,
            seed=seed,
        )

    def test_family_converges_to_analytic_maximum(self):
        for state in (StateFunctional.epr(), StateFunctional.epr(3.7, -1.2)):
            result = optimize_bell(state, self._family_config())
            assert abs(result.value - SQRT2 / 2) <= 1e-6

    def test_identity_support_reaches_classical_bound(self):
        z = point(0, 0)
        cfg = SearchConfig(supports=((z,), (z,), (z,), (z,)), restarts=4, max_iters=60, seed=1)
        result = optimize_bell(StateFunctional.epr(), cfg)
        assert result.value == pytest.approx(1.0, abs=1e-12)

    def test_nested_support_improves_on_family(self):
        z = point(0, 0)
        s3 = (z, point(1, 0), point(-1, 0))
        cfg = SearchConfig(supports=(s3, s3, s3, s3), restarts=6, max_iters=150, seed=2)
        result = optimize_bell(StateFunctional.epr(), cfg)
        assert result.value >= SQRT2 / 2 - 1e-9

    def test_evaluation_cap_bounds_the_worst_case(self, monkeypatch):
        import eprbell.bell

        # 8 parameters: each restart takes 1 + 2 * 8 * max_iters at most
        cfg = self._family_config(restarts=3, max_iters=20)
        worst = 3 * (1 + 2 * 20 * 8)
        monkeypatch.setattr(eprbell.bell, "MAX_EVALUATIONS", worst)
        assert optimize_bell(StateFunctional.epr(), cfg).evaluations <= worst
        monkeypatch.setattr(eprbell.bell, "MAX_EVALUATIONS", worst - 1)
        with pytest.raises(TermBudgetError, match=f"{worst} evaluations"):
            optimize_bell(StateFunctional.epr(), cfg)

    def test_deterministic_and_sound(self):
        state = StateFunctional.epr(0.4, 0.8)
        cfg = self._family_config(seed=5, restarts=4, max_iters=100)
        first = optimize_bell(state, cfg)
        second = optimize_bell(state, cfg)
        assert first.value == second.value
        assert first.trace == second.trace
        # reported value is reproduced by the engine on the returned candidate
        assert abs(bell_value(state, first.best) - first.value) <= 1e-10
        # no recorded value above the quantum bound
        assert all(v <= SQRT2 + 1e-9 for _, v in first.trace)
        first.best.validate()

    def test_tied_restarts_keep_the_first(self):
        # the objective is exactly 0.0 at every parameter on any BLAS kernel:
        # no move is accepted, each restart ends where it starts, and every
        # restart ties
        state = StateFunctional.epr(0.3, 0.7)
        cfg = SearchConfig.from_spec(_ALL_TIES)
        result = optimize_bell(state, cfg)
        assert result.value == 0.0
        fast = _FastObjective(state, cfg)
        # restart r draws its start from Random(r) at seed 0, and takes 1
        # evaluation plus 2 per parameter in each of its 23 sweeps, one per
        # step from STEP_INIT halved down to STEP_FLOOR
        per_restart = 1 + 2 * fast.n_params * 23
        assert result.evaluations == 4 * per_restart == 1476
        # no later restart beats restart 0, so the trace holds it alone and
        # it is the one reported
        assert result.trace == [(per_restart, 0.0)] == [(369, 0.0)]
        rng = random.Random(0)
        start = [rng.uniform(-1.0, 1.0) for _ in range(fast.n_params)]
        assert result.best == fast.candidate(start)


class TestWeylDoubles:
    def test_position_generator(self):
        res = weyl_double(Fraction(1), Fraction(0), StateFunctional.epr())
        assert res["partner"] == point(1, 0)
        assert res["phase"] == 1.0 + 0j
        assert res["deviation"] == 0.0

    def test_identity(self):
        res = weyl_double(Fraction(0), Fraction(0), StateFunctional.epr(2.0, 2.0))
        assert res["deviation"] == 0.0

    def test_random_battery(self):
        rng = random.Random(64)
        for _ in range(100):
            state = StateFunctional.epr(rng.uniform(-4, 4), rng.uniform(-4, 4))
            a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            b = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            res = weyl_double(a, b, state)
            assert abs(res["deviation"]) <= 1e-12
            assert abs(res["sa_deviation"]) <= 1e-10

    def test_perturbed_partner_is_orthogonal(self):
        # partner point (a, b) instead of (a, -b): deviation jumps to 2
        state = StateFunctional.epr(0.3, 1.1)
        a, b = Fraction(2), Fraction(3, 2)
        u = tensor_embed(WeylPolynomial.generator(point(a, b)), 1)
        phase = complex(math.cos(float(a) * 0.3 + float(b) * 1.1),
                        math.sin(float(a) * 0.3 + float(b) * 1.1))
        wrong = phase * tensor_embed(WeylPolynomial.generator(point(a, b)), 2)
        assert correlation_deviation(state, u, wrong) == 2.0

    def test_deviation_is_positivity_value(self):
        rng = random.Random(65)
        state = StateFunctional.epr(1.0, -1.0)
        for _ in range(20):
            u = tensor_embed(
                WeylPolynomial.generator(
                    (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
                ),
                1,
            )
            v = tensor_embed(
                WeylPolynomial.generator(
                    (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
                ),
                2,
            )
            assert correlation_deviation(state, u, v) >= -1e-12


# ---------------------------------------------------------------------------
# the incremental search objective against a full evaluation

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _catalog_search(orbits: int):
    """The key and the search result of the benchmark's Bell catalog entry
    o{orbits}c0/0."""
    loader = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH / "gen.py")
    gen = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(gen)
    spec = gen.bell_spec(orbits, 0, 0)
    cfg = SearchConfig.from_spec(dict(spec["config"], seed=spec["search_seed"]))
    return spec["key"], optimize_bell(StateFunctional.from_spec(spec["state"]), cfg)


def _reference_vectors(cfg, params) -> list:
    """The slot vectors built orbit by orbit, each orbit {x, -x} at the first
    of its points in the support: the reference for _FastObjective._vector."""
    vecs, i = [], 0
    for support in cfg.supports:
        index = {x: k for k, x in enumerate(support)}
        coeffs = np.zeros(len(support), dtype=complex)
        seen = set()
        for rep in support:
            if rep in seen:
                continue
            seen |= {rep, negate(rep)}
            if rep == negate(rep):
                coeffs[index[rep]] += params[i]
                i += 1
            else:
                c = complex(params[i], params[i + 1])
                coeffs[index[rep]] += c
                coeffs[index[negate(rep)]] += c.conjugate()
                i += 2
        norm = float(np.sum(np.abs(coeffs)))
        if norm > 1.0:
            coeffs = coeffs * (1.0 / norm)
        vecs.append(coeffs)
    return vecs


def _reference_weights(state, cfg) -> dict:
    weights = {}
    for i in (0, 1):
        for j in (2, 3):
            w = np.empty((len(cfg.supports[i]), len(cfg.supports[j])), complex)
            for r, x in enumerate(cfg.supports[i]):
                for c, y in enumerate(cfg.supports[j]):
                    w[r, c] = eval_point(state, (x[0], x[1], y[0], y[1]))
            weights[(i, j)] = w
    return weights


def _objective_reference(weights, cfg, params) -> float:
    """The search objective evaluated in full: all four slots, all four terms."""
    a1, a2, b1, b2 = _reference_vectors(cfg, params)
    w = weights
    total = (
        a1 @ w[(0, 2)] @ b1
        + a1 @ w[(0, 3)] @ b2
        + a2 @ w[(1, 2)] @ b1
        - a2 @ w[(1, 3)] @ b2
    )
    return 0.5 * float(total.real)


_COORD = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_STEPS = st.sampled_from([0.5, 0.25, 2.0**-10, 1e-7])


def _draw_supports(draw, max_orbits: int, empty: bool) -> tuple:
    """Four slot supports, each of up to ``max_orbits`` orbits, with or
    without the zero point, in a drawn order; a slot is empty only where
    ``empty`` allows it.  Some are shaped like the catalog's, a1 and a2 on
    one support and b1 and b2 on another, so that all four pairs share one
    weight matrix; the others draw each slot's support on its own."""
    catalog_shaped = draw(st.booleans())
    supports = []
    for _ in range(2 if catalog_shaped else 4):
        reps = []
        for x in draw(st.lists(st.tuples(_COORD, _COORD), max_size=max_orbits)):
            if any(x) and x not in reps and negate(x) not in reps:
                reps.append(x)
        support = [y for x in reps for y in (x, negate(x))]
        if draw(st.booleans()) or not (empty or support):
            support.append((Fraction(0), Fraction(0)))
        supports.append(tuple(draw(st.permutations(support))))
    if catalog_shaped:
        supports = [supports[0]] * 2 + [supports[1]] * 2
    return tuple(supports)


@st.composite
def _searches(draw):
    """A state, a configuration, a start point and a sequence of moves.

    Each move is (parameter, step, accepted).  Start points scaled by 1/16
    keep every slot's one-norm below 1 until steps of 0.5 push it over, so
    moves both skip and trigger the rescale.  No slot is empty.
    """
    state = StateFunctional.epr(draw(st.floats(-3, 3)), draw(st.floats(-3, 3)))
    supports = _draw_supports(draw, max_orbits=4, empty=False)
    cfg = SearchConfig(supports=supports)
    # two real parameters per orbit {x, -x}, one for the zero point
    n_params = sum(len(support) for support in supports)
    scale = draw(st.sampled_from([1.0, 1.0 / 16]))
    params = [scale * p for p in draw(st.lists(
        st.floats(-1, 1), min_size=n_params, max_size=n_params))]
    moves = draw(st.lists(
        st.tuples(st.integers(0, n_params - 1), _STEPS, st.booleans(), st.booleans()),
        min_size=1, max_size=30))
    return state, cfg, params, [(i, -d if neg else d, keep) for i, d, neg, keep in moves]


class TestIncrementalObjective:
    """Each scored move equals the full evaluation of the moved point, bit for bit."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(_searches())
    @example((
        StateFunctional.epr(0.3, -1.1),
        SearchConfig(supports=((point(0, 0),),) * 4),
        [0.75, -0.25, 0.5, 1.0],
        [(0, 0.5, True), (2, -0.5, False), (3, -0.25, True), (0, -1.5, True)],
    ))
    @example((  # catalog-shaped: one left product serves both pairs of a slot
        StateFunctional.epr(-0.7, 0.45),
        SearchConfig(supports=((point(1, 2), point(-1, -2), point(0, 0)),) * 2
                     + ((point(-1, 2), point(1, -2), point("1/3", 1), point("-1/3", -1)),) * 2),
        [0.0625, -0.125, 0.25, 0.5, -0.0625, 0.125, -0.25, -0.5, 0.375, 0.1875,
         -0.375, 0.0625, 0.25, -0.125],
        [(0, 0.5, True), (4, -0.25, True), (7, 0.5, False), (11, 0.5, True),
         (3, -0.5, True), (9, 0.25, True), (1, 0.5, True), (13, -0.25, True)],
    ))
    def test_moves_match_full_evaluation(self, search):
        state, cfg, params, moves = search
        fast = _FastObjective(state, cfg)
        weights = _reference_weights(state, cfg)
        assert fast.n_params == len(params)
        fast.start(params)
        value = fast.sync()
        assert value.hex() == _objective_reference(weights, cfg, params).hex()
        for i, delta, keep in moves:
            trial = list(params)
            trial[i] += delta
            value = fast.move(i, trial[i])
            assert value.hex() == _objective_reference(weights, cfg, trial).hex()
            # scoring an unrelated point leaves the current point alone
            other = [0.5 - p for p in trial]
            fast.candidate(other)
            if keep:
                fast.accept(i, trial[i])
                params = trial
                assert fast.sync().hex() == value.hex()
        for slot, want in enumerate(_reference_vectors(cfg, params)):
            assert same_bits(fast._vector(slot, params), want)
        fast.start(params)
        assert fast.sync().hex() == _objective_reference(weights, cfg, params).hex()

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(_searches())
    @example((  # b1 and b2 on one support, a1 and a2 on two: each factor-1
        # slot's two terms share one left product, which sync reuses
        StateFunctional.epr(-0.7, 0.45),
        SearchConfig(supports=((point(1, 2), point(-1, -2)),
                               (point(1, 2), point(-1, -2), point(0, 0)))
                     + ((point(-1, 2), point(1, -2)),) * 2),
        [0.25, -0.125, 0.0625, 0.5, -0.375, 0.125, 0.25, -0.5, 0.1875],
        # a1 alone, a2 alone, then both before one sync
        [(0, 0.5, True), (3, -0.25, True), (1, 0.25, False), (4, 0.5, True)],
    ))
    def test_sync_after_unscored_accepts(self, search):
        """Accepts that score nothing, as the screen's do, leave their slots
        stale; a sync after any run of them rebuilds the full evaluation."""
        state, cfg, params, moves = search
        fast = _FastObjective(state, cfg)
        weights = _reference_weights(state, cfg)
        fast.start(params)
        params = list(params)
        for i, delta, sync in moves:
            params[i] += delta
            fast.accept(i, params[i])
            if sync:
                assert fast.sync().hex() == _objective_reference(weights, cfg, params).hex()
        assert fast.sync().hex() == _objective_reference(weights, cfg, params).hex()


def _monomial_config(restarts: int = 4, max_iters: int = 120, seed: int = 0) -> SearchConfig:
    """verify-all's monomial search: one orbit per slot, catalog-shaped."""
    xa, xb = point(1, 2), point(-1, 2)
    return SearchConfig(supports=((xa, negate(xa)),) * 2 + ((xb, negate(xb)),) * 2,
                        restarts=restarts, max_iters=max_iters, seed=seed)


class TestScreenedMoves:
    """The screen's estimates, of each move and of the current point, are
    within 2^-46 of the exact values, and each move the screen decides at
    the objective's bound goes the way the exact comparison would take it."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(_searches(), st.booleans(), st.sampled_from([1.0, 1e3]))
    @example((  # the catalog's shape, each slot's norm far above 1
        StateFunctional.epr(-0.7, 0.45),
        SearchConfig(supports=((point(1, 2), point(-1, -2), point(0, 0)),) * 2
                     + ((point(-1, 2), point(1, -2), point("1/3", 1), point("-1/3", -1)),) * 2),
        [0.0625, -0.125, 0.25, 0.5, -0.0625, 0.125, -0.25, -0.5, 0.375, 0.1875,
         -0.375, 0.0625, 0.25, -0.125],
        [(0, 0.5, True), (4, -0.25, True), (7, 0.5, False), (11, 0.5, True),
         (3, -0.5, True), (9, 0.25, True), (1, 0.5, True), (13, -0.25, True)],
    ), True, 1e3)
    def test_estimate_brackets_the_exact_move(self, search, regular, size):
        # the tolerance is written out, not derived from the bound, so that a
        # larger bound does not loosen it
        tol = 2.0**-46
        state, cfg, params, moves = search
        state = StateFunctional.regular() if regular else state
        params = [size * p for p in params]
        fast = _FastObjective(state, cfg)
        fast.start(params)
        for i, delta, keep in moves:
            trial = params[i] + delta
            line = fast.line(i)  # as optimize_bell scores its trials
            estimate, current = _estimate(line, trial), line[0]
            value = fast.sync()
            exact = fast.move(i, trial)
            assert abs(current - value) <= tol
            assert abs(estimate - exact) <= tol
            if estimate > current + fast.bound:
                assert exact > value
            if estimate < current - fast.bound:
                assert not exact > value
            if keep:
                fast.accept(i, trial)
                params[i] = trial
        assert abs(fast.current - fast.sync()) <= tol

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(_searches())
    def test_bound_is_twice_the_derived_error(self, search):
        _, cfg, _, _ = search
        sizes = [len(support) for support in cfg.supports]
        L = max(sizes[i] + sizes[j] for i in (0, 1) for j in (2, 3))
        bound = _FastObjective(StateFunctional.regular(), cfg).bound
        assert math.frexp(bound)[0] == 0.5  # a power of two
        assert bound >= 2 * (27 * L + 207) * 2.0**-53
        assert bound < 4 * (27 * L + 207) * 2.0**-53

    def test_bound_at_one_orbit_per_slot_and_at_the_term_cap(self):
        state = StateFunctional.epr(0.3, -1.1)
        assert _FastObjective(state, _monomial_config()).bound == 2.0**-43
        # the zero point against 2,048 orbits: L = 4097, the most the term
        # cap admits; the two empty slots' terms do not count
        wide = tuple(x for k in range(1, 2049) for x in (point(k, 1), point(-k, -1)))
        cfg = SearchConfig(supports=((point(0, 0),), (), wide, ()))
        assert _FastObjective(state, cfg).bound == 2.0**-35

    def test_monomial_search_scores_few_moves_exactly(self):
        # verify-all's one-orbit search sits on a plateau of near-ties; a
        # bound sized to L = 4 leaves few of them to the exact move
        result = optimize_bell(StateFunctional.epr(0.3, -1.1), _monomial_config())
        assert result.exact_moves <= 0.15 * result.evaluations

    def test_catalog_search_scores_few_moves_exactly(self):
        # the screen decides every move of this six-orbit search, accepts
        # included; scoring its accepts exactly again would fail here, not
        # only in the benchmark
        _, result = _catalog_search(6)
        assert result.exact_moves <= 0.01 * result.evaluations

    def test_one_orbit_search_scores_its_near_ties(self):
        # the one-orbit plateau leaves near-ties to the exact move, so the
        # exact path keeps running in this suite
        _, result = _catalog_search(1)
        assert 0 < result.exact_moves


def _exact_search(state, cfg):
    """optimize_bell's search with every trial scored by the exact move: the
    value, trace, evaluation count and candidate the screen must reproduce."""
    fast = _FastObjective(state, cfg)
    counter, best_value, best_params, trace = 0, -math.inf, None, []
    for restart in range(cfg.restarts):
        rng = random.Random((cfg.seed * 1_000_003 + restart) & 0xFFFFFFFF)
        params = [rng.uniform(-1.0, 1.0) for _ in range(fast.n_params)]
        fast.start(params)
        value = fast.sync()
        counter += 1
        step, sweeps = STEP_INIT, 0
        while step >= STEP_FLOOR and sweeps < cfg.max_iters:
            improved = False
            for i in range(fast.n_params):
                for delta in (step, -step):
                    trial = params[i] + delta
                    counter += 1
                    if fast.move(i, trial) > value:
                        fast.accept(i, trial)
                        params[i] = trial
                        value = fast.sync()
                        improved = True
                        break
            if not improved:
                step *= STEP_DECAY
            sweeps += 1
        if value > best_value:
            best_value, best_params = value, params
            trace.append((counter, value))
    candidate = fast.candidate(best_params)
    return bell_value(state, candidate), trace, counter, candidate


@st.composite
def _configs(draw):
    """A regular or EPR state and a small search whose slots may differ in
    size or be empty."""
    state = draw(st.sampled_from([StateFunctional.regular()]) | st.builds(
        StateFunctional.epr, st.floats(-3, 3), st.floats(-3, 3)))
    supports = _draw_supports(draw, max_orbits=3, empty=True)
    return state, SearchConfig(supports=supports, restarts=draw(st.integers(1, 2)),
                               max_iters=draw(st.integers(1, 15)),
                               seed=draw(st.integers(0, 2**16)))


class TestScreenedSearch:
    """The screened search is the all-exact search, bit for bit."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(_configs())
    @example((StateFunctional.epr(0.3, -1.1), _monomial_config(2, 15)))
    @example((  # the zero point beside an orbit, unequal slot sizes
        StateFunctional.epr(-0.7, 0.45),
        SearchConfig(supports=((point(1, 2), point(0, 0), point(-1, -2)),) * 2
                     + ((point(1, -2), point(-1, 2), point(0, 0)),) * 2,
                     restarts=2, max_iters=15, seed=5),
    ))
    @example((  # every restart ties exactly
        StateFunctional.epr(0.3, 0.7),
        SearchConfig.from_spec({**_ALL_TIES, "restarts": 2}),
    ))
    def test_equals_the_all_exact_search(self, search):
        state, cfg = search
        result = optimize_bell(state, cfg)
        value, trace, evaluations, candidate = _exact_search(state, cfg)
        assert result.value.hex() == value.hex()
        assert [(i, v.hex()) for i, v in result.trace] == [(i, v.hex()) for i, v in trace]
        assert result.evaluations == evaluations
        assert result.best == candidate
        # the trace holds strict improvements only, the last of them certified
        values = [v for _, v in result.trace]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert abs(result.value - values[-1]) <= CERTIFY_TOL


class TestTsirelsonBound:
    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(_searches())
    def test_every_scored_candidate_stays_below_sqrt2(self, search):
        """omega(R) <= sqrt(2) through the full engine, for the candidate of
        the start point and of every moved point the search would score."""
        state, cfg, params, moves = search
        fast = _FastObjective(state, cfg)
        candidates = [fast.candidate(params)]
        for i, delta, keep in moves:
            trial = list(params)
            trial[i] += delta
            candidates.append(fast.candidate(trial))
            if keep:
                params = trial
        for candidate in candidates:
            assert bell_value(state, candidate) <= SQRT2 + 1e-9


class TestSearchPins:
    """Searches pinned bit for bit: any change to the search path shows here."""

    def test_verify_all_monomial_config(self):
        xa, xb = point(1, 2), point(-1, 2)
        cfg = SearchConfig(
            supports=((xa, negate(xa)),) * 2 + ((xb, negate(xb)),) * 2,
            restarts=4,
            max_iters=120,
            seed=0,
        )
        result = optimize_bell(StateFunctional.epr(0.3, -1.1), cfg)
        assert result.value.hex() == "0x1.6a09e667f3bcep-1"
        assert result.evaluations == 4983
        assert [(i, v.hex()) for i, v in result.trace] == [
            (862, "0x1.6a09e667f3bccp-1"),
            (4983, "0x1.6a09e667f3bcep-1"),
        ]

    def test_support_with_the_zero_point(self):
        xa, xb, z = point(1, 2), point(-1, 2), point(0, 0)
        sa = (xa, z, negate(xa), point("1/3", -1), point("-1/3", 1))
        sb = (negate(xb), xb, z)
        cfg = SearchConfig(supports=(sa, sa, sb, sb), restarts=3, max_iters=80, seed=5)
        result = optimize_bell(StateFunctional.epr(-0.7, 0.45), cfg)
        assert result.value.hex() == "0x1.f54a08fbc4308p-1"
        assert result.evaluations == 6944
        assert [(i, v.hex()) for i, v in result.trace] == [(2226, "0x1.f54a08fbc4307p-1")]

    @pytest.mark.parametrize("orbits", [1, 2, 3, 4, 6])
    def test_catalog_evaluation_counts(self, orbits):
        # the benchmark's recorded counts, read, never written
        counts = json.loads((PERFBENCH / "bell_evaluations.json").read_text())
        key, result = _catalog_search(orbits)
        assert result.evaluations == counts[key]
