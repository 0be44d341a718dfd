"""Closed-form gradient tests: a hand-built golden fixture with a loop-based
oracle, finite-difference checks, exact reductions, and a mutation probe."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

import vlodtta.grad
from vlodtta.adapt import AdapterParams, AdaptState, apply_adapter
from vlodtta.checks import random_objective_instance
from vlodtta.cluster import DegenerateWeights
from vlodtta.data import PromptPool, ProposalSet
from vlodtta.grad import (
    ObjectiveConstants,
    backward,
    fd_check,
    forward,
    forward_objective,
    gelu,
    gelu_grad,
)
from vlodtta.scoring import (
    NearZeroRow,
    detector_scores,
    entropy,
    fuse,
    normalize_rows,
    posterior,
    prompt_compat,
    prompt_scores,
    select_prompts,
)
from vlodtta.sim import SEED_SCALE, ShiftSpec, SimConfig, gen_scene_proposals, gen_world

# frozen from the loop-based oracle below; forward_objective reproduces it bit-for-bit
GOLDEN_LOSS = 0.07258398173920992


# -- small helpers --------------------------------------------------------- #

def _numeric_grads(build, arrays, eps=1e-6):
    """Central differences of a scalar-valued builder over its leaf arrays.

    The arrays are perturbed in place, one coordinate at a time."""
    out = []
    for target in range(len(arrays)):
        grad = np.zeros_like(arrays[target])
        flat = arrays[target].reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = build(arrays)
            flat[i] = orig - eps
            lo = build(arrays)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * eps)
        out.append(grad)
    return out


# -- gelu ------------------------------------------------------------------- #

def test_gelu_values():
    assert gelu(np.array([0.0]))[0] == 0.0
    # large positive x passes through, large negative dies
    assert gelu(np.array([10.0]))[0] == pytest.approx(10.0, abs=1e-9)
    assert gelu(np.array([-10.0]))[0] == pytest.approx(0.0, abs=1e-9)
    # gelu(1) = 0.5 * (1 + erf(1/sqrt(2))) computed independently
    assert gelu(np.array([1.0]))[0] == pytest.approx(
        0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0))), abs=1e-12
    )


def test_gelu_grad_matches_fd():
    xs = np.linspace(-3, 3, 41)
    eps = 1e-6
    fd = (gelu(xs + eps) - gelu(xs - eps)) / (2 * eps)
    np.testing.assert_allclose(gelu_grad(xs), fd, atol=1e-8)


# -- erf against its reference ------------------------------------------------ #
# the port must give scipy.special.erf's bits (SciPy is a test-only dependency)

def _ulps_around(x, n):
    """2n + 1 consecutive doubles centred on x."""
    up, down = [x], [x]
    for _ in range(n):
        up.append(np.nextafter(up[-1], np.inf))
        down.append(np.nextafter(down[-1], -np.inf))
    return np.array(down[:0:-1] + up)


def _erf_samples():
    rng = np.random.default_rng(20)
    edges = [_ulps_around(e, 200) for e in (1.0, 8.0)]
    grids = [np.linspace(e - 0.05, e + 0.05, 20_001) for e in (1.0, 8.0)]
    sub = np.array([5e-324, 1e-320, 2.2e-308, np.finfo(float).tiny, 1e-300, 1e-160])
    edge = np.array([0.0, 6.0, 26.5, 27.0, 1e154, 1e200, 1.7e308, np.inf])
    both = np.concatenate(edges + grids + [sub, edge])
    return np.concatenate([
        rng.normal(0.0, 0.2, 100_000),   # GELU inputs: pre / sqrt(2), pre ~ N(0, 1/d)
        rng.normal(0.0, 1.0, 100_000),
        rng.uniform(-1.0, 1.0, 100_000),
        rng.uniform(-6.0, 6.0, 100_000),
        rng.uniform(-40.0, 40.0, 100_000),
        both, -both,
    ])


def test_erf_matches_scipy_bit_for_bit():
    special = pytest.importorskip("scipy.special")
    xs = _erf_samples()
    got, want = vlodtta.grad.erf(xs), special.erf(xs)
    assert got.dtype == np.float64 and got.shape == xs.shape
    wrong = got.view(np.uint64) != want.view(np.uint64)
    assert not wrong.any(), (xs[wrong][:5], got[wrong][:5], want[wrong][:5])
    # signed zeros and the infinities, named
    assert np.signbit(vlodtta.grad.erf(np.array([-0.0])))[0]
    np.testing.assert_array_equal(vlodtta.grad.erf(np.array([np.inf, -np.inf])), [1.0, -1.0])


def test_erf_keeps_shape_and_nan():
    erf = vlodtta.grad.erf
    assert np.isnan(erf(np.array([np.nan, 0.5, np.nan]))[[0, 2]]).all()
    assert erf(np.ones((3, 0))).shape == (3, 0)
    assert erf(np.full((2, 3), 2.0)).shape == (2, 3)
    assert erf(0.5).shape == () and float(erf(0.5)) == float(erf(np.array([0.5]))[0])


def test_gelu_and_its_grad_match_the_scipy_formulas_bit_for_bit():
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(21)
    x = np.concatenate([rng.normal(0.0, 0.3, (400, 16)).ravel(), rng.uniform(-12.0, 12.0, 6_400)])
    want = 0.5 * x * (1.0 + special.erf(x / math.sqrt(2.0)))
    want_grad = (
        0.5 * (1.0 + special.erf(x / math.sqrt(2.0)))
        + x * np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
    )
    assert np.array_equal(gelu(x).view(np.uint64), want.view(np.uint64))
    assert np.array_equal(gelu_grad(x).view(np.uint64), want_grad.view(np.uint64))


# -- golden fixture --------------------------------------------------------- #

def _fixture():
    """Small fully literal instance: d=4, hidden=2, N=4, K=2, one prompt each."""
    features = (((np.arange(16).reshape(4, 4) * 7) % 11) - 5.0) * 0.23 + 0.05
    class_emb = (((np.arange(8).reshape(2, 4) * 5) % 7) - 3.0) * 0.31 + 0.02
    pool = (((np.arange(16).reshape(2, 2, 4) * 3) % 13) - 6.0) * 0.17
    w_down = (((np.arange(8).reshape(4, 2) * 9) % 5) - 2.0) * 0.21
    b_down = np.array([0.05, -0.1])
    w_up = (((np.arange(8).reshape(2, 4) * 11) % 6) - 2.5) * 0.13
    b_up = np.array([0.02, -0.03, 0.04, -0.01])
    delta = np.array([0.11, -0.07, 0.05, 0.19])
    weights = np.array([2.0, 1.0, 3.0, 1.5])
    kept = np.array([0, 1, 2, 3])
    selections = np.array([[1], [0]])
    boxes = np.array([[10.0 * i, 0.0, 10.0 * i + 5.0, 5.0] for i in range(4)])
    proposals = ProposalSet(boxes=boxes, features=features, class_embeddings=class_emb)
    phi = AdapterParams(w_down=w_down, b_down=b_down, w_up=w_up, b_up=b_up)
    state = AdaptState(phi=phi, delta=delta)
    constants = ObjectiveConstants(
        weights=weights, selections=selections, kept=kept, lam=0.3, kappa=12.0
    )
    return proposals, PromptPool(pool), state, constants


def _oracle_loss(proposals, pool, state, constants):
    """The same objective in scalar loops and math.*, no numpy linear algebra."""

    def dot(a, b):
        return sum(float(x) * float(y) for x, y in zip(a, b))

    def unit(a):
        n = math.sqrt(dot(a, a))
        return [float(x) / n for x in a]

    def gelu_scalar(x):
        return 0.5 * x * (1.0 + math.erf(x / math.sqrt(2.0)))

    phi, delta = state.phi, state.delta
    d = proposals.d
    hid = phi.w_down.shape[1]
    num_classes = proposals.num_classes
    adapted = []
    for i in constants.kept:
        v = [float(x) for x in proposals.features[i]]
        hidden = [
            gelu_scalar(sum(v[a] * float(phi.w_down[a, j]) for a in range(d)) + float(phi.b_down[j]))
            for j in range(hid)
        ]
        out = [
            v[j] + sum(hidden[a] * float(phi.w_up[a, j]) for a in range(hid)) + float(phi.b_up[j])
            for j in range(d)
        ]
        adapted.append(unit(out))

    class_dirs = [unit([float(x) for x in proposals.class_embeddings[k]]) for k in range(num_classes)]
    prompt_dirs = [
        [unit([float(pool.embeddings[k, t, a]) + float(delta[a]) for a in range(d)])
         for t in constants.selections[k]]
        for k in range(num_classes)
    ]

    entropies = []
    for v in adapted:
        fused = []
        for k in range(num_classes):
            base = dot(v, class_dirs[k])
            pooled = sum(dot(v, p) for p in prompt_dirs[k]) / len(prompt_dirs[k])
            fused.append(constants.lam * pooled + (1.0 - constants.lam) * base)
        zmax = max(constants.kappa * g for g in fused)
        exps = [math.exp(constants.kappa * g - zmax) for g in fused]
        zsum = sum(exps)
        probs = [e / zsum for e in exps]
        entropies.append(-sum(p * math.log(p) for p in probs if p > 0.0))

    wsum = sum(float(w) for w in constants.weights)
    return sum(float(w) * h for w, h in zip(constants.weights, entropies)) / wsum


def test_golden_fixture_loss():
    proposals, pool, state, constants = _fixture()
    loss, _ = forward_objective(proposals, pool, state, constants)
    assert loss == pytest.approx(_oracle_loss(proposals, pool, state, constants), abs=1e-12)
    assert loss == pytest.approx(GOLDEN_LOSS, abs=1e-12)


def test_golden_fixture_fd():
    proposals, pool, state, constants = _fixture()
    assert fd_check(proposals, pool, state, constants) <= 1e-4


def test_golden_fixture_gradients_match_loop_oracle():
    # differentiates the scalar-loop oracle, not forward_objective, so a
    # shared mistake in the vectorized forward pass cannot hide here
    proposals, pool, state, constants = _fixture()
    grads = backward(forward_objective(proposals, pool, state, constants)[1])
    leaves = [state.phi.w_down, state.phi.b_down, state.phi.w_up, state.phi.b_up, state.delta]
    numeric = _numeric_grads(lambda _: _oracle_loss(proposals, pool, state, constants), leaves)
    analytic = [grads.w_down, grads.b_down, grads.w_up, grads.b_up, grads.delta]
    assert sum(a.size for a in leaves) == 26
    worst = max(
        float(np.max(np.abs(a - n) / np.maximum(1.0, np.abs(n)))) for a, n in zip(analytic, numeric)
    )
    assert worst <= 1e-7, f"max rel err {worst:.3e}"


def test_zero_up_projection_skips_its_products_exactly():
    # a fresh adapter's W_up is zero: the forward adds b_up without the
    # hidden @ W_up product, and the backward gives W_down and b_down exact
    # zeros without theirs; both must agree with the general formulas
    proposals, pool, state, constants = _fixture()
    phi = AdapterParams(
        w_down=state.phi.w_down, b_down=state.phi.b_down,
        w_up=np.zeros_like(state.phi.w_up), b_up=state.phi.b_up,
    )
    state = AdaptState(phi=phi, delta=state.delta)
    v = proposals.features
    pre, hidden, adapted = vlodtta.grad.adapter(v, phi)
    np.testing.assert_array_equal(adapted, v + (hidden @ phi.w_up + phi.b_up))

    grads = backward(forward_objective(proposals, pool, state, constants)[1])
    assert not grads.w_down.any() and not grads.b_down.any()
    assert grads.w_down.shape == phi.w_down.shape and grads.b_down.shape == phi.b_down.shape
    assert np.abs(grads.w_up).max() > 0.0
    leaves = [phi.w_down, phi.b_down, phi.w_up, phi.b_up, state.delta]
    numeric = _numeric_grads(lambda _: _oracle_loss(proposals, pool, state, constants), leaves)
    analytic = [grads.w_down, grads.b_down, grads.w_up, grads.b_up, grads.delta]
    worst = max(
        float(np.max(np.abs(a - n) / np.maximum(1.0, np.abs(n)))) for a, n in zip(analytic, numeric)
    )
    assert worst <= 1e-7, f"max rel err {worst:.3e}"


# -- random-instance checks -------------------------------------------------- #

def test_fd_check_random_instances():
    for seed in range(10):
        proposals, pool, state, constants = random_objective_instance(seed, max_n=24)
        worst = fd_check(proposals, pool, state, constants)
        assert worst <= 1e-4, f"seed {seed}: {worst:.3e}"


def test_fd_check_rejects_bad_eps():
    proposals, pool, state, constants = _fixture()
    with pytest.raises(ValueError):
        fd_check(proposals, pool, state, constants, eps=1.0)


def test_mutation_in_entropy_grad_is_caught(monkeypatch):
    """fd_check must flag a deliberately broken backward formula."""

    def wrong(p, h, kappa):
        logp = np.log(np.where(p > 0.0, p, 1.0))
        return -kappa * p * logp  # missing the +H term

    monkeypatch.setattr(vlodtta.grad, "_entropy_score_grad", wrong)
    proposals, pool, state, constants = random_objective_instance(3, max_n=16)
    assert fd_check(proposals, pool, state, constants) > 1e-4


# -- structural reductions ---------------------------------------------------- #

def _zero_init_instance(seed=11, n=6, k=3, t=4, d=8):
    rng = np.random.default_rng(seed)
    xy = rng.uniform(0, 80, size=(n, 2))
    boxes = np.concatenate([xy, xy + rng.uniform(2, 20, size=(n, 2))], axis=1)
    features = rng.normal(size=(n, d))
    class_emb = rng.normal(size=(k, d))
    pool = rng.normal(size=(k, t, d))
    proposals = ProposalSet(boxes=boxes, features=features, class_embeddings=class_emb)
    state = AdaptState.zero_init(d, reduction=2)
    return proposals, PromptPool(pool), state


def test_lambda_zero_gamma_zero_reduces_to_mean_entropy():
    proposals, pool, state = _zero_init_instance()
    n = proposals.n
    constants = ObjectiveConstants(
        weights=np.ones(n), selections=np.array([[0], [1], [2]]),
        kept=np.arange(n), lam=0.0, kappa=20.0,
    )
    loss, _ = forward_objective(proposals, pool, state, constants)
    expected = float(np.mean(entropy(posterior(
        detector_scores(proposals.features, proposals.class_embeddings), 20.0
    ))))
    assert loss == pytest.approx(expected, abs=1e-12)


def test_lambda_zero_delta_gradient_is_exactly_zero():
    proposals, pool, state, constants = random_objective_instance(5, max_n=16)
    constants = ObjectiveConstants(
        weights=constants.weights, selections=constants.selections,
        kept=constants.kept, lam=0.0, kappa=constants.kappa,
    )
    _, saved = forward_objective(proposals, pool, state, constants)
    grads = backward(saved)
    assert np.all(grads.delta == 0.0)
    assert np.any(grads.w_up != 0.0)  # the detector branch still trains


def _uniform_instance(k, seed=17):
    """Identical embeddings for every class, so every fused row is constant."""
    rng = np.random.default_rng(seed)
    d, n, t = 6, 5, 2
    features = rng.normal(size=(n, d))
    class_emb = np.tile(rng.normal(size=d), (k, 1))
    pool = np.tile(rng.normal(size=d), (k, t, 1))
    xy = rng.uniform(0, 50, size=(n, 2))
    proposals = ProposalSet(
        boxes=np.concatenate([xy, xy + 5.0], axis=1),
        features=features, class_embeddings=class_emb,
    )
    state = AdaptState.zero_init(d, reduction=2)
    constants = ObjectiveConstants(
        weights=np.ones(n), selections=np.zeros((k, 1), dtype=int),
        kept=np.arange(n), lam=0.3, kappa=20.0,
    )
    return proposals, PromptPool(pool), state, constants


def test_uniform_posterior_two_classes_gives_exactly_zero_grads():
    # with two classes p = 0.5 and H = -ln(1/2) are exact floats, so the
    # closed-form entropy gradient cancels to exactly zero
    proposals, pool, state, constants = _uniform_instance(k=2)
    loss, saved = forward_objective(proposals, pool, state, constants)
    assert loss == pytest.approx(math.log(2), abs=1e-12)
    grads = backward(saved)
    for g in (grads.w_down, grads.b_down, grads.w_up, grads.b_up, grads.delta):
        assert np.all(g == 0.0)


def test_uniform_posterior_three_classes_grads_vanish():
    # p = 1/3 is not an exact float, so only near-zero survives the rounding
    proposals, pool, state, constants = _uniform_instance(k=3)
    loss, saved = forward_objective(proposals, pool, state, constants)
    assert loss == pytest.approx(math.log(3), abs=1e-12)
    grads = backward(saved)
    for g in (grads.w_down, grads.b_down, grads.w_up, grads.b_up, grads.delta):
        assert np.max(np.abs(g)) <= 1e-14


def test_weight_doubling_is_exactly_invariant():
    proposals, pool, state, constants = random_objective_instance(8, max_n=20)
    doubled = ObjectiveConstants(
        weights=2.0 * constants.weights, selections=constants.selections,
        kept=constants.kept, lam=constants.lam, kappa=constants.kappa,
    )
    loss_a, saved_a = forward_objective(proposals, pool, state, constants)
    loss_b, saved_b = forward_objective(proposals, pool, state, doubled)
    assert loss_a == loss_b
    ga, gb = backward(saved_a), backward(saved_b)
    for name in ("w_down", "b_down", "w_up", "b_up", "delta"):
        np.testing.assert_array_equal(getattr(ga, name), getattr(gb, name))


def test_objective_rejects_empty_kept_and_bad_weights():
    proposals, pool, state, constants = random_objective_instance(9, max_n=12)
    empty = ObjectiveConstants(
        weights=np.zeros(0), selections=constants.selections,
        kept=np.zeros(0, dtype=int), lam=0.3, kappa=20.0,
    )
    with pytest.raises(ValueError):
        forward_objective(proposals, pool, state, empty)
    zero_w = ObjectiveConstants(
        weights=np.zeros_like(constants.weights), selections=constants.selections,
        kept=constants.kept, lam=0.3, kappa=20.0,
    )
    with pytest.raises(ValueError):
        forward_objective(proposals, pool, state, zero_w)
    repeated = ObjectiveConstants(
        weights=np.ones(constants.kept.size + 1), selections=constants.selections,
        kept=np.append(constants.kept, constants.kept[0]), lam=0.3, kappa=20.0,
    )
    with pytest.raises(ValueError, match="distinct"):
        forward_objective(proposals, pool, state, repeated)
    # -1 and n - 1 name one row, which np.unique did not see: the loss counted it
    # twice while backward's scatter kept one of its terms; n raised a bare IndexError
    n = proposals.n
    for kept in ([0, n - 1, -1], [0, n], [-n]):
        outside = replace(constants, weights=np.ones(len(kept)), kept=np.array(kept))
        with pytest.raises(ValueError, match=rf"^kept must hold distinct proposal indices in \[0, {n}\)"):
            forward_objective(proposals, pool, state, outside)
    # an infinite or NaN sum gave a NaN loss, and finite weights whose sum overflows a RuntimeWarning
    m = constants.kept.size
    for weights in (np.r_[np.inf, np.ones(m - 1)], np.r_[np.nan, np.ones(m - 1)], np.full(m, 1e308)):
        with pytest.raises(DegenerateWeights, match="need a finite positive total"):
            forward_objective(proposals, pool, state, replace(constants, weights=weights))


def _raw_selection(proposals, pool, rho):
    """Each class's ceil(rho * T) prompts of best compatibility with the raw features."""
    return select_prompts(prompt_compat(normalize_rows(proposals.features).mean(axis=0), pool.embeddings), rho)


def test_non_integer_selections_and_kept_are_rejected_not_truncated():
    # a cast to int truncated them: selections sel + 0.7 scored sel, and
    # kept = [0.5, 1.2, 2.9] fed the objective rows 0, 1 and 2
    proposals, pool, state = _zero_init_instance(n=12, d=8)
    sel = _raw_selection(proposals, pool, 0.5)
    for bad in (sel + 0.7, sel.astype(float), sel > 0):
        with pytest.raises(ValueError, match="^selections must hold integer prompt indices"):
            forward(proposals, pool, state.phi, state.delta, lam=0.3, selections=bad)
    fwd = forward(proposals, pool, state.phi, state.delta, lam=0.3, selections=sel)
    unsigned = forward(proposals, pool, state.phi, state.delta, lam=0.3, selections=sel.astype(np.uint32))
    np.testing.assert_array_equal(unsigned.fused, fwd.fused)
    for kept in ([0.5, 1.2, 2.9], np.arange(12) < 3):
        constants = ObjectiveConstants(
            weights=np.ones(np.size(kept)), selections=sel, kept=np.asarray(kept), lam=0.3, kappa=20.0,
        )
        with pytest.raises(ValueError, match="^kept must hold integer proposal indices"):
            vlodtta.grad.objective(fwd, constants)
    ints = ObjectiveConstants(weights=np.ones(3), selections=sel, kept=np.arange(3), lam=0.3, kappa=20.0)
    assert math.isfinite(vlodtta.grad.objective(fwd, ints)[0])


# -- the adapter as a rank-(h + 1) update ------------------------------------ #

COCO_SIM = SimConfig(d=256, num_classes=80, pool_size=16, objects_min=10, objects_max=20, background=200)


def _moved_state(d, reduction, seed):
    """A non-identity state: every adapter tensor and the residual nonzero."""
    rng = np.random.default_rng(seed)
    zero = AdaptState.zero_init(d, reduction)
    phi = AdapterParams(
        w_down=zero.phi.w_down, b_down=0.1 * rng.standard_normal(zero.phi.b_down.shape),
        w_up=0.1 * rng.standard_normal(zero.phi.w_up.shape), b_up=0.1 * rng.standard_normal(d),
    )
    return AdaptState(phi=phi, delta=0.1 * rng.standard_normal(d))


@pytest.mark.parametrize("sim", [SimConfig(), COCO_SIM], ids=["desk", "coco"])
def test_forward_matches_the_normalized_adapted_rows(sim):
    # the forward expands a = v + H W_up + b_up instead of building it; its
    # scores must be the cosines of the adapted rows themselves, in a fresh
    # pass and in one that reuses a pass under the same down-projection
    world = gen_world(0, sim, ShiftSpec(magnitude=0.5))
    bank = world.pool.embeddings
    for seed in range(3):
        proposals, _ = gen_scene_proposals(seed * SEED_SCALE, world)
        state = _moved_state(proposals.d, 16, seed)
        adapted = apply_adapter(proposals.features, state.phi)
        unit = normalize_rows(adapted)
        # selected at this state's delta, from the dense scores' proposal mean
        sel = select_prompts(prompt_scores(adapted, bank, state.delta).mean(axis=0), 0.25)
        chosen = bank[np.arange(bank.shape[0])[:, None], np.sort(sel, axis=1)]
        mean_dirs = normalize_rows(chosen + state.delta).mean(axis=1)
        base = unit @ normalize_rows(proposals.class_embeddings).T
        pooled = unit @ mean_dirs.T
        fresh = forward(proposals, world.pool, state.phi, state.delta, lam=0.3, selections=sel)
        still = replace(state.phi, w_up=np.zeros_like(state.phi.w_up), b_up=np.zeros(proposals.d))
        first_sel = _raw_selection(proposals, world.pool, 0.25)
        first = forward(proposals, world.pool, still, np.zeros(proposals.d), lam=0.3, selections=first_sel)
        reused = forward(proposals, world.pool, state.phi, state.delta, lam=0.3, selections=sel, reuse=first)
        for fwd in (fresh, reused):
            for got, want in ((fwd.base, base), (fwd.pooled, pooled), (fwd.fused, fuse(pooled, base, 0.3))):
                assert np.max(np.abs(got - want)) <= 1e-12


def _cancelling_state(proposals, row, shrink):
    """A zero W_up and b_up = -(1 - shrink) * features[row]: that row adapts to shrink times itself."""
    zero = AdaptState.zero_init(proposals.d, 2)
    phi = replace(zero.phi, b_up=-(1.0 - shrink) * proposals.features[row])
    return AdaptState(phi=phi, delta=zero.delta)


def test_an_adapted_row_that_cancels_is_named():
    proposals, pool, _ = _zero_init_instance(n=12, d=8)
    sel = _raw_selection(proposals, pool, 0.5)
    for row in (0, 5, 11):
        state = _cancelling_state(proposals, row, 0.0)
        with pytest.raises(NearZeroRow, match=f"^row {row} "):
            forward(proposals, pool, state.phi, state.delta, lam=0.3, selections=sel)
        # the same through a nonzero W_up, whose up-projection b_up then cancels
        w_up = 0.1 * np.random.default_rng(row).standard_normal(state.phi.w_up.shape)
        _, hidden, _ = vlodtta.grad.adapter(proposals.features, replace(state.phi, w_up=w_up))
        phi = replace(state.phi, w_up=w_up, b_up=-(proposals.features[row] + hidden[row] @ w_up))
        with pytest.raises(NearZeroRow, match=f"^row {row} "):
            forward(proposals, pool, phi, state.delta, lam=0.3, selections=sel)


def test_a_nearly_cancelled_row_is_scored_directly():
    # |a|^2 = 1e-12 |v|^2 is far below the expansion's rounding error in
    # |v|^2 + 2 v.b_up + |b_up|^2; that row must still get its true cosines
    proposals, pool, _ = _zero_init_instance(n=12, d=8)
    state = _cancelling_state(proposals, 4, 1e-6)
    fwd = forward(proposals, pool, state.phi, state.delta, lam=0.3, selections=_raw_selection(proposals, pool, 0.5))
    unit = normalize_rows(apply_adapter(proposals.features, state.phi))
    base = unit @ normalize_rows(proposals.class_embeddings).T
    np.testing.assert_allclose(fwd.base, base, rtol=0, atol=1e-12)
    want_norm = 1e-6 * np.linalg.norm(proposals.features[4])
    np.testing.assert_allclose(fwd.feature_norms[4, 0], want_norm, rtol=1e-9)

