"""Closed-form gradient tests: a hand-built golden fixture with a loop-based
oracle, finite-difference checks, exact reductions, and a mutation probe."""

from __future__ import annotations

import math

import numpy as np
import pytest

import vlodtta.grad
from vlodtta.adapt import AdapterParams, AdaptState
from vlodtta.checks import random_objective_instance
from vlodtta.data import PromptPool, ProposalSet
from vlodtta.grad import (
    ObjectiveConstants,
    backward,
    fd_check,
    forward_objective,
    gelu,
    gelu_grad,
)
from vlodtta.scoring import detector_scores, entropy, posterior

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
