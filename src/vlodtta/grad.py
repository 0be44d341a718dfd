"""Closed-form gradient of the single-step adaptation objective.

The objective is one fixed composition: the bottleneck adapter, row
normalization, cosines against class directions and against each class's
mean unit selected prompt (cosine is linear in the unit prompt, so that is
the mean of its prompts' cosines), convex fusion, a softmax entropy, and a
weighted mean. `forward` is the fused-score pass, shared by scoring and the
objective; `objective` takes its kept rows to the loss; `backward` applies
the hand-derived chain rule to the forward's intermediates; `fd_check`
verifies the result against central differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING

import numpy as np
from scipy.special import erf

from . import cluster, scoring

if TYPE_CHECKING:  # pragma: no cover
    from .adapt import AdapterParams, AdaptState
    from .data import PromptPool, ProposalSet

__all__ = [
    "gelu",
    "gelu_grad",
    "Gradients",
    "ObjectiveConstants",
    "Forward",
    "adapter",
    "forward",
    "objective",
    "forward_objective",
    "backward",
    "fd_check",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact (erf-based) GELU."""
    x = np.asarray(x, dtype=float)
    return 0.5 * x * (1.0 + erf(x / _SQRT2))


def gelu_grad(x: np.ndarray) -> np.ndarray:
    """Derivative of the erf-based GELU."""
    x = np.asarray(x, dtype=float)
    return 0.5 * (1.0 + erf(x / _SQRT2)) + x * np.exp(-0.5 * x * x) * _INV_SQRT_2PI


def _entropy_score_grad(p: np.ndarray, h: np.ndarray, kappa: float) -> np.ndarray:
    """d entropy_i / d score_ij from posteriors p and entropies h: -kappa * p * (log p + h)."""
    logp = np.log(np.where(p > 0.0, p, 1.0))
    return -kappa * p * (logp + h[:, None])


def _unit_rows_pullback(g: np.ndarray, unit: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Gradient through x -> x / |x| given the output gradient g."""
    out = g * unit
    np.multiply(out.sum(axis=-1, keepdims=True), unit, out=out)
    np.subtract(g, out, out=out)
    out /= norms
    return out


@dataclass(frozen=True)
class Gradients:
    """Gradients of the objective for the adapter tensors and the residual."""

    w_down: np.ndarray
    b_down: np.ndarray
    w_up: np.ndarray
    b_up: np.ndarray
    delta: np.ndarray

    def norms(self) -> dict[str, float]:
        return {f.name: float(np.linalg.norm(getattr(self, f.name))) for f in fields(self)}


@dataclass(frozen=True)
class ObjectiveConstants:
    """Quantities frozen before the step: entropy weights, prompt selections,
    kept-proposal indices, and the fusion/scale scalars."""

    weights: np.ndarray     # (M,) per kept proposal, sum > 0
    selections: np.ndarray  # (K, n_sel) prompt indices
    kept: np.ndarray        # (M,) proposal indices into the full set
    lam: float
    kappa: float


@dataclass(frozen=True)
class Forward:
    """One fused-score pass over every proposal, with the intermediates `backward` reads."""

    features: np.ndarray       # (N, d) raw features
    pre: np.ndarray            # (N, h) pre-GELU activations
    hidden: np.ndarray         # (N, h)
    w_up: np.ndarray           # (h, d)
    adapted: np.ndarray        # (N, d) features after the adapter
    unit_features: np.ndarray  # (N, d)
    feature_norms: np.ndarray  # (N, 1)
    class_dirs: np.ndarray     # (K, d)
    selections: np.ndarray     # (K, n_sel) selected prompt indices
    unit_prompts: np.ndarray   # (K, n_sel, d) selected prompts plus delta, normalized, ascending per class
    prompt_norms: np.ndarray   # (K, n_sel, 1)
    mean_dirs: np.ndarray      # (K, d) each class's mean unit prompt (not unit length)
    base: np.ndarray           # (N, K) detector cosine scores
    pooled: np.ndarray         # (N, K) mean selected-prompt cosine: unit_features @ mean_dirs.T
    fused: np.ndarray          # (N, K) convex combination
    bank: np.ndarray           # (K, T, d) prompt embeddings the pass scored against
    delta: np.ndarray          # (d,) prompt residual of the pass
    lam: float

    @property
    def prompts(self) -> np.ndarray:
        """(N, K, T) cosines against every prompt; built on demand, for inspection only."""
        return scoring.prompt_scores(self.adapted, self.bank, self.delta)


def adapter(features: np.ndarray, phi: "AdapterParams") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pre-GELU activations, hidden, adapted features) of the residual bottleneck adapter."""
    v = np.asarray(features, dtype=float)
    pre = v @ phi.w_down + phi.b_down
    hidden = gelu(pre)
    if not phi.w_up.any():  # as in every fresh adapter: the up-projection adds exactly b_up
        return pre, hidden, v + phi.b_up
    up = hidden @ phi.w_up
    up += phi.b_up
    return pre, hidden, np.add(v, up, out=up)


def forward(
    proposals: "ProposalSet", pool: "PromptPool", phi: "AdapterParams", delta: np.ndarray,
    lam: float, selections: np.ndarray | None = None, rho: float = 1.0,
) -> Forward:
    """Adapter, cosine scores, prompt aggregation, and fusion for every proposal.

    When selections is None each class keeps its ceil(rho * T) prompts of
    highest image compatibility, taken from the mean unit feature of this
    pass; passing an array reuses a frozen choice. Each class's mean unit
    selected prompt is scored once: neither the (N, K, T) tensor over the
    whole bank nor an (N, K * n_sel) one is built here.
    """
    features = proposals.features
    bank = pool.embeddings
    delta = np.array(delta, dtype=float)
    if bank.shape[2] != features.shape[1] or delta.shape != (bank.shape[2],):
        raise ValueError(f"incompatible shapes {features.shape}, {bank.shape}, {delta.shape}")
    pre, hidden, adapted = adapter(features, phi)
    unit_features, feature_norms = scoring.unit_rows(adapted)
    class_dirs = scoring.normalize_rows(proposals.class_embeddings)
    if selections is None:
        selections = scoring.select_prompts(scoring.prompt_compat(unit_features, bank, delta), rho)
    shifted = scoring.selected_prompts(bank, selections) + delta
    prompt_norms = np.linalg.norm(shifted, axis=-1, keepdims=True)
    if np.any(prompt_norms <= scoring.EPS):
        k, s = np.argwhere(prompt_norms[..., 0] <= scoring.EPS)[0]
        t = np.sort(selections[k])[s]  # the gather runs in ascending prompt order
        raise scoring.NearZeroRow(f"class {k} prompt {t} plus delta has norm <= {scoring.EPS}")
    unit_prompts = shifted / prompt_norms
    mean_dirs = unit_prompts.mean(axis=1)
    pooled = unit_features @ mean_dirs.T
    base = unit_features @ class_dirs.T
    return Forward(
        features=features, pre=pre, hidden=hidden, w_up=phi.w_up, adapted=adapted,
        unit_features=unit_features, feature_norms=feature_norms, class_dirs=class_dirs,
        selections=selections, unit_prompts=unit_prompts, prompt_norms=prompt_norms,
        mean_dirs=mean_dirs, base=base, pooled=pooled, fused=scoring.fuse(pooled, base, lam),
        bank=bank, delta=delta, lam=lam,
    )


@dataclass(frozen=True)
class _Saved:
    """A forward pass and the objective's constants at its kept rows."""

    fwd: Forward
    kept: np.ndarray       # (M,) proposal indices into the pass
    coeff: np.ndarray      # (M,) weights / weights.sum()
    posterior: np.ndarray  # (M, K) of the kept fused scores
    entropies: np.ndarray  # (M,)
    kappa: float


def objective(fwd: Forward, constants: ObjectiveConstants) -> tuple[float, _Saved]:
    """The adaptation objective at the kept rows of a forward pass: (loss, saved).

    The loss is the weighted mean entropy of the fused-score posteriors of
    the kept proposals. Weights, selections, and kept indices are treated
    as constants, so gradients flow through the entropies only.
    """
    kept = np.asarray(constants.kept, dtype=int)
    if kept.size == 0:
        raise ValueError("no kept proposals; the objective is undefined")
    weights = np.asarray(constants.weights, dtype=float)
    if weights.shape != kept.shape:
        raise ValueError(f"{weights.shape[0]} weights for {kept.shape[0]} kept proposals")
    if weights.sum() <= 0.0:
        raise ValueError("weights must have a positive sum")
    if constants.lam != fwd.lam or not np.array_equal(constants.selections, fwd.selections):
        raise ValueError("constants and forward pass differ in lam or prompt selections")
    p = scoring.posterior(fwd.fused[kept], constants.kappa)
    entropies = scoring.entropy(p)
    loss = cluster.iwe_loss(entropies, weights)
    return loss, _Saved(fwd, kept, weights / weights.sum(), p, entropies, constants.kappa)


def forward_objective(
    proposals: "ProposalSet",
    pool: "PromptPool",
    state: "AdaptState",
    constants: ObjectiveConstants,
) -> tuple[float, _Saved]:
    """The objective under the current adapter and residual: `forward`, then `objective`."""
    fwd = forward(proposals, pool, state.phi, state.delta, constants.lam, constants.selections)
    return objective(fwd, constants)


def backward(saved: _Saved) -> Gradients:
    """Gradients of the loss from `objective` by the hand-derived chain rule."""
    f, kept = saved.fwd, saved.kept
    n_sel = f.selections.shape[1]
    g_fused = saved.coeff[:, None] * _entropy_score_grad(saved.posterior, saved.entropies, saved.kappa)

    unit_features = f.unit_features[kept]
    g_unit = g_fused @ (f.lam * f.mean_dirs + (1.0 - f.lam) * f.class_dirs)
    # each selected prompt of a class gets 1 / n_sel of its mean direction's gradient; sums over
    # kept rows run as (d, M) x (M, .), which a threaded BLAS splits with fewer thread syncs
    g_mean_dirs = (f.lam / n_sel) * np.ascontiguousarray((unit_features.T @ g_fused).T)
    g_prompts = _unit_rows_pullback(g_mean_dirs[:, None, :], f.unit_prompts, f.prompt_norms)
    g_adapted = _unit_rows_pullback(g_unit, unit_features, f.feature_norms[kept])

    if f.w_up.any():
        g_pre = (g_adapted @ f.w_up.T) * gelu_grad(f.pre[kept])
        g_w_down, g_b_down = f.features[kept].T @ g_pre, g_pre.sum(axis=0)
    else:  # a zero up-projection passes no gradient to the down-projection
        g_w_down, g_b_down = np.zeros(f.w_up.T.shape), np.zeros(f.w_up.shape[0])
    return Gradients(
        w_down=g_w_down,
        b_down=g_b_down,
        w_up=np.ascontiguousarray((g_adapted.T @ f.hidden[kept]).T),
        b_up=g_adapted.sum(axis=0),
        delta=g_prompts.sum(axis=(0, 1)),
    )


def fd_check(
    proposals: "ProposalSet",
    pool: "PromptPool",
    state: "AdaptState",
    constants: ObjectiveConstants,
    eps: float = 1e-5,
) -> float:
    """Max relative error between closed-form gradients and central differences.

    The error for one coordinate is |analytic - numeric| / max(1, |numeric|);
    the maximum over every adapter and residual coordinate comes back.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ValueError(f"eps must be in [1e-7, 1e-3]: {eps}")
    _, saved = forward_objective(proposals, pool, state, constants)
    grads = backward(saved)
    # the differences perturb copies, so the caller's parameters are never written
    phi = replace(state.phi, **{f.name: getattr(state.phi, f.name).copy() for f in fields(state.phi)})
    state = replace(state, phi=phi, delta=state.delta.copy())
    pairs = [
        (state.phi.w_down, grads.w_down),
        (state.phi.b_down, grads.b_down),
        (state.phi.w_up, grads.w_up),
        (state.phi.b_up, grads.b_up),
        (state.delta, grads.delta),
    ]
    worst = 0.0
    for values, analytic in pairs:
        flat = values.reshape(-1)
        aflat = analytic.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = forward_objective(proposals, pool, state, constants)[0]
            flat[i] = orig - eps
            lo = forward_objective(proposals, pool, state, constants)[0]
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * eps)
            err = abs(float(aflat[i]) - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
    return worst
