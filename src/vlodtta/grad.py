"""Closed-form gradient of the single-step adaptation objective.

The objective is one fixed composition: the bottleneck adapter, row
normalization, cosines against class directions and against each class's
mean unit selected prompt (cosine is linear in the unit prompt, so that is
the mean of its prompts' cosines), convex fusion, a softmax entropy, and a
weighted mean. `forward` is the fused-score pass, shared by scoring and the
objective; `objective` takes its kept rows to the loss; `backward` applies
the hand-derived chain rule to the forward's intermediates; `fd_check`
verifies the result against central differences.

The GELU's `erf` is a NumPy port of Cephes' `erf` (`ndtr.c`), the code
`scipy.special.erf` runs for real doubles, in Cephes' operation order, so
it gives the same bits without importing SciPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING

import numpy as np

from . import cluster, scoring

if TYPE_CHECKING:  # pragma: no cover
    from .adapt import AdapterParams, AdaptState
    from .data import PromptPool, ProposalSet

__all__ = [
    "erf",
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

# Cephes ndtr.c: erf(x) = x T(x^2) / U(x^2) for |x| <= 1, and 1 - erfc(|x|) above, with
# erfc(a) = exp(-a^2) P(a) / Q(a); U and Q have a leading 1, which Cephes' `p1evl` leaves out
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
# each ratio's numerator and denominator as (terms, 2, 1) columns, for one Horner pass over
# both; T gets a leading 0.0, which leaves its value bit-identical (0 * z + T0 == T0 for a
# finite z; an infinite z comes from a far x, which the far branch overwrites)
_ERF_TU = np.array([(0.0, *_ERF_T), _ERF_U]).T[:, :, None]
_ERFC_PQ = np.array([_ERFC_P, _ERFC_Q]).T[:, :, None]
# from here on 1 - erfc rounds to exactly 1 (erfc(8) < 1e-28), so Cephes' second erfc
# fit (R/S, used at 8 and above) never shows in erf; clamping there also keeps inf finite
_ERF_SATURATES = 8.0


def _horner(x: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Cephes `polevl` of stacked polynomials at x: (terms, p, 1) coefficients give (p, n).

    Horner's rule from the leading coefficient, in Cephes' operation order;
    with a leading 1.0 it is `p1evl`, since 1.0 * x == x exactly.
    """
    out = coef[0] * x
    out += coef[1]
    for c in coef[2:]:
        out *= x
        out += c
    return out


def erf(x: np.ndarray) -> np.ndarray:
    """The error function, elementwise, with the bits of Cephes' (and `scipy.special`'s) `erf`."""
    shape = np.shape(x)
    x = np.asarray(x, dtype=float).reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):  # huge |x| overflow here; they are far
        z = x * x
        t, u = _horner(z, _ERF_TU)
        out = x * t
        out /= u
    ax = np.abs(x)
    far = ax > 1.0  # NaN stays on the branch above, which returns it
    if far.any():
        a = np.minimum(ax[far], _ERF_SATURATES)
        # libm's exp, as Cephes calls it: np.exp's SIMD loop can differ in the last bit
        erfc = np.array([math.exp(-v * v) for v in a.tolist()])
        p, q = _horner(a, _ERFC_PQ)
        erfc *= p
        erfc /= q
        out[far] = np.copysign(1.0 - erfc, x[far])
    return out.reshape(shape)


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


@dataclass(frozen=True)
class ObjectiveConstants:
    """Quantities frozen before the step: entropy weights, prompt selections,
    kept-proposal indices, and the fusion/scale scalars."""

    weights: np.ndarray     # (M,) per kept proposal, finite sum > 0
    selections: np.ndarray  # (K, n_sel) prompt indices
    kept: np.ndarray        # (M,) proposal indices into the full set
    lam: float
    kappa: float


@dataclass(frozen=True)
class Forward:
    """One fused-score pass over every proposal, with the intermediates `backward` reads.

    The adapted rows a = v + H W_up + b_up are never built: with `_up_factors`
    they are v + L U for an (N, r) L and an (r, d) U, r in {0, h + 1}, so each
    score a x is v x + L (U x) and each |a|^2 comes from (N, r) products.
    """

    features: np.ndarray       # (N, d) raw features v
    pre: np.ndarray            # (N, h) pre-GELU activations
    hidden: np.ndarray         # (N, h)
    phi: "AdapterParams"       # the adapter of the pass
    feature_class: np.ndarray  # (N, K) v @ class_dirs.T
    feature_up: np.ndarray     # (N, r) v @ U.T, U from `_up_factors`
    feature_norms: np.ndarray  # (N, 1) |a|
    class_dirs: np.ndarray     # (K, d)
    selections: np.ndarray     # (K, n_sel) selected prompt indices
    prompt_rows: np.ndarray    # (K, n_sel) rows k * T + t of the flat bank, ascending per class
    unit_prompts: np.ndarray   # (K, n_sel, d) selected prompts plus delta, normalized, ascending per class
    prompt_norms: np.ndarray   # (K, n_sel, 1)
    mean_dirs: np.ndarray      # (K, d) each class's mean unit prompt (not unit length)
    base: np.ndarray           # (N, K) detector cosine scores
    pooled: np.ndarray         # (N, K) mean selected-prompt cosine: unit adapted rows @ mean_dirs.T
    fused: np.ndarray          # (N, K) convex combination
    delta: np.ndarray          # (d,) prompt residual of the pass
    lam: float

    @property
    def adapted(self) -> np.ndarray:
        """(N, d) features after the adapter; built on demand, for inspection only."""
        return adapter(self.features, self.phi, (self.pre, self.hidden))[2]


def _down(v: np.ndarray, phi: "AdapterParams") -> tuple[np.ndarray, np.ndarray]:
    """(pre-GELU activations, hidden) of the adapter's down-projection."""
    pre = v @ phi.w_down + phi.b_down
    return pre, gelu(pre)


def _up_factors(hidden: np.ndarray, w_up: np.ndarray, b_up: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L, U) with L @ U == hidden @ w_up + b_up.

    For a zero w_up and b_up (every fresh adapter) L is (N, 0) and U (0, d);
    otherwise L is [hidden, 1] and U is [w_up; b_up], so r = h + 1. A zero
    row of U there adds exact zeros.
    """
    if not (w_up.any() or b_up.any()):
        return np.zeros((hidden.shape[0], 0)), np.zeros((0, b_up.shape[0]))
    return np.hstack([hidden, np.ones((hidden.shape[0], 1))]), np.vstack([w_up, b_up[None]])


def adapter(
    features: np.ndarray, phi: "AdapterParams", down: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pre-GELU activations, hidden, adapted features) of the residual bottleneck adapter.

    `down` is the (pre, hidden) pair of these features under phi's W_down and
    b_down, when the caller already has it.
    """
    v = np.asarray(features, dtype=float)
    pre, hidden = _down(v, phi) if down is None else down
    up = hidden @ phi.w_up
    up += phi.b_up
    return pre, hidden, np.add(v, up, out=up)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (N, c) arrays, without an (N, c) temporary."""
    return np.einsum("ij,ij->i", a, b)


def forward(
    proposals: "ProposalSet", pool: "PromptPool", phi: "AdapterParams", delta: np.ndarray,
    lam: float, selections: np.ndarray, reuse: Forward | None = None,
) -> Forward:
    """Adapter, cosine scores, prompt aggregation, and fusion for every proposal.

    `selections` holds each class's selected prompt indices (see
    `adapt.SceneWork` for how an episode picks them); it is validated
    unless it is `reuse.selections`. Each class's mean
    unit selected prompt is scored once: neither the (N, K, T) tensor over
    the whole bank nor an (N, K * n_sel) one is built here, and no (N, d)
    array either (see `Forward`). `reuse` is an earlier pass over the same
    proposals and bank under the same W_down and b_down: its `pre`, `hidden`,
    `class_dirs` and `feature_class` are taken as they are, and its
    `prompt_rows` when `selections is reuse.selections`.
    """
    v = proposals.features
    bank = pool.embeddings
    delta = np.array(delta, dtype=float)
    if bank.shape[2] != v.shape[1] or delta.shape != (bank.shape[2],):
        raise ValueError(f"incompatible shapes {v.shape}, {bank.shape}, {delta.shape}")
    feature_sq = proposals.feature_sq
    if reuse is None:
        pre, hidden = _down(v, phi)
        class_dirs = scoring.normalize_rows(proposals.class_embeddings)
        feature_class = v @ class_dirs.T
    else:
        pre, hidden, class_dirs, feature_class = reuse.pre, reuse.hidden, reuse.class_dirs, reuse.feature_class

    # |a|^2 = |v|^2 + 2 v.(L U) + |L U|^2, each from (N, r) products
    low, up = _up_factors(hidden, phi.w_up, phi.b_up)
    rank = up.shape[0]
    if rank:
        feature_up = v @ up.T
        up_sq = _rowdot(low @ (up @ up.T), low)
        sq = feature_sq + 2.0 * _rowdot(low, feature_up) + up_sq
        scale = feature_sq + up_sq
    else:
        feature_up, sq, scale = np.zeros((v.shape[0], 0)), feature_sq, feature_sq
    # the expansion is rounding error where the adapter nearly cancels a row: adapt those directly
    near = np.flatnonzero(sq <= 1e-8 * scale)
    if near.size:
        direct = v[near] + low[near] @ up
        sq = sq.copy()
        sq[near] = _rowdot(direct, direct)
    feature_norms = scoring.norms_from_squares(sq)
    inv_norms = 1.0 / feature_norms

    if reuse is not None and selections is reuse.selections:
        rows = reuse.prompt_rows
    else:
        # rows k * T + t of the flat (K * T, d) bank for each class's selected prompts t
        sorted_sel = scoring._sorted_selection(selections, *bank.shape[:2])
        rows = sorted_sel + bank.shape[1] * np.arange(bank.shape[0])[:, None]
    # one fresh float array (the bank may hold integers), shifted and normalized in place into the unit prompts
    unit_prompts = bank.reshape(-1, bank.shape[2]).take(rows, axis=0).astype(float, copy=False)
    unit_prompts += delta
    # np.linalg.norm's operations, without its conj() copy
    prompt_norms = np.sqrt(np.add.reduce(unit_prompts * unit_prompts, axis=-1, keepdims=True))
    if np.any(prompt_norms <= scoring.EPS):
        k, s = np.argwhere(prompt_norms[..., 0] <= scoring.EPS)[0]
        t = rows[k, s] - k * bank.shape[1]
        raise scoring.NearZeroRow(f"class {k} prompt {t} plus delta has norm <= {scoring.EPS}")
    unit_prompts /= prompt_norms
    mean_dirs = unit_prompts.mean(axis=1)

    def cosines(v_dirs: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        """a dirs.T scaled by 1 / |a|, from v dirs.T."""
        if rank:
            out = v_dirs + low @ (up @ dirs.T)
            out *= inv_norms
        else:
            out = v_dirs * inv_norms
        if near.size:
            out[near] = (direct @ dirs.T) * inv_norms[near]
        return out

    base = cosines(feature_class, class_dirs)
    pooled = cosines(v @ mean_dirs.T, mean_dirs)
    return Forward(
        features=v, pre=pre, hidden=hidden, phi=phi, feature_class=feature_class,
        feature_up=feature_up, feature_norms=feature_norms, class_dirs=class_dirs, selections=selections, prompt_rows=rows, unit_prompts=unit_prompts,
        prompt_norms=prompt_norms, mean_dirs=mean_dirs, base=base, pooled=pooled,
        fused=scoring.fuse(pooled, base, lam), delta=delta, lam=lam,
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
    the kept proposals (`cluster.iwe_loss`, which rejects a weight sum that
    is not finite and positive). Weights, selections, and kept indices are
    treated as constants, so gradients flow through the entropies only.
    """
    kept = np.asarray(constants.kept)
    if kept.size == 0:
        raise ValueError("no kept proposals; the objective is undefined")
    if kept.dtype.kind not in "iu":  # a float or bool array would be truncated to other rows
        raise ValueError(f"kept must hold integer proposal indices, not {kept.dtype}")
    if kept.min() < 0 or kept.max() >= fwd.fused.shape[0] or np.unique(kept).size != kept.size:
        # `backward` scatters per-row terms by these indices, so no row may appear twice (-1 aliases N - 1)
        raise ValueError(f"kept must hold distinct proposal indices in [0, {fwd.fused.shape[0]})")
    weights = np.asarray(constants.weights, dtype=float)
    if weights.shape != kept.shape:
        raise ValueError(f"{weights.shape[0]} weights for {kept.shape[0]} kept proposals")
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
    """Gradients of the loss from `objective` by the hand-derived chain rule.

    Through the unit row a / |a| the gradient of an adapted row a is
    (g_unit - (g_unit . a/|a|) a/|a|) / |a| with g_unit = g_fused dirs, and
    g_unit . a/|a| is g_fused . fused. So g_a = alpha dirs - beta a with
    alpha = g_fused / |a| and beta = (g_fused . fused) / |a|^2, and with
    a = v + L U (`_up_factors`) every gradient comes from (M, h + 1)
    products and one product of v with a row matrix that is zero outside
    the kept rows; no (M, d) array is built.
    """
    f, kept = saved.fwd, saved.kept
    n_sel = f.selections.shape[1]
    num_classes, hid = f.class_dirs.shape[0], f.hidden.shape[1]
    w_up, b_up = f.phi.w_up, f.phi.b_up
    g_fused = saved.coeff[:, None] * _entropy_score_grad(saved.posterior, saved.entropies, saved.kappa)

    dirs = f.lam * f.mean_dirs + (1.0 - f.lam) * f.class_dirs
    inv_norms = 1.0 / f.feature_norms[kept]
    alpha = g_fused * inv_norms
    beta = _rowdot(g_fused, f.fused[kept])[:, None] * inv_norms * inv_norms
    hidden = f.hidden[kept]
    low, up = _up_factors(hidden, w_up, b_up)
    # [H, 1]: the columns against [W_up; b_up], which get gradient even where they are zero
    full_low = low if up.shape[0] else np.hstack([hidden, np.ones((hidden.shape[0], 1))])
    cols = [alpha, beta * full_low]
    down_moves = w_up.any()  # a zero up-projection passes no gradient to the down-projection
    if down_moves:
        # g_a W_up.T = alpha (dirs W_up.T) - beta (v W_up.T + L (U W_up.T))
        a_w_up = f.feature_up[kept, :hid] + low @ (up @ w_up.T)
        g_pre = (alpha @ (dirs @ w_up.T) - beta * a_w_up) * gelu_grad(f.pre[kept])
        cols.append(g_pre)
    rows = np.zeros((f.features.shape[0], sum(c.shape[1] for c in cols)))
    rows[kept] = np.hstack(cols)
    # sums over kept rows run as (d, N) x (N, .), which a threaded BLAS splits with fewer thread syncs
    v_rows = f.features.T @ rows
    v_alpha, v_beta_low = v_rows[:, :num_classes], v_rows[:, num_classes:num_classes + hid + 1]

    # each selected prompt of a class gets 1 / n_sel of its mean direction's gradient
    g_mean_dirs = (f.lam / n_sel) * (v_alpha.T + (alpha.T @ low) @ up)
    g_prompts = _unit_rows_pullback(g_mean_dirs[:, None, :], f.unit_prompts, f.prompt_norms)
    g_up = full_low.T @ alpha @ dirs - v_beta_low.T - (full_low.T @ (beta * low)) @ up

    if down_moves:
        g_w_down, g_b_down = np.ascontiguousarray(v_rows[:, num_classes + hid + 1:]), g_pre.sum(axis=0)
    else:
        g_w_down, g_b_down = np.zeros(w_up.T.shape), np.zeros(hid)
    return Gradients(
        w_down=g_w_down,
        b_down=g_b_down,
        w_up=g_up[:hid],
        b_up=g_up[hid],
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
    pairs = [(getattr(state.phi, f.name), getattr(grads, f.name)) for f in fields(state.phi)]
    pairs.append((state.delta, grads.delta))
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
