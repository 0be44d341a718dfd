"""Cosine scores, posteriors, entropies, prompt selection, and score fusion."""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "EPS",
    "NearZeroRow",
    "normalize_rows",
    "unit_rows",
    "detector_scores",
    "posterior",
    "entropy",
    "prompt_scores",
    "prompt_compat",
    "image_prompt_compat",
    "select_prompts",
    "selected_prompts",
    "aggregate_selected",
    "fuse",
]

EPS = 1e-12


class NearZeroRow(ValueError):
    """A row has L2 norm too close to zero to normalize."""


def unit_rows(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(each vector along the last axis scaled to unit L2 norm, the norms with a trailing axis of 1)."""
    m = np.asarray(m, dtype=float)
    out = m * m  # np.linalg.norm's own sum of squares, in a buffer the unit rows then reuse
    norms = np.sqrt(out.sum(axis=-1, keepdims=True))
    if np.any(norms <= EPS):
        where = np.argwhere(np.atleast_1d(norms[..., 0] <= EPS))[0].tolist()
        row = where[0] if len(where) == 1 else tuple(where)
        raise NearZeroRow(f"row {row} has norm <= {EPS}; cannot normalize")
    return np.divide(m, norms, out=out), norms


def normalize_rows(m: np.ndarray) -> np.ndarray:
    """Scale each vector along the last axis to unit L2 norm."""
    return unit_rows(m)[0]


def detector_scores(features: np.ndarray, class_embeddings: np.ndarray) -> np.ndarray:
    """Cosine similarity of every region feature against every class embedding."""
    v = np.asarray(features, dtype=float)
    t = np.asarray(class_embeddings, dtype=float)
    if v.ndim != 2 or t.ndim != 2 or v.shape[1] != t.shape[1]:
        raise ValueError(f"incompatible shapes {v.shape} x {t.shape}")
    return normalize_rows(v) @ normalize_rows(t).T


def posterior(scores: np.ndarray, kappa: float) -> np.ndarray:
    """Row-wise softmax of kappa-scaled scores, computed with max subtraction."""
    if not (math.isfinite(kappa) and kappa > 0.0):
        raise ValueError(f"kappa must be finite and positive: {kappa}")
    z = kappa * np.asarray(scores, dtype=float)
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def entropy(p: np.ndarray) -> np.ndarray:
    """Shannon entropy of each row, with 0 * log(0) taken as 0."""
    p = np.asarray(p, dtype=float)
    plogp = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return -plogp.sum(axis=-1)


def _prompt_inputs(
    features: np.ndarray, pool: np.ndarray, delta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Features (N, d), a (K, T, d) pool and a d-vector delta as float arrays."""
    v = np.asarray(features, dtype=float)
    e = np.asarray(pool, dtype=float)
    delta = np.asarray(delta, dtype=float)
    if e.ndim != 3:
        raise ValueError(f"pool must be (K, T, d): {e.shape}")
    d = e.shape[2]
    if v.ndim != 2 or v.shape[1] != d or delta.shape != (d,):
        raise ValueError(f"incompatible shapes {v.shape}, {e.shape}, {delta.shape}")
    return v, e, delta


def prompt_scores(features: np.ndarray, pool: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Cosine of each region feature against each residual-shifted prompt.

    pool has shape (K, T, d); delta is a single d-vector added to every
    prompt embedding before renormalization. Returns an (N, K, T) tensor.
    """
    v, e, delta = _prompt_inputs(features, pool, delta)
    num_classes, pool_size, d = e.shape
    shifted = normalize_rows(e + delta)
    z = normalize_rows(v) @ shifted.reshape(num_classes * pool_size, d).T
    return z.reshape(v.shape[0], num_classes, pool_size)


def prompt_compat(unit_features: np.ndarray, pool: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Mean prompt score over all proposals, shape (K, T), without the (N, K, T) tensor.

    The features must already be unit rows. Cosine is linear in the unit
    feature, so the proposal mean of the prompt scores is each shifted
    prompt against the mean unit feature u: for a prompt e, (e.u + delta.u)
    / sqrt(|e|^2 + 2 e.delta + |delta|^2), which one (K * T, d) x (d, 2)
    product gives without shifting the bank. It equals
    `image_prompt_compat(prompt_scores(...))` up to rounding.
    """
    v, e, delta = _prompt_inputs(unit_features, pool, delta)
    if v.shape[0] < 1:
        raise ValueError("expected at least one feature row")
    num_classes, pool_size, d = e.shape
    flat, u = e.reshape(num_classes * pool_size, d), v.mean(axis=0)
    e_u, e_delta = (flat @ np.stack([u, delta], axis=1)).T
    e_sq, delta_sq = np.einsum("ij,ij->i", flat, flat), delta @ delta
    num, sq = e_u + delta @ u, e_sq + 2.0 * e_delta + delta_sq
    # the expansion is rounding error where delta nearly cancels a prompt: shift those directly
    near = sq <= 1e-8 * (e_sq + delta_sq)
    num[near], sq[near] = (flat[near] + delta) @ u, np.square(flat[near] + delta).sum(axis=-1)
    if np.any(sq <= EPS * EPS):
        k, t = divmod(int(np.argmax(sq <= EPS * EPS)), pool_size)
        raise NearZeroRow(f"class {k} prompt {t} plus delta has norm <= {EPS}")
    return (num / np.sqrt(sq)).reshape(num_classes, pool_size)


def image_prompt_compat(z: np.ndarray) -> np.ndarray:
    """Mean prompt score over all proposals: how well each prompt fits the image."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 3 or z.shape[0] < 1:
        raise ValueError(f"expected a non-empty (N, K, T) tensor: {z.shape}")
    return z.mean(axis=0)


def select_prompts(compat: np.ndarray, rho: float) -> np.ndarray:
    """Per class, the ceil(rho * T) prompt indices with the largest compatibility.

    Indices come back in descending compatibility order; ties keep the lower
    prompt index first.
    """
    if not (0.0 < rho <= 1.0):
        raise ValueError(f"rho must be in (0, 1]: {rho}")
    r = np.asarray(compat, dtype=float)
    if r.ndim != 2:
        raise ValueError(f"compat must be (K, T): {r.shape}")
    pool_size = r.shape[1]
    n_sel = min(pool_size, max(1, math.ceil(rho * pool_size)))
    return np.argsort(-r, axis=1, kind="stable")[:, :n_sel]


def _sorted_selection(selections: np.ndarray, num_classes: int, pool_size: int) -> np.ndarray:
    """Each class's selected prompt indices in ascending order, after validation."""
    sel = np.asarray(selections, dtype=int)
    if sel.ndim != 2 or sel.shape[0] != num_classes:
        raise ValueError(f"selections must be ({num_classes}, n_sel): {sel.shape}")
    out_of_range = ((sel < 0) | (sel >= pool_size)).any(axis=-1)
    if out_of_range.any():
        raise ValueError(f"selection index out of range for class {int(np.argmax(out_of_range))}")
    sorted_sel = np.sort(sel, axis=-1)
    duplicated = (np.diff(sorted_sel, axis=-1) == 0).any(axis=-1)
    if duplicated.any():
        raise ValueError(f"duplicate prompt index for class {int(np.argmax(duplicated))}")
    return sorted_sel


def selected_prompts(pool: np.ndarray, selections: np.ndarray) -> np.ndarray:
    """Each class's selected prompt embeddings, shape (K, n_sel, d), in ascending index order."""
    e = np.asarray(pool, dtype=float)
    if e.ndim != 3:
        raise ValueError(f"pool must be (K, T, d): {e.shape}")
    sorted_sel = _sorted_selection(selections, e.shape[0], e.shape[1])
    return e[np.arange(e.shape[0])[:, None], sorted_sel]


def aggregate_selected(z: np.ndarray, selections: np.ndarray) -> np.ndarray:
    """Mean prompt score over each class's selected prompt set."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 3:
        raise ValueError(f"expected an (N, K, T) tensor: {z.shape}")
    sorted_sel = _sorted_selection(selections, z.shape[1], z.shape[2])
    if sorted_sel.shape[1] == z.shape[2]:
        # a full selection must reduce in the same order as the plain mean,
        # so the rho = 1 case matches it bit for bit
        return z.mean(axis=-1)
    pooled = z[:, np.arange(z.shape[1])[:, None], sorted_sel].mean(axis=-1)
    # the gather comes back transposed; row sums over a transposed result
    # would round differently downstream, so hand back C order
    return np.ascontiguousarray(pooled)


def fuse(prompt_score: np.ndarray, base_score: np.ndarray, lam: float) -> np.ndarray:
    """Convex combination lam * prompt_score + (1 - lam) * base_score."""
    if not (0.0 <= lam <= 1.0):
        raise ValueError(f"lam must be in [0, 1]: {lam}")
    a = np.asarray(prompt_score, dtype=float)
    b = np.asarray(base_score, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    out = lam * a
    out += (1.0 - lam) * b
    return out
