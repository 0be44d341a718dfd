"""Cosine scores, posteriors, entropies, prompt selection, and score fusion."""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "EPS",
    "NearZeroRow",
    "normalize_rows",
    "detector_scores",
    "posterior",
    "entropy",
    "prompt_scores",
    "image_prompt_compat",
    "select_prompts",
    "aggregate_selected",
    "fuse",
]

EPS = 1e-12


class NearZeroRow(ValueError):
    """A row has L2 norm too close to zero to normalize."""


def normalize_rows(m: np.ndarray) -> np.ndarray:
    """Scale each vector along the last axis to unit L2 norm."""
    m = np.asarray(m, dtype=float)
    norms = np.linalg.norm(m, axis=-1, keepdims=True)
    if np.any(norms <= EPS):
        raise NearZeroRow(f"row norm <= {EPS}; cannot normalize")
    return m / norms


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
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def entropy(p: np.ndarray) -> np.ndarray:
    """Shannon entropy of each row, with 0 * log(0) taken as 0."""
    p = np.asarray(p, dtype=float)
    plogp = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return -plogp.sum(axis=-1)


def prompt_scores(features: np.ndarray, pool: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Cosine of each region feature against each residual-shifted prompt.

    pool has shape (K, T, d); delta is a single d-vector added to every
    prompt embedding before renormalization. Returns an (N, K, T) tensor.
    """
    v = np.asarray(features, dtype=float)
    e = np.asarray(pool, dtype=float)
    delta = np.asarray(delta, dtype=float)
    if e.ndim != 3:
        raise ValueError(f"pool must be (K, T, d): {e.shape}")
    num_classes, pool_size, d = e.shape
    if v.ndim != 2 or v.shape[1] != d or delta.shape != (d,):
        raise ValueError(f"incompatible shapes {v.shape}, {e.shape}, {delta.shape}")
    shifted = normalize_rows(e + delta)
    z = normalize_rows(v) @ shifted.reshape(num_classes * pool_size, d).T
    return z.reshape(v.shape[0], num_classes, pool_size)


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


def aggregate_selected(z: np.ndarray, selections: np.ndarray) -> np.ndarray:
    """Mean prompt score over each class's selected prompt set."""
    z = np.asarray(z, dtype=float)
    sel = np.asarray(selections, dtype=int)
    if z.ndim != 3 or sel.ndim != 2 or sel.shape[0] != z.shape[1]:
        raise ValueError(f"incompatible shapes {z.shape}, {sel.shape}")
    if sel.min() < 0 or sel.max() >= z.shape[2]:
        raise ValueError("selection index out of range")
    sorted_sel = np.sort(sel, axis=-1)
    duplicated = (np.diff(sorted_sel, axis=-1) == 0).any(axis=-1)
    if duplicated.any():
        raise ValueError(f"duplicate prompt index for class {int(np.argmax(duplicated))}")
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
    return lam * a + (1.0 - lam) * b
