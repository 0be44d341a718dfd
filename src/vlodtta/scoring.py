"""Cosine scores, posteriors, entropies, prompt selection, and score fusion."""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

__all__ = [
    "EPS",
    "NearZeroRow",
    "NonFiniteRow",
    "normalize_rows",
    "norms_from_squares",
    "detector_scores",
    "posterior",
    "entropy",
    "prompt_scores",
    "prompt_compat",
    "select_prompts",
    "aggregate_selected",
    "fuse",
]

EPS = 1e-12


class NearZeroRow(ValueError):
    """A row has L2 norm too close to zero to normalize."""


class NonFiniteRow(ValueError):
    """A row's squared norm is infinite or NaN: computing it overflowed."""


def _row(*index: int) -> str:
    """What an error calls the row at `index`: `row 3`, or `row (1, 2)` in a stack of rows."""
    return f"row {index[0] if len(index) == 1 else index}"


def norms_from_squares(sq: np.ndarray, name: Callable[..., str] = _row) -> np.ndarray:
    """(..., 1) row norms from the (...,) squared norms of rows along a last axis.

    The one rule for which rows can be normalized: NearZeroRow names the
    first row at norm <= EPS, else NonFiniteRow the first whose squared norm
    is infinite or NaN (an overflowed sum, whose scores would all be NaN).
    `name(*index)` is what the error calls the row at `index`.
    """
    ok = (sq > EPS * EPS) & (sq < math.inf)  # NaN fails both
    if not ok.all():
        sq, ok = np.atleast_1d(sq, ok)
        small = sq <= EPS * EPS
        where = tuple(np.argwhere(small if small.any() else ~ok)[0].tolist())
        if small.any():
            raise NearZeroRow(f"{name(*where)} has norm <= {EPS}; cannot normalize")
        raise NonFiniteRow(f"{name(*where)} has squared norm {sq[where]}; cannot normalize")
    return np.sqrt(sq)[..., None]


def normalize_rows(m: np.ndarray) -> np.ndarray:
    """Scale each vector along the last axis to unit L2 norm."""
    m = np.asarray(m, dtype=float)
    out = m * m  # np.linalg.norm's own sum of squares, in a buffer the unit rows then reuse
    return np.divide(m, norms_from_squares(out.sum(axis=-1)), out=out)


def detector_scores(features: np.ndarray, class_embeddings: np.ndarray) -> np.ndarray:
    """Cosine similarity of every region feature against every class embedding.

    As the episode computes it: the features times the unit class rows,
    scaled by each feature's reciprocal norm, so no unit feature row is built.
    """
    v = np.asarray(features, dtype=float)
    t = np.asarray(class_embeddings, dtype=float)
    if v.ndim != 2 or t.ndim != 2 or v.shape[1] != t.shape[1]:
        raise ValueError(f"incompatible shapes {v.shape} x {t.shape}")
    scores = v @ normalize_rows(t).T
    scores *= 1.0 / norms_from_squares(np.einsum("ij,ij->i", v, v))
    return scores


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


def prompt_scores(features: np.ndarray, pool: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Cosine of each region feature against each residual-shifted prompt.

    pool has shape (K, T, d); delta is a single d-vector added to every
    prompt embedding before renormalization. Returns an (N, K, T) tensor.
    """
    v = np.asarray(features, dtype=float)
    e = np.asarray(pool, dtype=float)
    delta = np.asarray(delta, dtype=float)
    if e.ndim != 3 or v.ndim != 2 or v.shape[1] != e.shape[2] or delta.shape != (e.shape[2],):
        raise ValueError(f"incompatible shapes {v.shape}, {e.shape}, {delta.shape}; pool must be (K, T, d)")
    num_classes, pool_size, d = e.shape
    shifted = normalize_rows(e + delta)
    z = normalize_rows(v) @ shifted.reshape(num_classes * pool_size, d).T
    return z.reshape(v.shape[0], num_classes, pool_size)


def prompt_compat(mean_unit: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """Each prompt's image-level compatibility, shape (K, T): its mean cosine over the image's proposals.

    Cosine is linear in the unit feature, so that mean is the prompt
    against the mean unit feature row u, which the caller passes: one
    (K * T, d) x (d,) product over the bank, divided by the bank rows'
    norms. It equals `prompt_scores(features, pool, 0).mean(axis=0)` up
    to rounding, without the (N, K, T) tensor.
    """
    u = np.asarray(mean_unit, dtype=float)
    e = np.asarray(pool, dtype=float)
    if e.ndim != 3 or u.shape != (e.shape[2],):
        raise ValueError(f"incompatible shapes {u.shape}, {e.shape}; need a d-vector and a (K, T, d) pool")
    flat = e.reshape(-1, e.shape[2])
    compat = flat @ u
    compat /= norms_from_squares(np.einsum("ij,ij->i", flat, flat))[:, 0]
    return compat.reshape(e.shape[:2])


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
    """Each class's selected prompt indices in ascending order, after validation (floats are not truncated)."""
    sel = np.asarray(selections)
    if sel.dtype.kind not in "iu":
        raise ValueError(f"selections must hold integer prompt indices, not {sel.dtype}")
    if sel.ndim != 2 or sel.shape[0] != num_classes or sel.shape[1] == 0:
        raise ValueError(f"selections must be ({num_classes}, n_sel): {sel.shape}")
    sorted_sel = np.sort(sel.astype(int, copy=False), axis=-1)
    out_of_range = (sorted_sel[:, 0] < 0) | (sorted_sel[:, -1] >= pool_size)
    if out_of_range.any():
        raise ValueError(f"selection index out of range for class {int(np.argmax(out_of_range))}")
    duplicated = (sorted_sel[:, 1:] == sorted_sel[:, :-1]).any(axis=-1)
    if duplicated.any():
        raise ValueError(f"duplicate prompt index for class {int(np.argmax(duplicated))}")
    return sorted_sel


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
