"""Class-wise IoU overlap graphs, connected components, and entropy weights."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import geometry
from .geometry import Box
from .geometry import iou_matrix  # unused: perfbench's tracer looks up cluster.iou_matrix by name

__all__ = [
    "DegenerateWeights",
    "ClusterAssignment",
    "predicted_classes",
    "build_class_graphs",
    "cluster_weights",
    "iwe_loss",
]


class DegenerateWeights(ValueError):
    """Entropy weights do not sum to a finite positive total; the weighted mean is undefined."""


@dataclass(frozen=True)
class ClusterAssignment:
    """Connected-component labels for one image's proposals."""

    classes: np.ndarray         # (N,) predicted class per proposal
    component_id: np.ndarray    # (N,) smallest member index of the component
    component_size: np.ndarray  # (N,) member count of the component


def predicted_classes(scores: np.ndarray) -> np.ndarray:
    """Row argmax; ties resolve to the lower class index."""
    return np.argmax(np.asarray(scores, dtype=float), axis=-1)


def build_class_graphs(
    boxes: Sequence[Box] | np.ndarray, classes: np.ndarray, theta: float,
    overlaps: geometry.OverlapList | None = None,
) -> ClusterAssignment:
    """Connected components of the per-class graphs with edges where IoU >= theta.

    Proposals of different predicted classes are never connected: the edge
    list is a query of the image's overlap list (`geometry.OverlapList`),
    read at these boxes, which pairs same-class boxes only; with no
    `overlaps`, one is listed from the arguments. Labels come from
    min-label propagation over the edge list with pointer jumping, so each
    component id is its smallest member index and does not depend on the
    order of the edges.
    """
    if not (0.0 <= theta <= 1.0):
        raise ValueError(f"theta must be in [0, 1]: {theta}")
    classes = np.asarray(classes, dtype=int)
    if overlaps is None:
        overlaps = geometry.overlap_list(boxes, classes, theta)
    elif len(overlaps) != classes.shape[0]:
        raise ValueError(f"an overlap list read at {len(overlaps)} rows for {classes.shape[0]} classes")
    ii, jj, _ = overlaps.pairs(classes, theta)
    n = classes.shape[0]
    component_id = np.arange(n)
    while True:
        # labels only decrease and always name a member, so at the fixed
        # point each component carries its smallest index
        nxt = component_id.copy()
        np.minimum.at(nxt, ii, component_id[jj])
        np.minimum.at(nxt, jj, component_id[ii])
        nxt = nxt[nxt]
        if np.array_equal(nxt, component_id):
            break
        component_id = nxt
    sizes = np.bincount(component_id, minlength=n)[component_id]
    return ClusterAssignment(classes=classes, component_id=component_id, component_size=sizes)


def cluster_weights(assignment: ClusterAssignment, gamma: float) -> np.ndarray:
    """Per-proposal weight: its component size raised to gamma (DegenerateWeights if their sum overflows)."""
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite: {gamma}")
    with np.errstate(over="ignore"):
        weights = assignment.component_size.astype(float) ** float(gamma)
        if not math.isfinite(weights.sum()):
            raise DegenerateWeights(f"gamma={gamma} overflows the weights or their sum")
    return weights


def iwe_loss(entropies: np.ndarray, weights: np.ndarray) -> float:
    """Weighted mean entropy; the weights act as constants, never differentiated."""
    h = np.asarray(entropies, dtype=float)
    w = np.asarray(weights, dtype=float)
    if h.shape != w.shape or h.ndim != 1:
        raise ValueError(f"shape mismatch {h.shape} vs {w.shape}")
    with np.errstate(over="ignore"):
        total = float(w.sum())
    if not (math.isfinite(total) and total > 0.0):
        raise DegenerateWeights(f"weights sum to {total}; need a finite positive total")
    return float(np.dot(w, h) / total)
