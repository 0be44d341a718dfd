"""Shared data containers and their JSON wire format."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Box
from .scoring import EPS, NearZeroRow

__all__ = [
    "GroundTruth",
    "PromptPool",
    "ProposalSet",
    "SCENE_JSON_KEYS",
    "scene_to_json",
    "scene_from_json",
]

SCENE_JSON_KEYS = ("d", "K", "T", "boxes", "features", "class_embeddings", "prompt_pool", "gt")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# what each field kind is called in an error, and its test
_KINDS = {
    "int": ("an integer", _is_int),
    "float": ("a finite number", lambda v: _is_int(v) or (isinstance(v, float) and math.isfinite(v))),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "int_pair": ("a tuple of two integers", lambda v: isinstance(v, tuple) and len(v) == 2 and all(map(_is_int, v))),
    "str_tuple": ("a tuple of strings", lambda v: isinstance(v, tuple) and all(isinstance(s, str) for s in v)),
}


@functools.lru_cache
def _rule(spec: str):
    """(kind text, kind test, range text, range test) of a spec such as "float in (0, 1]"."""
    kind, _, bound = spec.partition(" ")
    op, _, limits = bound.partition(" ")
    if op == "in":
        lo, hi = (float(x) for x in limits[1:-1].split(","))
        in_range = (lambda v: lo < v <= hi) if limits[0] == "(" else (lambda v: lo <= v <= hi)
    elif op:
        limit = float(limits)
        in_range = (lambda v: v > limit) if op == ">" else (lambda v: v >= limit)
    else:
        in_range = lambda v: True
    return (*_KINDS[kind], bound, in_range)


def _check_fields(values: dict, /, error: type[ValueError] = ValueError, **specs: str) -> None:
    """Check `values[name]` for each `name=spec`: first its kind, then its range.

    A spec is a kind from `_KINDS`, optionally followed by `>= x`, `> x`,
    `in [a, b]` or `in (a, b]`. `int` takes no bool; `float` takes a finite
    float or an int, but no bool. A failure raises `error` naming the field.
    """
    for name, spec in specs.items():
        value = values[name]
        what, is_kind, bound, in_range = _rule(spec)
        if not is_kind(value):
            raise error(f"{name} must be {what}: {value!r}")
        if not in_range(value):
            raise error(f"{name} must be {bound}: {value!r}")


def _check_arrays(values: dict, *names: str) -> None:
    """Raise ValueError naming the first of `names` that is not an ndarray of integers or floats."""
    for name in names:
        value = values[name]
        if not isinstance(value, np.ndarray) or value.dtype.kind not in "iuf":
            what = f"{value.dtype} array" if isinstance(value, np.ndarray) else type(value).__name__
            raise ValueError(f"{name} must be an integer or float array, not {what}")


def _floats(value, what: str) -> np.ndarray:
    """A JSON value as a float array; one that is not numbers raises ValueError naming `what`."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} must be numbers: {exc}") from None


def _first_zero_row(m: np.ndarray) -> list[int] | None:
    """Index of the first vector along the last axis that cannot be normalized, if any."""
    bad = np.linalg.norm(m, axis=-1) <= EPS
    return np.argwhere(bad)[0].tolist() if bad.any() else None


@dataclass(frozen=True)
class GroundTruth:
    """An annotated object: its box and class."""

    box: Box
    class_id: int

    def __post_init__(self) -> None:
        if not isinstance(self.box, Box):
            raise ValueError(f"box must be a Box, not {type(self.box).__name__}")
        _check_fields(vars(self), class_id="int >= 0")


@dataclass(frozen=True)
class PromptPool:
    """Per-class bank of prompt embeddings, shape (K, T, d)."""

    embeddings: np.ndarray

    def __post_init__(self) -> None:
        _check_arrays(vars(self), "embeddings")
        e = self.embeddings
        if e.ndim != 3:
            raise ValueError("embeddings must be a (K, T, d) array")
        if e.shape[0] < 2 or e.shape[1] < 1 or e.shape[2] < 2:
            raise ValueError(f"need K >= 2, T >= 1, d >= 2: {e.shape}")
        if not np.all(np.isfinite(e)):
            raise ValueError("embeddings must be finite")
        zero = _first_zero_row(e)
        if zero is not None:
            raise NearZeroRow(f"class {zero[0]} prompt {zero[1]} has norm <= {EPS}")

    @property
    def num_classes(self) -> int:
        return self.embeddings.shape[0]

    @property
    def pool_size(self) -> int:
        return self.embeddings.shape[1]

    @property
    def d(self) -> int:
        return self.embeddings.shape[2]


@dataclass(frozen=True)
class ProposalSet:
    """One image's candidate boxes, region features, and class embeddings."""

    boxes: np.ndarray             # (N, 4) as x1, y1, x2, y2
    features: np.ndarray          # (N, d)
    class_embeddings: np.ndarray  # (K, d)
    # (N,) squared feature norms, computed here once for every scoring pass; neither given nor compared
    feature_sq: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_arrays(vars(self), "boxes", "features", "class_embeddings")
        b, v, t = self.boxes, self.features, self.class_embeddings
        if b.ndim != 2 or b.shape[1] != 4:
            raise ValueError(f"boxes must be (N, 4): {b.shape}")
        if v.ndim != 2 or v.shape[0] != b.shape[0]:
            raise ValueError(f"features must be (N, d): {v.shape} for {b.shape[0]} boxes")
        if t.ndim != 2 or t.shape[1] != v.shape[1] or t.shape[0] < 2 or t.shape[1] < 2:
            raise ValueError(f"class embeddings must be (K>=2, d>=2): {t.shape}")
        for arr in (b, v, t):
            if not np.all(np.isfinite(arr)):
                raise ValueError("arrays must be finite")
        # squared in float64: integer squares would wrap, and a float64 array is squared as it is
        f = np.asarray(v, dtype=float)
        sq = np.einsum("ij,ij->i", f, f)
        sq.flags.writeable = False
        object.__setattr__(self, "feature_sq", sq)
        small = np.sqrt(sq) <= EPS
        if small.any():
            raise NearZeroRow(f"feature row {int(np.argmax(small))} has norm <= {EPS}")
        zero = _first_zero_row(t)
        if zero is not None:
            raise NearZeroRow(f"class {zero[0]} embedding has norm <= {EPS}")
        if b.shape[0] and not (np.all(b[:, 0] < b[:, 2]) and np.all(b[:, 1] < b[:, 3])):
            raise ValueError("every box needs x1 < x2 and y1 < y2")

    @property
    def n(self) -> int:
        return self.boxes.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return self.class_embeddings.shape[0]


def _check_pool(proposals: ProposalSet, pool: PromptPool) -> None:
    """Raise ValueError unless the prompt pool has the proposal set's class count and feature dim."""
    if pool.num_classes != proposals.num_classes or pool.d != proposals.d:
        raise ValueError(
            f"prompt pool does not match the proposal set: (K, T, d) = {pool.embeddings.shape}"
            f" for K = {proposals.num_classes}, d = {proposals.d}"
        )


def scene_to_json(proposals: ProposalSet, pool: PromptPool, gts: list[GroundTruth]) -> dict:
    """Serialize one scene to the documented JSON layout."""
    _check_pool(proposals, pool)
    for gt in gts:  # what scene_from_json accepts back
        _check_fields(vars(gt), class_id=f"int in [0, {proposals.num_classes - 1}]")
    return {
        "d": proposals.d,
        "K": proposals.num_classes,
        "T": pool.pool_size,
        "boxes": proposals.boxes.tolist(),
        "features": proposals.features.tolist(),
        "class_embeddings": proposals.class_embeddings.tolist(),
        "prompt_pool": pool.embeddings.tolist(),
        "gt": [
            {"box": [gt.box.x1, gt.box.y1, gt.box.x2, gt.box.y2], "class_id": gt.class_id}
            for gt in gts
        ],
    }


def scene_from_json(doc: dict) -> tuple[ProposalSet, PromptPool, list[GroundTruth]]:
    """Parse the documented scene layout; unknown or missing keys are rejected."""
    if not isinstance(doc, dict):
        raise ValueError(f"a scene document must be a JSON object, not {type(doc).__name__}")
    if set(doc) != set(SCENE_JSON_KEYS):
        missing = sorted(set(SCENE_JSON_KEYS) - set(doc))
        unknown = sorted(set(doc) - set(SCENE_JSON_KEYS))
        raise ValueError(f"bad scene keys: missing {missing}, unknown {unknown}")
    _check_fields(doc, d="int >= 2", K="int >= 2", T="int >= 1")
    d, num_classes, pool_size = doc["d"], doc["K"], doc["T"]
    boxes, features, class_embeddings, pool = (
        _floats(doc[key], key) for key in ("boxes", "features", "class_embeddings", "prompt_pool")
    )
    if boxes.size == 0:  # a scene without proposals writes both as []
        boxes, features = boxes.reshape(0, 4), features.reshape(0, d)
    if class_embeddings.shape != (num_classes, d):
        raise ValueError(f"class_embeddings must be ({num_classes}, {d}): {class_embeddings.shape}")
    if pool.shape != (num_classes, pool_size, d):
        raise ValueError(f"prompt_pool must be ({num_classes}, {pool_size}, {d}): {pool.shape}")
    if not isinstance(doc["gt"], list):
        raise ValueError(f"gt must be a list of objects, not {type(doc['gt']).__name__}")
    gts = []
    for row in doc["gt"]:
        if not isinstance(row, dict):
            raise ValueError(f"gt entry must be an object: {row!r}")
        if set(row) != {"box", "class_id"}:
            raise ValueError(f"bad gt entry keys: {sorted(row)}")
        _check_fields(row, class_id=f"int in [0, {num_classes - 1}]")
        box = _floats(row["box"], "gt box")
        if box.shape != (4,):
            raise ValueError(f"gt box must have 4 coordinates: {row['box']}")
        gts.append(GroundTruth(box=Box(*box.tolist()), class_id=row["class_id"]))
    return (
        ProposalSet(boxes=boxes, features=features, class_embeddings=class_embeddings),
        PromptPool(embeddings=pool),
        gts,
    )
