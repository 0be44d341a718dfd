"""Synthetic scenes, proposals, prompt pools, and embedding-space domain shift.

The generator arranges exactly the phenomena the adaptation engine
exploits: dense same-class proposal clusters over each object, occasional
small wrong-class distractor clusters parked next to an object, diffuse
background proposals, and a prompt pool in which a known subset points
along the direction the domain shift drags features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import GroundTruth, PromptPool, ProposalSet, _check_fields
from .geometry import Box, _pair_iou
from .scoring import normalize_rows

__all__ = [
    "SEED_SCALE",
    "ShiftSpec",
    "SimConfig",
    "World",
    "Suite",
    "gen_world",
    "gen_scene_proposals",
    "make_suite",
]

SEED_SCALE = 1_000_003

# internal stream tags so world/scene draws never collide
_WORLD_STREAM = 0x50
_SCENE_STREAM = 0x5C
_SHIFT_STREAM = 0xD1

_ALPHA_FLOOR = 0.2          # feature signal share for the worst proposals
_DISTRACTOR_ALPHA = 0.4     # reduced signal share for distractor proposals
_OBJ_SIZE_FRAC = (0.12, 0.32)   # object box size as a fraction of the extent


def _generator(*key: int) -> np.random.Generator:
    """Counter-based generator for an integer key tuple; streams never overlap."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(tuple(int(k) for k in key))))


@dataclass(frozen=True)
class ShiftSpec:
    """Embedding-space domain shift.

    Prototypes rotate toward one seeded direction by `magnitude` (spherical
    interpolation), and feature noise is amplified by
    1 + (noise_amp - 1) * magnitude. Magnitude 0 is the identity.
    """

    magnitude: float = 0.0
    noise_amp: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        _check_fields(vars(self), magnitude="float in [0, 1]", noise_amp="float >= 1", seed="int >= 0")

    def direction(self, d: int) -> np.ndarray:
        """Unit vector the shift rotates prototypes toward."""
        g = _generator(self.seed, _SHIFT_STREAM)
        return normalize_rows(g.standard_normal((1, d)))[0]

    def noise_factor(self) -> float:
        return 1.0 + (self.noise_amp - 1.0) * self.magnitude


@dataclass(frozen=True)
class SimConfig:
    """Shape of the synthetic detector's world and scenes."""

    d: int = 32
    num_classes: int = 6
    pool_size: int = 16
    extent: tuple[int, int] = (640, 480)
    objects_min: int = 2
    objects_max: int = 5
    proposals_min: int = 20
    proposals_max: int = 60
    distractor_prob: float = 0.1
    distractor_min: int = 5
    distractor_max: int = 15
    background: int = 40
    jitter: float = 0.1
    feature_noise: float = 1.0
    quality_spread: float = 1.0
    aligned_fraction: float = 0.25

    def __post_init__(self) -> None:
        _check_fields(
            vars(self), d="int >= 2", num_classes="int >= 2", pool_size="int >= 1", extent="int_pair",
            objects_min="int >= 1", objects_max="int >= 1", proposals_min="int >= 1",
            proposals_max="int >= 1", distractor_prob="float in [0, 1]", distractor_min="int >= 1",
            distractor_max="int >= 1", background="int >= 0", jitter="float >= 0",
            feature_noise="float >= 0", quality_spread="float >= 0", aligned_fraction="float in (0, 1]",
        )
        if min(self.extent) < 16:
            raise ValueError(f"extent must be at least 16 x 16: {self.extent}")
        for what in ("objects", "proposals", "distractor"):
            lo, hi = getattr(self, f"{what}_min"), getattr(self, f"{what}_max")
            if lo > hi:
                raise ValueError(f"{what}_min must be <= {what}_max: {lo} > {hi}")


@dataclass(frozen=True)
class World:
    """Class prototypes, detector text embeddings and the prompt pool, with the
    profile and shift the world was built under and everything its scenes read."""

    cfg: SimConfig
    shift: ShiftSpec
    prototypes: np.ndarray        # (K, d) unit rows
    shifted: np.ndarray           # (K, d) prototypes rotated toward the shift direction
    class_embeddings: np.ndarray  # (K, d) what the detector scores against
    pool: PromptPool
    aligned: np.ndarray           # (K, n_aligned) prompt slots built along the shift direction
    qualities: np.ndarray         # (T,) perturbation magnitude per prompt slot


@dataclass(frozen=True)
class Suite:
    """A world plus a deterministic batch of scenes drawn from it."""

    world: World
    scenes: tuple[tuple[ProposalSet, tuple[GroundTruth, ...]], ...]


def _rotate_toward(vec: np.ndarray, target: np.ndarray, amount: float) -> np.ndarray:
    """Spherical interpolation from unit vec toward unit target by amount in [0, 1]."""
    if amount == 0.0:
        return vec
    cosang = float(np.clip(np.dot(vec, target), -1.0, 1.0))
    ang = math.acos(cosang)
    if ang < 1e-12:
        return vec
    s = math.sin(ang)
    return (math.sin((1.0 - amount) * ang) * vec + math.sin(amount * ang) * target) / s


def gen_world(seed: int, cfg: SimConfig, shift: ShiftSpec) -> World:
    """Class prototypes and a prompt pool with a known shift-aligned subset.

    Prompt slot t is the prototype plus a perturbation of magnitude
    qualities[t] (linear across the pool, up to quality_spread). For the
    aligned slots the perturbation points along the shift direction; the
    rest get random directions, one stacked draw in (class, slot) order.
    The world keeps cfg and shift, and the prototypes rotated toward the
    shift direction by its magnitude, so every scene reads them from here.
    """
    _check_fields({"seed": seed}, seed="int >= 0")
    g = _generator(seed, _WORLD_STREAM)
    num_classes, pool_size, d = cfg.num_classes, cfg.pool_size, cfg.d
    prototypes = normalize_rows(g.standard_normal((num_classes, d)))
    direction = shift.direction(d)
    qualities = (
        np.linspace(0.0, cfg.quality_spread, pool_size)
        if pool_size > 1
        else np.array([cfg.quality_spread])
    )
    n_aligned = min(pool_size, max(1, math.ceil(cfg.aligned_fraction * pool_size)))
    aligned = np.stack(
        [np.sort(g.choice(pool_size, size=n_aligned, replace=False)) for _ in range(num_classes)]
    )
    is_aligned = np.zeros((num_classes, pool_size), dtype=bool)
    np.put_along_axis(is_aligned, aligned, True, axis=1)
    directions = np.empty((num_classes, pool_size, d))
    directions[is_aligned] = direction
    directions[~is_aligned] = normalize_rows(g.standard_normal((num_classes * (pool_size - n_aligned), d)))
    pool = prototypes[:, None, :] + qualities[:, None] * directions
    return World(
        cfg=cfg,
        shift=shift,
        prototypes=prototypes,
        shifted=np.stack([_rotate_toward(p, direction, shift.magnitude) for p in prototypes]),
        class_embeddings=prototypes.copy(),
        pool=PromptPool(embeddings=normalize_rows(pool)),
        aligned=aligned,
        qualities=qualities,
    )


def _random_boxes(g: np.random.Generator, n: int, width: float, height: float) -> np.ndarray:
    """n boxes inside the extent as an (n, 4) array, from one draw of 4n uniforms.

    Each uniform maps to its range as low + (high - low) * u, the operations
    Generator.uniform uses, so the boxes equal n rounds of four scalar
    g.uniform calls (width, height, center x, center y) on the same stream.
    """
    u = g.random((n, 4))
    lo, hi = _OBJ_SIZE_FRAC
    bw = (lo + (hi - lo) * u[:, 0]) * width
    bh = (lo + (hi - lo) * u[:, 1]) * height
    cx = bw / 2.0 + ((width - bw / 2.0) - bw / 2.0) * u[:, 2]
    cy = bh / 2.0 + ((height - bh / 2.0) - bh / 2.0) * u[:, 3]
    return np.stack([cx - bw / 2.0, cy - bh / 2.0, cx + bw / 2.0, cy + bh / 2.0], axis=1)


def _clamp(boxes: np.ndarray, width: float, height: float) -> np.ndarray:
    """Clip (n, 4) boxes into the extent, re-centering to a 1px sliver where clipping collapses a side."""
    x1, y1 = np.maximum(0.0, boxes[:, 0]), np.maximum(0.0, boxes[:, 1])
    x2, y2 = np.minimum(width, boxes[:, 2]), np.minimum(height, boxes[:, 3])
    mid_x = np.minimum(np.maximum((x1 + x2) / 2.0, 0.5), width - 0.5)
    mid_y = np.minimum(np.maximum((y1 + y2) / 2.0, 0.5), height - 0.5)
    thin_x, thin_y = x2 - x1 < 1.0, y2 - y1 < 1.0
    return np.stack(
        [
            np.where(thin_x, mid_x - 0.5, x1),
            np.where(thin_y, mid_y - 0.5, y1),
            np.where(thin_x, mid_x + 0.5, x2),
            np.where(thin_y, mid_y + 0.5, y2),
        ],
        axis=1,
    )


def _jittered_boxes(
    g: np.random.Generator, base: Box, n: int, jitter: float, width: float, height: float
) -> np.ndarray:
    """n boxes around base; IoU with base shrinks as jitter grows."""
    bw, bh = base.x2 - base.x1, base.y2 - base.y1
    cx, cy = (base.x1 + base.x2) / 2.0, (base.y1 + base.y2) / 2.0
    dx = g.normal(0.0, jitter * bw, n)
    dy = g.normal(0.0, jitter * bh, n)
    sw = bw * np.exp(g.normal(0.0, jitter, n))
    sh = bh * np.exp(g.normal(0.0, jitter, n))
    raw = np.stack(
        [cx + dx - sw / 2.0, cy + dy - sh / 2.0, cx + dx + sw / 2.0, cy + dy + sh / 2.0], axis=1
    )
    return _clamp(raw, width, height)


def _mixed_features(
    g: np.random.Generator,
    prototype: np.ndarray,
    alphas: np.ndarray,
    noise_scale: float,
) -> np.ndarray:
    """normalize(alpha * prototype + (1 - alpha) * noise_scale * unit noise)."""
    noise = normalize_rows(g.standard_normal((alphas.size, prototype.size)))
    raw = alphas[:, None] * prototype + (1.0 - alphas)[:, None] * noise_scale * noise
    return normalize_rows(raw)


def gen_scene_proposals(seed: int, world: World) -> tuple[ProposalSet, list[GroundTruth]]:
    """One scene of a world: objects with proposal clusters, distractors, and background.

    Each object's proposals mix the object's shifted prototype (`world.shifted`)
    with unit noise scaled by the profile's feature noise and the shift's
    noise factor; the signal share alpha rises linearly with the proposal's
    IoU against the ground-truth box, floored at 0.2. A distractor cluster
    copies a wrong class's shifted prototype at reduced alpha and sits next to
    its object. Background proposals are pure noise.
    """
    _check_fields({"seed": seed}, seed="int >= 0")
    cfg, shifted = world.cfg, world.shifted
    g = _generator(seed, _SCENE_STREAM)
    width, height = float(cfg.extent[0]), float(cfg.extent[1])
    num_classes, d = cfg.num_classes, cfg.d
    noise_scale = cfg.feature_noise * world.shift.noise_factor()

    gts: list[GroundTruth] = []
    box_chunks: list[np.ndarray] = []
    feat_chunks: list[np.ndarray] = []
    n_objects = int(g.integers(cfg.objects_min, cfg.objects_max + 1))
    for _ in range(n_objects):
        cls = int(g.integers(num_classes))
        gt_row = _random_boxes(g, 1, width, height)[0]
        gt_box = Box(*gt_row.tolist())
        gts.append(GroundTruth(box=gt_box, class_id=cls))
        n_prop = int(g.integers(cfg.proposals_min, cfg.proposals_max + 1))
        boxes = _jittered_boxes(g, gt_box, n_prop, cfg.jitter, width, height)
        alphas = np.maximum(_ALPHA_FLOOR, np.minimum(_pair_iou(gt_row, boxes), 1.0))
        box_chunks.append(boxes)
        feat_chunks.append(_mixed_features(g, shifted[cls], alphas, noise_scale))
        if g.random() < cfg.distractor_prob:
            wrong = (cls + 1 + int(g.integers(num_classes - 1))) % num_classes
            n_dis = int(g.integers(cfg.distractor_min, cfg.distractor_max + 1))
            bw, bh = gt_box.x2 - gt_box.x1, gt_box.y2 - gt_box.y1
            side = g.choice(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]))
            anchor = Box(
                *_clamp(
                    np.array([[
                        gt_box.x1 + side[0] * 0.9 * bw,
                        gt_box.y1 + side[1] * 0.9 * bh,
                        gt_box.x2 + side[0] * 0.9 * bw - side[0] * 0.3 * bw,
                        gt_box.y2 + side[1] * 0.9 * bh - side[1] * 0.3 * bh,
                    ]]),
                    width,
                    height,
                )[0].tolist()
            )
            dis_boxes = _jittered_boxes(g, anchor, n_dis, cfg.jitter * 0.7, width, height)
            dis_alphas = np.full(n_dis, _DISTRACTOR_ALPHA)
            box_chunks.append(dis_boxes)
            feat_chunks.append(_mixed_features(g, shifted[wrong], dis_alphas, noise_scale))
    if cfg.background:
        box_chunks.append(_random_boxes(g, cfg.background, width, height))
        feat_chunks.append(normalize_rows(g.standard_normal((cfg.background, d))))

    proposals = ProposalSet(
        boxes=np.concatenate(box_chunks, axis=0),
        features=np.concatenate(feat_chunks, axis=0),
        class_embeddings=world.class_embeddings,
    )
    return proposals, gts


def make_suite(base_seed: int, n_scenes: int, cfg: SimConfig, shift: ShiftSpec) -> Suite:
    """The world of base_seed plus n_scenes scenes drawn from it; scene i uses
    seed base_seed * SEED_SCALE + i and does not depend on n_scenes."""
    _check_fields({"base_seed": base_seed, "n_scenes": n_scenes}, base_seed="int >= 0", n_scenes="int >= 1")
    world = gen_world(base_seed, cfg, shift)
    scenes = []
    for i in range(n_scenes):
        proposals, gts = gen_scene_proposals(base_seed * SEED_SCALE + i, world)
        scenes.append((proposals, tuple(gts)))
    return Suite(world=world, scenes=tuple(scenes))
