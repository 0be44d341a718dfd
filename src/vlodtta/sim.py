"""Synthetic scenes, proposals, prompt pools, and embedding-space domain shift.

The generator arranges exactly the phenomena the adaptation engine
exploits: dense same-class proposal clusters over each object, occasional
small wrong-class distractor clusters parked next to an object, diffuse
background proposals, and a prompt pool in which a known subset points
along the direction the domain shift drags features.

A scene is generated in two phases: every random draw first, object by
object in the order of the scene's stream, then the box, alpha and feature
arithmetic for all of the scene's clusters at once. The split must change
no draw and no rounding step: a scene is the same bytes as one made object
by object, each object's draws and arithmetic in turn, which the tests keep
as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import GroundTruth, PromptPool, ProposalSet, _check_fields
from .geometry import Box, _column_iou
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
_MIX_BLOCK = 1 << 14            # feature values mixed per block (128 KB), so the mixing temporaries stay in cache
_SIDES = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])  # where a distractor sits


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


def _random_boxes(u: np.ndarray, extent: np.ndarray) -> np.ndarray:
    """Boxes inside the extent as (4, n) x1, y1, x2, y2 columns, from an (n, 4) block of uniforms.

    `extent` is the (2, 1) column of width and height. Each uniform maps to
    its range as low + (high - low) * u, the operations Generator.uniform
    uses, so box i equals four scalar g.uniform calls (width, height,
    center x, center y) on the stream that drew row i.
    """
    lo, hi = _OBJ_SIZE_FRAC
    u = u.T
    half = (lo + (hi - lo) * u[:2]) * extent / 2.0
    center = half + ((extent - half) - half) * u[2:]
    return np.concatenate([center - half, center + half])


def _clamp(boxes: np.ndarray, extent: np.ndarray) -> np.ndarray:
    """Clip (4, n) box columns into the (2, 1) extent, re-centering to a 1px sliver where clipping collapses a side."""
    lo, hi = np.maximum(0.0, boxes[:2]), np.minimum(extent, boxes[2:])
    mid = np.minimum(np.maximum((lo + hi) / 2.0, 0.5), extent - 0.5)
    thin = hi - lo < 1.0
    return np.concatenate([np.where(thin, mid - 0.5, lo), np.where(thin, mid + 0.5, hi)])


def _jittered_boxes(bases: np.ndarray, jitters: np.ndarray, z: np.ndarray, extent: np.ndarray) -> np.ndarray:
    """One box around each base box, as (4, n) columns; its IoU with the base shrinks as its jitter grows.

    `bases` holds (4, n) box columns, `jitters` (n,) and `z` (4, n) standard
    normals: x shift, y shift, log width and log height scale. The normals
    of a cluster of n boxes are a (4, n) standard_normal block, which equals
    four n-normal draws in a row, and Generator.normal(0.0, s) returns
    0.0 + s * z, so a cluster's boxes equal four g.normal draws on the same
    stream. The 0.0 + is left out: it only turns -0.0 into 0.0, which the
    sums and exp below cannot tell apart.
    """
    size = bases[2:] - bases[:2]
    center = (bases[:2] + bases[2:]) / 2.0 + jitters * size * z[:2]
    half = size * np.exp(jitters * z[2:]) / 2.0
    return _clamp(np.concatenate([center - half, center + half]), extent)


def gen_scene_proposals(seed: int, world: World) -> tuple[ProposalSet, list[GroundTruth]]:
    """One scene of a world: objects with proposal clusters, distractors, and background.

    Each object's proposals mix the object's shifted prototype (`world.shifted`)
    with unit noise scaled by the profile's feature noise and the shift's
    noise factor; the signal share alpha rises linearly with the proposal's
    IoU against the ground-truth box, floored at 0.2. A distractor cluster
    copies a wrong class's shifted prototype at reduced alpha and sits next to
    its object. Background proposals are pure noise.

    The scene is made in two phases. The draw phase makes every draw, object
    by object in stream order: class, box uniforms, proposal count, then the
    cluster's jitter normals and feature noise as one block; then the
    distractor test and, if it passes, the distractor's class, count, side,
    and normals and noise. After the last object come the background's
    uniforms and noise. The arithmetic phase then computes the ground-truth
    boxes, distractor anchors, jittered boxes, clamps and alphas once for the
    whole scene, and mixes the features in place in blocks of rows, so a
    scene makes about the same NumPy calls however many objects it has.
    """
    _check_fields({"seed": seed}, seed="int >= 0")
    cfg, shifted = world.cfg, world.shifted
    g = _generator(seed, _SCENE_STREAM)
    num_classes, d = cfg.num_classes, cfg.d
    noise_scale = cfg.feature_noise * world.shift.noise_factor()

    classes, uniforms = [], []
    clusters = []  # (object, side or -1 for the object's own cluster, class, size), in row order
    normals, noise = [], []

    def cluster(obj: int, side: int, label: int, n: int) -> None:
        draw = g.standard_normal(n * (4 + d))
        clusters.append((obj, side, label, n))
        normals.append(draw[: 4 * n].reshape(4, n))
        noise.append(draw[4 * n :].reshape(n, d))

    for obj in range(int(g.integers(cfg.objects_min, cfg.objects_max + 1))):
        cls = int(g.integers(num_classes))
        classes.append(cls)
        uniforms.append(g.random((1, 4)))
        cluster(obj, -1, cls, int(g.integers(cfg.proposals_min, cfg.proposals_max + 1)))
        if g.random() < cfg.distractor_prob:
            wrong = (cls + 1 + int(g.integers(num_classes - 1))) % num_classes
            n_dis = int(g.integers(cfg.distractor_min, cfg.distractor_max + 1))
            cluster(obj, int(g.integers(4)), wrong, n_dis)  # g.integers(4) is the draw g.choice makes over 4 sides
    uniforms.append(g.random((cfg.background, 4)))
    noise.append(g.standard_normal((cfg.background, d)))

    extent = np.array(cfg.extent, dtype=float)[:, None]
    corners = _random_boxes(np.concatenate(uniforms), extent)
    owners, side, labels, counts = (np.array(column) for column in zip(*clusters))
    near = side >= 0
    bases = corners[:, owners]
    if near.any():
        # a distractor sits 0.9 of its object's size to one side, 0.3 smaller along that axis
        obj = bases[:, near]
        size = obj[2:] - obj[:2]
        step = _SIDES[side[near]].T
        shift = step * 0.9 * size
        bases[:, near] = _clamp(np.concatenate([obj[:2] + shift, obj[2:] + shift - step * 0.3 * size]), extent)
    bases = np.repeat(bases, counts, axis=1)
    jitters = np.repeat(np.where(near, cfg.jitter * 0.7, cfg.jitter), counts)
    boxes = _jittered_boxes(bases, jitters, np.concatenate(normals, axis=1), extent)
    base_size, box_size = bases[2:] - bases[:2], boxes[2:] - boxes[:2]
    iou = _column_iou(bases, base_size[0] * base_size[1], boxes, box_size[0] * box_size[1])
    alphas = np.where(np.repeat(near, counts), _DISTRACTOR_ALPHA, np.maximum(_ALPHA_FLOOR, np.minimum(iou, 1.0)))

    # every row's noise becomes unit noise; a cluster row then becomes
    # normalize(alpha * prototype + (1 - alpha) * noise_scale * unit noise)
    features = np.concatenate(noise)
    signal_share = alphas[:, None]
    noise_share = (1.0 - signal_share) * noise_scale
    prototype = np.repeat(labels, counts)
    block = max(1, _MIX_BLOCK // d)
    for start in range(0, features.shape[0], block):
        rows = slice(start, start + block)
        unit = normalize_rows(features[rows])
        mixed = unit[: max(0, alphas.size - start)]  # the block's cluster rows, if any
        mixed *= noise_share[rows]
        signal = shifted[prototype[rows]]
        signal *= signal_share[rows]
        mixed += signal
        mixed[...] = normalize_rows(mixed)
        features[rows] = unit

    n_objects = len(classes)
    proposals = ProposalSet(
        boxes=np.concatenate([boxes, corners[:, n_objects:]], axis=1).T.copy(),
        features=features,
        class_embeddings=world.class_embeddings,
    )
    gts = [GroundTruth(box=Box(*row), class_id=cls) for row, cls in zip(corners[:, :n_objects].T.tolist(), classes)]
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
