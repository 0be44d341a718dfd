"""Test-time adaptation for vision-language object detection, with a synthetic testbed."""

from .adapt import AdapterParams, AdaptState, EpisodeConfig, EpisodeTrace, adapt_episode, run_baseline
from .data import GroundTruth, PromptPool, ProposalSet, scene_from_json, scene_to_json
from .evaluation import APReport, evaluate
from .geometry import Box, Detection, Detections, iou, iou_matrix, nms, top_m_filter
from .sim import ShiftSpec, SimConfig, Suite, gen_scene_proposals, gen_world, make_suite

__version__ = "0.1.0"

__all__ = [
    "AdapterParams",
    "AdaptState",
    "APReport",
    "Box",
    "Detection",
    "Detections",
    "EpisodeConfig",
    "EpisodeTrace",
    "GroundTruth",
    "PromptPool",
    "ProposalSet",
    "ShiftSpec",
    "SimConfig",
    "Suite",
    "adapt_episode",
    "evaluate",
    "gen_scene_proposals",
    "gen_world",
    "iou",
    "iou_matrix",
    "make_suite",
    "nms",
    "run_baseline",
    "scene_from_json",
    "scene_to_json",
    "top_m_filter",
    "__version__",
]
