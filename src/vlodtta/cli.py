"""Command-line front end: benchmark runs, episode dumps, oracle checks, and sweeps."""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from . import checks
from .adapt import EpisodeConfig, SceneWork, adapt_episode, baseline_config
from .adapt import run_baseline  # unused: perfbench wraps cli.run_baseline by name and calls it for its zero-shot mAP
from .data import _check_fields, scene_to_json
from .evaluation import APReport, evaluate
from .sim import ShiftSpec, SimConfig, make_suite

__all__ = [
    "ConfigError",
    "RunConfig",
    "METHODS",
    "CSV_COLUMNS",
    "SWEEP_COLUMNS",
    "SWEEP_PARAMS",
    "EPISODE_DUMP_SCHEMA",
    "cmd_bench",
    "cmd_episode",
    "cmd_check",
    "cmd_sweep",
    "main",
]

METHODS = ("zs", "entropy", "pa", "vlodtta")
_BASELINE_OF = {"zs": "zero_shot", "entropy": "entropy_adapter", "pa": "prompt_average"}

CSV_COLUMNS = ("method", "base_seed", "n_scenes", "shift_magnitude", "mAP", "AP50", "AP75", "mean_episode_ms")
SWEEP_COLUMNS = ("param", "value", "base_seed", "n_scenes", "mAP", "AP50", "AP75")
SWEEP_PARAMS = ("gamma", "theta", "lambda", "rho", "top_m")


class ConfigError(ValueError):
    """A run configuration does not parse, or describes an invalid run."""


@dataclass(frozen=True)
class RunConfig:
    """One benchmark run: episode knobs, simulator profile, shift, and scope."""

    episode: EpisodeConfig
    sim: SimConfig
    shift: ShiftSpec
    seeds: int = 20
    n_scenes: int = 20
    methods: tuple[str, ...] = METHODS
    measure_time: bool = False  # wall-clock timing breaks byte-level reproducibility

    def __post_init__(self) -> None:
        for name, cls in (("episode", EpisodeConfig), ("sim", SimConfig), ("shift", ShiftSpec)):
            value = getattr(self, name)
            if not isinstance(value, cls):
                raise ConfigError(f"{name} must be {cls.__name__}, not {type(value).__name__}")
        _check_fields(
            vars(self), error=ConfigError, seeds="int >= 1", n_scenes="int >= 1",
            methods="str_tuple", measure_time="bool",
        )
        if not self.methods:
            raise ConfigError("methods must not be empty")
        bad = [m for m in self.methods if m not in METHODS]
        if bad:
            raise ConfigError(f"unknown methods {bad}; expected a subset of {list(METHODS)}")
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError(f"duplicate methods: {list(self.methods)}")
        if self.sim.d % self.episode.reduction != 0:
            raise ConfigError(
                f"sim.d = {self.sim.d} must be divisible by episode.reduction = {self.episode.reduction}"
            )


def _from_mapping(cls, doc: dict, section: str):
    """Build `cls` from a JSON object; lists become the tuples the config holds."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{section} must be a JSON object")
    allowed = {f.name for f in fields(cls)}
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"unknown {section} keys: {unknown}")
    try:
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()})
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {section} section: {exc}") from exc


def episode_config_from_dict(doc: dict) -> EpisodeConfig:
    if isinstance(doc, dict) and "lambda" in doc:
        if "lam" in doc:
            raise ConfigError("give either 'lambda' or 'lam', not both")
        doc = {("lam" if k == "lambda" else k): v for k, v in doc.items()}
    return _from_mapping(EpisodeConfig, doc, "episode")


def episode_config_to_dict(cfg: EpisodeConfig) -> dict:
    doc = asdict(cfg)
    doc["lambda"] = doc.pop("lam")
    return doc


def run_config_from_dict(doc: dict) -> RunConfig:
    if isinstance(doc, dict):
        doc = {
            **doc,
            "episode": episode_config_from_dict(doc.get("episode", {})),
            "sim": _from_mapping(SimConfig, doc.get("sim", {}), "sim"),
            "shift": _from_mapping(ShiftSpec, doc.get("shift", {}), "shift"),
        }
    return _from_mapping(RunConfig, doc, "config")


def run_config_to_dict(cfg: RunConfig) -> dict:
    sim_doc = asdict(cfg.sim)
    sim_doc["extent"] = list(cfg.sim.extent)
    return {
        "episode": episode_config_to_dict(cfg.episode),
        "sim": sim_doc,
        "shift": asdict(cfg.shift),
        "seeds": cfg.seeds,
        "n_scenes": cfg.n_scenes,
        "methods": list(cfg.methods),
        "measure_time": cfg.measure_time,
    }


def load_config(path: str) -> RunConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return run_config_from_dict(doc)


# -- bench --------------------------------------------------------------- #

def _suite_reports(cfgs: list[EpisodeConfig], suite, measure_time: bool) -> list[tuple[APReport, float]]:
    """Run each episode config over a suite; one report and mean ms per episode each.

    Scene by scene, every config's episode reads one `SceneWork` of the
    scene, so its prompt selections, pre passes and overlap list are
    computed once per scene, each in the first episode that needs it. Each
    config's detections are evaluated once, after the last scene.
    """
    pool = suite.world.pool
    dets_all = [[] for _ in cfgs]
    elapsed = [0.0] * len(cfgs)
    for proposals, _ in suite.scenes:
        shared = SceneWork(proposals, pool)
        for i, ecfg in enumerate(cfgs):
            start = time.perf_counter() if measure_time else 0.0
            dets_all[i].append(adapt_episode(proposals, pool, ecfg, shared=shared)[0])
            if measure_time:
                elapsed[i] += time.perf_counter() - start
    gts_all = [list(gts) for _, gts in suite.scenes]
    return [
        (evaluate(dets, gts_all), 1000.0 * ms / len(suite.scenes) if measure_time else 0.0)
        for dets, ms in zip(dets_all, elapsed)
    ]


def _seed_reports(cfg: RunConfig, cfgs: list[EpisodeConfig], measure_time: bool) -> list[list[tuple[APReport, float]]]:
    """Each episode config's report and mean ms per base seed: out[config index][base seed]."""
    out = [[] for _ in cfgs]
    for base_seed in range(cfg.seeds):
        suite = make_suite(base_seed, cfg.n_scenes, cfg.sim, cfg.shift)
        for per_seed, report in zip(out, _suite_reports(cfgs, suite, measure_time)):
            per_seed.append(report)
    return out


def _header_block(cfg: RunConfig) -> str:
    return "# config " + json.dumps(run_config_to_dict(cfg), sort_keys=True) + "\n"


def cmd_bench(config_path: str, out_path: str) -> int:
    """Run every configured method over every base seed; write one CSV."""
    cfg = load_config(config_path)
    cfgs = [cfg.episode if m == "vlodtta" else baseline_config(_BASELINE_OF[m], cfg.episode) for m in cfg.methods]
    reports = _seed_reports(cfg, cfgs, cfg.measure_time)
    lines = [_header_block(cfg), ",".join(CSV_COLUMNS) + "\n"]
    for method, per_seed in zip(cfg.methods, reports):
        for base_seed, (report, mean_ms) in enumerate(per_seed):
            lines.append(
                f"{method},{base_seed},{cfg.n_scenes},{cfg.shift.magnitude!r},"
                f"{report.mean_ap!r},{report.ap50!r},{report.ap75!r},{mean_ms:.3f}\n"
            )
    Path(out_path).write_text("".join(lines))
    for method, per_seed in zip(cfg.methods, reports):
        picked = [r for r, _ in per_seed]
        print(
            f"{method:>8}  mAP {_mean(r.mean_ap for r in picked):.4f}"
            f"  AP50 {_mean(r.ap50 for r in picked):.4f}"
            f"  AP75 {_mean(r.ap75 for r in picked):.4f}"
            f"  ({cfg.seeds} seeds x {cfg.n_scenes} scenes)"
        )
    print(f"wrote {out_path}")
    return 0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


# -- episode -------------------------------------------------------------- #

EPISODE_DUMP_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": [
        "config", "scene_index", "scene", "loss", "grad_norms", "selections",
        "pre_fused", "post_fused", "clusters", "detections",
    ],
    "additionalProperties": False,
    "properties": {
        "config": {"type": "object"},
        "scene_index": {"type": "integer", "minimum": 0},
        "scene": {
            "type": "object",
            "required": ["d", "K", "T", "boxes", "features", "class_embeddings", "prompt_pool", "gt"],
            "additionalProperties": False,
            "properties": {
                "d": {"type": "integer", "minimum": 2},
                "K": {"type": "integer", "minimum": 2},
                "T": {"type": "integer", "minimum": 1},
                "boxes": {"type": "array", "items": {"type": "array", "items": {"type": "number"}, "minItems": 4, "maxItems": 4}},
                "features": {"type": "array", "items": {"type": "array", "items": {"type": "number"}}},
                "class_embeddings": {"type": "array", "items": {"type": "array", "items": {"type": "number"}}},
                "prompt_pool": {"type": "array", "items": {"type": "array", "items": {"type": "array", "items": {"type": "number"}}}},
                "gt": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["box", "class_id"],
                        "additionalProperties": False,
                        "properties": {
                            "box": {"type": "array", "items": {"type": "number"}, "minItems": 4, "maxItems": 4},
                            "class_id": {"type": "integer", "minimum": 0},
                        },
                    },
                },
            },
        },
        "loss": {"type": "number"},
        "grad_norms": {"type": "object", "additionalProperties": {"type": "number"}},
        "selections": {"type": "array", "items": {"type": "array", "items": {"type": "integer", "minimum": 0}}},
        "pre_fused": {"type": "array", "items": {"type": "array", "items": {"type": "number"}}},
        "post_fused": {"type": "array", "items": {"type": "array", "items": {"type": "number"}}},
        "clusters": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["class_id", "size", "max_score"],
                "additionalProperties": False,
                "properties": {
                    "class_id": {"type": "integer", "minimum": 0},
                    "size": {"type": "integer", "minimum": 1},
                    "max_score": {"type": "number"},
                },
            },
        },
        "detections": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["box", "class_id", "score"],
                "additionalProperties": False,
                "properties": {
                    "box": {"type": "array", "items": {"type": "number"}, "minItems": 4, "maxItems": 4},
                    "class_id": {"type": "integer", "minimum": 0},
                    "score": {"type": "number"},
                },
            },
        },
    },
}


def cmd_episode(config_path: str, scene_index: int, out_path: str) -> int:
    """Adapt on one scene of base seed 0 and dump every intermediate to JSON."""
    cfg = load_config(config_path)
    if not (0 <= scene_index < cfg.n_scenes):
        print(
            f"scene index {scene_index} out of range [0, {cfg.n_scenes})",
            file=sys.stderr,
        )
        return 2
    suite = make_suite(0, scene_index + 1, cfg.sim, cfg.shift)
    proposals, gts = suite.scenes[scene_index]
    dets, trace = adapt_episode(proposals, suite.world.pool, cfg.episode)
    dump = {
        "config": run_config_to_dict(cfg),
        "scene_index": scene_index,
        "scene": scene_to_json(proposals, suite.world.pool, list(gts)),
        **trace.to_dict(),
    }
    Path(out_path).write_text(json.dumps(dump, sort_keys=True, indent=1) + "\n")
    step = "no step (lr = 0)" if cfg.episode.lr == 0.0 else f"loss {trace.loss:.6f}, {len(trace.components)} clusters"
    print(f"scene {scene_index}: {step}, {len(dets)} detections; wrote {out_path}")
    return 0


# -- check ---------------------------------------------------------------- #

def cmd_check() -> int:
    """Run the oracle suite; nonzero exit when anything fails."""
    ok = True
    for name, passed, detail in checks.run_all():
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
        ok = ok and passed
    return 0 if ok else 1


# -- sweep ---------------------------------------------------------------- #

def cmd_sweep(config_path: str, param: str, grid: list[float], out_path: str) -> int:
    """Re-run the full method over a grid of one episode knob; write a CSV."""
    cfg = load_config(config_path)
    if param not in SWEEP_PARAMS:
        print(f"unknown sweep param {param!r}; expected one of {list(SWEEP_PARAMS)}", file=sys.stderr)
        return 2
    if not grid:
        print("empty sweep grid", file=sys.stderr)
        return 2
    field_name = "lam" if param == "lambda" else param
    # an integral top_m goes in as an int; any other value as given, for EpisodeConfig to judge
    casts = [int(v) if param == "top_m" and float(v).is_integer() else float(v) for v in grid]
    try:
        episode_cfgs = [replace(cfg.episode, **{field_name: cast}) for cast in casts]
    except ValueError as exc:
        print(f"bad grid for {param}: {exc}", file=sys.stderr)
        return 2
    reports = _seed_reports(cfg, episode_cfgs, measure_time=False)
    lines = [_header_block(cfg), ",".join(SWEEP_COLUMNS) + "\n"]
    for cast, per_value in zip(casts, reports):
        for base_seed, (report, _) in enumerate(per_value):
            lines.append(
                f"{param},{cast!r},{base_seed},{cfg.n_scenes},"
                f"{report.mean_ap!r},{report.ap50!r},{report.ap75!r}\n"
            )
        print(f"{param} = {cast}: mean mAP {_mean(r.mean_ap for r, _ in per_value):.4f} over {cfg.seeds} seeds")
    Path(out_path).write_text("".join(lines))
    print(f"wrote {out_path}")
    return 0


# -- entry point ----------------------------------------------------------- #

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vlodtta",
        description="Test-time adaptation for vision-language detection on a synthetic detector.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run every configured method over every seed")
    bench.add_argument("--config", required=True, help="path to a JSON run configuration")
    bench.add_argument("--out", required=True, help="output CSV path")

    episode = sub.add_parser("episode", help="dump one adaptation episode as JSON")
    episode.add_argument("--config", required=True)
    episode.add_argument("--scene", type=int, required=True, help="scene index within base seed 0")
    episode.add_argument("--out", required=True, help="output JSON path")

    sub.add_parser("check", help="run the built-in oracle suite")

    sweep = sub.add_parser("sweep", help="grid-sweep one episode knob with the full method")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    sweep.add_argument("--grid", required=True, help="comma-separated values, e.g. 0,0.6,1.0")
    sweep.add_argument("--out", required=True, help="output CSV path")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "bench":
            return cmd_bench(args.config, args.out)
        if args.command == "episode":
            return cmd_episode(args.config, args.scene, args.out)
        if args.command == "check":
            return cmd_check()
        if args.command == "sweep":
            try:
                grid = [float(v) for v in args.grid.split(",") if v.strip() != ""]
            except ValueError:
                print(f"cannot parse grid {args.grid!r}", file=sys.stderr)
                return 2
            return cmd_sweep(args.config, args.param, grid, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")
