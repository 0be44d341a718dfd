"""Command-line front end: benchmark runs, episode dumps, oracle checks, and sweeps."""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import get_type_hints

from . import checks
from .adapt import EpisodeConfig, adapt_episode, run_baseline
from .data import scene_to_json
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
    """A run configuration does not parse or validate."""


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

    def validate(self) -> None:
        try:
            self.episode.validate()
            self.sim.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.seeds < 1:
            raise ConfigError(f"seeds must be >= 1: {self.seeds}")
        if self.n_scenes < 1:
            raise ConfigError(f"n_scenes must be >= 1: {self.n_scenes}")
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# JSON form each annotated field type must arrive in; a float field also takes
# an integer (Python's json also reads NaN and Infinity, which no field takes),
# and a list becomes the tuple its field holds
_JSON_FORMS = {
    int: ("an integer", _is_int),
    float: ("a finite number", lambda v: _is_int(v) or (isinstance(v, float) and math.isfinite(v))),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    tuple[int, int]: ("a list of two integers", lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_int, v))),
    tuple[str, ...]: ("a list of strings", lambda v: isinstance(v, list) and all(isinstance(m, str) for m in v)),
}


def _check_json_types(cls, doc: dict, section: str) -> None:
    """Reject a value whose JSON type does not match its field's annotation."""
    for name, hint in get_type_hints(cls).items():
        if name in doc and hint in _JSON_FORMS:
            what, ok = _JSON_FORMS[hint]
            if not ok(doc[name]):
                raise ConfigError(f"{section}.{name} must be {what}: {doc[name]!r}")


def _from_mapping(cls, doc: dict, section: str):
    if not isinstance(doc, dict):
        raise ConfigError(f"section {section!r} must be an object")
    allowed = {f.name for f in fields(cls)}
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"unknown {section} keys: {unknown}")
    _check_json_types(cls, doc, section)
    try:
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {section} section: {exc}") from exc


def episode_config_from_dict(doc: dict) -> EpisodeConfig:
    if not isinstance(doc, dict):
        raise ConfigError("section 'episode' must be an object")
    doc = dict(doc)
    if "lambda" in doc:
        if "lam" in doc:
            raise ConfigError("give either 'lambda' or 'lam', not both")
        doc["lam"] = doc.pop("lambda")
    return _from_mapping(EpisodeConfig, doc, "episode")


def episode_config_to_dict(cfg: EpisodeConfig) -> dict:
    doc = asdict(cfg)
    doc["lambda"] = doc.pop("lam")
    return doc


def run_config_from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    allowed = {"episode", "sim", "shift", "seeds", "n_scenes", "methods", "measure_time"}
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    for key in ("episode", "sim", "shift"):
        if not isinstance(doc.get(key, {}), dict):
            raise ConfigError(f"section {key!r} must be an object")
    _check_json_types(RunConfig, doc, "config")
    cfg = RunConfig(
        episode=episode_config_from_dict(doc.get("episode", {})),
        sim=_from_mapping(SimConfig, doc.get("sim", {}), "sim"),
        shift=_from_mapping(ShiftSpec, doc.get("shift", {}), "shift"),
        seeds=doc.get("seeds", 20),
        n_scenes=doc.get("n_scenes", 20),
        methods=tuple(doc.get("methods", METHODS)),
        measure_time=doc.get("measure_time", False),
    )
    cfg.validate()
    return cfg


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

def _run_method(method: str, proposals, pool, ecfg: EpisodeConfig):
    if method == "vlodtta":
        return adapt_episode(proposals, pool, ecfg)[0]
    return run_baseline(_BASELINE_OF[method], proposals, pool, ecfg)


def _method_report(method: str, suite, cfg: RunConfig) -> tuple[APReport, float]:
    """Evaluate one method over a suite; returns the report and mean ms per episode."""
    dets_all, gts_all = [], []
    elapsed = 0.0
    for proposals, gts in suite.scenes:
        start = time.perf_counter() if cfg.measure_time else 0.0
        dets = _run_method(method, proposals, suite.world.pool, cfg.episode)
        if cfg.measure_time:
            elapsed += time.perf_counter() - start
        dets_all.append(dets)
        gts_all.append(list(gts))
    mean_ms = 1000.0 * elapsed / len(suite.scenes) if cfg.measure_time else 0.0
    return evaluate(dets_all, gts_all), mean_ms


def _header_block(cfg: RunConfig) -> str:
    return "# config " + json.dumps(run_config_to_dict(cfg), sort_keys=True) + "\n"


def cmd_bench(config_path: str, out_path: str) -> int:
    """Run every configured method over every base seed; write one CSV."""
    cfg = load_config(config_path)
    rows = []
    for base_seed in range(cfg.seeds):
        suite = make_suite(base_seed, cfg.n_scenes, cfg.sim, cfg.shift)
        for method in cfg.methods:
            report, mean_ms = _method_report(method, suite, cfg)
            rows.append((method, base_seed, report, mean_ms))
    rows.sort(key=lambda r: (cfg.methods.index(r[0]), r[1]))
    lines = [_header_block(cfg), ",".join(CSV_COLUMNS) + "\n"]
    for method, base_seed, report, mean_ms in rows:
        lines.append(
            f"{method},{base_seed},{cfg.n_scenes},{cfg.shift.magnitude!r},"
            f"{report.mean_ap!r},{report.ap50!r},{report.ap75!r},{mean_ms:.3f}\n"
        )
    Path(out_path).write_text("".join(lines))
    for method in cfg.methods:
        picked = [r[2] for r in rows if r[0] == method]
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
    suite = make_suite(0, cfg.n_scenes, cfg.sim, cfg.shift)
    proposals, gts = suite.scenes[scene_index]
    details: dict = {}
    dets, trace = adapt_episode(proposals, suite.world.pool, cfg.episode, details=details)
    dump = {
        "config": run_config_to_dict(cfg),
        "scene_index": scene_index,
        "scene": scene_to_json(proposals, suite.world.pool, list(gts)),
        "loss": trace.loss,
        "grad_norms": trace.grad_norms,
        "selections": [list(s) for s in trace.selections],
        "pre_fused": details["pre"].fused.tolist(),
        "post_fused": details["post"].fused.tolist(),
        "clusters": details["components"],
        "detections": trace.to_dict()["detections"],
    }
    Path(out_path).write_text(json.dumps(dump, sort_keys=True, indent=1) + "\n")
    print(
        f"scene {scene_index}: loss {trace.loss:.6f}, {trace.cluster_count} clusters,"
        f" {len(dets)} detections; wrote {out_path}"
    )
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

_PARAM_FIELD = {"lambda": "lam"}

_PARAM_RANGE = {
    "gamma": lambda v: math.isfinite(v) and v >= 0.0,
    "theta": lambda v: 0.0 <= v <= 1.0,
    "lambda": lambda v: 0.0 <= v <= 1.0,
    "rho": lambda v: 0.0 < v <= 1.0,
    "top_m": lambda v: v >= 1 and float(v).is_integer(),
}


def cmd_sweep(config_path: str, param: str, grid: list[float], out_path: str) -> int:
    """Re-run the full method over a grid of one episode knob; write a CSV."""
    cfg = load_config(config_path)
    if param not in SWEEP_PARAMS:
        print(f"unknown sweep param {param!r}; expected one of {list(SWEEP_PARAMS)}", file=sys.stderr)
        return 2
    if not grid:
        print("empty sweep grid", file=sys.stderr)
        return 2
    bad = [v for v in grid if not _PARAM_RANGE[param](v)]
    if bad:
        print(f"grid values out of range for {param}: {bad}", file=sys.stderr)
        return 2
    field_name = _PARAM_FIELD.get(param, param)
    lines = [_header_block(cfg), ",".join(SWEEP_COLUMNS) + "\n"]
    for value in grid:
        cast = int(value) if param == "top_m" else float(value)
        episode_cfg = replace(cfg.episode, **{field_name: cast})
        swept = replace(cfg, episode=episode_cfg, methods=("vlodtta",))
        means = []
        for base_seed in range(cfg.seeds):
            suite = make_suite(base_seed, cfg.n_scenes, cfg.sim, cfg.shift)
            report, _ = _method_report("vlodtta", suite, swept)
            lines.append(
                f"{param},{cast!r},{base_seed},{cfg.n_scenes},"
                f"{report.mean_ap!r},{report.ap50!r},{report.ap75!r}\n"
            )
            means.append(report.mean_ap)
        print(f"{param} = {cast}: mean mAP {_mean(means):.4f} over {cfg.seeds} seeds")
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
