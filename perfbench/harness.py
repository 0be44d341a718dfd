"""Workloads, correctness gate, timed passes and metrics of the vlodtta benchmark.

One process, one closed-loop client: each episode starts only after the
previous one has returned. The program is driven through its public
functions only; see README.md for the workloads and the metrics.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from vlodtta import adapt, checks, cli, cluster, evaluation, geometry, grad, scoring, sim
from vlodtta.sim import ShiftSpec, SimConfig, make_suite

import clock as clock_mod
import spans

HERE = Path(__file__).resolve().parent
SHIFT_MAGNITUDE = 0.5
MIN_EPISODES = 200        # so that at least 10 episodes lie beyond p95
SETUP_REPEATS = 3
MAP_TOL = 1e-3            # reference mAP may drift by this much (last-bit reordering)
LAYERS = ("sim", "scoring", "grad", "adapt", "geometry", "cluster", "evaluation", "cli")

DESK = SimConfig()
COCO = SimConfig(d=256, num_classes=80, pool_size=16, objects_min=10, objects_max=20, background=200)


@dataclass(frozen=True)
class Workload:
    """suites x scenes scenes per pass; for `bench`, suites is the bench seed count."""

    name: str
    sim: SimConfig
    suites: int
    scenes: int
    methods: tuple[str, ...] = ("vlodtta",)


WORKLOADS = {
    "desk": Workload("desk", DESK, suites=20, scenes=20),
    "coco": Workload("coco", COCO, suites=8, scenes=10),
    "bench": Workload("bench", DESK, suites=5, scenes=20, methods=cli.METHODS),
}


def shift(seed: int) -> ShiftSpec:
    return ShiftSpec(magnitude=SHIFT_MAGNITUDE, seed=seed)


def build_suites(w: Workload, seed: int) -> list:
    """The scenes of one desk or coco pass; the same seed gives the same scenes."""
    return [make_suite(seed * w.suites + j, w.scenes, w.sim, shift(seed)) for j in range(w.suites)]


def bench_config(w: Workload, seed: int) -> dict:
    sim_doc = {} if w.sim == DESK else {"d": w.sim.d, "num_classes": w.sim.num_classes}
    return {
        "sim": sim_doc,
        "shift": {"magnitude": SHIFT_MAGNITUDE, "seed": seed},
        "seeds": w.suites,
        "n_scenes": w.scenes,
        "methods": list(w.methods),
    }


def valid(proposals, dets) -> bool:
    """Finite scores, classes below K, and every box one of the proposal boxes."""
    k = proposals.class_embeddings.shape[0]
    boxes = set(map(tuple, proposals.boxes.tolist()))
    return all(
        math.isfinite(d.score) and 0 <= d.class_id < k
        and (d.box.x1, d.box.y1, d.box.x2, d.box.y2) in boxes
        for d in dets
    )


# -- the timed passes --------------------------------------------------------- #

@dataclass
class Log:
    """Wall intervals (perf_counter seconds) of everything one run timed."""

    episodes: list[tuple[float, float]] = field(default_factory=list)
    evals: list[tuple[float, float, int]] = field(default_factory=list)   # start, end, images
    passes: list[tuple[float, float]] = field(default_factory=list)
    maps: list[dict[str, float]] = field(default_factory=list)           # per pass: method -> mAP
    csvs: list[bytes] = field(default_factory=list)
    window: tuple[float, float] = (0.0, 0.0)  # the whole run, with its first and last kernel runs
    attempted: int = 0
    failed: int = 0


def _episode_pass(suites, ecfg, clock, log: Log) -> None:
    maps = []
    for suite in suites:
        dets_all = []
        for proposals, _ in suite.scenes:
            clock.tick()
            log.attempted += 1
            start = time.perf_counter()
            try:
                dets, _ = adapt.adapt_episode(proposals, suite.world.pool, ecfg)
            except Exception:  # counted as a failed episode; the run goes on
                dets = None
            end = time.perf_counter()
            log.episodes.append((start, end))
            if dets is None or not valid(proposals, dets):
                log.failed += 1
                dets = []
            dets_all.append(dets)
        clock.tick()
        start = time.perf_counter()
        report = evaluation.evaluate(dets_all, [list(gts) for _, gts in suite.scenes])
        log.evals.append((start, time.perf_counter(), len(dets_all)))
        maps.append(report.mean_ap)
    log.maps.append({"vlodtta": float(np.mean(maps))})


def _bench_timers(patches: spans.Patches, clock, log: Log, outputs: list) -> None:
    """Time each episode and evaluation that `vlodtta bench` makes, from the cli namespace."""

    def episode_timer(original, empty, proposals_arg):
        def timed(*args, **kwargs):
            log.attempted += 1
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception:  # counted as a failed episode; the bench run goes on
                result = None
            log.episodes.append((start, time.perf_counter()))
            clock.tick()
            if result is None:
                log.failed += 1
                return empty
            outputs.append((args[proposals_arg], result[0] if isinstance(result, tuple) else result))
            return result

        return timed

    def eval_timer(original):
        def timed(detections, ground_truths):
            start = time.perf_counter()
            report = original(detections, ground_truths)
            log.evals.append((start, time.perf_counter(), len(detections)))
            clock.tick()
            return report

        return timed

    patches.replace(cli, "adapt_episode", lambda f: episode_timer(f, ([], None), 0))
    patches.replace(cli, "run_baseline", lambda f: episode_timer(f, [], 1))
    patches.replace(cli, "evaluate", eval_timer)


def _bench_pass(cfg_path: Path, csv_path: Path, clock, log: Log) -> None:
    outputs: list = []
    with spans.Patches() as patches:
        _bench_timers(patches, clock, log, outputs)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["bench", "--config", str(cfg_path), "--out", str(csv_path)])
    if code != 0:
        raise RuntimeError(f"vlodtta bench exited with {code}")
    log.failed += sum(not valid(p, d) for p, d in outputs)
    data = csv_path.read_bytes()
    log.csvs.append(data)
    log.maps.append(bench_maps(data))


def bench_maps(csv: bytes) -> dict[str, float]:
    """Mean mAP per method over the base seeds of one bench CSV."""
    rows = [line.split(",") for line in csv.decode().splitlines()[2:]]
    col = cli.CSV_COLUMNS.index("mAP")
    out: dict[str, list[float]] = {}
    for row in rows:
        out.setdefault(row[0], []).append(float(row[col]))
    return {m: float(np.mean(v)) for m, v in out.items()}


class Runner:
    """One workload at one seed: its inputs, built before anything is timed."""

    def __init__(self, w: Workload, seed: int, out_dir: Path) -> None:
        self.w = w
        self.ecfg = adapt.EpisodeConfig()
        if w.name == "bench":
            self.cfg_path = out_dir / f"bench-{seed}.json"
            self.csv_path = out_dir / f"bench-{seed}.csv"
            self.cfg_path.write_text(json.dumps(bench_config(w, seed)))
        else:
            self.suites = build_suites(w, seed)

    def one_pass(self, clock, log: Log) -> None:
        if self.w.name == "bench":
            _bench_pass(self.cfg_path, self.csv_path, clock, log)
        else:
            _episode_pass(self.suites, self.ecfg, clock, log)

    def episodes_per_pass(self) -> int:
        return self.w.suites * self.w.scenes * len(self.w.methods)

    def run(self, seconds: float, clock, min_episodes: int = 0, tracer=None) -> Log:
        """Whole passes until `seconds` have passed and `min_episodes` have run."""
        log = Log()
        gc.collect()
        opened = time.perf_counter()
        clock.sample()
        deadline = time.perf_counter() + seconds
        while True:
            if tracer is not None:
                tracer.keep_records = not log.passes
            start = time.perf_counter()
            self.one_pass(clock, log)
            log.passes.append((start, time.perf_counter()))
            if time.perf_counter() >= deadline and len(log.episodes) >= min_episodes:
                break
        clock.sample()
        log.window = (opened, time.perf_counter())
        if tracer is not None:
            tracer.keep_records = False
        return log

    def zero_shot_map(self) -> float:
        """Zero-shot mAP over the same scenes, for mAP_ratio_vs_zs (untimed)."""
        maps = []
        for suite in self.suites:
            dets = [cli.run_baseline("zero_shot", p, suite.world.pool, self.ecfg) for p, _ in suite.scenes]
            maps.append(evaluation.evaluate(dets, [list(g) for _, g in suite.scenes]).mean_ap)
        return float(np.mean(maps))

    def warm_up(self) -> None:
        if self.w.name == "bench":
            return  # the gate's reference bench run went through the same path
        suite = self.suites[0]
        scenes = suite.scenes[:3]
        dets = [adapt.adapt_episode(p, suite.world.pool, self.ecfg)[0] for p, _ in scenes]
        evaluation.evaluate(dets, [list(g) for _, g in scenes])


# -- correctness gate --------------------------------------------------------- #

def reference_maps(name: str, out_dir: Path) -> dict[str, float]:
    """mAP on fixed inputs that do not depend on --seed; compared with expected.json."""
    if name == "bench":
        w = Workload("bench", DESK, suites=2, scenes=5, methods=cli.METHODS)
        cfg_path, csv_path = out_dir / "reference-bench.json", out_dir / "reference-bench.csv"
        cfg_path.write_text(json.dumps(bench_config(w, 0)))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["bench", "--config", str(cfg_path), "--out", str(csv_path)])
        if code != 0:
            raise RuntimeError(f"vlodtta bench exited with {code}")
        return bench_maps(csv_path.read_bytes())
    suite = make_suite(0, 20 if name == "desk" else 3, WORKLOADS[name].sim, shift(0))
    dets = [adapt.adapt_episode(p, suite.world.pool, adapt.EpisodeConfig())[0] for p, _ in suite.scenes]
    return {"vlodtta": evaluation.evaluate(dets, [list(g) for _, g in suite.scenes]).mean_ap}


def gate(name: str, out_dir: Path) -> dict:
    """The oracle suite plus reference mAPs; untimed."""
    oracle = checks.run_all()
    expected = json.loads((HERE / "expected.json").read_text())["reference_map"][name]
    got = reference_maps(name, out_dir)
    drift = {m: abs(got.get(m, math.nan) - v) for m, v in expected.items()}
    return {
        "oracle_failed": [n for n, passed, _ in oracle if not passed],
        "reference_map": got,
        "reference_ok": all(d <= MAP_TOL for d in drift.values()),
    }


# -- set-up time ---------------------------------------------------------------- #

def setup_times(name: str, seed: int, clock, repeats: int) -> list[tuple[float, float]]:
    """(wall, reference) seconds of `repeats` cold starts, each in a fresh interpreter."""
    out = []
    for _ in range(repeats):
        clock.sample()
        clock.sample()
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), name, str(seed)],
            capture_output=True, text=True, timeout=150, check=True,
        )
        clock.sample()
        clock.sample()
        wall = float(done.stdout.strip().splitlines()[-1])
        calib = np.median(clock.calib_ms[-4:])  # two kernel runs before this start, two after
        out.append((wall, wall * clock_mod.CALIB_REF_MS / calib))
    return out


# -- environment ---------------------------------------------------------------- #

def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, when it is the scipy-openblas build."""
    import ctypes
    import glob

    for path in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(clock) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": nproc(),
        "calib_ms": clock.median_calib_ms(),
    }


def env_differences(env: dict) -> list[str]:
    """Keys of the environment record that differ from the one the baseline was taken in."""
    base = json.loads((HERE / "expected.json").read_text())["environment"]
    diff = [k for k in base if k != "calib_ms" and env.get(k) != base[k]]
    if abs(env["calib_ms"] / base["calib_ms"] - 1.0) > 0.5:
        diff.append("calib_ms")
    return diff


# -- metrics ---------------------------------------------------------------------- #

def _ms(clock, intervals) -> np.ndarray:
    if not intervals:
        return np.zeros(0)
    a = np.asarray(intervals, dtype=float)
    return 1e3 * clock.reference(a[:, 0], a[:, 1])


def timing(clock, log: Log, bench: bool) -> dict[str, float]:
    """Reference-clock timings of one untraced run, plus the same figures in wall time."""
    ep = _ms(clock, log.episodes)
    evals = np.array(log.evals, dtype=float)
    # An evaluation call's time drifts with the process's heap as much as
    # with the host, and no kernel sample next to it predicts it; the
    # median over the run, scaled by the run's median kernel time, repeats best.
    calib = clock.median_calib_ms(*log.window)
    ev = 1e3 * (evals[:, 1] - evals[:, 0]) * clock_mod.CALIB_REF_MS / calib
    images = evals[:, 2]
    if bench:
        # whole `vlodtta bench` runs, less the calibration kernel that ran inside them
        k = np.column_stack([clock.starts, clock.ends])
        inside = [(s, e) for s, e in k if any(a <= s and e <= b for a, b in log.passes)]
        busy_ms = _ms(clock, log.passes).sum() - _ms(clock, inside).sum()
        wall_busy = sum(b - a for a, b in log.passes) - sum(e - s for s, e in inside)
    else:
        busy_ms = ep.sum() + ev.sum()
        wall_busy = sum(b - a for a, b in log.episodes) + sum(e[1] - e[0] for e in log.evals)
    wall_ep = 1e3 * np.array([b - a for a, b in log.episodes])
    return {
        "episode_ms_p50": float(np.median(ep)),
        "episode_ms_p95": float(np.percentile(ep, 95)),
        "episodes_per_s": len(ep) / (busy_ms / 1e3),
        "evaluation.ms_per_image": float(np.median(ev / images)),
        "p95_tail": int((ep > np.percentile(ep, 95)).sum()),
        "wall.episode_ms_p50": float(np.median(wall_ep)),
        "wall.episode_ms_p95": float(np.percentile(wall_ep, 95)),
        "wall.episodes_per_s": len(ep) / wall_busy,
    }


def end_to_end(runner: Runner, log: Log, clock, setups, zs_map: float) -> tuple[dict, dict]:
    t = timing(clock, log, runner.w.name == "bench")
    maps = log.maps[0]
    metrics = {
        "setup_s": float(np.median([r for _, r in setups])),
        "episode_ms_p50": t["episode_ms_p50"],
        "episode_ms_p95": t["episode_ms_p95"],
        "episodes_per_s": t["episodes_per_s"],
        "mAP": maps["vlodtta"],
        "mAP_ratio_vs_zs": maps["vlodtta"] / (maps["zs"] if "zs" in maps else zs_map),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "episode_ok_rate": (log.attempted - log.failed) / log.attempted,
    }
    detail = {k: v for k, v in t.items() if k.startswith("wall.") or k in ("p95_tail", "evaluation.ms_per_image")}
    detail["wall.setup_s"] = float(np.median([w for w, _ in setups]))
    detail["episodes"] = len(log.episodes)
    detail["passes"] = len(log.passes)
    detail["maps"] = maps
    if "zs" not in maps:
        detail["zs_map"] = zs_map
    return metrics, detail


def deterministic(log: Log) -> bool:
    """Every pass reproduced the first one's results."""
    return all(m == log.maps[0] for m in log.maps) and all(c == log.csvs[0] for c in log.csvs)


# -- tracing ------------------------------------------------------------------------ #

def _count_cosines(counts, args, result) -> None:
    counts["scoring.prompt_scores.cosines"] += int(np.asarray(result).size)


def _count_nms(counts, args, result) -> None:
    counts["geometry.nms.in"] += len(args[0])
    counts["geometry.nms.out"] += len(result)


def _count_match(counts, args, result) -> None:
    counts["evaluation.match_detections.calls"] += 1


# (namespace the program looks the function up in, attribute, span name, count)
TRACED = (
    (sim, "gen_world", "sim.gen_world", None),
    (sim, "gen_scene_proposals", "sim.gen_scene_proposals", None),
    (scoring, "prompt_scores", "scoring.prompt_scores", _count_cosines),
    (scoring, "aggregate_selected", "scoring.aggregate_selected", None),
    (scoring, "detector_scores", "scoring.detector_scores", None),
    (scoring, "select_prompts", "scoring.select_prompts", None),
    (scoring, "posterior", "scoring.posterior", None),
    (grad, "forward_objective", "grad.forward_objective", None),
    (grad, "backward", "grad.backward", None),
    (adapt, "fused_scores", "adapt.fused_scores", None),
    (adapt, "apply_adapter", "adapt.apply_adapter", None),
    (adapt, "adapt_episode", "adapt.adapt_episode", None),
    (geometry, "top_m_filter", "geometry.top_m_filter", None),
    (geometry, "nms", "geometry.nms", _count_nms),
    (geometry, "iou_matrix", "geometry.iou_matrix", None),
    (cluster, "build_class_graphs", "cluster.build_class_graphs", None),
    (cluster, "iou_matrix", "cluster.iou_matrix", None),
    (evaluation, "evaluate", "evaluation.evaluate", None),
    (evaluation, "match_detections", "evaluation.match_detections", _count_match),
    (evaluation, "average_precision", "evaluation.average_precision", None),
    # cli imported these by name, so they are separate references
    (cli, "adapt_episode", "adapt.adapt_episode", None),
    (cli, "run_baseline", "adapt.run_baseline", None),
    (cli, "evaluate", "evaluation.evaluate", None),
    (cli, "cmd_bench", "cli.cmd_bench", None),
)
SELF_TIMED = tuple(dict.fromkeys(name for _, _, name, _ in TRACED))


def install_tracer(tracer: spans.Tracer) -> None:
    """Wrap each layer's public functions where the program looks them up."""
    for owner, attr, name, count in TRACED:
        # cluster counts need the IoU graph again: computed after the run from recorded calls
        tracer.span(owner, attr, name, count=count, record=name == "cluster.build_class_graphs")
    tracer.counter(evaluation, "iou", "evaluation.iou.calls")


def cluster_counts(records) -> dict[str, int]:
    """Same-class pairs, IoU edges and components of recorded build_class_graphs calls."""
    pairs = edges = components = 0
    for _, (boxes, classes, theta), assignment in records:
        arr = np.asarray(boxes, dtype=float).reshape(-1, 4)
        classes = np.asarray(classes)
        for c in np.unique(classes):
            idx = np.flatnonzero(classes == c)
            pairs += idx.size * (idx.size - 1) // 2
            if idx.size > 1:
                edges += int(np.triu(geometry.iou_matrix(arr[idx]) >= theta, k=1).sum())
        components += int(np.unique(assignment.component_id).size)
    return {"cluster.pairs": pairs, "cluster.edges": edges, "cluster.components": components}


def per_layer(runner: Runner, gen: spans.Tracer | None, traced: spans.Tracer, first_pass_episodes: int,
              untraced: dict[str, float], traced_p50: float) -> dict[str, float]:
    """Self ms per episode for each traced function and layer, counts, and overhead."""
    s = traced.spans()
    episodes = int((s["name"] == "adapt.adapt_episode").sum())
    own = spans.self_times(s["name"], s["start"], s["end"], s["parent"])
    per_ep = {n: 1e3 * own.get(n, 0.0) / episodes for n in SELF_TIMED}
    if gen is not None:
        # desk and coco generate their scenes before timing: report generation per scene
        g = gen.spans()
        gen_own = spans.self_times(g["name"], g["start"], g["end"], g["parent"])
        scenes = runner.w.suites * runner.w.scenes
        for n in ("sim.gen_world", "sim.gen_scene_proposals"):
            per_ep[n] = 1e3 * gen_own.get(n, 0.0) / scenes
    out = {f"{n}.self_ms": v for n, v in per_ep.items()}
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = sum(v for n, v in per_ep.items() if n.startswith(layer + "."))
    counts = dict(traced.counts)
    for name in ("scoring.prompt_scores.cosines", "geometry.nms.in", "geometry.nms.out",
                 "evaluation.match_detections.calls", "evaluation.iou.calls"):
        out[name] = counts.get(name, 0) / episodes
    out["geometry.nms.kept_ratio"] = counts["geometry.nms.out"] / counts["geometry.nms.in"]
    cc = cluster_counts(traced.records)
    for name, v in cc.items():
        out[name] = v / first_pass_episodes
    out["cluster.edge_ratio"] = cc["cluster.edges"] / cc["cluster.pairs"]
    durations = s["end"] - s["start"]
    out["trace.episode_ms"] = 1e3 * float(durations[s["name"] == "adapt.adapt_episode"].mean())
    out["trace.overhead_pct"] = 100.0 * (traced_p50 / untraced["episode_ms_p50"] - 1.0)
    out["evaluation.ms_per_image"] = untraced["evaluation.ms_per_image"]
    return out


def write_spans(tracer: spans.Tracer, until: float, path: Path) -> None:
    """Spans that started by `until`, as [name, start_s, end_s, parent, root] rows."""
    s = tracer.spans()
    t0 = float(s["start"].min())
    rows = [
        [s["name"][i], round(s["start"][i] - t0, 7), round(s["end"][i] - t0, 7),
         int(s["parent"][i]), int(s["root"][i])]
        for i in np.flatnonzero(s["start"] <= until)
    ]
    path.write_text(json.dumps({"columns": ["name", "start_s", "end_s", "parent", "root"], "spans": rows}))


def labelled(metrics: dict[str, float], trace: bool) -> dict[str, dict]:
    """The metrics BENCHMARK.json declares for this mode, each with its unit."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}


# -- one invocation ------------------------------------------------------------------ #

def run(name: str, seed: int, seconds: float, trace: bool, *, scale: Workload | None = None,
        setup_repeats: int = SETUP_REPEATS, min_episodes: int = MIN_EPISODES) -> tuple[dict, dict]:
    """Run one workload; returns the result object and a detail record.

    `scale` replaces the workload's size (the tests use tiny ones).
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0: {seed}")
    w = scale or WORKLOADS[name]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    clock = clock_mod.Clock()
    checked = gate(name, out_dir)
    setups = setup_times(name, seed, clock, setup_repeats)
    runner = Runner(w, seed, out_dir)
    zs_map = math.nan if name == "bench" else runner.zero_shot_map()
    runner.warm_up()

    detail: dict = {"workload": name, "seed": seed, "trace": int(trace)}
    if not trace:
        log = runner.run(seconds, clock, min_episodes)
        metrics, more = end_to_end(runner, log, clock, setups, zs_map)
        detail.update(more)
    else:
        log = runner.run(seconds / 2, clock)
        untraced = timing(clock, log, name == "bench")
        gen = None
        if name != "bench":
            gen = spans.Tracer()
            with gen:
                install_tracer(gen)
                build_suites(w, seed)
        tracer = spans.Tracer()
        with tracer:
            install_tracer(tracer)
            tracer.span(clock, "sample", "perfbench.calib")  # kept out of every self time
            traced_log = runner.run(seconds / 2, clock, tracer=tracer)
        first_pass = runner.episodes_per_pass()
        traced_p50 = timing(clock, traced_log, name == "bench")["episode_ms_p50"]
        metrics = per_layer(runner, gen, tracer, first_pass, untraced, traced_p50)
        write_spans(tracer, traced_log.passes[0][1], out_dir / f"spans-{name}-{seed}.json")
        log.attempted += traced_log.attempted
        log.failed += traced_log.failed
        log.maps += traced_log.maps
        log.csvs += traced_log.csvs
        detail["trace.untraced_p50_ms"] = untraced["episode_ms_p50"]
        detail["trace.traced_p50_ms"] = traced_p50

    env = environment(clock)
    detail["env"] = env
    detail["env_differs_from_baseline"] = env_differences(env)
    detail["gate"] = checked
    detail["deterministic"] = deterministic(log)
    correct = (not checked["oracle_failed"]) and checked["reference_ok"] and detail["deterministic"]
    result = {"correct": bool(correct), "attempted": log.attempted, "failed": log.failed, "metrics": metrics}
    return result, detail
