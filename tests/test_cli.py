"""CLI tests: config parsing, CSV reproducibility, episode dumps, and sweeps."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import vlodtta
from vlodtta.cli import (
    CSV_COLUMNS,
    EPISODE_DUMP_SCHEMA,
    METHODS,
    SWEEP_COLUMNS,
    ConfigError,
    cmd_bench,
    cmd_check,
    cmd_episode,
    cmd_sweep,
    main,
    run_config_from_dict,
    run_config_to_dict,
)


def _doc(**over) -> dict:
    """A small, fast run: 2 seeds x 2 scenes on the default simulator profile."""
    doc = {
        "episode": {},
        "sim": {},
        "shift": {"magnitude": 0.5, "noise_amp": 2.0, "seed": 0},
        "seeds": 2,
        "n_scenes": 2,
        "methods": list(METHODS),
        "measure_time": False,
    }
    doc.update(over)
    return doc


def _write(tmp_path, doc, name="config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _cli_env() -> dict[str, str]:
    """Environment for a child `python -m vlodtta` that imports this same package.

    The directory holding the imported package goes first on `PYTHONPATH`, so
    the child works from any directory, installed or not.
    """
    root = str(Path(vlodtta.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


def _rows(path) -> list[list[str]]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return [ln.split(",") for ln in lines]


# -- config parsing ---------------------------------------------------------- #

def test_round_trip_is_identity():
    cfg = run_config_from_dict(_doc())
    assert run_config_from_dict(run_config_to_dict(cfg)) == cfg


def test_defaults_fill_in():
    cfg = run_config_from_dict({})
    assert cfg.seeds == 20 and cfg.n_scenes == 20
    assert cfg.methods == METHODS
    assert cfg.episode.gamma == 1.1 and cfg.sim.d == 32


def test_lambda_spelling():
    cfg = run_config_from_dict(_doc(episode={"lambda": 0.5}))
    assert cfg.episode.lam == 0.5
    doc = run_config_to_dict(cfg)
    assert doc["episode"]["lambda"] == 0.5 and "lam" not in doc["episode"]


def test_lambda_and_lam_conflict():
    with pytest.raises(ConfigError, match="not both"):
        run_config_from_dict(_doc(episode={"lambda": 0.3, "lam": 0.3}))


@pytest.mark.parametrize(
    "doc, fragment",
    [
        (_doc(bogus=1), "unknown config keys"),
        (_doc(episode={"momentum": 0.9}), "unknown episode keys"),
        (_doc(sim={"dd": 4}), "unknown sim keys"),
        (_doc(shift={"level": 2}), "unknown shift keys"),
        (_doc(seeds=0), "seeds"),
        (_doc(n_scenes=0), "n_scenes"),
        (_doc(methods=[]), "empty"),
        (_doc(methods=["zs", "frcnn"]), "unknown methods"),
        (_doc(methods=["zs", "zs"]), "duplicate"),
        (_doc(episode={"reduction": 5}), "divisible"),
        (_doc(episode={"gamma": -1.0}), "gamma"),
        (_doc(sim={"d": 0}), "d"),
    ],
)
def test_rejected_configs(doc, fragment):
    with pytest.raises(ConfigError, match=fragment):
        run_config_from_dict(doc)


@pytest.mark.parametrize(
    "over, fragment",
    [
        ({"shift": {"magnitude": 2.0}}, "magnitude must be in"),  # ValueError from ShiftSpec
        ({"seeds": "x"}, "seeds must be an integer"),
        ({"sim": {"extent": 5}}, "extent must be a list of two integers"),
        ({"episode": {"top_m": 2.5}}, "top_m must be an integer"),
        ({"seeds": 2.7}, "seeds must be an integer"),
        ({"episode": {"reduction": True}}, "reduction must be an integer"),
        ({"measure_time": "false"}, "measure_time must be true or false"),
        ({"methods": "zs"}, "methods must be a list of strings"),
        ({"sim": {"jitter": math.nan}}, "jitter must be a finite number"),
        ({"shift": {"noise_amp": math.inf}}, "noise_amp must be a finite number"),
    ],
)
def test_malformed_configs_end_in_a_config_error(tmp_path, capsys, over, fragment):
    with pytest.raises(ConfigError, match=fragment):
        run_config_from_dict(_doc(**over))
    code = main(["bench", "--config", _write(tmp_path, _doc(**over)), "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_float_fields_accept_json_integers():
    cfg = run_config_from_dict(_doc(episode={"lr": 0, "gamma": 1}, shift={"magnitude": 1}))
    assert cfg.episode.lr == 0.0 and cfg.episode.gamma == 1.0 and cfg.shift.magnitude == 1.0
    assert run_config_from_dict(_doc(sim={"extent": [320, 240]})).sim.extent == (320, 240)


def test_non_object_sections_rejected():
    with pytest.raises(ConfigError):
        run_config_from_dict(_doc(episode=[1, 2]))
    with pytest.raises(ConfigError):
        run_config_from_dict([])


# -- bench -------------------------------------------------------------------- #

def test_bench_repeat_runs_are_byte_identical(tmp_path, capsys):
    config = _write(tmp_path, _doc())
    assert cmd_bench(config, str(tmp_path / "a.csv")) == 0
    assert cmd_bench(config, str(tmp_path / "b.csv")) == 0
    capsys.readouterr()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_bench_csv_layout(tmp_path, capsys):
    config = _write(tmp_path, _doc())
    out = tmp_path / "bench.csv"
    assert cmd_bench(config, str(out)) == 0
    capsys.readouterr()
    first = out.read_text().splitlines()[0]
    assert first.startswith("# config ") and json.loads(first[len("# config "):])
    rows = _rows(out)
    assert rows[0] == list(CSV_COLUMNS)
    body = rows[1:]
    assert len(body) == 2 * len(METHODS)  # seeds x methods
    assert [r[0] for r in body] == [m for m in METHODS for _ in range(2)]
    for row in body:
        assert row[1] in {"0", "1"} and row[2] == "2"
        assert float(row[3]) == 0.5
        assert 0.0 <= float(row[4]) <= 1.0  # mAP
        assert 0.0 <= float(row[5]) <= 1.0 and 0.0 <= float(row[6]) <= 1.0
        assert row[7] == "0.000"  # timing off


def test_bench_timing_column(tmp_path, capsys):
    config = _write(tmp_path, _doc(methods=["vlodtta"], seeds=1, measure_time=True))
    out = tmp_path / "timed.csv"
    assert cmd_bench(config, str(out)) == 0
    capsys.readouterr()
    (row,) = _rows(out)[1:]
    assert float(row[7]) > 0.0


def test_bench_prints_summary(tmp_path, capsys):
    config = _write(tmp_path, _doc(methods=["zs"], seeds=1))
    assert cmd_bench(config, str(tmp_path / "s.csv")) == 0
    printed = capsys.readouterr().out
    assert "zs" in printed and "mAP" in printed and "wrote" in printed


# -- episode dump --------------------------------------------------------------- #

def test_episode_dump_validates_and_is_consistent(tmp_path, capsys):
    config = _write(tmp_path, _doc())
    out = tmp_path / "episode.json"
    assert cmd_episode(config, 1, str(out)) == 0
    capsys.readouterr()
    dump = json.loads(out.read_text())
    jsonschema.validate(instance=dump, schema=EPISODE_DUMP_SCHEMA)

    scene = dump["scene"]
    n = len(scene["boxes"])
    assert scene["d"] == 32 and scene["K"] == 6 and scene["T"] == 16
    assert len(scene["features"]) == n and len(scene["features"][0]) == 32
    assert len(dump["pre_fused"]) == n and len(dump["pre_fused"][0]) == 6
    assert len(dump["post_fused"]) == n
    assert dump["loss"] >= 0.0
    assert set(dump["grad_norms"]) == {"w_down", "b_down", "w_up", "b_up", "delta"}

    assert len(dump["selections"]) == 6
    for sel in dump["selections"]:
        assert len(sel) == math.ceil(0.25 * 16)
        assert len(set(sel)) == len(sel)  # ordered by rank, not index
        assert all(0 <= t < 16 for t in sel)

    sizes = [c["size"] for c in dump["clusters"]]
    assert sizes == sorted(sizes, reverse=True)
    assert n <= 600 and sum(sizes) == n  # everything kept at this scale
    for det in dump["detections"]:
        assert 0 <= det["class_id"] < 6 and det["score"] > 0.0


def test_episode_dump_is_deterministic(tmp_path, capsys):
    config = _write(tmp_path, _doc())
    assert cmd_episode(config, 0, str(tmp_path / "a.json")) == 0
    assert cmd_episode(config, 0, str(tmp_path / "b.json")) == 0
    capsys.readouterr()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_episode_lr_zero_keeps_scores(tmp_path, capsys):
    config = _write(tmp_path, _doc(episode={"lr": 0.0}))
    out = tmp_path / "frozen.json"
    assert cmd_episode(config, 0, str(out)) == 0
    capsys.readouterr()
    dump = json.loads(out.read_text())
    assert dump["pre_fused"] == dump["post_fused"]


def test_episode_scene_index_out_of_range(tmp_path, capsys):
    config = _write(tmp_path, _doc())
    assert cmd_episode(config, 2, str(tmp_path / "x.json")) == 2
    assert cmd_episode(config, -1, str(tmp_path / "x.json")) == 2
    assert "out of range" in capsys.readouterr().err


# -- check ----------------------------------------------------------------------- #

def test_check_runs_clean(capsys):
    assert cmd_check() == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) >= 6
    assert all(line.startswith("PASS") for line in lines)


# -- sweep ------------------------------------------------------------------------ #

def test_sweep_gamma_zero_equals_entropy_baseline(tmp_path, capsys):
    # with lambda = 0 in the base config, sweeping gamma to 0 turns the full
    # method into the entropy-only baseline, so the metric columns must agree
    config = _write(tmp_path, _doc(episode={"lambda": 0.0}, methods=["entropy"]))
    bench_out = tmp_path / "bench.csv"
    sweep_out = tmp_path / "sweep.csv"
    assert cmd_bench(config, str(bench_out)) == 0
    assert cmd_sweep(config, "gamma", [0.0], str(sweep_out)) == 0
    capsys.readouterr()
    bench_body = _rows(bench_out)[1:]
    sweep_body = _rows(sweep_out)[1:]
    assert _rows(sweep_out)[0] == list(SWEEP_COLUMNS)
    assert len(sweep_body) == len(bench_body) == 2
    for brow, srow in zip(bench_body, sweep_body):
        assert srow[0] == "gamma" and srow[1] == "0.0"
        assert srow[2] == brow[1]  # base seed
        assert srow[4:7] == brow[4:7]  # identical mAP / AP50 / AP75 strings


def test_sweep_top_m_casts_to_int(tmp_path, capsys):
    config = _write(tmp_path, _doc(seeds=1, n_scenes=1))
    out = tmp_path / "m.csv"
    assert cmd_sweep(config, "top_m", [50.0], str(out)) == 0
    capsys.readouterr()
    (row,) = _rows(out)[1:]
    assert row[0] == "top_m" and row[1] == "50"


@pytest.mark.parametrize(
    "param, grid",
    [
        ("nonsense", [0.5]),
        ("theta", [1.5]),
        ("rho", [0.0]),
        ("gamma", [-0.2]),
        ("top_m", [2.5]),
        ("lambda", []),
    ],
)
def test_sweep_rejects_bad_requests(tmp_path, capsys, param, grid):
    config = _write(tmp_path, _doc())
    assert cmd_sweep(config, param, grid, str(tmp_path / "bad.csv")) == 2
    assert capsys.readouterr().err != ""


# -- main dispatch ------------------------------------------------------------------ #

def test_main_check(capsys):
    assert main(["check"]) == 0
    capsys.readouterr()


def test_main_missing_config(tmp_path, capsys):
    code = main(["bench", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_module_entry_point_passes_on_exit_code(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "vlodtta", "bench",
         "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o.csv")],
        capture_output=True, text=True, env=_cli_env(), timeout=60.0,
    )
    assert result.returncode == 2, result.stderr
    assert "config error" in result.stderr


def test_main_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["bench", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2
    assert "config error" in capsys.readouterr().err


def test_main_bad_grid_string(tmp_path, capsys):
    config = _write(tmp_path, _doc())
    code = main(["sweep", "--config", config, "--param", "gamma", "--grid", "a,b", "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "cannot parse grid" in capsys.readouterr().err


def test_main_rejects_unknown_subcommand(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    capsys.readouterr()


def test_main_sweep_param_choices(tmp_path, capsys):
    config = _write(tmp_path, _doc())
    with pytest.raises(SystemExit):
        main(["sweep", "--config", config, "--param", "oops", "--grid", "1", "--out", "x"])
    capsys.readouterr()
