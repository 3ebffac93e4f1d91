import json

import numpy as np
import pytest
from click.testing import CliRunner

from fractalspin import checks
from fractalspin.algebra import Biquaternion
from fractalspin.cli import (_SIM_KEYS, _json_text, _trajectory_csv, main,
                             parse_config_text, resolve_sim_config)
from fractalspin.errors import ConfigError, NumericalError, ZeroDivisor
from fractalspin.simulate import Trajectory, spiral_preset


@pytest.fixture
def runner():
    return CliRunner()


def test_parse_config_text_basics():
    raw = parse_config_text("""
    # demo
    D = 0.05   # trailing comment
    x0 = 1,0,0

    n_steps = 12
    """)
    assert raw == {"D": "0.05", "x0": "1,0,0", "n_steps": "12"}
    with pytest.raises(ConfigError, match="unknown config key: bogus"):
        parse_config_text("bogus = 3")
    with pytest.raises(ConfigError, match="duplicate config key: dt"):
        parse_config_text("dt = 1\ndt = 2")
    with pytest.raises(ConfigError, match="expected key = value"):
        parse_config_text("just some words")


def test_resolve_sim_config_routes():
    cfg = resolve_sim_config({"lambda_c": "0.2", "c": "0.5", "seed": "9"})
    assert cfg.diffusion == pytest.approx(0.05) and cfg.seed == 9
    with pytest.raises(ConfigError, match="not both"):
        resolve_sim_config({"D": "0.1", "lambda_c": "0.2", "c": "1"})
    with pytest.raises(ConfigError, match="together"):
        resolve_sim_config({"lambda_c": "0.2"})
    with pytest.raises(ConfigError, match="key dt"):
        resolve_sim_config({"dt": "fast"})
    with pytest.raises(ConfigError, match="key x0"):
        resolve_sim_config({"x0": "1,2"})


def test_simulate_csv_deterministic(runner):
    args = ["simulate", "--n-steps", "20", "--seed", "3"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0
    assert first.output == second.output
    lines = first.output.strip().splitlines()
    assert lines[0] == "t,x,y,z"
    assert len(lines) == 22
    # repr floats round-trip exactly
    t, x, y, z = (float(v) for v in lines[5].split(","))
    assert repr(t) == lines[5].split(",")[0]


def test_simulate_ensemble_json(runner):
    result = runner.invoke(main, ["simulate", "--n-traj", "15",
                                  "--n-steps", "40", "--seed", "8"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    for key in ("n_traj", "seed", "H", "D_F", "Lz_mean", "Lz_std",
                "increment_var", "mean_final", "config"):
        assert key in payload
    assert payload["n_traj"] == 15
    assert payload["config"]["n_steps"] == 40
    assert len(payload["increment_var"]) == 3


def test_config_file_and_override(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dt = 0.05\nn_steps = 7\nn_traj = 2\nseed = 1\n")
    result = runner.invoke(main, ["simulate", "--config", str(cfg),
                                  "--dt", "0.02"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["config"]["dt"] == 0.02  # flag beats file
    assert payload["config"]["n_steps"] == 7


def test_unknown_config_key_exit_code(runner, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    result = runner.invoke(main, ["simulate", "--config", str(cfg)])
    assert result.exit_code == 2
    assert "bogus" in result.stderr


def test_compton_pair_flags(runner):
    result = runner.invoke(main, ["simulate", "--lambda-c", "0.2",
                                  "--c", "0.5", "--n-traj", "2",
                                  "--n-steps", "10"])
    assert result.exit_code == 0
    assert json.loads(result.output)["config"]["D"] == pytest.approx(0.05)
    assert runner.invoke(main, ["simulate", "--lambda-c", "0.2"]).exit_code == 2
    assert runner.invoke(main, ["simulate", "--d", "0.1", "--lambda-c", "0.2",
                                "--c", "1"]).exit_code == 2


def test_spiral_csv_and_axis_failure(runner):
    ok = runner.invoke(main, ["spiral", "--n-steps", "10"])
    assert ok.exit_code == 0
    assert ok.output.splitlines()[0] == "t,x,y,z"
    bad = runner.invoke(main, ["spiral", "--x0", "0,0,0", "--n-steps", "5"])
    assert bad.exit_code == 3
    assert "numerical error" in bad.stderr


def test_extract_reports_closure(runner):
    result = runner.invoke(main, ["extract", "--point", "0.5,1.2,0.3,-0.4"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["closure_ok"] is True
    assert payload["max_closure_error"] < 1e-10
    assert payload["tilde_max_abs"] < 1e-10
    assert set(payload["components"]) == {
        "v_pp", "v_pm", "v_mp", "v_mm",
        "vt_pp", "vt_pm", "vt_mp", "vt_mm"}
    assert runner.invoke(main, ["extract", "--point", "1,2"]).exit_code == 2


def test_hyperhelix_command(runner):
    result = runner.invoke(main, ["hyperhelix", "--generator", "koch",
                                  "--level", "4", "--min-decades", "1.9"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["similarity_dimension"] == pytest.approx(1.2618595, abs=1e-6)
    assert payload["measured_dimension"] == pytest.approx(1.2618595, abs=1e-4)
    assert "0.42" in payload["reference_note"]

    fast = runner.invoke(main, ["hyperhelix", "--level", "2", "--no-measure"])
    assert fast.exit_code == 0
    assert json.loads(fast.output)["measured_dimension"] is None

    thin = runner.invoke(main, ["hyperhelix", "--level", "3"])
    assert thin.exit_code == 3  # 1.43 decades under the default gate


def test_hyperhelix_negative_level_exit_code(runner):
    result = runner.invoke(main, ["hyperhelix", "--level", "-1"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert "--level" in result.stderr
    assert result.stdout == ""


def test_algebra_check_counts_zero_divisor_skips(monkeypatch):
    def zero_divisor(self):
        raise ZeroDivisor("forced")

    monkeypatch.setattr(Biquaternion, "inverse", zero_divisor)
    inv = {c["name"]: c for c in checks.run_algebra(0)}["inverse round trip"]
    assert inv["detail"].endswith(", 50 zero-divisor draws skipped")
    assert not inv["passed"]  # no draw was inverted

    def broken(self):
        raise RuntimeError("not a zero divisor")

    monkeypatch.setattr(Biquaternion, "inverse", broken)
    with pytest.raises(RuntimeError):
        checks.run_algebra(0)  # only zero divisors are skipped


def test_check_command(runner):
    result = runner.invoke(main, ["check", "--suite", "algebra",
                                  "--suite", "hyperhelix"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["passed"] is True
    assert [s["name"] for s in payload["suites"]] == ["algebra", "hyperhelix"]
    assert payload["config"]["suites_run"] == ["algebra", "hyperhelix"]


def test_outdir_env_resolution(runner, tmp_path):
    result = runner.invoke(main, ["simulate", "--n-steps", "5",
                                  "-o", "sub/run.csv"],
                           env={"FRACTALSPIN_OUTDIR": str(tmp_path)})
    assert result.exit_code == 0
    written = (tmp_path / "sub" / "run.csv").read_text()
    assert written.splitlines()[0] == "t,x,y,z"


def test_preset_loading(runner):
    result = runner.invoke(main, ["simulate", "--preset", "spiral_demo",
                                  "--n-steps", "4"])
    assert result.exit_code == 0
    assert len(result.output.strip().splitlines()) == 6
    assert runner.invoke(main, ["simulate", "--preset", "nope"]).exit_code == 2
    both = runner.invoke(main, ["simulate", "--preset", "spiral_demo",
                                "--config", "x.cfg"])
    assert both.exit_code == 2


@pytest.mark.parametrize("args", [
    ["simulate", "--n-traj", "100", "--n-steps", "0"],
    ["simulate", "--n-steps", "0"],
    ["simulate", "--dt", "-0.01"],
    ["spiral", "--dt", "-0.01"],
    ["simulate", "--x0", "nan,0,0"],
    ["simulate", "--seed", "-1"],
    ["simulate", "--r-min", "-0.5"],
    ["simulate", "--x0", "0,0,0", "--r-min", "0"],
    ["spiral", "--r-min", "0"],
    ["simulate", "--n-traj", "3", "--n-steps", "20", "--sigma0", "nan"],
    ["simulate", "--n-steps", "3", "--p0", "inf"],
    ["spiral", "--n-steps", "3", "--sigma0", "nan"],
    ["spiral", "--n-steps", "3", "--p0", "-inf"],
    ["extract", "--m", "0"],
    ["extract", "--hbar", "0"],
    ["extract", "--c", "0"],
    ["extract", "--c", "inf"],
    ["extract", "--point", "nan,1,0,0"],
    ["extract", "--e0", "nan"],
    ["extract", "--mix", "inf"],
    ["hyperhelix", "--min-decades", "nan", "--level", "2"],
    ["hyperhelix", "--min-decades", "inf", "--no-measure"],
])
def test_unusable_sim_config_exit_code(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.stderr.startswith("config error: key ")
    assert result.stdout == ""


@pytest.mark.parametrize("args, flag", [
    (["hyperhelix", "--winding", "5"], "--winding"),
    (["hyperhelix", "--winding", "0"], "--winding"),
    (["check", "--seed", "-1"], "--seed"),
])
def test_out_of_range_option_exit_code(runner, args, flag):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert flag in result.stderr
    assert result.stdout == ""


def test_sim_flags_keep_their_order_and_help():
    expected = [
        (["--config"], "Flat key = value config file."),
        (["--preset"], "Name of a packaged preset config."),
        (["--d"], "Diffusion constant D."),
        (["--lambda-c"], "Compton length; needs --c, 2D = lambda_c * c."),
        (["--c"], "Signal speed for --lambda-c."),
        (["--dt"], "Time step."),
        (["--n-steps"], "Number of steps."),
        (["--seed"], "Master seed."),
        (["--m"], "Mass."),
        (["--p0"], "Axial momentum."),
        (["--sigma0"], "Spiral angular momentum."),
        (["--x0"], "Start point, three comma-separated values."),
        (["--n-traj"], "Number of trajectories."),
        (["--r-min"], "Drift core radius override."),
        (["--out", "-o"], "Output path (default stdout)."),
    ]
    for name in ("simulate", "spiral"):
        params = main.commands[name].params
        assert [(p.opts, p.help) for p in params] == expected


# every simulation key with a value off its default (D too, through the
# Compton pair), and what the echoed config must then hold
_ROUND_TRIP = [
    ({"D": "0.07", "dt": "0.02", "n_steps": "12", "seed": "5", "m": "1.5",
      "p0": "0.7", "sigma0": "0.3", "x0": "0.5,0.25,1", "n_traj": "3",
      "r_min": "0.2"},
     {"D": 0.07, "dt": 0.02, "n_steps": 12, "seed": 5, "m": 1.5, "p0": 0.7,
      "sigma0": 0.3, "x0": [0.5, 0.25, 1.0], "n_traj": 3, "r_min": 0.2}),
    ({"lambda_c": "0.3", "c": "0.4", "n_traj": "2", "n_steps": "10"},
     {"D": 0.5 * 0.3 * 0.4, "n_traj": 2, "n_steps": 10}),
]


def test_round_trip_covers_every_key():
    assert {k for given, _ in _ROUND_TRIP for k in given} == set(_SIM_KEYS)


@pytest.mark.parametrize("via", ["file", "flags"])
@pytest.mark.parametrize("given, echoed", _ROUND_TRIP, ids=["fields", "compton"])
def test_every_sim_key_round_trips_into_the_echoed_config(runner, tmp_path,
                                                          via, given, echoed):
    if via == "file":
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in given.items()))
        args = ["--config", str(cfg)]
    else:
        args = [a for k, v in given.items()
                for a in ("--" + k.lower().replace("_", "-"), v)]
    result = runner.invoke(main, ["simulate", *args])
    assert result.exit_code == 0, result.stderr
    config = json.loads(result.output)["config"]
    assert set(config) == set(_ROUND_TRIP[0][1])  # every SimConfig field
    for key, value in echoed.items():
        assert config[key] == value


def _old_trajectory_csv(traj):
    # the per-row writer before chunked formatting
    lines = ["t,x,y,z"]
    for t, pos in zip(traj.times, traj.positions):
        lines.append(f"{float(t)!r},{float(pos[0])!r},"
                     f"{float(pos[1])!r},{float(pos[2])!r}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("rows", [1, 2, 4095, 4096, 4097, 8193])
def test_trajectory_csv_equals_per_row_oracle(rows):
    rng = np.random.default_rng(rows)
    times = np.arange(rows) * 0.01
    positions = rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(
        -20, 20, (rows, 3))
    positions[0] = -0.0, 1e-300, 1e+16
    special = [-1e-300, -1e+16, 0.0, 5e-324, 1e+308, 0.1, 1 / 3, 1e16 + 2]
    positions.reshape(-1)[3:3 + len(special)] = special[:3 * rows - 3]
    times[-1] = -0.0 if rows == 1 else times[-1]
    traj = Trajectory(times, positions, spiral_preset())
    text = _trajectory_csv(traj)
    assert text == _old_trajectory_csv(traj)
    assert text.count("\n") == rows + 1
    for token in ("-0.0", "1e-300", "1e+16"):
        assert token in text


# finite inputs whose runs overflow: numpy's overflow warnings on the way
# are expected here, the run must still end in exit 3 with no file
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("args", [
    ["simulate", "--n-traj", "3", "--n-steps", "20", "--sigma0", "1e308",
     "--p0", "1e308"],
    ["simulate", "--n-steps", "20", "--sigma0", "1e308", "--p0", "1e308"],
    ["spiral", "--n-steps", "3", "--sigma0", "1e308"],
])
def test_non_finite_output_exits_3_and_writes_nothing(runner, tmp_path, args):
    out = tmp_path / "run.out"
    result = runner.invoke(main, [*args, "--out", str(out)])
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.stderr.startswith("numerical error: ")
    assert "non-finite" in result.stderr
    assert not out.exists()
    # and nothing on stdout when no --out is given
    result = runner.invoke(main, args)
    assert result.exit_code == 3
    assert result.stdout == ""


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_output_writers_refuse_non_finite_numbers(bad):
    with pytest.raises(NumericalError, match="non-finite"):
        _json_text({"value": bad})
    with pytest.raises(NumericalError, match="non-finite"):
        _json_text({"nested": {"values": [1.0, float(bad)]}})
    positions = np.zeros((3, 3))
    positions[2, 1] = bad
    with pytest.raises(NumericalError, match="non-finite"):
        _trajectory_csv(Trajectory(np.arange(3) * 0.01, positions,
                                   spiral_preset()))
