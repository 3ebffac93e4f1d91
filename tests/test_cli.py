import io
import json

import numpy as np
import pytest
from click.testing import CliRunner

from fractalspin import checks, cli, velocity
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
    assert bad.stderr == ("numerical error: drift evaluated on the axis: "
                          "rho^2 = 0 at x = 0.0, y = 0.0\n")


def test_spiral_runs_from_any_start_off_the_axis(runner):
    # well inside the stochastic core, 10 sqrt(2 D dt) = 0.316: the exact
    # flow keeps rho0 = 0.03 on every row
    ok = runner.invoke(main, ["spiral", "--x0", "0.03,0,0", "--n-steps", "50"])
    assert ok.exit_code == 0, ok.stderr
    rows = np.loadtxt(io.StringIO(ok.output), delimiter=",", skiprows=1)
    assert rows.shape == (51, 4)
    rho = np.hypot(rows[:, 1], rows[:, 2])
    assert np.max(np.abs(rho / 0.03 - 1.0)) < 1e-13


@pytest.mark.parametrize("command", ["simulate", "spiral"])
def test_r_min_is_refused_by_name(runner, tmp_path, command):
    # the core radius is derived, 10 sqrt(2 D dt); no key overrides it
    flag = runner.invoke(main, [command, "--r-min", "0.1"])
    assert flag.exit_code == 2 and "--r-min" in flag.stderr
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r_min = 0.1\n")
    key = runner.invoke(main, [command, "--config", str(cfg)])
    assert key.exit_code == 2
    assert key.stderr == "config error: unknown config key: r_min\n"
    assert flag.stdout == key.stdout == ""


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
    # velocities of order 1e11: the closure error is far above 1e-10 in
    # absolute terms but about 1e-16 of the velocity, so it closes
    for args in (["--mix", "1e6", "--c", "3"],
                 ["--mix", "1e7", "--c", "3", "--m", "1.7"]):
        result = runner.invoke(main, ["extract", "--point", "0.3,0.7,-0.4,0.2",
                                      *args])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["max_closure_error"] > 1e-10
        assert payload["closure_ok"] is True


def test_a_recomposition_off_by_1e_9_fails_extract_and_check(runner,
                                                            monkeypatch):
    exact = velocity.recompose_velocity
    monkeypatch.setattr(velocity, "recompose_velocity",
                        lambda comp: tuple(v * (1.0 + 1e-9)
                                           for v in exact(comp)))
    result = runner.invoke(main, ["extract"])
    assert result.exit_code == 0
    assert json.loads(result.output)["closure_ok"] is False
    result = runner.invoke(main, ["check", "--suite", "velocity"])
    assert result.exit_code == 1
    closure, = (c for c in json.loads(result.output)["suites"][0]["checks"]
                if c["name"] == "decompose/recompose closure")
    assert closure["passed"] is False


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

    # level 0 has one ruler, which ended in numpy's LinAlgError (exit 1)
    single = runner.invoke(main, ["hyperhelix", "--level", "0",
                                  "--min-decades", "0"])
    assert single.exit_code == 3
    assert isinstance(single.exception, SystemExit)  # no traceback
    assert "two distinct rulers" in single.stderr


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


@pytest.mark.parametrize("spin", [0.7, 0.0])
def test_hyperhelix_check_fails_a_spin_blind_to_handedness(monkeypatch,
                                                           spin):
    # a spin that does not flip with the winding, or that is 0, fails
    monkeypatch.setattr(checks, "curve_spin", lambda verts, m, v: spin)
    line = {c["name"]: c for c in checks.run_hyperhelix(0)}[
        "mirrored helix spins the other way"]
    assert not line["passed"]


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


# extract leaves its physical constants to SpinorField, which names the key
_SPINOR_FIELD_REFUSALS = {
    ("extract", "--m", "0"):
        "config error: key m: need a finite number > 0, got 0.0\n",
    ("extract", "--hbar", "nan"):
        "config error: key hbar: need a finite number > 0, got nan\n",
    ("extract", "--c", "inf"):
        "config error: key c: need a finite number > 0, got inf\n",
}


@pytest.mark.parametrize("args", [
    ["simulate", "--n-traj", "100", "--n-steps", "0"],
    ["simulate", "--n-steps", "0"],
    ["simulate", "--dt", "-0.01"],
    ["spiral", "--dt", "-0.01"],
    ["simulate", "--x0", "nan,0,0"],
    ["simulate", "--seed", "-1"],
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
    ["extract", "--hbar", "nan"],
])
def test_unusable_sim_config_exit_code(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.stderr.startswith("config error: key ")
    assert result.stdout == ""
    if tuple(args) in _SPINOR_FIELD_REFUSALS:
        assert result.stderr == _SPINOR_FIELD_REFUSALS[tuple(args)]


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
        (["--out", "-o"], "Output path (default stdout)."),
    ]
    for name in ("simulate", "spiral"):
        params = main.commands[name].params
        assert [(p.opts, p.help) for p in params] == expected


# every simulation key with a value off its default (D too, through the
# Compton pair), and what the echoed config must then hold
_ROUND_TRIP = [
    ({"D": "0.07", "dt": "0.02", "n_steps": "12", "seed": "5", "m": "1.5",
      "p0": "0.7", "sigma0": "0.3", "x0": "0.5,0.25,1", "n_traj": "3"},
     {"D": 0.07, "dt": 0.02, "n_steps": 12, "seed": 5, "m": 1.5, "p0": 0.7,
      "sigma0": 0.3, "x0": [0.5, 0.25, 1.0], "n_traj": 3}),
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
    text = "".join(_trajectory_csv(traj))
    assert text == _old_trajectory_csv(traj)
    assert text.count("\n") == rows + 1
    for token in ("-0.0", "1e-300", "1e+16"):
        assert token in text



def test_streamed_csv_is_the_same_on_stdout_and_in_a_file(runner, tmp_path):
    # 5000 steps give 5001 rows: two chunks after the header
    args = ["spiral", "--preset", "spiral_demo", "--n-steps", "5000"]
    shown = runner.invoke(main, args)
    out = tmp_path / "spiral.csv"
    written = runner.invoke(main, [*args, "--out", str(out)])
    assert shown.exit_code == written.exit_code == 0
    assert written.stdout == ""
    assert out.read_bytes() == shown.stdout_bytes
    assert shown.stdout.count("\n") == 5002
    assert shown.stdout.startswith("t,x,y,z\n0.0,")

# finite inputs whose runs overflow: numpy's overflow warnings on the way
# are expected here, the run must still end in exit 3 with no file
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("args", [
    ["simulate", "--n-traj", "3", "--n-steps", "20", "--sigma0", "1e308",
     "--p0", "1e308"],
    ["simulate", "--n-steps", "20", "--sigma0", "1e308", "--p0", "1e308"],
    # z moves p0 dt / m = inf per step
    ["spiral", "--n-steps", "3", "--p0", "1e308", "--dt", "10"],
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


@pytest.mark.parametrize("flags", [
    # rho^2 underflows to a subnormal
    ["--x0", "1e-160,0,0"],
    # k = sigma0/m overflows
    ["--sigma0", "1e308", "--m", "1e-10"],
])
def test_spiral_non_finite_turn_exits_3_without_a_traceback(runner, flags):
    result = runner.invoke(main, ["spiral", "--n-steps", "3", *flags])
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.stderr.startswith("numerical error: spiral turn over the "
                                    "run, 3 x ")
    assert result.stderr.endswith(", is not finite\n")
    assert result.stderr.count("\n") == 1
    assert result.stdout == ""


@pytest.mark.parametrize("flags", [["--sigma0", "1e308"],
                                   ["--x0", "1e308,1e308,0"]])
def test_ensemble_overflow_prints_only_the_error_line(runner, flags):
    # no numpy warning on the way: under pytest one would be an error
    result = runner.invoke(main, ["simulate", "--preset", "spiral_demo",
                                  "--n-traj", "2", "--n-steps", "5", *flags])
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.stderr == ("numerical error: ensemble paths overflow: a "
                             "pooled sum is non-finite (inf or nan)\n")
    assert result.stdout == ""


def test_n_traj_beyond_one_spawn_index_word_exits_2(runner):
    result = runner.invoke(main, ["simulate", "--n-traj", "4294967297"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.stderr == ("config error: key n_traj: need at most "
                             "4294967296, got 4294967297\n")
    assert result.stdout == ""


@pytest.mark.parametrize("n_traj", ["1", "2"])
def test_core_radius_underflow_exits_2(runner, n_traj):
    # 10 sqrt(2 D dt) squares to 0: the single path ended in a bare
    # ZeroDivisionError, the ensemble in "ensemble paths overflow"
    result = runner.invoke(main, ["simulate", "--x0", "0,0,0", "--dt",
                                  "1e-323", "--n-steps", "3",
                                  "--n-traj", n_traj])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.stderr == (
        "config error: keys D and dt: need the core radius 10 sqrt(2 D dt) "
        "to square to a number > 0, got D = 0.05, dt = 1e-323\n")
    assert result.stdout == ""


_TOO_LARGE = ("Unable to allocate 22.4 TiB for an array with shape "
              "(1000000000000, 3) and data type float64")


@pytest.mark.parametrize("args, integrator, error, said", [
    (["simulate"], "integrate_stochastic", MemoryError(_TOO_LARGE),
     _TOO_LARGE),
    (["simulate", "--n-traj", "2"], "ensemble_run", MemoryError(),
     "out of memory"),
    (["spiral"], "integrate_deterministic", MemoryError(_TOO_LARGE),
     _TOO_LARGE),
])
def test_run_too_large_for_memory_exits_3(runner, monkeypatch, args,
                                          integrator, error, said):
    # the integrator stands in for numpy refusing the allocation, which
    # ended in a traceback with exit 1
    def too_large(*args):
        raise error

    monkeypatch.setattr(cli, integrator, too_large)
    result = runner.invoke(main, args + ["--n-steps", "1000000000000"])
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.stderr == f"numerical error: {said}\n"
    assert result.stdout == ""


def test_json_text_writes_numpy_values_as_python_ones():
    assert _json_text({"a": np.array([0.1, 1 / 3, -0.0]),
                       "b": np.float64(0.3), "c": np.bool_(True),
                       "d": np.int64(3), "e": np.zeros((2, 2))}) == \
        _json_text({"a": [0.1, 1 / 3, -0.0], "b": 0.3, "c": True, "d": 3,
                    "e": [[0.0, 0.0], [0.0, 0.0]]})


def test_nan_inside_an_array_exits_3_and_writes_nothing(runner, tmp_path,
                                                       monkeypatch):
    exact = velocity.closure

    def closure_with_nan(field, pt):
        comp, error, ok = exact(field, pt)
        comp.v_pp[2] = np.nan
        return comp, error, ok
    monkeypatch.setattr(cli, "closure", closure_with_nan)
    out = tmp_path / "extract.json"
    result = runner.invoke(main, ["extract", "--out", str(out)])
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert "non-finite" in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_output_writers_refuse_non_finite_numbers(bad):
    with pytest.raises(NumericalError, match="non-finite"):
        _json_text({"value": bad})
    with pytest.raises(NumericalError, match="non-finite"):
        _json_text({"nested": {"values": [1.0, float(bad)]}})
    with pytest.raises(NumericalError, match="non-finite"):
        _json_text({"array": np.array([1.0, bad])})
    positions = np.zeros((3, 3))
    positions[2, 1] = bad
    with pytest.raises(NumericalError, match="non-finite"):
        _trajectory_csv(Trajectory(np.arange(3) * 0.01, positions,
                                   spiral_preset()))
