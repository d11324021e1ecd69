import cmath
import contextlib
import io
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import time
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from branchsim import PairedRotation, UnitaryOp, cli, experiments
from branchsim.cli import EXPERIMENTS, MAX_RUNS, main, parse_config, run_and_report
from branchsim.errors import ConfigError
from oracles import reference_argv, reference_report_json


def write_config(tmp_path, name="config.json", **overrides):
    config = {
        "experiment": "stern_gerlach",
        "n_versions": 2,
        "coefficients": [[0.6, 0.0], [0.8, 0.0]],
    }
    config.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def load_report(path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_parse_minimal_config(tmp_path):
    config = parse_config(str(write_config(tmp_path)))
    assert config.experiment == "stern_gerlach"
    assert config.coefficients == [complex(0.6), complex(0.8)]
    assert config.output_format == "json"


def test_parse_rejects_unnormalized_coefficients(tmp_path):
    path = write_config(tmp_path, coefficients=[[1.0, 0.0], [0.6, 0.0]])
    with pytest.raises(ConfigError, match="coefficients"):
        parse_config(str(path))


def test_parse_rejects_unknown_keys_and_counts(tmp_path):
    with pytest.raises(ConfigError, match="unknown config keys"):
        parse_config(str(write_config(tmp_path, extra=1)))
    with pytest.raises(ConfigError, match="n_versions"):
        parse_config(
            str(
                write_config(
                    tmp_path,
                    name="gen.json",
                    experiment="generalized",
                    n_versions=3,
                )
            )
        )


def test_parse_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"experiment": }', encoding="utf-8")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config(str(path))


def test_parse_theta_sweep(tmp_path):
    path = write_config(
        tmp_path,
        experiment="appendix_rotation",
        thetas={"count": 64, "start": 0.0, "end": 2 * math.pi},
    )
    config = parse_config(str(path))
    assert len(config.thetas) == 64
    assert config.thetas[0] == 0.0
    assert config.thetas[-1] < 2 * math.pi  # endpoint excluded


def test_parse_requires_seed_for_random(tmp_path):
    path = write_config(tmp_path, coefficients={"random": 5})
    with pytest.raises(ConfigError, match="seed"):
        parse_config(str(path))


def test_parse_validates_check_names(tmp_path):
    path = write_config(tmp_path, checks=["structure", "wrong"])
    with pytest.raises(ConfigError, match="wrong"):
        parse_config(str(path))


def test_run_and_report_passes(tmp_path):
    config = parse_config(str(write_config(tmp_path)))
    exit_code, report = run_and_report(config)
    assert exit_code == 0
    assert report["schema_version"] == 2
    assert report["summary"]["all_passed"] is True
    assert len(report["runs"]) == 1
    run = report["runs"][0].to_dict()
    assert {b["label"] for b in run["branches"]} == {"M1", "M2"}
    assert all(set(b) == {"label", "weight", "coefficient"} for b in run["branches"])
    statuses = {c["name"]: c["status"] for c in run["checks"]}
    assert statuses["structure"] == "pass"
    assert statuses["observer_agreement"] == "skip"


def test_main_writes_json_report(tmp_path):
    out = tmp_path / "report.json"
    code = main(["run", str(write_config(tmp_path)), "--out", str(out)])
    assert code == 0
    report = load_report(out)
    assert report["summary"]["all_passed"] is True
    # The format contract: the stdlib's indent=2 text plus a newline.
    assert out.read_text(encoding="utf-8") == reference_report_json(report) + "\n"


def test_main_exit_codes(tmp_path):
    # Config error -> 2.
    bad = write_config(tmp_path, name="bad.json", coefficients=[[1.0, 0.0], [1.0, 0.0]])
    assert main(["run", str(bad)]) == 2
    # Capacity error -> 3 (path, two detectors and 510 observers: 513
    # registers, one over MAX_REGISTERS).
    big = write_config(tmp_path, name="big.json", observers=510)
    assert main(["run", str(big), "--out", str(tmp_path / "x.json")]) == 3


def test_negative_control_fails_and_exits_one(tmp_path):
    out = tmp_path / "corrupted.json"
    code = main(["run", str(write_config(tmp_path)), "--negative-control", "--out", str(out)])
    assert code == 1
    report = load_report(out)
    statuses = {c["name"]: c["status"] for c in report["runs"][0]["checks"]}
    assert statuses["mixed_record"] == "fail"
    assert report["summary"]["all_passed"] is False


def test_check_filter(tmp_path):
    out = tmp_path / "filtered.json"
    code = main(
        [
            "run",
            str(write_config(tmp_path)),
            "--check",
            "structure",
            "--check",
            "mixed_record",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    names = [c["name"] for c in load_report(out)["runs"][0]["checks"]]
    assert names == ["structure", "mixed_record"]


def test_text_format(tmp_path, capsys):
    code = main(["run", str(write_config(tmp_path)), "--format", "text"])
    assert code == 0
    text = capsys.readouterr().out
    assert "label" in text and "weight" in text and "message" not in text
    assert "M1" in text and "M2" in text
    assert "all passed yes" in text


def test_random_sweep_deterministic_reports(tmp_path):
    path = write_config(
        tmp_path,
        experiment="generalized",
        n_versions=3,
        coefficients={"random": 4},
        seed=20260810,
        observers=2,
    )
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["run", str(path), "--out", str(out1)]) == 0
    assert main(["run", str(path), "--out", str(out2)]) == 0
    first, second = load_report(out1), load_report(out2)
    first.pop("timings")
    second.pop("timings")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_seed_override_changes_draws(tmp_path):
    path = write_config(
        tmp_path,
        experiment="generalized",
        coefficients={"random": 2},
        seed=1,
    )
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert main(["run", str(path), "--out", str(out1)]) == 0
    assert main(["run", str(path), "--seed", "2", "--out", str(out2)]) == 0
    first, second = load_report(out1), load_report(out2)
    assert first["runs"][0]["coefficients"] != second["runs"][0]["coefficients"]
    assert first["spec"]["seed"] == 1 and second["spec"]["seed"] == 2


def test_appendix_sweep_via_cli(tmp_path):
    path = write_config(
        tmp_path,
        experiment="appendix_rotation",
        thetas={"count": 64, "start": 0.0, "end": 2 * math.pi},
    )
    out = tmp_path / "appendix.json"
    assert main(["run", str(path), "--out", str(out)]) == 0
    report = load_report(out)
    assert report["summary"]["runs"] == 64
    assert report["summary"]["all_passed"] is True
    assert len({run["theta"] for run in report["runs"]}) == 64
    assert all(
        check["status"] == "pass" or check["status"] == "skip"
        for run in report["runs"]
        for check in run["checks"]
    )


def test_appendix_random_draws_cross_thetas(tmp_path):
    path = write_config(
        tmp_path,
        experiment="appendix_rotation",
        coefficients={"random": 2},
        seed=7,
        thetas=[0.0, 0.5, 1.0],
    )
    out = tmp_path / "cross.json"
    assert main(["run", str(path), "--out", str(out)]) == 0
    report = load_report(out)
    assert report["summary"]["runs"] == 6


def test_tolerance_override_must_be_positive(tmp_path):
    assert main(["run", str(write_config(tmp_path)), "--tolerance", "-1"]) == 2


def test_seed_override_must_be_non_negative(tmp_path):
    assert main(["run", str(write_config(tmp_path)), "--seed", "-1"]) == 2


def random_config(tmp_path, **overrides):
    overrides = {"experiment": "generalized", "coefficients": {"random": 1}, "seed": 1, **overrides}
    return write_config(tmp_path, **overrides)


@pytest.mark.parametrize("negative_control", [False, True])
@pytest.mark.parametrize("photon_model", [False, True])
def test_label_work_is_the_same_for_any_number_of_draws(
    tmp_path, monkeypatch, photon_model, negative_control
):
    # A config's draws are the rows of one batched run, so every stage
    # relabels, and every rotation plane turns, the same label rows once per
    # config, whatever the draw count.
    calls = []
    monkeypatch.setattr(
        UnitaryOp,
        "relabel",
        lambda op, labels, relabel=UnitaryOp.relabel: calls.append(len(labels)) or relabel(op, labels),
    )
    monkeypatch.setattr(
        PairedRotation,
        "rotate",
        lambda plane, state, c, s, rotate=PairedRotation.rotate: (
            calls.append(len(state.labels)) or rotate(plane, state, c, s)
        ),
    )
    shapes = [
        {"n_versions": 4},
        {"experiment": "appendix_rotation", "thetas": [0.0, 0.7, 2.0]},
    ]
    for shape in shapes:
        work = []
        for draws in (1, 1, 3, 8):  # the first run also compiles the chain
            path = random_config(
                tmp_path, observers=2, photon_model=photon_model,
                coefficients={"random": draws}, **shape,
            )
            calls.clear()
            code, report = run_and_report(parse_config(str(path)), negative_control)
            runs = draws * len(shape.get("thetas", [None]))
            assert (code, len(report["runs"])) == (int(negative_control), runs)
            work.append(list(calls))
        assert work[1] and work[1] == work[2] == work[3]


def test_a_rotation_sweep_is_one_engine_call_and_one_certified_run(tmp_path, monkeypatch):
    # Five draws at four angles: the draws' plain runs are certified as one
    # batch, in the one run_appendix_rotation call the config makes.
    calls = {"rotation": 0, "certified": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "run_appendix_rotation", counted("rotation", cli.run_appendix_rotation))
    monkeypatch.setattr(
        experiments, "_certified_run", counted("certified", experiments._certified_run)
    )
    path = random_config(
        tmp_path, experiment="appendix_rotation", observers=2, photon_model=True,
        coefficients={"random": 5}, thetas={"count": 4},
    )
    out = tmp_path / "sweep.json"
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert calls == {"rotation": 1, "certified": 1}
    runs = load_report(out)["runs"]
    assert [(r["draw_index"], r["run_index"]) for r in runs] == [(i // 4, i) for i in range(20)]


def test_a_nan_residual_fails_its_own_run_and_exits_4(tmp_path, monkeypatch):
    # Runs with equal outcomes share one check result, and a NaN equals
    # none: only its run fails, and the writer refuses the report.
    calls = []
    original = experiments._record_invariance

    def poisoned(plain, rotated):
        calls.append(None)
        residual, detail = original(plain, rotated)
        return (math.nan if len(calls) == 3 else residual), detail

    monkeypatch.setattr(experiments, "_record_invariance", poisoned)
    path = random_config(
        tmp_path, experiment="appendix_rotation", observers=2, thetas={"count": 8}
    )
    code, report = run_and_report(parse_config(str(path)))
    verdicts = [
        {c["name"]: c["status"] for c in run.checks}["record_invariance"]
        for run in report["runs"]
    ]
    assert (code, verdicts) == (1, ["pass", "pass", "fail", *["pass"] * 5])
    calls.clear()
    out = tmp_path / "report.json"
    assert main(["run", str(path), "--out", str(out)]) == 4
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides",
    [
        {"coefficients": {"random": MAX_RUNS + 1}},
        {"coefficients": {"random": 10**8}},
        {"experiment": "appendix_rotation", "coefficients": {"random": 2**8},
         "thetas": {"count": 2**8 + 1}},
        {"experiment": "appendix_rotation", "coefficients": {"random": 2},
         "thetas": [0.5] * (MAX_RUNS // 2 + 1)},
    ],
    ids=["chain_one_over", "chain_1e8", "rotation_grid", "rotation_list"],
)
def test_a_config_over_the_run_bound_exits_two_before_drawing(tmp_path, monkeypatch, capsys, overrides):
    # A chain makes one run per draw, a rotation one per draw and angle.
    monkeypatch.setattr(cli, "_coefficient_draws", lambda config: pytest.fail("drew"))
    out = tmp_path / "report.json"
    started = time.perf_counter()
    assert main(["run", str(random_config(tmp_path, **overrides)), "--out", str(out)]) == 2
    assert time.perf_counter() - started < 1.0
    assert f"more runs than MAX_RUNS = {MAX_RUNS}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed, code", [(2**64 - 1, 0), (2**64, 2), (-1, 2)])
def test_a_config_seed_is_an_unsigned_64_bit_integer(tmp_path, capsys, seed, code):
    path = random_config(tmp_path, seed=seed)
    assert main(["run", str(path), "--out", str(tmp_path / "r.json")]) == code
    if code:
        assert "seed: must lie in [0, 2**64 - 1]" in capsys.readouterr().err
    else:
        assert load_report(tmp_path / "r.json")["spec"]["seed"] == seed


@pytest.mark.parametrize("seed, code", [(2**64 - 1, 0), (2**64, 2)])
def test_a_seed_flag_is_an_unsigned_64_bit_integer(tmp_path, capsys, seed, code):
    out = tmp_path / "r.json"
    assert main(["run", str(random_config(tmp_path)), "--seed", str(seed), "--out", str(out)]) == code
    if code:
        assert "seed: must lie in [0, 2**64 - 1]" in capsys.readouterr().err
    else:
        assert load_report(out)["spec"]["seed"] == seed


# -- random coefficient draws -----------------------------------------------------------


def draws(seed, count=1, n_versions=2):
    config = cli.ConfigFile(
        experiment="generalized", n_versions=n_versions, random_draws=count, seed=seed
    )
    return cli._coefficient_draws(config)


def test_a_seed_gives_the_same_draws_and_its_neighbours_other_ones():
    first = draws(41, count=5, n_versions=4)
    again = draws(41, count=5, n_versions=4)
    assert [[(c.real.hex(), c.imag.hex()) for c in d] for d in first] == [
        [(c.real.hex(), c.imag.hex()) for c in d] for d in again
    ]
    for seed in (40, 42):
        assert all(a != b for a, b in zip(first, draws(seed, count=5, n_versions=4)))


@pytest.mark.parametrize("n_versions", [2, 3, 11, 64])
def test_every_draw_is_a_unit_vector_within_four_ulp(n_versions):
    for vector in draws(7, count=200, n_versions=n_versions):
        total = math.fsum(abs(c) ** 2 for c in vector)
        assert abs(total - 1.0) <= 4 * math.ulp(1.0)


def test_the_first_draw_of_seed_zero_is_polar_box_muller_over_its_norm():
    rng = random.Random(0)
    gaussians = []
    for _ in range(2):
        u1, u2 = rng.random(), rng.random()
        gaussians.append(cmath.rect(math.sqrt(-2.0 * math.log(1.0 - u1)), 2.0 * math.pi * u2))
    norm = math.sqrt(math.fsum(abs(c) ** 2 for c in gaussians))
    expected = [complex(c.real / norm, c.imag / norm) for c in gaussians]
    assert draws(0) == [expected]


def test_draws_are_haar_uniform_in_their_first_two_moments():
    # Under the Haar measure on unit vectors of C^3, |c_k|^2 is Beta(1, 2):
    # mean 1/3, variance 1/18; the phase of c_k is uniform, so cos(arg c_k)
    # has mean 0 and variance 1/2.  Each mean of 2,000 draws lies within 5
    # standard errors.
    vectors = draws(2024, count=2000, n_versions=3)
    for k in range(3):
        weights = [abs(v[k]) ** 2 for v in vectors]
        cosines = [math.cos(cmath.phase(v[k])) for v in vectors]
        assert abs(math.fsum(weights) / 2000 - 1 / 3) < 5 * math.sqrt(1 / 18 / 2000)
        assert abs(math.fsum(cosines) / 2000) < 5 * math.sqrt(1 / 2 / 2000)


def test_a_random_chain_run_never_imports_numpy_random(tmp_path):
    # A child process, since this test process (hypothesis, the tests'
    # own draws) has imported numpy.random already.
    path = random_config(tmp_path, n_versions=4, coefficients={"random": 3})
    script = (
        "import sys\n"
        "from branchsim.cli import main\n"
        "code = main(['run', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(code, 'numpy.random' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(experiments.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", script, str(path), str(tmp_path / "r.json")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert done.stdout.split() == ["0", "False"], done.stderr
    assert len(load_report(tmp_path / "r.json")["runs"]) == 3


# -- non-finite and out-of-range inputs ---------------------------------------------


@pytest.mark.parametrize("tolerance", [math.inf, math.nan, 1.0])
def test_config_tolerance_outside_the_range_exits_two(tmp_path, tolerance):
    # json.dumps writes Infinity and NaN, which Python's json reads back.
    path = write_config(tmp_path, tolerance=tolerance)
    with pytest.raises(ConfigError, match="tolerance"):
        parse_config(str(path))
    out = tmp_path / "report.json"
    assert main(["run", str(path), "--negative-control", "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("tolerance", ["inf", "nan", "1.0"])
def test_flag_tolerance_outside_the_range_exits_two(tmp_path, tolerance):
    out = tmp_path / "report.json"
    code = main(
        [
            "run",
            str(write_config(tmp_path)),
            "--negative-control",
            "--tolerance",
            tolerance,
            "--out",
            str(out),
        ]
    )
    assert code == 2
    assert not out.exists()


def test_largest_accepted_tolerance_still_fails_the_negative_control(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "run",
            str(write_config(tmp_path, tolerance=1e-3)),
            "--negative-control",
            "--out",
            str(out),
        ]
    )
    assert code == 1
    statuses = {c["name"]: c["status"] for c in load_report(out)["runs"][0]["checks"]}
    assert statuses["mixed_record"] == "fail"


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_coefficients_and_angles_exit_two(tmp_path, bad):
    coefficients = write_config(tmp_path, name="c.json", coefficients=[[bad, 0.0], [0.8, 0.0]])
    with pytest.raises(ConfigError, match="finite"):
        parse_config(str(coefficients))
    assert main(["run", str(coefficients)]) == 2
    angles = write_config(
        tmp_path, name="t.json", experiment="appendix_rotation", thetas=[0.5, bad]
    )
    assert main(["run", str(angles)]) == 2
    sweep = write_config(
        tmp_path,
        name="s.json",
        experiment="appendix_rotation",
        thetas={"count": 4, "end": bad},
    )
    assert main(["run", str(sweep)]) == 2


def test_a_sweep_over_the_angle_bound_exits_two_before_building_it(tmp_path):
    path = write_config(
        tmp_path, experiment="appendix_rotation", thetas={"count": 10**9}
    )
    out = tmp_path / "report.json"
    started = time.perf_counter()
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert time.perf_counter() - started < 1.0
    assert not out.exists()
    with pytest.raises(ConfigError, match="thetas.count"):
        parse_config(str(path))
    listed = write_config(
        tmp_path, name="list.json", experiment="appendix_rotation", thetas=[0.5] * (MAX_RUNS + 1)
    )
    with pytest.raises(ConfigError, match="thetas"):
        parse_config(str(listed))


def test_a_sweep_of_exactly_the_angle_bound_parses(tmp_path):
    for thetas in ({"count": MAX_RUNS}, [0.5] * MAX_RUNS):
        path = write_config(tmp_path, experiment="appendix_rotation", thetas=thetas)
        assert len(parse_config(str(path)).thetas) == MAX_RUNS
    # So do configs of exactly MAX_RUNS runs: draws for a chain, draws x
    # angles for a rotation.
    for overrides in (
        {"coefficients": {"random": MAX_RUNS}},
        {"experiment": "appendix_rotation", "coefficients": {"random": 2**8},
         "thetas": {"count": 2**8}},
    ):
        config = parse_config(str(random_config(tmp_path, **overrides)))
        assert config.random_draws * max(len(config.thetas), 1) == MAX_RUNS


def test_an_overflowing_theta_sweep_exits_two(tmp_path):
    # Both ends are finite, but end - start overflows, which would sweep
    # the angles [nan, inf].
    path = write_config(
        tmp_path,
        experiment="appendix_rotation",
        thetas={"count": 2, "start": -1e308, "end": 1e308},
    )
    with pytest.raises(ConfigError, match="thetas"):
        parse_config(str(path))
    out = tmp_path / "report.json"
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert not out.exists()


def test_a_non_finite_residual_is_an_internal_error(tmp_path, monkeypatch, capsys):
    # NaN has no JSON spelling, so a report holding one is never written.
    monkeypatch.setattr(experiments, "mixed_record_weight", lambda state: math.nan)
    out = tmp_path / "report.json"
    assert main(["run", str(write_config(tmp_path)), "--out", str(out)]) == 4
    assert not out.exists()
    assert "internal error" in capsys.readouterr().err


def test_tolerance_below_the_rounding_floor_exits_two(tmp_path):
    # Sound runs leave rounding residuals near 1e-16, which a tighter
    # tolerance would report as failed checks.
    path = write_config(tmp_path, tolerance=1e-15)
    with pytest.raises(ConfigError, match="tolerance"):
        parse_config(str(path))
    assert main(["run", str(write_config(tmp_path, name="ok.json")), "--tolerance", "1e-15"]) == 2


@pytest.mark.parametrize(
    "overrides",
    [{}, {"experiment": "appendix_rotation", "thetas": [0.7]}],
    ids=["stern_gerlach", "appendix_rotation"],
)
def test_an_empty_check_list_exits_two(tmp_path, capsys, overrides):
    # No check certifies nothing: the negative control used to exit 0 and
    # print "all passed yes" beside a mixed branch of weight 0.36.
    path = write_config(tmp_path, checks=[], **overrides)
    for flags in ([], ["--negative-control"], ["--format", "text"]):
        out = tmp_path / "report.json"
        assert main(["run", str(path), *flags, "--out", str(out)]) == 2
        assert not out.exists()
        assert "non-empty list of check names" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides",
    [{}, {"experiment": "appendix_rotation", "thetas": [0.7]}],
    ids=["stern_gerlach", "appendix_rotation"],
)
def test_a_negative_control_blind_to_mixed_record_exits_two_before_any_run(
    tmp_path, capsys, monkeypatch, overrides
):
    # mixed_record is the check the control is sure to fail; a selection
    # without it could let the control pass.
    path = write_config(tmp_path, **overrides)
    out = str(tmp_path / "report.json")
    assert main(["run", str(path), "--check", "observer_coherence", "--out", out]) == 0
    assert main(["run", str(path), "--check", "mixed_record", "--negative-control"]) == 1
    capsys.readouterr()
    blind = write_config(tmp_path, name="blind.json", checks=["structure"], **overrides)
    runs = []
    monkeypatch.setattr(cli, "run_and_report", lambda *args, **kwargs: runs.append(args))
    for argv in (
        [str(path), "--check", "observer_coherence"],
        [str(path), "--check", "structure", "--check", "born_weights"],
        [str(blind)],
    ):
        assert main(["run", *argv, "--negative-control", "--out", out]) == 2
        assert "needs the mixed_record check" in capsys.readouterr().err
    assert runs == []


@pytest.mark.parametrize(
    "overrides",
    [{}, {"experiment": "appendix_rotation", "thetas": [math.pi / 2]}],
    ids=["stern_gerlach", "appendix_rotation"],
)
def test_negative_control_that_cannot_fail_exits_two(tmp_path, overrides):
    # All weight on the second version leaves the rewired first message
    # unwritten, so the control would pass; it is refused instead.
    path = write_config(tmp_path, coefficients=[[0, 0], [1, 0]], **overrides)
    assert main(["run", str(path), "--out", str(tmp_path / "plain.json")]) == 0
    out = tmp_path / "control.json"
    assert main(["run", str(path), "--negative-control", "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides",
    [
        # Norm off by 3e-9, inside the check tolerance.
        {
            "experiment": "generalized",
            "n_versions": 3,
            "tolerance": 1e-3,
            "coefficients": [[0.0005, 0], [0.6, 0], [0.79999984, 0]],
        },
        # Squared moduli sum off by 5e-11, inside the check tolerance.
        {
            "tolerance": 1e-10,
            "coefficients": [
                [0.6 * math.sqrt(1 - 5e-11), 0],
                [0.8 * math.sqrt(1 - 5e-11), 0],
            ],
        },
    ],
    ids=["norm-3e-9", "sum-5e-11"],
)
def test_coefficients_normalized_only_within_the_tolerance_exit_two(tmp_path, overrides):
    # The state validators hold the norm to 1e-12 whatever the tolerance;
    # these configs used to pass the gate and crash inside a run (exit 4).
    path = write_config(tmp_path, **overrides)
    with pytest.raises(ConfigError, match="coefficients"):
        parse_config(str(path))
    assert main(["run", str(path), "--out", str(tmp_path / "r.json")]) == 2


def test_rotation_past_the_dense_cap_runs(tmp_path):
    # 2 versions, 4 observers and photons: dimension 8,192.
    path = write_config(
        tmp_path,
        experiment="appendix_rotation",
        observers=4,
        photon_model=True,
        thetas=[0.0, 0.7, math.pi / 2],
    )
    out = tmp_path / "wide.json"
    assert main(["run", str(path), "--out", str(out)]) == 0
    report = load_report(out)
    assert report["summary"]["all_passed"] is True
    assert {run["final_state"]["dimension"] for run in report["runs"]} == {8192}
    assert all(
        check["status"] == "pass" for run in report["runs"] for check in run["checks"]
    )


# -- the error contract -------------------------------------------------------------


def test_internal_error_exits_four_not_two(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("simulated bug inside a run")

    monkeypatch.setattr("branchsim.cli.run_measurement_chain", broken)
    code = main(["run", str(write_config(tmp_path)), "--out", str(tmp_path / "r.json")])
    assert code == 4
    err = capsys.readouterr().err
    assert "simulated bug inside a run" in err
    assert "config error" not in err


@pytest.mark.parametrize(
    "content, message",
    [
        (b'\xff\xfe{"experiment": "stern_gerlach"}', "not UTF-8"),
        (b"[" * 100_000 + b"]" * 100_000, "nests too deeply"),
    ],
    ids=["not_utf8", "nested_100000_deep"],
)
def test_an_unreadable_config_exits_two_without_a_traceback(tmp_path, capsys, content, message):
    # Both used to escape parse_config as UnicodeDecodeError and
    # RecursionError, exit 4 with a traceback.
    path = tmp_path / "config.json"
    path.write_bytes(content)
    assert main(["run", str(path), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "experiment", [["generalized"], {"a": 1}, 2], ids=["list", "object", "number"]
)
def test_a_non_string_experiment_exits_two_without_a_traceback(tmp_path, capsys, experiment):
    # A list or an object used to reach the lookup in EXPERIMENTS and raise
    # TypeError (unhashable type): exit 4, reported as an internal error.
    path = write_config(tmp_path, experiment=experiment)
    with pytest.raises(ConfigError, match="experiment: must be one of"):
        parse_config(str(path))
    assert main(["run", str(path), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert f"config error: experiment: must be one of {sorted(EXPERIMENTS)}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "where, message",
    [
        ("output.path", "config error: output.path: expected a path without NUL"),
        ("--out", "usage error: --out: expected a path without NUL"),
        ("config", "config error: config path"),
    ],
    ids=["output_path", "out_option", "config_path"],
)
def test_a_path_holding_a_nul_character_exits_two_before_any_run(
    tmp_path, monkeypatch, where, message
):
    # A NUL in output.path or --out used to reach open() after the whole
    # run, exit 4 with a traceback; one in the config path exited 2, read as
    # a number too long.
    nul = str(tmp_path / "a\0b.json")
    config = write_config(tmp_path, **({"output": {"path": nul}} if where == "output.path" else {}))
    argv = ["run", nul if where == "config" else str(config)]
    argv += ["--out", nul] if where == "--out" else []
    monkeypatch.setattr(cli, "run_and_report", lambda *args, **kwargs: pytest.fail("run"))
    code, out, err = run_main(argv)
    assert (code, out) == (2, "")
    assert message in err and "NUL" in err
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_unwritable_report_path_exits_two(tmp_path):
    out = tmp_path / "missing-directory" / "report.json"
    assert main(["run", str(write_config(tmp_path)), "--out", str(out)]) == 2


def test_a_stage_that_fails_its_unitarity_proof_exits_four(tmp_path, monkeypatch, capsys):
    # A detection table that sends both detector levels to "fired" merges two
    # target levels: its construction refuses it, and compile_chain must
    # report that as a bug (exit 4), never as a failed check (1) or a bad
    # config (2).
    original = experiments.build_detection_unitary

    def merged(layout):
        (table,) = original(layout).stages
        broken = replace(table, image=[[1, 1]])
        return UnitaryOp(layout, "detection", (broken,))

    monkeypatch.setattr(experiments, "build_detection_unitary", merged)
    code = main(["run", str(write_config(tmp_path)), "--out", str(tmp_path / "r.json")])
    assert code == 4
    assert "ValueError: image [1, 1] is not a permutation" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


BEYOND_FLOAT = 10**400


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"experiment": "appendix_rotation", "thetas": [0.5, BEYOND_FLOAT]}, "thetas"),
        ({"experiment": "appendix_rotation", "thetas": {"count": 2, "start": BEYOND_FLOAT}},
         "start"),
        ({"experiment": "appendix_rotation", "thetas": {"count": 2, "end": BEYOND_FLOAT}},
         "end"),
        ({"tolerance": BEYOND_FLOAT}, "tolerance"),
        ({"coefficients": [[0.6, BEYOND_FLOAT], [0.8, 0.0]]}, "coefficients[0]"),
    ],
    ids=["thetas", "thetas.start", "thetas.end", "tolerance", "coefficients"],
)
def test_a_config_number_beyond_the_float_range_exits_two(tmp_path, capsys, overrides, key):
    # An integer literal too large for a float used to raise OverflowError
    # inside the finiteness check: exit 4 with a traceback.
    path = write_config(tmp_path, **overrides)
    assert main(["run", str(path), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert f"config error: {key}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this Python reads integer literals of any length",
)
def test_an_integer_literal_past_the_digit_limit_exits_two(tmp_path, capsys):
    # json.load raises a plain ValueError here, not a JSONDecodeError.
    path = tmp_path / "config.json"
    path.write_text(
        '{"experiment": "stern_gerlach", "coefficients": [[0.6, 0.0], [0.8, 0.0]], '
        '"seed": 1' + "0" * 5000 + "}",
        encoding="utf-8",
    )
    assert main(["run", str(path), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert "number too long" in err and "config.json" in err
    assert "Traceback" not in err


# Runs one CLI call in a child process whose address space is capped, so a
# refusal that comes too late fails the test instead of exhausting memory.
_CAPPED_RUN = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))
from branchsim.cli import main
started = time.perf_counter()
code = main(["run", sys.argv[1], "--out", sys.argv[2]])
print(time.perf_counter() - started)
sys.exit(code)
"""


@pytest.mark.parametrize(
    "overrides",
    [
        {"observers": 10**9},
        {
            "experiment": "generalized",
            "n_versions": 10**9,
            "coefficients": {"random": 1},
            "seed": 1,
        },
    ],
    ids=["observers", "n_versions_random"],
)
def test_an_over_cap_chain_is_refused_before_it_allocates(tmp_path, overrides):
    # The register list (observers) and the coefficient draw (n_versions)
    # were both built in full before the size of the chain was checked.
    path = write_config(tmp_path, **overrides)
    src = os.path.dirname(os.path.dirname(os.path.abspath(experiments.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", _CAPPED_RUN, str(path), str(tmp_path / "r.json")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert done.returncode == 3, done.stderr
    assert "capacity error: a chain of" in done.stderr
    assert "registers exceeds MAX_REGISTERS = 512" in done.stderr
    assert float(done.stdout) < 1.0


# -- the command line ------------------------------------------------------------------


def run_main(argv):
    """``main(argv)``'s exit code, standard output and standard error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["-h"], ["run", "--help"], ["run", "missing.json", "--seed", "1", "-h"]],
)
def test_help_prints_the_readme_usage_line_and_returns_zero(argv):
    assert run_main(argv) == (0, cli.USAGE + "\n", "")
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    assert cli.USAGE in readme.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv, offending",
    [
        (["run", "{config}", "--bogus"], "'--bogus'"),
        (["run", "{config}", "--seed"], "--seed expects a value"),
        (["run", "{config}", "--seed", "abc"], "'abc'"),
        (["run", "{config}", "--tolerance", "x"], "'x'"),
        (["run", "{config}", "--format", "xml"], "'xml'"),
        ([], "got []"),
        (["{config}"], "got ['{config}']"),
        (["run"], "got ['run']"),
        (["run", "{config}", "other.json"], "'other.json']"),
        (["run", "{config}", "--neg"], "'--neg'"),
        (["run", "{config}", "--tol", "1e-9"], "'--tol'"),
        (["run", "{config}", "--out=", "--format", "text"], "--out: expected a path"),
        (["run", "{config}", "--out", ""], "--out: expected a path"),
    ],
    ids=[
        "unknown_option", "no_value", "seed_abc", "tolerance_x", "format_xml",
        "no_subcommand", "config_without_subcommand", "no_config", "two_configs",
        "prefix_neg", "prefix_tol", "empty_out_joined", "empty_out_spaced",
    ],
)
def test_a_usage_error_returns_two_before_the_config_is_read(tmp_path, monkeypatch, argv, offending):
    # The config does not exist, so reading it would be a config error.
    config = str(tmp_path / "missing.json")
    monkeypatch.setattr(cli, "parse_config", lambda path: pytest.fail("config read"))
    argv = [arg.format(config=config) for arg in argv]
    code, out, err = run_main(argv)
    assert (code, out) == (2, "")
    assert err.startswith(cli.USAGE + "\nusage error: ")
    assert offending.format(config=config) in err
    assert "Traceback" not in err


def test_an_option_reads_the_same_with_an_equals_sign(tmp_path):
    path = str(write_config(tmp_path, experiment="generalized", n_versions=3,
                            coefficients={"random": 2}, seed=5))
    spaced = ["--check", "structure", "--check", "mixed_record", "--seed", "9",
              "--tolerance", "1e-10", "--format", "text", "--out"]
    joined = ["--check=structure", "--check=mixed_record", "--seed=9", "--tolerance=1e-10",
              "--format=text", "--out=" + str(tmp_path / "joined.txt")]
    assert main(["run", path, *spaced, str(tmp_path / "spaced.txt")]) == 0
    assert main(["run", path, *joined]) == 0
    spaced_text = (tmp_path / "spaced.txt").read_text(encoding="utf-8")
    assert spaced_text == (tmp_path / "joined.txt").read_text(encoding="utf-8")
    assert "runs 2" in spaced_text and "check structure" in spaced_text


# Each option with values it reads; any option may also get any of VALUES.
OPTIONS = {
    "--check": ["structure", "mixed_record"],
    "--format": ["json", "text"],
    "--out": ["r.json", "a=b"],
    "--seed": ["7", "-1", "0"],
    "--tolerance": ["1e-15", "nan", "-1", "2.5e-9"],
}
VALUES = ["-1", "1e-15", "0x10", "nan", "", "a=b", "-", "-x", "-1e-15", "cfg.json"]


@st.composite
def options(draw):
    name = draw(st.sampled_from(sorted(OPTIONS)))
    odd = draw(st.booleans()) and draw(st.booleans())
    value = draw(st.sampled_from(VALUES if odd else OPTIONS[name]))
    return [f"{name}={value}"] if draw(st.booleans()) else [name, value]


@st.composite
def argvs(draw):
    """A command line from the CLI's exact option names, each in the form
    ``--name value`` or ``--name=value``, repeated and in any order, among
    config paths and values that look like options or numbers."""
    single = st.sampled_from(["--negative-control", *OPTIONS, *VALUES]).map(lambda arg: [arg])
    pieces = st.one_of(options(), options(), options(), options(), single)
    head = draw(st.sampled_from([["run"], [], ["cfg.json"]]))
    head = ["run", "cfg.json"] if draw(st.booleans()) or draw(st.booleans()) else head
    return head + [arg for piece in draw(st.lists(pieces, max_size=6)) for arg in piece]


def parsed(parse, argv):
    """``parse(argv)`` as JSON text (``nan`` compares equal), or None for a
    usage error."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return json.dumps(parse(argv), sort_keys=True)
    except SystemExit as exc:
        assert exc.code == 2
    except ValueError:
        pass
    return None


@given(argvs())
@settings(max_examples=500, deadline=None)
@example(["run", "cfg.json", "--out", "-x"])
@example(["run", "cfg.json", "--tolerance", "-1e-15", "--check", "-1"])
@example(["run", "-1"])
@example(["run", "cfg.json", "--out="])
@example(["run", "cfg.json", "--out=", "--out", "r.json"])
def test_the_loop_reads_argv_as_argparse_did(argv):
    expected = parsed(reference_argv, argv)
    got = parsed(cli._parse_argv, argv)
    if expected is not None and got is not None:
        assert got == expected
    elif got is None:
        if expected is None:
            code, out, err = run_main(argv)
            assert (code, out) == (2, "") and err.startswith(cli.USAGE)
        else:
            # Declared differences: an argument that starts with "-" (not "-"
            # itself) is an option, never the config, where argparse takes a
            # negative number such as "-1" as the config path; and an empty
            # --out is a usage error, where argparse took it and the report
            # then went to the config's path or standard output.
            expected = json.loads(expected)
            assert expected["config"].startswith("-") or expected.get("--out") == ""
    else:
        # Declared difference: the argument after "--name" is its value
        # whatever it looks like, as argparse reads "--name=value"; argparse
        # refuses a value such as "-x" or "-1e-15" after "--name".
        joined, rest, dashed = argv[:1], iter(argv[1:]), False
        for arg in rest:
            if arg in OPTIONS:
                value = next(rest)
                dashed |= value.startswith("-") and value != "-"
                arg = f"{arg}={value}"
            joined.append(arg)
        assert dashed and parsed(reference_argv, joined) == got


def test_a_double_dash_is_an_unrecognized_argument():
    # Declared difference: argparse read "--" as the end of the options.
    assert reference_argv(["run", "--", "-1"]) == {"config": "-1"}
    assert parsed(cli._parse_argv, ["run", "--", "-1"]) is None
    code, out, err = run_main(["run", "cfg.json", "--"])
    assert (code, out) == (2, "") and "unrecognized argument '--'" in err


def test_a_cli_call_imports_no_module(tmp_path):
    # A child process, since this test process has imported most modules
    # already.  Each call must find every module it uses imported.
    chain = random_config(tmp_path, name="chain.json", n_versions=3, photon_model=True)
    rotation = write_config(
        tmp_path, name="rotation.json", experiment="appendix_rotation", thetas=[0.7]
    )
    script = (
        "import sys\n"
        "import branchsim.cli\n"
        "for path in sys.argv[1:]:\n"
        "    before = set(sys.modules)\n"
        "    code = branchsim.cli.main(['run', path, '--out', path + '.report'])\n"
        "    print(code, sorted(set(sys.modules) - before))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(experiments.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", script, str(chain), str(rotation)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert done.stdout.splitlines() == ["0 []", "0 []"], done.stderr


# -- options read as the config keys they override -----------------------------------


def report_without_timings(path):
    report = load_report(path)
    del report["timings"]
    return report


def test_a_seed_flag_supplies_the_seed_a_random_config_needs(tmp_path):
    # --seed is written in as the config's seed before any key is read, so
    # the cross-key rules see the seed the run uses.
    seedless = write_config(tmp_path, name="seedless.json", experiment="generalized",
                            coefficients={"random": 3})
    seeded = random_config(tmp_path, name="seeded.json", coefficients={"random": 3}, seed=5)
    assert main(["run", str(seedless), "--seed", "5", "--out", str(tmp_path / "a.json")]) == 0
    assert main(["run", str(seeded), "--out", str(tmp_path / "b.json")]) == 0
    flagged = report_without_timings(tmp_path / "a.json")
    assert flagged["spec"]["seed"] == 5
    assert flagged == report_without_timings(tmp_path / "b.json")


@pytest.mark.parametrize(
    "overrides, flags",
    [
        ({"tolerance": 0.5}, ["--tolerance", "1e-9"]),
        ({"checks": ["primed_evolution"]}, ["--check", "structure"]),
        ({"seed": "five"}, ["--seed", "1"]),
    ],
    ids=["tolerance", "checks", "seed"],
)
def test_a_file_value_an_option_replaces_is_not_read(tmp_path, overrides, flags):
    path = write_config(tmp_path, **overrides)
    with pytest.raises(ConfigError, match=f"^{next(iter(overrides))}: "):
        parse_config(str(path))
    assert main(["run", str(path), *flags, "--out", str(tmp_path / "r.json")]) == 0


def test_the_cross_key_rules_run_once_per_cli_call(tmp_path, monkeypatch):
    calls = []
    cross_validate = cli._cross_validate

    def counted(*args, **kwargs):
        calls.append(args)
        return cross_validate(*args, **kwargs)

    monkeypatch.setattr(cli, "_cross_validate", counted)
    path = str(write_config(tmp_path))
    out = ["--out", str(tmp_path / "r.json")]
    for argv, code in (
        ([path, *out], 0),
        ([path, "--seed", "3", "--tolerance", "1e-10", "--check", "mixed_record", *out], 0),
        ([path, "--negative-control", *out], 1),
        ([path, "--seed", "-1", *out], 2),
    ):
        calls.clear()
        assert main(["run", *argv]) == code
        assert len(calls) == 1


def test_a_config_output_is_read_and_an_option_replaces_it(tmp_path):
    text = tmp_path / "r.txt"
    path = write_config(tmp_path, output={"path": str(text), "format": "text"})
    config = parse_config(str(path))
    assert (config.output_path, config.output_format) == (str(text), "text")
    assert main(["run", str(path)]) == 0
    assert text.read_text(encoding="utf-8").startswith("experiment stern_gerlach")
    text.unlink()
    replaced = tmp_path / "r.json"
    assert main(["run", str(path), "--format", "json", "--out", str(replaced)]) == 0
    assert load_report(replaced)["summary"]["all_passed"] is True
    assert not text.exists()


# -- every refusal names its key ---------------------------------------------------------

MISSING = object()
THREE_VERSIONS = {"n_versions": 3, "coefficients": [[0.6, 0.0], [0.8, 0.0], [0.0, 0.0]]}


@pytest.mark.parametrize(
    "overrides, message",
    [
        (None, "cannot read config"),
        ([], "config .* must be a JSON object"),
        ({"n_versions": 2.5}, "n_versions: expected an integer, got 2.5"),
        ({"observers": 0}, "observers: must be >= 1, got 0"),
        ({"photon_model": 1}, "photon_model: expected true or false, got 1"),
        ({"tolerance": BEYOND_FLOAT}, "tolerance: expected a finite number"),
        ({"coefficients": MISSING}, "coefficients: required"),
        ({"coefficients": {"random": 2, "draws": 2}, "seed": 1},
         r"coefficients: object form takes only 'random', got \['draws', 'random'\]"),
        ({"coefficients": {"random": 0}, "seed": 1},
         "coefficients.random: expected a positive count, got 0"),
        ({"coefficients": "0.6, 0.8"}, "coefficients: expected a list of"),
        ({"experiment": "appendix_rotation", "thetas": {"count": 2, "stop": 1.0}},
         r"thetas: unknown sweep keys \['stop'\]"),
        ({"experiment": "appendix_rotation", "thetas": {"count": 0}},
         "thetas.count: expected a positive count, got 0"),
        ({"output": "r.json"}, "output: expected an object"),
        ({"output": {"format": "xml"}}, "output.format: expected 'json' or 'text', got 'xml'"),
        (THREE_VERSIONS, "n_versions: stern_gerlach requires exactly 2 versions"),
        ({"experiment": "appendix_rotation", "thetas": [0.5], **THREE_VERSIONS},
         "n_versions: appendix_rotation requires exactly 2 versions"),
        ({"experiment": "appendix_rotation"}, "thetas: appendix_rotation needs at least one angle"),
        ({"thetas": [0.5]}, "thetas: only apply to appendix_rotation"),
        ("report", "cannot serialize set"),
    ],
    ids=[
        "unreadable", "not_an_object", "integer_type", "integer_minimum", "boolean",
        "beyond_float", "coefficients_missing", "coefficients_extra_keys",
        "coefficients_random_zero", "coefficients_not_a_list", "thetas_unknown_keys",
        "thetas_count_zero", "output_not_an_object", "output_format", "stern_gerlach_versions",
        "rotation_versions", "rotation_without_angles", "angles_for_a_chain", "report_set",
    ],
)
def test_every_refusal_names_its_key(tmp_path, overrides, message):
    path = tmp_path / "config.json"
    if overrides == "report":
        # The report writer's one refusal: a value no JSON type holds.
        with pytest.raises(TypeError, match=message):
            cli.write_report({"spec": {"seeds": {5}}}, str(path), "json")
        assert not path.exists()
        return
    if overrides is not None:  # else the file does not exist
        raw = overrides
        if isinstance(overrides, dict):
            raw = {"experiment": "stern_gerlach", "coefficients": [[0.6, 0.0], [0.8, 0.0]],
                   **overrides}
            raw = {key: value for key, value in raw.items() if value is not MISSING}
        path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{message}"):
        parse_config(str(path))
