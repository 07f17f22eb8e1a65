"""Command-line interface: exit codes, formats, reproducible bytes."""

from __future__ import annotations

import hashlib
import json
import math
import threading

import pytest

from telegraph_box import cli, simulate


def run_capture(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analytics_equal_rate_json(capsys):
    code, out, _ = run_capture(capsys, [
        "analytics", "--lambda", "0.5", "--mu", "0.5", "--h", "10",
        "--alpha", "1", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["absorption"]["expected_absorption_time"] - 10.0) < 1e-10
    assert abs(doc["phase_probabilities"]["p00"] - 5.0 / 6.0) < 1e-10
    assert abs(doc["cycle_means"]["m00"] - 650.0 / 108.0) < 1e-9


def test_analytics_rejects_nonpositive_rate(capsys):
    code, out, err = run_capture(capsys, [
        "analytics", "--lambda", "0", "--mu", "0.5", "--h", "10", "--alpha", "1"])
    assert code == 2
    assert out == ""
    assert "lambda" in err


def test_analytics_rejects_bad_alpha(capsys):
    code, _, err = run_capture(capsys, [
        "analytics", "--lambda", "1", "--mu", "2", "--h", "1", "--alpha", "1.5"])
    assert code == 2
    assert "alpha" in err


def test_missing_required_flag_is_usage_error(capsys):
    code, _, err = run_capture(capsys, [
        "analytics", "--lambda", "1", "--mu", "2"])
    assert code == 2
    assert "--h" in err


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = run_capture(capsys, ["frobnicate"])
    assert code == 2


def test_analytics_reruns_are_byte_identical(capsys):
    argv = ["analytics", "--lambda", "1", "--mu", "2", "--h", "1",
            "--alpha", "0.5", "--format", "json"]
    _, out1, _ = run_capture(capsys, argv)
    _, out2, _ = run_capture(capsys, argv)
    assert out1 == out2


def test_analytics_csv_and_table_formats(capsys):
    base = ["analytics", "--lambda", "1", "--mu", "2", "--h", "1", "--alpha", "0.5"]
    code, out, _ = run_capture(capsys, base + ["--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name,value"
    assert any(line.startswith("phase_probabilities.p00,") for line in lines)
    code, out, _ = run_capture(capsys, base + ["--format", "table"])
    assert code == 0
    assert "expected_absorption_time" in out


def test_mgf_subcommand_values(capsys):
    code, out, _ = run_capture(capsys, [
        "mgf", "--lambda", "1", "--mu", "2", "--h", "1",
        "--omega", "-0.1", "--d", "0.4", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["f00"] - 0.3730370053168217) < 1e-12
    assert abs(doc["f0h"] - 0.5475599742419588) < 1e-12
    assert "fhh" in doc and "fh0" in doc
    code, out, _ = run_capture(capsys, [
        "mgf", "--lambda", "1", "--mu", "2", "--h", "1",
        "--omega", "0.5", "--format", "json"])
    assert code == 2


def test_simulate_subcommand_deterministic(capsys):
    argv = ["simulate", "--lambda", "1", "--mu", "2", "--h", "1",
            "--alpha", "0.5", "--paths", "2000", "--seed", "3",
            "--format", "json"]
    code, out1, _ = run_capture(capsys, argv)
    assert code == 0
    _, out2, _ = run_capture(capsys, argv)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["n_paths"] == 2000
    assert 1.0 < doc["mean_m"] < 3.0


def test_validate_pass_and_fail_exit_codes(capsys):
    base = ["validate", "--lambda", "1", "--mu", "2", "--h", "1",
            "--alpha", "0.5", "--paths", "20000", "--seed", "11"]
    code, out, _ = run_capture(capsys, base)
    assert code == 0
    assert "overall: PASS" in out
    code, out, _ = run_capture(capsys, base + ["--zmax", "0.01"])
    assert code == 1
    assert "overall: FAIL" in out


@pytest.mark.parametrize("argv", [
    ["analytics", "--lambda", "1", "--mu", "2", "--h", "1", "--alpha", "1e-310",
     "--format", "json"],
    ["scaling", "--h", "1", "--alpha", "1e-310"],
    ["validate", "--lambda", "1", "--mu", "2", "--h", "1", "--alpha", "1e-310",
     "--paths", "1000"],
], ids=lambda argv: argv[0])
def test_absorption_time_past_float64_is_parameter_error(capsys, argv):
    # analytics printed "Infinity", which is not JSON, and validate
    # simulated about 1e310 phases per path before comparing
    code, out, err = run_capture(capsys, argv)
    assert code == 2
    assert out == ""
    assert "absorption time" in err


def test_simulate_absorption_time_past_float64_is_parameter_error(capsys, monkeypatch):
    # it simulated, silently, for as long as it was let run; a simulation
    # now fails the test instead of hanging it
    def gather(*args):
        raise AssertionError("simulated before the absorption time was checked")

    monkeypatch.setattr(cli.montecarlo, "_gather", gather)
    code, out, err = run_capture(capsys, [
        "simulate", "--lambda", "1", "--mu", "2", "--h", "1", "--alpha", "1e-310",
        "--paths", "1000", "--seed", "1"])
    assert code == 2
    assert out == ""
    assert "absorption time" in err


def test_simulate_phase_count_past_the_budget_runs_no_phase(capsys, monkeypatch):
    # at alpha = 1e-7 about 1e7 phases per path ran until stopped; the
    # phase counts are now drawn first and checked against the budget
    def run_lanes(*args):
        raise AssertionError("ran phases before the phase budget was checked")

    monkeypatch.setattr(simulate, "_run_lanes", run_lanes)
    code, out, err = run_capture(capsys, [
        "simulate", "--lambda", "1", "--mu", "2", "--h", "1", "--alpha", "1e-7",
        "--paths", "1000", "--seed", "1"])
    assert code == 2
    assert out == ""
    assert "max_phases" in err


def test_simulate_past_the_reversal_cap_names_the_cap(capsys, monkeypatch):
    # the error printed the cap alone, "error: 50"
    monkeypatch.setattr(simulate, "_REVERSAL_CAP", 50)
    code, out, err = run_capture(capsys, [
        "simulate", "--lambda", "5", "--mu", "5", "--h", "20", "--alpha", "1",
        "--paths", "1000"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: reversal cap of 50 reached: it bounds the velocity reversals")
    assert "rounds of one array-kernel call" in err


VALIDATE_20000 = ["validate", "--lambda", "1", "--mu", "2", "--h", "1",
                  "--alpha", "0.5", "--paths", "20000", "--seed", "11",
                  "--format", "json"]


def test_validate_threads_do_not_change_bytes(capsys):
    _, out1, _ = run_capture(capsys, VALIDATE_20000 + ["--threads", "1"])
    _, out2, _ = run_capture(capsys, VALIDATE_20000 + ["--threads", "4"])
    assert out1 == out2


def test_validate_threads_flag_starts_no_thread(capsys, monkeypatch):
    # --threads is accepted and ignored: 20000 paths are two batches,
    # and both run on the calling thread
    def start(self):
        raise AssertionError(f"started thread {self.name}")

    monkeypatch.setattr(threading.Thread, "start", start)
    code, out4, _ = run_capture(capsys, VALIDATE_20000 + ["--threads", "4"])
    assert code == 0
    _, out, _ = run_capture(capsys, VALIDATE_20000)
    assert out4 == out


def test_scaling_subcommand_csv(capsys):
    code, out, _ = run_capture(capsys, [
        "scaling", "--h", "1", "--alpha", "0.5",
        "--c-values", "1,4,16", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "c,lambda,mu,EC00,EC0H,Etau,ETA"
    assert len(lines) == 4


def test_scaling_rejects_unsorted_grid(capsys):
    code, _, err = run_capture(capsys, [
        "scaling", "--h", "1", "--alpha", "0.5", "--c-values", "4,2"])
    assert code == 2
    assert "c_values" in err


def test_scaling_malformed_grid_is_usage_error(capsys):
    code, out, err = run_capture(capsys, [
        "scaling", "--h", "1", "--alpha", "0.5", "--c-values", "1,x"])
    assert code == 2
    assert out == ""
    assert "--c-values" in err


@pytest.mark.parametrize("omega", ["nan", "inf", "-inf"])
def test_mgf_rejects_non_finite_omega(capsys, omega):
    code, out, err = run_capture(capsys, [
        "mgf", "--lambda", "1", "--mu", "2", "--h", "1", f"--omega={omega}",
        "--format", "json"])
    assert code == 2
    assert out == ""
    assert "omega" in err


@pytest.mark.parametrize("zmax", ["nan", "0", "-1"])
def test_validate_rejects_bad_zmax(capsys, zmax):
    code, out, err = run_capture(capsys, [
        "validate", "--lambda", "1", "--mu", "2", "--h", "1", "--alpha", "0.5",
        "--paths", "1000", f"--zmax={zmax}"])
    assert code == 2
    assert out == ""
    assert "z_max" in err


@pytest.mark.parametrize("lam, mu, h", [("1e-300", "1", "1"), ("1", "1e-300", "1"),
                                        ("1e-300", "1", "30")])
def test_analytics_at_tiny_rates(capsys, lam, mu, h):
    code, out, _ = run_capture(capsys, [
        "analytics", "--lambda", lam, "--mu", mu, "--h", h, "--alpha", "0.5",
        "--format", "json"])
    assert code == 0
    assert all(math.isfinite(v) for group in json.loads(out).values()
               for v in group.values())


@pytest.mark.parametrize("level", [["--h", "1e-300", "--velocity", "1e300"],
                                   ["--h", "1e300", "--velocity", "1e-300"],
                                   ["--h", "1e300"]])
def test_analytics_out_of_float_range_is_parameter_error(capsys, level):
    code, out, err = run_capture(capsys, [
        "analytics", "--lambda", "1", "--mu", "1", *level, "--alpha", "0.5"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("h", ["1e-41", "1e-300"])
def test_analytics_at_tiny_asymmetric_level(capsys, h):
    # (mu - lam)H = H: at 40 digits e^((lam - mu)H) rounds to 1 here and
    # the phase probability p00 to 0, which the kappa ratio divides by
    code, out, _ = run_capture(capsys, [
        "analytics", "--lambda", "1", "--mu", "2", "--h", h, "--alpha", "0.5",
        "--format", "json"])
    assert code in (0, 2)
    if code == 0:
        assert all(math.isfinite(v) for group in json.loads(out).values()
                   for v in group.values())


def test_mgf_at_huge_rates_gives_the_tilted_values(capsys):
    # the tilted box has rates (1e200, 2e200) again and theta1 = -2, so
    # F00 = P00 = 1/2 and F0H = e^{-2}/2; lam*mu overflows on the way
    code, out, _ = run_capture(capsys, [
        "mgf", "--lambda", "1e200", "--mu", "2e200", "--h", "1", "--omega=-1",
        "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["f00"] == 0.5
    assert doc["f0h"] == float(f"{math.exp(-2.0) / 2.0:.12g}")


def test_tables_print_twelve_digits(capsys):
    _, out, _ = run_capture(capsys, [
        "scaling", "--h", "1", "--alpha", "0.5", "--c-values", "1,4,16"])
    lines = out.splitlines()
    assert lines[0].split() == ["c", "lambda", "mu", "EC00", "EC0H", "Etau", "ETA"]
    assert set(lines[1]) == {"-"}
    assert lines[2].split()[3] == "0.407313743345"
    _, out, _ = run_capture(capsys, [
        "validate", "--lambda", "1", "--mu", "2", "--h", "1", "--alpha", "0.5",
        "--paths", "20000", "--seed", "11"])
    lines = out.splitlines()
    assert lines[0].split() == ["name", "analytic", "estimate",
                                "standard_error", "z_score"]
    assert lines[2].split()[3:] == ["0.00344332402251", "-0.232381040671"]
    assert lines[-1] == "overall: PASS (n=20000, seed=11, z_max=4)"


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_capture(capsys, [
        "analytics", "--lambda", "1", "--mu", "2", "--h", "1",
        "--alpha", "0.5", "--format", "json", "--output", str(target)])
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert "absorption" in doc


def test_unwritable_output_is_parameter_error(tmp_path, capsys):
    # exit 1 means a failed validation; a path that cannot be written is 2
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_capture(capsys, [
        "analytics", "--lambda", "1", "--mu", "2", "--h", "1",
        "--alpha", "0.5", "--output", str(target)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert not target.exists()


# stdout of one invocation per output path, in both machine formats; the
# SHA-256 digests were frozen before the subcommands shared one renderer,
# so any change to a key, its order or a printed digit shows up here
GOLDEN_ARGV = {
    "analytics-asym": ["analytics", "--lambda", "1", "--mu", "2", "--h", "1",
                       "--alpha", "0.5"],
    "analytics-equal": ["analytics", "--lambda", "0.5", "--mu", "0.5",
                        "--h", "10", "--alpha", "1"],
    "mgf": ["mgf", "--lambda", "1", "--mu", "2", "--h", "1", "--omega", "-0.1"],
    "mgf-d": ["mgf", "--lambda", "1", "--mu", "2", "--h", "1", "--omega", "-0.1",
              "--d", "0.4"],
    "simulate": ["simulate", "--lambda", "1", "--mu", "2", "--h", "1",
                 "--alpha", "0.5", "--paths", "2000", "--seed", "3"],
    "validate-pass": ["validate", "--lambda", "1", "--mu", "2", "--h", "1",
                      "--alpha", "0.5", "--paths", "20000", "--seed", "11"],
    "validate-fail": ["validate", "--lambda", "1", "--mu", "2", "--h", "1",
                      "--alpha", "0.5", "--paths", "20000", "--seed", "11",
                      "--zmax", "0.01"],
    "scaling": ["scaling", "--h", "1", "--alpha", "0.5", "--c-values", "1,4,16"],
}

# (exit code, json digest, csv digest)
GOLDEN = {
    "analytics-asym": (
        0,
        "42629b20a31cc1b968a5e1717bd50c5d9e1c8d39d9800b9db1503469e4cea1d9",
        "1b43493a721984a90d01de765204e35800194536b3e9ac914811212303841d22"),
    "analytics-equal": (
        0,
        "2f1f37f4f9b1c89e26f733750e2a563e8ad1c268c21d969cef6e484ef539c9b9",
        "7bb1ed5cc45fb5d92d158363d918f32edf58fc8609269eddbc2e1d24b55864ae"),
    "mgf": (
        0,
        "adc78b4e6036291be30303e65d78e1f2e6204a74cc6a6cfb3f3a239f803e3d60",
        "c0f96a92e3afec8cdff7a2ebf80f6d0b75ae41c5cc436644ba255b76b322c921"),
    "mgf-d": (
        0,
        "4691816c008465f7cdc57975a08f22378fd9ad3c228f4f0b8b9178ad7cea8939",
        "5b18de18188e017b1796ba10b8ae1da3f09787e68d2640916998c618ace3fbe9"),
    "simulate": (
        0,
        "336349ecb8615d6f76cbe82b00643e08df544f35ccea8bae681919e222a3ec06",
        "12779021839ba87121f11c7ad1c2fd4f13b7013719d469ac2c7ca634cbe3c3d9"),
    "validate-pass": (
        0,
        "2f46ba1730a6cd95e7bbd3bcc2b3ee8d573a536af6d3787b951e2d54e7eff985",
        "050bc3b3d1ed72d4d2ef3fdc1cea528281aea406f3d0dba68f62b4f451aa7492"),
    "validate-fail": (
        1,
        "405155804d668e83f28535031f1d48c2602a27267e05ca43dce13b548f989c6a",
        "050bc3b3d1ed72d4d2ef3fdc1cea528281aea406f3d0dba68f62b4f451aa7492"),
    "scaling": (
        0,
        "d37bcc58267889d16cf38d8086b077aec5d3750936b166cba223eeca11c4c5ad",
        "7f07fc4b46366fa8361c21ba732e8ff49f4d78c4de480fb660986b8863404706"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ARGV))
def test_machine_formats_are_pinned(capsys, name):
    want_code, *want = GOLDEN[name]
    got = []
    for fmt in ("json", "csv"):
        code, out, _ = run_capture(capsys, GOLDEN_ARGV[name] + ["--format", fmt])
        assert code == want_code
        got.append(hashlib.sha256(out.encode()).hexdigest())
    assert got == want
