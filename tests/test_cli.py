import concurrent.futures
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pnes
import pnes.dispersion
import pnes.propagator
import pnes.states
from pnes.cli import _build_profile, main, read_config_file, validate_config
from pnes.errors import ValidationError
from pnes.meanfield import PumpProfile, closed_form_trajectory, tau_of_t

ROOT = Path(__file__).resolve().parents[1]


def write_cfg(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


EVOLVE_EXACT_CFG = """
family = vacuum
alpha = 2
chi = 0.05
pair_dim = 10
dt = 0.01
steps = 50
record_every = 10
"""

EVOLVE_MODEL_CFG = """
profile = rectangular
amplitude = 1
duration = 2
chi = 0.1
t_start = -0.5
t_stop = 3
n_points = 12
"""

COMPARE_CFG = """
alpha = 5
chi = 0.01
t_stop = 0.5
dt = 0.01
record_every = 10
pair_dim = 8
"""

DISPERSION_CFG = """
family = tmc
params = 0.5, 1.0
chi = 0.1
alpha = 1
"""

SCAN_CFG = """
family = twb
params = 0.2, 0.4
chi_values = 0.1
alpha_values = 1, 2
"""


def read_csv(path):
    header = {}
    columns = None
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            header[key.strip()] = value.strip()
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return header, columns, rows


class TestConfigParsing:
    def test_reads_flat_keys(self, tmp_path):
        cfg = write_cfg(tmp_path / "a.cfg", "x = 1\n# comment\ny = two\n")
        assert read_config_file(cfg) == {"x": "1", "y": "two"}

    def test_duplicate_key_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path / "a.cfg", "x = 1\nx = 2\n")
        with pytest.raises(ValidationError, match="duplicate"):
            read_config_file(cfg)

    def test_all_violations_reported(self):
        raw = {"bogus": "1", "family": "tmc", "chi": "zap"}
        with pytest.raises(ValidationError) as err:
            validate_config("dispersion", raw)
        msg = str(err.value)
        assert "bogus" in msg
        assert "chi" in msg
        assert "params" in msg  # missing
        assert "alpha" in msg  # missing

    def test_line_without_equals_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path / "a.cfg", "x = 1\njust words\n")
        with pytest.raises(ValidationError, match="line 2: expected 'key = value'"):
            read_config_file(cfg)

    def test_unknown_key_is_error(self):
        raw = {"family": "tmc", "params": "1", "chi": "0.1", "alpha": "1", "zz": "9"}
        with pytest.raises(ValidationError, match="zz"):
            validate_config("dispersion", raw)

    def test_non_utf8_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "a.cfg"
        path.write_bytes(EVOLVE_MODEL_CFG.encode("utf-8") + b"\xff\xfe")
        with pytest.raises(ValidationError, match="UTF-8"):
            read_config_file(str(path))
        assert main(["evolve-model", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "ValidationError"
        assert captured.out == ""

    def test_leading_byte_order_mark_is_ignored(self, tmp_path):
        text = DISPERSION_CFG.lstrip()  # the mark sits right before the first key
        plain = write_cfg(tmp_path / "plain.cfg", text)
        bom = tmp_path / "bom.cfg"
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert read_config_file(str(bom)) == read_config_file(plain)
        for name, cfg in (("plain", plain), ("bom", str(bom))):
            assert main(["dispersion", "--config", cfg, "--out", str(tmp_path / f"{name}.csv")]) == 0
        assert (tmp_path / "bom.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


class TestEvolveExact:
    def test_conservation_columns(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", EVOLVE_EXACT_CFG)
        out = tmp_path / "out.csv"
        assert main(["evolve-exact", "--config", cfg, "--out", str(out)]) == 0
        header, columns, rows = read_csv(out)
        assert header["command"] == "evolve-exact"
        i_diff = columns.index("diff_n")
        i_k = columns.index("conserved_k")
        diffs = [abs(float(r[i_diff])) for r in rows]
        ks = [float(r[i_k]) for r in rows]
        assert max(diffs) < 1e-10
        assert max(ks) - min(ks) < 1e-9

    def test_zero_coupling_constant_columns(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", EVOLVE_EXACT_CFG.replace("chi = 0.05", "chi = 0"))
        out = tmp_path / "out.csv"
        assert main(["evolve-exact", "--config", cfg, "--out", str(out)]) == 0
        _, columns, rows = read_csv(out)
        arr = np.array(rows, dtype=float)
        for j, name in enumerate(columns):
            if name == "t":
                continue
            assert np.ptp(arr[:, j]) < 1e-12, name

    def test_determinism(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", EVOLVE_EXACT_CFG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["evolve-exact", "--config", cfg, "--out", str(out1)])
        main(["evolve-exact", "--config", cfg, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("family, param", [("twb", 0.3), ("tmc", 0.5)])
    def test_pair_families_conserve(self, tmp_path, family, param):
        text = EVOLVE_EXACT_CFG.replace("vacuum", f"{family}\nparam = {param}")
        cfg = write_cfg(tmp_path / "c.cfg", text.replace("pair_dim = 10", "pair_dim = 16"))
        out = tmp_path / "out.csv"
        assert main(["evolve-exact", "--config", cfg, "--out", str(out)]) == 0
        header, columns, rows = read_csv(out)
        assert header["family"] == family
        i_diff = columns.index("diff_n")
        i_k = columns.index("conserved_k")
        diffs = [abs(float(r[i_diff])) for r in rows]
        ks = [float(r[i_k]) for r in rows]
        assert max(diffs) < 1e-10
        assert max(ks) - min(ks) < 1e-9
        # the pair state is really there: <N> > 0 from the first row
        assert float(rows[0][columns.index("total_n")]) > 0.1

    def test_unknown_family_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", EVOLVE_EXACT_CFG.replace("vacuum", "squeezed"))
        assert main(["evolve-exact", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ValidationError"
        assert "squeezed" in record["message"]

    def test_pump_cutoff_rejected(self, tmp_path, capsys):
        text = EVOLVE_EXACT_CFG.replace("alpha = 2", "alpha = 4\nd0 = 3")
        cfg = write_cfg(tmp_path / "c.cfg", text)
        out = tmp_path / "out.csv"
        assert main(["evolve-exact", "--config", cfg, "--out", str(out)]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "DimensionTooSmallError"
        for part in ("d0=3", "alpha=4", "tail mass 1.000e+00"):
            assert part in record["message"]
        assert not out.exists()

    def test_huge_step_stays_exact(self, tmp_path, capsys):
        text = """
family = vacuum
alpha = 2
chi = 1
pair_dim = 4
dt = 1000000
steps = 50
"""
        cfg = write_cfg(tmp_path / "c.cfg", text)
        out = tmp_path / "out.csv"
        assert main(["evolve-exact", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        _, columns, rows = read_csv(out)
        assert len(rows) == 51
        norms = [float(r[columns.index("norm")]) for r in rows]
        ks = [float(r[columns.index("conserved_k")]) for r in rows]
        assert max(abs(n - 1.0) for n in norms) < 1e-12
        assert max(abs(k - ks[0]) for k in ks) < 1e-9

    def test_stdout_without_out(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", EVOLVE_EXACT_CFG)
        out = tmp_path / "out.csv"
        assert main(["evolve-exact", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["evolve-exact", "--config", cfg]) == 0
        assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


class TestEvolveModel:
    def test_rectangular_tau_column(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", EVOLVE_MODEL_CFG)
        out = tmp_path / "out.csv"
        assert main(["evolve-model", "--config", cfg, "--out", str(out)]) == 0
        _, columns, rows = read_csv(out)
        i_t, i_tau = columns.index("t"), columns.index("tau")
        for r in rows:
            t, tau = float(r[i_t]), float(r[i_tau])
            want = 0.1 * min(max(t, 0.0), 2.0)
            assert abs(tau - want) < 1e-12
        i_dl, i_dn = columns.index("dLambda"), columns.index("dN")
        assert max(abs(float(r[i_dl])) for r in rows) < 1e-8
        assert max(abs(float(r[i_dn])) for r in rows) < 1e-8

    def test_far_narrow_gaussian_runs_with_warnings_as_errors(self, tmp_path):
        text = ("profile = gaussian\namplitude = 1\ncenter = 100\nwidth = 1e-200\nchi = 0.1\n"
                "t_start = -1\nt_stop = 1\nn_points = 3\n")
        cfg, out = write_cfg(tmp_path / "c.cfg", text), tmp_path / "out.csv"
        env = dict(os.environ, PYTHONPATH=str(Path(pnes.__file__).resolve().parents[1]))
        run = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "pnes.cli",
                              "evolve-model", "--config", cfg, "--out", str(out)],
                             capture_output=True, text=True, env=env, timeout=60)
        assert (run.returncode, run.stderr) == (0, "")
        _, columns, rows = read_csv(out)
        assert [r[columns.index("a")] for r in rows] == ["0", "0", "0"]

    def test_zero_amplitude_profile(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", EVOLVE_MODEL_CFG.replace("amplitude = 1", "amplitude = 0"))
        out = tmp_path / "out.csv"
        assert main(["evolve-model", "--config", cfg, "--out", str(out)]) == 0
        _, columns, rows = read_csv(out)
        for name in ("Lambda_cf", "N_cf", "Lambda_ode", "N_ode"):
            j = columns.index(name)
            assert all(float(r[j]) == 0.0 for r in rows)

    def test_json_format_roundtrip(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", EVOLVE_MODEL_CFG)
        out = tmp_path / "out.json"
        assert main(["evolve-model", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        doc = json.loads(out.read_text())
        assert doc["command"] == "evolve-model"
        assert doc["config"]["profile"] == "rectangular"
        assert len(doc["rows"]) == 12
        assert len(doc["rows"][0]) == len(doc["columns"])

    @pytest.mark.parametrize("text", [
        "profile = gaussian\namplitude = 1\ncenter = 2\nwidth = 0.7\n",
        "profile = sampled\nprofile_times = 0, 1, 3\nprofile_values = 0, 1.5, 0.5\n",
        "profile = constant\namplitude = 0.8\n",  # from t_start = 0, where tau = 0: no key
    ], ids=["gaussian", "sampled", "constant"])
    def test_tau_column_matches_tau_of_t(self, tmp_path, text):
        text += "chi = 0.2\nt_start = 0\nt_stop = 2.5\nn_points = 11\n"
        if "gaussian" in text:
            text = text.replace("t_start = 0", "t_start = -6")
        cfg = write_cfg(tmp_path / "c.cfg", text)
        out = tmp_path / "out.csv"
        assert main(["evolve-model", "--config", cfg, "--out", str(out)]) == 0
        _, columns, rows = read_csv(out)
        profile = _build_profile(validate_config("evolve-model", read_config_file(cfg)))
        i_t, i_tau = columns.index("t"), columns.index("tau")
        assert len(rows) == 11
        for r in rows:
            assert abs(float(r[i_tau]) - tau_of_t(profile, 0.2, float(r[i_t]))) < 1e-12

    def test_sampled_past_last_sample_rejected(self, tmp_path, capsys):
        text = ("profile = sampled\nprofile_times = 0, 1, 2\nprofile_values = 0, 1, 0\n"
                "chi = 0.2\nt_start = 0\nt_stop = 3\nn_points = 7\n")
        cfg = write_cfg(tmp_path / "c.cfg", text)
        assert main(["evolve-model", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ExtrapolationError"
        # named by the grid's own last time, not by an RK4 stage time inside [2, 2.5]
        assert record["message"] == "sampled profile queried at t=3.0 past its support end 2.0"

    @pytest.mark.parametrize("times", ["0, 1, 2.5", "0, 1, 3"],
                             ids=["grid-ends-on-last-sample", "kink-inside-interval"])
    def test_sampled_pump_matches_closed_form(self, tmp_path, times):
        text = (f"profile = sampled\nprofile_times = {times}\nprofile_values = 0, 1, 0.5\n"
                "chi = 0.3\nt_start = 0\nt_stop = 2.5\nn_points = 9\n")
        cfg = write_cfg(tmp_path / "c.cfg", text)
        out = tmp_path / "out.csv"
        assert main(["evolve-model", "--config", cfg, "--out", str(out)]) == 0
        _, columns, rows = read_csv(out)
        assert len(rows) == 9
        for name in ("dLambda", "dN"):
            assert max(abs(float(r[columns.index(name)])) for r in rows) < 1e-8, name

    def test_sampled_pump_jumping_at_first_sample(self, tmp_path):
        # a(t) is 0 before t = 0.25 and 1 from there; the grid piece [0, 0.5]
        # is split at 0.25, and the piece ending there must not see the jump
        text = ("profile = sampled\nprofile_times = 0.25, 0.5, 1\nprofile_values = 1, 0, 0\n"
                "chi = 1\nt_start = 0\nt_stop = 1\nn_points = 3\n")
        cfg = write_cfg(tmp_path / "c.cfg", text)
        out = tmp_path / "out.csv"
        assert main(["evolve-model", "--config", cfg, "--out", str(out)]) == 0
        _, columns, rows = read_csv(out)
        assert float(rows[-1][columns.index("tau")]) == 0.125
        for name in ("dLambda", "dN"):
            assert max(abs(float(r[columns.index(name)])) for r in rows) < 1e-8, name

    def test_long_constant_pump_passes_relative_step_check(self, tmp_path):
        # N reaches about 670, where the absolute step-halving estimate is 2e-8
        text = ("profile = constant\namplitude = 1\nchi = 0.6\nt_start = 0\nt_stop = 6\n"
                "n_points = 50\n")
        cfg = write_cfg(tmp_path / "c.cfg", text)
        out = tmp_path / "out.csv"
        assert main(["evolve-model", "--config", cfg, "--out", str(out)]) == 0
        _, columns, rows = read_csv(out)
        assert float(rows[-1][columns.index("N_cf")]) > 600
        for ode, cf in (("Lambda_ode", "Lambda_cf"), ("N_ode", "N_cf")):
            for r in rows:
                x, want = float(r[columns.index(ode)]), float(r[columns.index(cf)])
                assert abs(x - want) / max(1.0, abs(want)) < 1e-8, ode

    def test_unknown_profile_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", EVOLVE_MODEL_CFG.replace("rectangular", "sawtooth"))
        assert main(["evolve-model", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
        assert "sawtooth" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("key, value", [("n_points", "-3"), ("t_stop", "inf"),
                                            ("n_points", "1000000000000")])
    def test_bad_grid_rejected_before_building_it(self, tmp_path, capsys, key, value):
        text = EVOLVE_MODEL_CFG.replace(f"{key} = ", f"{key} = {value}\n# ")
        cfg = write_cfg(tmp_path / "c.cfg", text)
        out = tmp_path / "o.csv"
        assert main(["evolve-model", "--config", cfg, "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "ValidationError"
        assert f"{key}={value}" in record["message"]
        assert not out.exists()

    def test_overflowing_span_rejected_before_building_the_grid(self, tmp_path, capsys):
        # both ends are finite, but t_stop - t_start is not: np.linspace would warn
        text = EVOLVE_MODEL_CFG.replace("t_start = -0.5", "t_start = -1e308").replace(
            "t_stop = 3", "t_stop = 1e308")
        record = refused(tmp_path, capsys, "evolve-model", text)
        assert record["error"] == "ValidationError"
        assert "finite span" in record["message"] and "t_start=-1e+308" in record["message"]

    def test_overflowing_model_is_a_numerical_error(self, tmp_path, capsys):
        # tau reaches 1000, and N ~ exp(2 tau) / 2 overflows float64 past tau ~ 355;
        # pytest turns the RuntimeWarning of an unguarded overflow into an error
        text = ("profile = constant\namplitude = 1\nchi = 1\nt_start = 0\nt_stop = 1000\n"
                "n_points = 11\n")
        cfg = write_cfg(tmp_path / "c.cfg", text)
        out = tmp_path / "o.csv"
        assert main(["evolve-model", "--config", cfg, "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "NumericalError"
        assert "overflows" in record["message"]
        assert not out.exists()

    def test_unresolved_pulse_is_a_step_size_error(self, tmp_path, capsys, monkeypatch):
        # the substeps follow each interval's tau span, so the two RK4 passes agree on
        # any pulse to about 1e-16; at a tolerance of 1e-30 they disagree
        monkeypatch.setattr(pnes.meanfield, "_ODE_TOL", 1e-30)
        text = ("profile = gaussian\namplitude = 1\ncenter = 0.5\nwidth = 0.05\nchi = 1\n"
                "t_start = 0\nt_stop = 1\nn_points = 2\n")
        cfg = write_cfg(tmp_path / "c.cfg", text)
        out = tmp_path / "o.csv"
        assert main(["evolve-model", "--config", cfg, "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "StepSizeError"
        assert "step-halving" in record["message"]
        assert not out.exists()

    def test_assume_zero_initial_is_an_unknown_key(self, tmp_path, capsys):
        # the vacuum start follows from tau(t_start) = 0, so no key overrides it
        record = refused(tmp_path, capsys, "evolve-model",
                         EVOLVE_MODEL_CFG + "assume_zero_initial = yes\n")
        assert record == {"error": "ValidationError", "message": "unknown key 'assume_zero_initial'"}

    @pytest.mark.parametrize("text, t0, tau", [
        ("profile = gaussian\namplitude = 1\ncenter = 0\nwidth = 1\nchi = 0.5\n"
         "t_start = 9\nt_stop = 10\nn_points = 5\n", 9.0, 1.2533141373155001),
        ("profile = rectangular\namplitude = 1\nduration = 2\nchi = 0.5\n"
         "t_start = 3\nt_stop = 5\nn_points = 5\n", 3.0, 1.0),
        ("profile = sampled\nprofile_times = 0, 1, 2, 3\nprofile_values = 0, 1, 0, 0\n"
         "chi = 0.5\nt_start = 2.5\nt_stop = 3\nn_points = 3\n", 2.5, 0.5),
    ], ids=["gaussian", "rectangular", "sampled"])
    def test_grid_starting_after_a_pulse_rejected(self, tmp_path, capsys, text, t0, tau):
        # the pump is off at t_start, but its area is not: the vacuum start would be wrong
        record = refused(tmp_path, capsys, "evolve-model", text)
        assert record["error"] == "ValidationError"
        assert f"tau = {tau!r} does not vanish at t0={t0!r}" in record["message"]


class TestCompare:
    def test_deviation_small_and_zero_at_start(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", COMPARE_CFG)
        out = tmp_path / "out.csv"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        _, columns, rows = read_csv(out)
        j = columns.index("rel_dev_n")
        assert float(rows[0][j]) == 0.0
        assert max(float(r[j]) for r in rows) < 0.01

    def test_leakage_is_the_last_column_and_evolve_exacts_leakage(self, tmp_path):
        # compare's exact run is evolve-exact's from the vacuum pair: same times, same leakage
        cfg, out = write_cfg(tmp_path / "c.cfg", COMPARE_CFG), tmp_path / "out.csv"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        _, columns, rows = read_csv(out)
        assert columns == ["t", "n_exact", "n_model", "rel_dev_n", "abs_pair_amp_exact",
                           "lambda_model", "rel_dev_lambda", "leakage"]
        exact_text = COMPARE_CFG.replace("t_stop = 0.5", "steps = 50") + "family = vacuum\n"
        exact_cfg, exact_out = write_cfg(tmp_path / "e.cfg", exact_text), tmp_path / "e.csv"
        assert main(["evolve-exact", "--config", exact_cfg, "--out", str(exact_out)]) == 0
        _, exact_columns, exact_rows = read_csv(exact_out)
        for c, e in (("t", "t"), ("leakage", "leakage"), ("n_exact", "total_n")):
            assert ([r[columns.index(c)] for r in rows]
                    == [r[exact_columns.index(e)] for r in exact_rows])
        assert 0 < float(rows[-1][-1]) < 1e-6

    def test_fractional_step_count_rejected(self, tmp_path, capsys):
        text = COMPARE_CFG.replace("t_stop = 0.5", "t_stop = 0.505")
        cfg = write_cfg(tmp_path / "c.cfg", text)
        assert main(["compare", "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ValidationError"
        assert "whole number of steps" in record["message"]
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("t_stop, dt", [("0", "0.05"), ("-1", "-0.05")],
                             ids=["zero-span", "negative-dt"])
    def test_no_step_rejected_before_evolving(self, tmp_path, capsys, monkeypatch, t_stop, dt):
        def refuse(*args, **kwargs):
            raise AssertionError("the exact state was built or evolved")

        monkeypatch.setattr(pnes.cli, "_build_exact_state", refuse)
        monkeypatch.setattr(pnes.propagator, "evolve", refuse)
        text = COMPARE_CFG.replace("t_stop = 0.5", f"t_stop = {t_stop}")
        cfg = write_cfg(tmp_path / "c.cfg", text.replace("dt = 0.01", f"dt = {dt}"))
        assert main(["compare", "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == "ValidationError"
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("t_stop, dt", [("inf", "0.01"), ("1e300", "1e-300")],
                             ids=["infinite-span", "overflowing-ratio"])
    def test_non_finite_step_count_rejected(self, tmp_path, capsys, t_stop, dt):
        text = COMPARE_CFG.replace("t_stop = 0.5", f"t_stop = {t_stop}")
        record = refused(tmp_path, capsys, "compare", text.replace("dt = 0.01", f"dt = {dt}"))
        assert "t_stop / dt must be finite" in record["message"]

    def test_model_columns_are_the_closed_form(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the model was integrated")

        monkeypatch.setattr(pnes.meanfield, "integrate_model", refuse)
        monkeypatch.setattr(pnes.meanfield, "_rk4_pass", refuse)
        cfg, out = write_cfg(tmp_path / "c.cfg", COMPARE_CFG), tmp_path / "out.csv"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        _, columns, rows = read_csv(out)
        t, n, lam = (np.array([float(r[columns.index(c)]) for r in rows])
                     for c in ("t", "n_model", "lambda_model"))
        want = closed_form_trajectory(PumpProfile.constant(5.0), 0.01, t)
        np.testing.assert_array_equal(n, want.N)
        np.testing.assert_array_equal(lam, want.Lambda)

    def test_one_long_step_reads_a_finite_model(self, tmp_path):
        # 400 chi alpha dt = 1.2e5 RK4 substeps, past the integrator's cap, but
        # N(tau = 300) = 2 sinh^2(300) = 1.8865e260 is finite
        text = "alpha = 2\nchi = 0.05\nt_stop = 3000\ndt = 3000\npair_dim = 12\n"
        cfg, out = write_cfg(tmp_path / "c.cfg", text), tmp_path / "out.csv"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        _, columns, rows = read_csv(out)
        n_model = float(rows[-1][columns.index("n_model")])
        assert n_model == pytest.approx(2.0 * math.sinh(300.0) ** 2, rel=1e-12)

    def test_pump_cutoff_rejected(self, tmp_path, capsys):
        text = COMPARE_CFG.replace("alpha = 5", "alpha = 4\nd0 = 3")
        cfg = write_cfg(tmp_path / "c.cfg", text)
        assert main(["compare", "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "DimensionTooSmallError"
        assert "d0=3" in record["message"]
        assert not (tmp_path / "out.csv").exists()


class TestDispersion:
    def test_tmc_report_rows(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", DISPERSION_CFG)
        out = tmp_path / "out.csv"
        assert main(["dispersion", "--config", cfg, "--out", str(out)]) == 0
        _, columns, rows = read_csv(out)
        j = columns.index("model_exact_ratio")
        for r in rows:
            assert abs(float(r[j]) - 2.0) < 2e-3

    def test_header_is_the_report_fields(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", DISPERSION_CFG)
        out = tmp_path / "out.csv"
        assert main(["dispersion", "--config", cfg, "--out", str(out)]) == 0
        _, columns, _ = read_csv(out)
        assert columns == list(pnes.DispersionReport._fields)

    def test_overflowing_rate_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg",
                        "family = twb\nparams = 0.2, 0.5\nchi = 3e307\nalpha = 1\n")
        out = tmp_path / "out.csv"
        assert main(["dispersion", "--config", cfg, "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == "NumericalError"
        assert not out.exists()


class TestScan:
    def test_grid_rows_and_worker_independence(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", SCAN_CFG)
        out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        assert main(["scan", "--config", cfg, "--out", str(out1), "--workers", "1"]) == 0
        assert main(["scan", "--config", cfg, "--out", str(out2), "--workers", "3"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        _, columns, rows = read_csv(out1)
        assert len(rows) == 4  # 1 chi x 2 alpha x 2 params
        j = columns.index("model_exact_ratio")
        assert all(abs(float(r[j]) - 1.0) < 1e-3 for r in rows)

    def test_single_point_matches_dispersion(self, tmp_path):
        scan_cfg = write_cfg(
            tmp_path / "s.cfg",
            "family = tmc\nparams = 0.5\nchi_values = 0.1\nalpha_values = 1\n",
        )
        disp_cfg = write_cfg(
            tmp_path / "d.cfg",
            "family = tmc\nparams = 0.5\nchi = 0.1\nalpha = 1\n",
        )
        out_s, out_d = tmp_path / "s.csv", tmp_path / "d.csv"
        main(["scan", "--config", scan_cfg, "--out", str(out_s), "--workers", "1"])
        main(["dispersion", "--config", disp_cfg, "--out", str(out_d)])
        _, cols_s, rows_s = read_csv(out_s)
        _, cols_d, rows_d = read_csv(out_d)
        assert rows_s[0][: len(cols_d)] == rows_d[0]

    def test_partial_failure_exit_code(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "c.cfg",
            "family = twb\nparams = 0.2, 1.5\nchi_values = 0.1\nalpha_values = 1\n",
        )
        out = tmp_path / "out.csv"
        assert main(["scan", "--config", cfg, "--out", str(out), "--workers", "1"]) == 3
        _, columns, rows = read_csv(out)
        statuses = [r[columns.index("status")] for r in rows]
        assert statuses[0] == "ok"
        assert "ValidationError" in statuses[1]

    @pytest.mark.parametrize("workers", [[], ["--workers", "3"]],
                             ids=["no-workers-flag", "workers-3"])
    def test_serial_without_workers(self, tmp_path, monkeypatch, workers):
        def no_pool(*args, **kwargs):
            raise AssertionError("scan started a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        cfg = write_cfg(tmp_path / "c.cfg", SCAN_CFG)
        assert main(["scan", "--config", cfg, "--out", str(tmp_path / "out.csv")] + workers) == 0

    def test_json_writes_non_finite_cells_as_null(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "c.cfg",
            "family = twb\nparams = 0, 0.2, 1.5\nchi_values = 0.1\nalpha_values = 1\n",
        )
        out = tmp_path / "out.json"
        assert main(["scan", "--config", cfg, "--out", str(out), "--format", "json"]) == 3

        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        doc = json.loads(out.read_text(encoding="utf-8"), parse_constant=refuse)
        columns, rows = doc["columns"], doc["rows"]
        ratios = [columns.index("rel_err_exact"), columns.index("model_exact_ratio")]
        assert [rows[0][j] for j in ratios] == [None, None]
        assert all(v is not None for v in rows[1])
        assert rows[2][columns.index("rate_exact"):columns.index("ratios_defined")] == [None] * 7
        assert "ValidationError" in rows[2][columns.index("status")]

    def test_overflowing_point_status_names_the_error(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg",
                        "family = twb\nparams = 0.5\nchi_values = 0.1, 3e307, 1e308, 1e307\n"
                        "alpha_values = 1\n")
        out = tmp_path / "out.csv"
        assert main(["scan", "--config", cfg, "--out", str(out)]) == 3
        _, columns, rows = read_csv(out)
        statuses = [r[columns.index("status")] for r in rows]
        assert statuses[0] == statuses[3] == "ok"
        assert all(s.startswith("NumericalError: ") and "overflow float64" in s
                   for s in statuses[1:3])

    def test_zero_workers_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", SCAN_CFG)
        out = tmp_path / "out.csv"
        assert main(["scan", "--config", cfg, "--out", str(out), "--workers", "0"]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ValidationError"
        assert "--workers" in record["message"]
        assert not out.exists()


def test_import_does_not_load_the_process_pool():
    code = "import sys, pnes.cli; print('concurrent.futures.process' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(pnes.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60)
    assert run.stdout.strip() == "False"


def _loaded(tmp_path, command, cfg_text, modules, fmt="csv"):
    """Which of ``modules`` a fresh interpreter imports while running one command."""
    cfg = write_cfg(tmp_path / "c.cfg", cfg_text)
    argv = [command, "--config", cfg, "--out", str(tmp_path / f"o.{fmt}"), "--format", fmt]
    code = (f"import sys, pnes.cli; assert pnes.cli.main({argv!r}) == 0; "
            f"print(*[m for m in {list(modules)!r} if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(Path(pnes.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60)
    return run.stdout.split()


def test_evolve_exact_does_not_load_numpy_ma(tmp_path):
    assert _loaded(tmp_path, "evolve-exact", EVOLVE_EXACT_CFG, ["numpy.ma"]) == []


@pytest.mark.parametrize("command, text", [
    ("evolve-model", "profile = gaussian\namplitude = 1\ncenter = 2\nwidth = 0.7\n"
                     "chi = 0.2\nt_start = -6\nt_stop = 2.5\nn_points = 11\n"),
    ("evolve-model", "profile = sampled\nprofile_times = 0, 1, 3\nprofile_values = 0, 1, 0.5\n"
                     "chi = 0.3\nt_start = 0\nt_stop = 2.5\nn_points = 9\n"),
    ("scan", SCAN_CFG),
], ids=["evolve-model-gaussian", "evolve-model-sampled-kink", "scan"])
def test_does_not_load_numpy_ma(tmp_path, command, text):
    assert _loaded(tmp_path, command, text, ["numpy.ma"]) == []


@pytest.mark.parametrize("command, text", [
    ("evolve-exact", EVOLVE_EXACT_CFG),
    ("evolve-model", EVOLVE_MODEL_CFG),
    ("scan", SCAN_CFG),
], ids=["evolve-exact", "evolve-model", "scan"])
def test_csv_run_loads_neither_dataclasses_nor_json(tmp_path, command, text):
    assert _loaded(tmp_path, command, text, ["dataclasses", "json"]) == []


@pytest.mark.parametrize("command, text, modules, loaded", [
    ("evolve-exact", EVOLVE_EXACT_CFG, ["pnes.meanfield", "pnes.dispersion", "pnes.propagator"],
     ["pnes.propagator"]),
    ("evolve-model", EVOLVE_MODEL_CFG, ["pnes.states", "pnes.observables", "pnes.propagator",
                                        "pnes.dispersion", "pnes.meanfield"], ["pnes.meanfield"]),
    ("scan", SCAN_CFG, ["pnes.meanfield", "pnes.propagator", "pnes.dispersion"],
     ["pnes.dispersion"]),
], ids=["evolve-exact", "evolve-model", "scan"])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, command, text, modules, loaded):
    # the last module listed is one the command runs, so the check sees real imports
    assert _loaded(tmp_path, command, text, modules) == loaded


def test_json_run_loads_json(tmp_path):
    assert _loaded(tmp_path, "scan", SCAN_CFG, ["dataclasses", "json"], fmt="json") == ["json"]


@pytest.mark.parametrize("command, text", [
    ("evolve-exact", EVOLVE_EXACT_CFG + "d0 = 5000000\n"),
    ("evolve-exact", EVOLVE_EXACT_CFG.replace("alpha = 2", "alpha = 3000")),
    ("compare", COMPARE_CFG + "d0 = 5000000\n"),
], ids=["evolve-exact", "evolve-exact-default-d0", "compare"])
def test_oversized_box_rejected_before_building_the_pump(tmp_path, capsys, monkeypatch,
                                                         command, text):
    def coherent(alpha, d):
        raise AssertionError(f"built a pump of {d} levels")

    monkeypatch.setattr(pnes.states, "coherent", coherent)
    cfg = write_cfg(tmp_path / "c.cfg", text)
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ValidationError"
    assert "exceeds the supported maximum" in record["message"]
    assert not out.exists()


def _forbid_dense_grid(monkeypatch):
    """Make kernels.scatter and kernels.gather, the ways to and from the dense grid, raise
    in every pnes module holding them."""
    def refuse(*args, **kwargs):
        raise AssertionError("converted between the dense (d0, d1, d2) grid and the sectors")

    for name, module in list(sys.modules.items()):
        if name == "pnes" or name.startswith("pnes."):
            for attr in ("scatter", "gather"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)


@pytest.mark.parametrize("command, text", [
    ("evolve-exact", (ROOT / "perfbench" / "configs" / "trajectory.cfg").read_text()),
    ("evolve-exact", EVOLVE_EXACT_CFG.replace("family = vacuum", "family = tmc\nparam = 0.7")),
    ("compare", COMPARE_CFG),
    ("dispersion", DISPERSION_CFG),
    ("scan", SCAN_CFG),
], ids=["evolve-exact-trajectory", "evolve-exact-tmc", "compare", "dispersion", "scan"])
def test_exact_path_never_builds_the_dense_grid(tmp_path, monkeypatch, command, text):
    cfg = write_cfg(tmp_path / "c.cfg", text)
    plain, guarded = tmp_path / "plain.csv", tmp_path / "guarded.csv"
    assert main([command, "--config", cfg, "--out", str(plain)]) == 0
    _forbid_dense_grid(monkeypatch)
    assert main([command, "--config", cfg, "--out", str(guarded)]) == 0
    assert guarded.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize("alpha", ["nan", "inf", "1e200"])
@pytest.mark.parametrize("command, text", [
    ("evolve-exact", EVOLVE_EXACT_CFG.replace("alpha = 2\n", "")),
    ("compare", COMPARE_CFG.replace("alpha = 5\n", "")),
], ids=["evolve-exact", "compare"])
def test_default_d0_needs_a_finite_alpha(tmp_path, capsys, command, text, alpha):
    cfg = write_cfg(tmp_path / "c.cfg", text + f"alpha = {alpha}\n")
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "ValidationError"
    assert "alpha" in record["message"]
    assert not out.exists()


@pytest.mark.parametrize("command, text", [
    ("evolve-exact", EVOLVE_EXACT_CFG),
    ("compare", COMPARE_CFG),
], ids=["evolve-exact", "compare"])
def test_negative_d0_rejected_before_building_a_state(tmp_path, capsys, monkeypatch,
                                                      command, text):
    def refuse(*args, **kwargs):
        raise AssertionError("built or evolved a state")

    monkeypatch.setattr(pnes.propagator, "evolve", refuse)
    monkeypatch.setattr(pnes.states, "coherent", refuse)
    cfg = write_cfg(tmp_path / "c.cfg", text + "d0 = -7\n")
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "ValidationError"
    assert "d0" in record["message"] and "-7" in record["message"]
    assert not out.exists()


@pytest.mark.parametrize("pair_dim", [0, -2])
@pytest.mark.parametrize("command, text", [
    ("evolve-exact", EVOLVE_EXACT_CFG.replace("pair_dim = 10\n", "")),
    ("compare", COMPARE_CFG.replace("pair_dim = 8\n", "")),
], ids=["evolve-exact", "compare"])
def test_pair_dim_below_one_named_before_building_a_state(tmp_path, capsys, monkeypatch,
                                                          command, text, pair_dim):
    def refuse(*args, **kwargs):
        raise AssertionError("built or evolved a state")

    monkeypatch.setattr(pnes.propagator, "evolve", refuse)
    monkeypatch.setattr(pnes.states, "coherent", refuse)
    record = refused(tmp_path, capsys, command, text + f"pair_dim = {pair_dim}\n")
    assert record == {"error": "ValidationError",
                      "message": f"pair_dim must be >= 1, got {pair_dim}"}


@pytest.mark.parametrize("command, text", [
    ("evolve-exact", EVOLVE_EXACT_CFG.replace("chi = 0.05", "chi = -1")),
    ("compare", COMPARE_CFG.replace("chi = 0.01", "chi = -1")),
], ids=["evolve-exact", "compare"])
def test_bad_coupling_rejected_before_building_a_state(tmp_path, capsys, monkeypatch,
                                                       command, text):
    def refuse(*args, **kwargs):
        raise AssertionError("built the initial state")

    monkeypatch.setattr(pnes.cli, "_build_exact_state", refuse)
    cfg = write_cfg(tmp_path / "c.cfg", text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record == {"error": "ValidationError", "message": "chi must be finite and >= 0, got -1.0"}


def refused(tmp_path, capsys, command, text):
    """The one JSON record of a run that must exit 1 and write no file."""
    cfg, out = write_cfg(tmp_path / "c.cfg", text), tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert not out.exists()
    return json.loads(line)


@pytest.mark.parametrize("command, text, code, error, match", [
    ("evolve-model", "profile = constant\namplitude = 1\nchi = 1\nt_start = -1\nt_stop = 1e12\n"
                     "n_points = 3\n",
     1, "ValidationError", "so it needs 2e+14 RK4 substeps, more than 100000: add grid points"),
    ("compare", "alpha = 2\nchi = 0.05\nt_stop = 1e12\ndt = 1e11\npair_dim = 12\n",
     2, "NumericalError", "the closed form overflows float64 at |tau| = 100000000000.0"),
], ids=["evolve-model", "compare"])
def test_coarse_model_grid_refused_before_integrating(tmp_path, capsys, monkeypatch,
                                                      command, text, code, error, match):
    # evolve-model: 400 dtau = 2e14 RK4 substeps in one interval, which would never return;
    # compare reads the closed form, which overflows at tau = chi alpha t = 1e11
    def refuse(*args, **kwargs):
        raise AssertionError("the model was integrated")

    monkeypatch.setattr(pnes.meanfield, "_rk4_pass", refuse)
    cfg, out = write_cfg(tmp_path / "c.cfg", text), tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == code
    (line,) = capsys.readouterr().err.splitlines()
    assert not out.exists()
    record = json.loads(line)
    assert record["error"] == error
    assert match in record["message"]


def test_compare_refuses_an_overflowing_model_before_the_exact_run(tmp_path, capsys,
                                                                   monkeypatch):
    # tau = chi alpha t_stop = 500: the closed form overflows, so the blocks of the
    # (170, 170) box are never decomposed
    def refuse(*args, **kwargs):
        raise AssertionError("the exact run started")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    text = "alpha = 10\nchi = 0.05\nt_stop = 1000\ndt = 10\nd0 = 170\npair_dim = 170\n"
    cfg, out = write_cfg(tmp_path / "c.cfg", text), tmp_path / "out.csv"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert not out.exists()
    assert json.loads(line) == {"error": "NumericalError",
                                "message": "the closed form overflows float64 at |tau| = 500.0"}


PHASES = "conservative bound on the recorded times and the propagator's phases"
ROWS = "rows, more than the 100000 a run may write"


@pytest.mark.parametrize("command, values, match", [
    ("evolve-exact", "chi = 0.1\ndt = 1e308\nsteps = 3\n", PHASES),
    ("evolve-exact", "chi = 0.1\ndt = 1e200\nsteps = 1\n", PHASES),
    ("evolve-exact", "chi = 1e160\ndt = 0.1\nsteps = 1\n", PHASES),
    ("evolve-exact", "chi = 1e155\ndt = 1e-10\nsteps = 1\n", PHASES),
    ("compare", "chi = 1e155\ndt = 1e-10\nt_stop = 1e-10\n", PHASES),
    # a step count above the float range, and a last time whose phase float64 cannot resolve
    ("evolve-exact", f"chi = 1e-4\ndt = 1e-5\nsteps = {10**312}\nrecord_every = {10**312}\n",
     PHASES),
    ("evolve-exact", f"chi = 0\ndt = 1e-5\nsteps = {10**312}\nrecord_every = {10**312}\n",
     PHASES),
    ("evolve-exact", f"chi = 8e-5\ndt = 1\nsteps = {10**308}\nrecord_every = {10**308}\n",
     PHASES),
    # a tiny dt keeps the span short, but every step is a row
    ("evolve-exact", "chi = 0.1\ndt = 1e-300\nsteps = 100000\n", ROWS),
    ("evolve-exact", f"chi = 0.1\ndt = 1e-300\nsteps = {10**9}\n", ROWS),
], ids=["time-1e308", "leakage-dt-1e200", "leakage-chi-1e160", "leakage-chi-1e155",
        "compare-chi-1e155", "steps-1e312", "steps-1e312-chi-0", "phase-1e308",
        "rows-1e5", "rows-1e9"])
def test_overflowing_times_or_leakage_refused_before_building_a_state(tmp_path, capsys,
                                                                      monkeypatch, command,
                                                                      values, match):
    def refuse(*args, **kwargs):
        raise AssertionError("built the initial state")

    monkeypatch.setattr(pnes.cli, "_build_exact_state", refuse)
    record = refused(tmp_path, capsys, command, "alpha = 1\npair_dim = 4\n" + values)
    assert record["error"] == "ValidationError"
    assert match in record["message"]


def _report_stub(family, param, chi, alpha):
    return pnes.DispersionReport(family, param, chi, alpha, *[0.0] * 7, False)


def _floats(n):
    return ", ".join(str(k) for k in range(n))


@pytest.mark.parametrize("command, text, rows", [
    ("scan", f"family = twb\nparams = 0.5\nchi_values = {_floats(316)}\n"
             f"alpha_values = {_floats(317)}\n", 100172),
    ("dispersion", f"family = twb\nparams = {_floats(100001)}\nchi = 0.1\nalpha = 1\n", 100001),
], ids=["scan", "dispersion"])
def test_too_many_points_refused_before_evaluating_one(tmp_path, capsys, monkeypatch,
                                                       command, text, rows):
    def refuse(*args, **kwargs):
        raise AssertionError("evaluated a point")

    monkeypatch.setattr(pnes.dispersion, "build_report", refuse)
    record = refused(tmp_path, capsys, command, text)
    assert record["error"] == "ValidationError"
    assert f"would write {rows} {ROWS}" in record["message"]


@pytest.mark.parametrize("command, text", [
    ("scan", f"family = twb\nparams = 0.5\nchi_values = {_floats(250)}\n"
             f"alpha_values = {_floats(400)}\n"),
    ("dispersion", f"family = twb\nparams = {_floats(100000)}\nchi = 0.1\nalpha = 1\n"),
], ids=["scan", "dispersion"])
def test_cap_many_points_accepted(tmp_path, monkeypatch, command, text):
    monkeypatch.setattr(pnes.dispersion, "build_report", _report_stub)
    cfg, out = write_cfg(tmp_path / "c.cfg", text), tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    assert len(read_csv(out)[2]) == 100000


class TestExitCodes:
    def test_validation_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", "nonsense = 1\n")
        assert main(["dispersion", "--config", cfg]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ValidationError"

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["dispersion", "--config", str(tmp_path / "absent.cfg")]) == 1

    def test_missing_config_option(self, capsys):
        assert main(["evolve-exact"]) == 1
        captured = capsys.readouterr()
        record = json.loads(captured.err)
        assert record["error"] == "ValidationError"
        assert "--config" in record["message"]
        assert captured.out == ""

    def test_malformed_workers(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", SCAN_CFG)
        out = tmp_path / "out.csv"
        assert main(["scan", "--config", cfg, "--out", str(out), "--workers", "two"]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ValidationError"
        assert "--workers" in record["message"] and "two" in record["message"]
        assert not out.exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "evolve-exact" in capsys.readouterr().out
