import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pnes
from pnes.cli import _build_profile, main, read_config_file, validate_config
from pnes.errors import ValidationError
from pnes.meanfield import tau_of_t


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

    def test_unknown_key_is_error(self):
        raw = {"family": "tmc", "params": "1", "chi": "0.1", "alpha": "1", "zz": "9"}
        with pytest.raises(ValidationError, match="zz"):
            validate_config("dispersion", raw)


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
        "profile = constant\namplitude = 0.8\nassume_zero_initial = yes\n",
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
                "n_points = 50\nassume_zero_initial = yes\n")
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

    def test_assume_zero_initial_must_be_boolean(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", EVOLVE_MODEL_CFG + "assume_zero_initial = maybe\n")
        assert main(["evolve-model", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ValidationError"
        assert "assume_zero_initial" in record["message"]


class TestCompare:
    def test_deviation_small_and_zero_at_start(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", COMPARE_CFG)
        out = tmp_path / "out.csv"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        _, columns, rows = read_csv(out)
        j = columns.index("rel_dev_n")
        assert float(rows[0][j]) == 0.0
        assert max(float(r[j]) for r in rows) < 0.01

    def test_fractional_step_count_rejected(self, tmp_path, capsys):
        text = COMPARE_CFG.replace("t_stop = 0.5", "t_stop = 0.505")
        cfg = write_cfg(tmp_path / "c.cfg", text)
        assert main(["compare", "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ValidationError"
        assert "whole number of steps" in record["message"]
        assert not (tmp_path / "out.csv").exists()

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

    def test_serial_without_workers(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("scan started a process pool without --workers")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        cfg = write_cfg(tmp_path / "c.cfg", SCAN_CFG)
        assert main(["scan", "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 0

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


def _loads_numpy_ma(tmp_path, command, cfg_text):
    """Whether a fresh interpreter imports numpy.ma while running one command."""
    cfg = write_cfg(tmp_path / "c.cfg", cfg_text)
    argv = [command, "--config", cfg, "--out", str(tmp_path / "o.csv")]
    code = (f"import sys, pnes.cli; assert pnes.cli.main({argv!r}) == 0; "
            "print('numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(pnes.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60)
    return run.stdout.strip() == "True"


def test_evolve_exact_does_not_load_numpy_ma(tmp_path):
    assert not _loads_numpy_ma(tmp_path, "evolve-exact", EVOLVE_EXACT_CFG)


@pytest.mark.parametrize("command, text", [
    ("evolve-model", "profile = gaussian\namplitude = 1\ncenter = 2\nwidth = 0.7\n"
                     "chi = 0.2\nt_start = -6\nt_stop = 2.5\nn_points = 11\n"),
    ("evolve-model", "profile = sampled\nprofile_times = 0, 1, 3\nprofile_values = 0, 1, 0.5\n"
                     "chi = 0.3\nt_start = 0\nt_stop = 2.5\nn_points = 9\n"),
    ("scan", SCAN_CFG),
], ids=["evolve-model-gaussian", "evolve-model-sampled-kink", "scan"])
def test_does_not_load_numpy_ma(tmp_path, command, text):
    assert not _loads_numpy_ma(tmp_path, command, text)


@pytest.mark.parametrize("command, text", [
    ("evolve-exact", EVOLVE_EXACT_CFG + "d0 = 5000000\n"),
    ("evolve-exact", EVOLVE_EXACT_CFG.replace("alpha = 2", "alpha = 3000")),
    ("compare", COMPARE_CFG + "d0 = 5000000\n"),
], ids=["evolve-exact", "evolve-exact-default-d0", "compare"])
def test_oversized_box_rejected_before_building_the_pump(tmp_path, capsys, monkeypatch,
                                                         command, text):
    def coherent(alpha, d):
        raise AssertionError(f"built a pump of {d} levels")

    monkeypatch.setattr(pnes.cli, "coherent", coherent)
    cfg = write_cfg(tmp_path / "c.cfg", text)
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ValidationError"
    assert "exceeds the supported maximum" in record["message"]
    assert not out.exists()


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
