import json

import numpy as np
import pytest

from pnes.cli import main, read_config_file, validate_config
from pnes.errors import ValidationError


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


class TestExitCodes:
    def test_validation_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", "nonsense = 1\n")
        assert main(["dispersion", "--config", cfg]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ValidationError"

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["dispersion", "--config", str(tmp_path / "absent.cfg")]) == 1
