"""One check per physical input: every door into pnes shows the owning check's message."""

import json
import math

import pytest

from pnes.cli import main
from pnes.dispersion import analytic_rate, build_report, model_rate_from_trajectory
from pnes.errors import ValidationError
from pnes.fock import HamiltonianParams
from pnes.meanfield import PumpProfile, integrate_model, tau_of_t
from pnes.states import check_alpha, check_param

# case -> ((family, param, chi, alpha) with one input invalid, the check that owns it)
CASES = {
    "chi": (("twb", 0.3, -1.0, 1.0), lambda: HamiltonianParams(-1.0)),
    "alpha": (("twb", 0.3, 0.1, math.nan), lambda: check_alpha(math.nan)),
    "twb": (("twb", 1.2, 0.1, 1.0), lambda: check_param("twb", 1.2)),
    "tmc-negative": (("tmc", -1.0, 0.1, 1.0), lambda: check_param("tmc", -1.0)),
    "tmc-351": (("tmc", 351.0, 0.1, 1.0), lambda: check_param("tmc", 351.0)),
}


def _message(call):
    with pytest.raises(ValidationError) as err:
        call()
    return str(err.value)


def _run(tmp_path, capsys, command, text):
    """Exit code, stderr and the data file of one CLI run."""
    cfg, out = tmp_path / f"{command}.cfg", tmp_path / f"{command}.csv"
    cfg.write_text(text, encoding="utf-8")
    code = main([command, "--config", str(cfg), "--out", str(out)])
    return code, capsys.readouterr().err, out


@pytest.mark.parametrize("case", CASES)
def test_every_door_shows_the_owning_checks_message(tmp_path, capsys, case):
    (family, param, chi, alpha), owner = CASES[case]
    want = _message(owner)
    doors = [
        lambda: analytic_rate(family, "exact", param, chi, alpha),
        lambda: model_rate_from_trajectory(family, param, chi, alpha),
        lambda: build_report(family, param, chi, alpha),
    ]
    if case == "chi":
        doors += [
            lambda: tau_of_t(PumpProfile.constant(1.0), chi, 0.5),
            lambda: integrate_model(PumpProfile.rectangular(1.0, 2.0), chi, [-1.0, 1.0]),
        ]
    assert [_message(door) for door in doors] == [want] * len(doors)

    for command, text in (
        ("evolve-exact", f"family = {family}\nparam = {param!r}\nalpha = {alpha!r}\n"
                         f"chi = {chi!r}\npair_dim = 14\ndt = 0.05\nsteps = 10\n"),
        ("dispersion", f"family = {family}\nparams = {param!r}\nchi = {chi!r}\nalpha = {alpha!r}\n"),
    ):
        code, err, out = _run(tmp_path, capsys, command, text)
        assert code == 1 and not out.exists()
        assert json.loads(err) == {"error": "ValidationError", "message": want}

    code, err, out = _run(tmp_path, capsys, "scan", f"family = {family}\nparams = {param!r}\n"
                          f"chi_values = {chi!r}\nalpha_values = {alpha!r}\n")
    assert (code, err) == (3, "")
    row = out.read_text(encoding="utf-8").splitlines()[-1]
    assert row.split(",")[-1] == f"ValidationError: {want}".replace(",", ";")
