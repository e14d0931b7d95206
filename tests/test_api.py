"""The public surface: ``pnes.__all__`` and the README's import block."""

import re
from pathlib import Path

import pytest

import pnes
from pnes import (EvolutionSpec, ExactTrajectory, HamiltonianParams, ObservableSet, PumpProfile,
                  TruncationConfig)
from pnes.errors import ValidationError

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = [
    "DispersionReport",
    "EvolutionSpec",
    "ExactTrajectory",
    "HamiltonianParams",
    "ModelTrajectory",
    "ObservableSet",
    "PumpProfile",
    "PureState",
    "TruncationConfig",
    "analytic_rate",
    "basis_index",
    "build_report",
    "closed_form",
    "closed_form_trajectory",
    "coherent",
    "diagnostic_simple_rate",
    "evolve",
    "exact_rate_fd",
    "integrate_model",
    "measure",
    "model_rate_from_trajectory",
    "pnes",
    "product_state",
    "tau_of_t",
    "tmc",
    "twb",
    "twb_x_from_tau",
]


def test_all_is_pinned_and_resolves():
    assert sorted(pnes.__all__) == PUBLIC
    assert [name for name in PUBLIC if not hasattr(pnes, name)] == []


def test_readme_entry_points_are_public():
    section = README.read_text(encoding="utf-8").split("## Library entry points", 1)[1]
    block = section.split("```python", 1)[1].split("```", 1)[0]
    head, names = re.sub(r"#.*", "", block).split("import", 1)
    assert head.strip() == "from pnes"
    names = re.findall(r"\w+", names)
    assert names
    assert [name for name in names if name not in pnes.__all__] == []


def test_record_types_are_pinned():
    # measure reads the norm and the leakage with the moments; a trajectory keeps
    # only their extremes beside the records
    assert ExactTrajectory._fields == ("times", "observables", "final_state", "norm_drift",
                                       "leakage")
    assert ObservableSet._fields == (
        "pair_amp", "pair_amp_conj", "total_n", "diff_n", "pump_amp", "pump_quad", "c_plus",
        "disp_plus", "disp_minus", "conserved_k", "norm", "leakage",
    )
    assert not hasattr(pnes.PureState, "norm")


def test_truncation_config_has_value_equality_and_hash():
    cfg = TruncationConfig(2, 3, 4)
    assert cfg == TruncationConfig(2, 3, 4)
    assert cfg != TruncationConfig(2, 3, 5)
    assert hash(cfg) == hash(TruncationConfig(d0=2, d1=3, d2=4))
    assert len({cfg, TruncationConfig(2, 3, 4), TruncationConfig(4, 3, 2)}) == 2
    assert (cfg.dim, cfg.shape) == (24, (2, 3, 4))


@pytest.mark.parametrize("value", [
    TruncationConfig(2, 3, 4),
    HamiltonianParams(0.1),
    EvolutionSpec(HamiltonianParams(0.1), dt=0.01, steps=3),
    PumpProfile.gaussian(1.0, 0.0, 0.5),
], ids=["TruncationConfig", "HamiltonianParams", "EvolutionSpec", "PumpProfile"])
def test_frozen_types_reject_assignment(value):
    name = type(value)._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("value, change", [
    (TruncationConfig(2, 3, 4), {"d1": 0}),
    (HamiltonianParams(0.1), {"chi": -1.0}),
    (EvolutionSpec(HamiltonianParams(0.1), dt=0.01, steps=3), {"steps": -1}),
    (PumpProfile.constant(1.0), {"a": float("inf")}),
], ids=["TruncationConfig", "HamiltonianParams", "EvolutionSpec", "PumpProfile"])
def test_replace_runs_the_constructor_checks(value, change):
    with pytest.raises(ValidationError):
        value._replace(**change)


def test_pump_profile_amplitude_is_a_class_attribute():
    # perfbench counts PumpProfile.amplitude calls by replacing this entry
    assert "amplitude" in PumpProfile.__dict__
