"""The public surface: ``pnes.__all__`` and the README's import block."""

import re
from pathlib import Path

import pnes

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
    "exact_rate",
    "exact_rate_fd",
    "integrate_model",
    "measure",
    "model_rate_from_trajectory",
    "pnes",
    "product_state",
    "rate_of",
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
