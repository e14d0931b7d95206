"""Regenerate perfbench/reference.json, the final observables of the trajectory workload.

Run from the repository root:

    python3 perfbench/make_reference.py

For every twb parameter a seed may pick, the trajectory config is evolved
with RK4 at a quarter of its step (dt/4, 4x the steps), which puts the
integrator error about 256 times below that of the benchmark's own run.
The committed file is the oracle of workloads._check_trajectory; regenerate
it only when the physics of the workload changes, never to make a check pass.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from pnes.cli import _build_exact_state, read_config_file, validate_config  # noqa: E402
from pnes.fock import HamiltonianParams  # noqa: E402
from pnes.propagator import EvolutionSpec, evolve  # noqa: E402

PARAMS = [f"{0.40 + 0.02 * k:.2f}" for k in range(11)]
REFINE = 4
COLUMNS = ("re_pair_amp", "total_n", "pump_quad", "disp_plus", "disp_minus", "conserved_k")


def final_observables(raw):
    cfg = validate_config("evolve-exact", raw)
    steps = cfg["steps"] * REFINE
    spec = EvolutionSpec(HamiltonianParams(cfg["chi"]), dt=cfg["dt"] / REFINE,
                         steps=steps, record_every=steps)
    o = evolve(_build_exact_state(cfg), spec).observables[-1]
    values = (o.pair_amp.real, o.total_n, o.pump_quad, o.disp_plus, o.disp_minus, o.conserved_k)
    return dict(zip(COLUMNS, (float(v) for v in values)))


def main():
    base = read_config_file(BENCH / "configs" / "trajectory.cfg")
    final = {}
    for param in PARAMS:
        final[param] = final_observables(dict(base, param=param))
        print(param, final[param], flush=True)
    doc = {
        "about": f"final observables of configs/trajectory.cfg per twb param, RK4 at dt/{REFINE}",
        "final": final,
    }
    (BENCH / "reference.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
