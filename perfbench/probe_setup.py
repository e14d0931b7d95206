"""Set-up time of one workload in a fresh interpreter.

    python3 perfbench/probe_setup.py <workload> <config>...

Imports pnes, parses the workload's configs and builds its input the way
the CLI does: the initial state of the trajectory, the pump profile of the
model, and the initial state of every scan point.  Prints the elapsed
seconds, counted from before the import, as its last line.  Needs the
repository's ``src`` on PYTHONPATH; run.py sets it.
"""

import sys
import time

T0 = time.perf_counter()

import pnes.cli as cli  # noqa: E402
from pnes.dispersion import default_truncation  # noqa: E402
from pnes.states import coherent, product_state, tmc, twb  # noqa: E402


def build(workload, paths):
    if workload == "trajectory":
        return [cli._build_exact_state(cli.validate_config("evolve-exact", cli.read_config_file(paths[0])))]
    if workload == "model":
        return [cli._build_profile(cli.validate_config("evolve-model", cli.read_config_file(paths[0])))]
    states = []
    for path in paths:
        cfg = cli.validate_config("scan", cli.read_config_file(path))
        pair = twb if cfg["family"] == "twb" else tmc
        for alpha in cfg["alpha_values"]:
            for param in cfg["params"]:
                trunc = default_truncation(cfg["family"], param, alpha)
                states.append(product_state(coherent(alpha, trunc.d0), pair(param, trunc.d1)))
    return states


if __name__ == "__main__":
    build(sys.argv[1], sys.argv[2:])
    print(time.perf_counter() - T0)
