"""The benchmark's workloads and the inputs it generates for them.

Each workload derives from a bundled config. A run executes it as a
sequence of ``multiport run`` calls ("chunks"), each on its own
realizations: chunk 0 uses the workload seed itself, later chunks a seed
derived from (seed, chunk). Covering many realizations per run keeps the
run-to-run spread low on workloads whose cost varies per realization.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    """Bundled run config, relative to the repository root."""
    realizations: int
    """Realizations per ``multiport run`` call."""
    imported: bool
    """Read the coupling from a generated CSV instead of drawing it."""
    dominant: tuple[str, ...]
    """Layers or functions predicted to hold most of the traced time."""
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="su_miso_n33",
            config="configs/su_miso_n33_d04.json",
            realizations=200,
            imported=False,
            dominant=("channel_model",),
            why="closed-form single-user strategies: channel construction and CSV output dominate",
        ),
        Workload(
            name="su_mimo_n33_m9_import",
            config="configs/su_mimo_n33_m9.json",
            realizations=50,
            imported=True,
            dominant=("strategies",),
            why="coupling read from a generated CSV; per-power eigh/svd and water-filling dominate",
        ),
        Workload(
            name="mu_miso_n33_k2",
            config="configs/mu_miso_n33_k2.json",
            realizations=2,
            imported=False,
            dominant=("strategies.mac_sum_capacity",),
            why="two users, five strategies: the iterative MAC sum-capacity solver dominates",
        ),
    )
}


def content_cycle(workload: Workload) -> int:
    """Distinct chunk contents before they repeat; 0 for no repeats.

    Writing a coupling CSV costs about 40% of the call that reads it, so
    an imported workload reuses three files to keep that untimed work
    small.
    """
    return 3 if workload.imported else 0


def load_run_config(root: str, workload: Workload) -> dict:
    with open(os.path.join(root, workload.config)) as fh:
        return json.load(fh)


def chunk_seed(seed: int, chunk: int) -> int:
    if chunk == 0:
        return seed
    return int(np.random.SeedSequence([seed, chunk]).generate_state(1)[0])


def write_chunk(
    mp,
    workload: Workload,
    base: dict,
    seed: int,
    chunk: int,
    n_realizations: int,
    work_dir: str,
) -> str:
    """Write the run config of one chunk (and its coupling CSV); return its path.

    ``mp`` is the imported ``multiport`` package. The coupling CSV holds
    exactly the realizations the Philox path would draw for the same
    seed, so importing it gives the same results.
    """
    data = copy.deepcopy(base)
    data.pop("output_dir", None)
    data["n_workers"] = 1
    scenario = data["scenario"]
    scenario["seed"] = chunk_seed(seed, chunk)
    scenario["n_realizations"] = n_realizations
    if workload.imported:
        config = mp.config_from_dict(scenario)
        std = config.coupling_std_ohm or mp.far_field_coupling_std()
        draws = np.stack(
            [
                mp.coupling_realization(
                    config.seed, r, 0, config.n_rx_total, config.n_tx, std
                )
                for r in range(n_realizations)
            ]
        )
        coupling_path = os.path.join(work_dir, f"coupling_{chunk}.csv")
        mp.write_coupling_file(coupling_path, draws)
        scenario["coupling_file"] = coupling_path
    path = os.path.join(work_dir, f"chunk_{chunk}.json")
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path
