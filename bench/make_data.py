"""Regenerate the benchmark's stored data.

    python3 bench/make_data.py strata    # c11_strata.json, about 2-3 minutes
    python3 bench/make_data.py digests   # digests.json, default seed

strata runs the whole C11 sweep (gen seed 2024, u seed 2025, 500 trials x 4
deltas) once and stores the total solver rounds of each (trial, delta) op;
mc_c11 stratifies its sampling on these counts. digests stores the digest of
each workload's counted window for the default seed and run length, against
which every run prints digest_match.
"""

from __future__ import annotations

import json
import sys

import run

run.add_package_path()

from rategame import experiment  # noqa: E402
from rategame.experiment import ChannelGenSpec, UncertaintySpec  # noqa: E402
from rategame.solver import Schedule  # noqa: E402

import workloads  # noqa: E402

C11 = dict(Q=3, N=16, gen_seed=2024, u_seed=2025, trials=500,
           deltas=[0.0, 0.2, 0.4, 0.6])


def make_strata():
    gen = ChannelGenSpec(Q=C11["Q"], N=C11["N"], seed=C11["gen_seed"])
    cfg = experiment.default_game_config(C11["Q"], C11["N"])
    rounds = []
    for trial in range(C11["trials"]):
        for delta in C11["deltas"]:
            records = experiment.run_single_trial(
                gen, UncertaintySpec(delta=delta, seed=C11["u_seed"]), cfg,
                Schedule(kind="gauss_seidel"), workloads.OPTS, trial)
            rounds.append(sum(r.iterations for r in records))
    workloads.STRATA_FILE.write_text(json.dumps(dict(C11, rounds=rounds)) + "\n")


def make_digests():
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        with cls(run.DEFAULT_SEED, seconds) as wl:
            digest = run.window_digest(wl)
        out[name] = dict(seed=run.DEFAULT_SEED, window=wl.window, sha256=digest)
    run.DIGEST_FILE.write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    {"strata": make_strata, "digests": make_digests}[sys.argv[1]]()
