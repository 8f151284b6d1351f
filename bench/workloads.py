"""The four benchmark workloads: CLI invocations at acceptance-criterion
parameters, and the sizes that fix how much work one run measures.

Each run executes a fixed number of fresh CLI processes (``invocations``,
scaled by the run length), each one closed-loop ensemble of
``realizations`` realizations run back to back.  The count is derived from
the run length and a nominal per-process cost, never from a measurement,
so every commit measures the same work and the same number of samples.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # CLI subcommand
    args: tuple[str, ...]  # criterion parameters
    tiny_args: tuple[str, ...]  # same path at a size the self-tests afford
    realizations: int     # per CLI process
    nominal_s: float      # rough wall time of one CLI process on a 2-core box
    key_flag: str | None  # option listing the first CSV column's keys
    why: str

    def cli_argv(self, seed: int, out_dir: str) -> list[str]:
        return [self.command, *self.args, "--realizations",
                str(self.realizations), "--seed", str(seed), "--out-dir", out_dir]

    def invocations(self, seconds: float) -> int:
        return max(2, round(seconds / self.nominal_s))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="xy-entropy", command="xy-entropy",
        args=("--chain-length", "400", "--disorder-coupling", "4.0",
              "--block-sizes", "25,50,100,200", "--sup-samples", "200"),
        tiny_args=("--chain-length", "40", "--disorder-coupling", "4.0",
                   "--block-sizes", "5,10,20", "--sup-samples", "20"),
        realizations=4, nominal_s=3.5, key_flag="--block-sizes",
        why="free-fermion path (c05): xy plus 800+ small eigvalsh per"
            " realization, no xxz or oracle"),
    Workload(
        name="xxz-ct", command="xxz-ct",
        args=("--half-length", "12", "--n-particles", "4",
              "--anisotropy", "2.0", "--safety", "0.5"),
        tiny_args=("--half-length", "5", "--n-particles", "2",
                   "--anisotropy", "2.0", "--safety", "0.5"),
        realizations=1, nominal_s=3.7, key_flag=None,
        why="one dim-12650 sector and a sparse factorization per sample"
            " (c08's costliest cell): the resolvent solve"),
    Workload(
        name="quasi-locality", command="quasi-locality",
        args=("--half-length", "5", "--anisotropy", "6.0",
              "--block-sizes", "0,1,2,3,4", "--probe-site", "0",
              "--time-grid", "0.5,5.0,50.0"),
        tiny_args=("--half-length", "3", "--anisotropy", "6.0",
                   "--block-sizes", "0,1,2", "--probe-site", "0",
                   "--time-grid", "0.5,5.0"),
        realizations=4, nominal_s=3.5, key_flag="--block-sizes",
        why="all 11 small xxz sectors (c15): dense eigh, window observables"
            " and partial-trace tables"),
    Workload(
        name="xy-lightcone", command="lr-lightcone",
        args=("--model", "xy", "--chain-length", "10",
              "--disorder-coupling", "4.0", "--distances", "2,4,6,8",
              "--probe-site", "0"),
        tiny_args=("--model", "xy", "--chain-length", "6",
                   "--disorder-coupling", "4.0", "--distances", "2,4",
                   "--probe-site", "0"),
        realizations=1, nominal_s=5.7, key_flag="--distances",
        why="the only oracle workload (c12): 2^10 dense build, eigh and"
            " power-iteration commutators"),
)}


def derive_seed(workload: str, run_seed: int, stream) -> int:
    """Seed of one CLI process (or of the gate) of a run: a pure function
    of the workload, the run's --seed and the stream label."""
    digest = hashlib.sha256(f"{workload}/{run_seed}/{stream}".encode()).digest()
    return int.from_bytes(digest[:4], "big")
