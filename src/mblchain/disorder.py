"""Disorder distributions and seeded sampling of random field realizations.

A field realization is the plain float64 vector (w_j) of on-site energies
for one sample of the disorder; every engine takes it as is.  Sampling is
a pure function of (spec, length, seed plan, realization index): ensembles
can be evaluated in any order, in parallel, and always reproduce
bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.random  # lazy in numpy; loaded here, not in the first draw

from .errors import ConfigurationError

KINDS = ("uniform", "constant")


@dataclass(frozen=True)
class DisorderSpec:
    """Single-site disorder distribution, scaled by a coupling constant.

    kind:
        "uniform"  -- uniform density on [support_min, support_max]
        "constant" -- deterministic field, value support_min
    coupling:
        nonnegative multiplier applied to every sampled value.
    """

    kind: str = "uniform"
    support_min: float = 0.0
    support_max: float = 1.0
    coupling: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown disorder kind {self.kind!r}")
        if self.coupling < 0:
            raise ConfigurationError("coupling must be nonnegative")
        lo, hi, c = float(self.support_min), float(self.support_max), float(self.coupling)
        if not np.isfinite([c * lo, c * hi, hi - lo]).all():  # Python floats: no warning
            raise ConfigurationError(f"disorder support [{lo}, {hi}] times {c} overflows")
        if self.kind == "constant":
            if self.support_max != self.support_min:
                raise ConfigurationError(
                    "constant disorder requires support_min == support_max")
        else:
            if not self.support_max > self.support_min:
                raise ConfigurationError("empty support")

    def require_nonnegative(self):
        """Raise unless the scaled support is contained in [0, inf)."""
        if self.support_min < 0:
            raise ConfigurationError(
                "this model requires a nonnegative random field")


@dataclass(frozen=True)
class SeedPlan:
    """Derivation of independent streams from one base seed.

    Stream seeds come from numpy's splittable SeedSequence: the stream for
    realization ``index`` is SeedSequence(base_seed, spawn_key=(index,)).
    Distinct indices give distinct streams with no shared state, so
    realizations can be sampled in any order.
    """

    base_seed: int

    def __post_init__(self):
        if self.base_seed < 0:  # SeedSequence takes nonnegative entropy only
            raise ConfigurationError(f"seed {self.base_seed} is negative")

    def stream_seed(self, index: int, tag: int = 0) -> int:
        """Seed of the stream for one realization.  tag 0 is the field
        stream; other tags give further independent streams for the same
        realization (pattern sampling, probe placement, ...)."""
        if index < 0:
            raise ConfigurationError("realization index must be nonnegative")
        seq = np.random.SeedSequence(self.base_seed, spawn_key=(index, tag))
        return int(seq.generate_state(1, np.uint64)[0])

    def generator(self, index: int, tag: int = 0) -> np.random.Generator:
        return np.random.Generator(
            np.random.Philox(key=self.stream_seed(index, tag)))


def constant_field(value: float, length: int) -> np.ndarray:
    """Deterministic field w_j = value, outside any seed plan."""
    return np.full(length, float(value))


def sample_field(spec: DisorderSpec, length: int, plan: SeedPlan,
                 index: int) -> np.ndarray:
    """Sample one field realization; pure in (spec, length, plan, index)."""
    if length < 1:
        raise ConfigurationError("length must be >= 1")
    rng = plan.generator(index)
    if spec.kind == "constant":
        values = np.full(length, spec.support_min)
    else:
        values = rng.uniform(spec.support_min, spec.support_max, size=length)
    return np.asarray(spec.coupling * values, dtype=float)
