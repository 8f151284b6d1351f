"""Exception types shared across the package, its one memory rule and its one
certificate rule.  require_memory refuses (ConfigurationError, CLI exit 2) to
allocate more than MEMORY_BUDGET, half the physical memory, before anything is
allocated.  certify raises NumericalError (exit 3) unless a checked value lies
strictly below its bound, so a NaN on either side fails, and require_simple
raises DegeneracyError unless a spectrum's levels are more than GAP_TOL apart."""

import os

import numpy as np

MEMORY_BUDGET = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2
GAP_TOL = 1e-12


class ConfigurationError(ValueError):
    """Invalid model or experiment parameters."""


class NumericalError(RuntimeError):
    """An eigensolver or linear solver failed to meet its tolerance."""


class DegeneracyError(RuntimeError):
    """An operation requiring a simple spectrum hit (near-)degenerate levels.

    Continuous disorder makes degeneracies a probability-zero event; clean
    chains (constant field) can trigger this deliberately.
    """


def certify(what: str, value: float, bound: float) -> None:
    """Raise NumericalError, naming the check `what`, its value and its bound,
    unless value < bound (a NaN on either side fails)."""
    if not value < bound:
        raise NumericalError(f"{what}={value:.2e}, not below {bound:.2e}")


def require_simple(values: np.ndarray, what: str) -> None:
    """Raise DegeneracyError, naming `what`, unless the ascending values are
    more than GAP_TOL apart (a NaN fails)."""
    gap = np.diff(values).min(initial=np.inf)
    if not gap > GAP_TOL:
        raise DegeneracyError(f"{what} has gap {gap:.2e}, not above {GAP_TOL:.0e}")


def require_memory(nbytes: int, what: str) -> None:
    """Raise ConfigurationError, naming `what`, if allocating nbytes would
    exceed MEMORY_BUDGET."""
    if nbytes > MEMORY_BUDGET:  # an int: 2^n leaves the range of a float at n = 1024
        need = (f"{nbytes / 2 ** 30:.4g} GiB" if nbytes < 2 ** 1000
                else f"2^{nbytes.bit_length() - 1} bytes")
        raise ConfigurationError(f"{what} needs about {need}, above half the physical"
                                 f" memory ({MEMORY_BUDGET / 2 ** 30:.4g} GiB)")


def require_dense(dim: int, what: str | None = None) -> None:
    # a dense eigh holds 5 dim^2 doubles: the matrix, LAPACK's copy, 2 dim^2
    # of syevd workspace and the eigenvectors; xy's dstevd, inside that, the
    # eigenvectors and dim^2 + 4 dim + 1 of workspace
    require_memory(5 * 8 * dim * dim, what or f"dense diagonalization at dim {dim}")
