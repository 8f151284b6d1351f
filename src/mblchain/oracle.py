"""Brute-force many-body engine on the full 2^n tensor-product space.

Everything here is deliberately dense and spectral: build the exact
Hamiltonian matrix, diagonalize it, and compute dynamics, commutators,
energy-window restrictions, correlations, and partial-trace entropies
directly.  Chains are capped at DEFAULT_CAP sites, the largest n with 2^n
<= xxz.DENSE_DIAG_CAP; the free fermion and magnon-sector engines carry
all large-scale work and are validated against this module.

Basis conventions: qubit basis index 1 means a down spin (a particle),
so the local number operator is diag(0, 1).  Site 0 occupies the most
significant position of the tensor product.  Chains indexed over a
symmetric box [-L, L] are mapped to internal indices via offset L.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .disorder import FieldRealization
from .errors import ConfigurationError, NumericalError
from .xxz import DENSE_DIAG_CAP

DEFAULT_CAP = DENSE_DIAG_CAP.bit_length() - 1

ID2 = np.eye(2)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
LOWER = np.array([[0.0, 1.0], [0.0, 0.0]])       # a: removes a particle
RAISE = LOWER.T.copy()                           # a*: creates a particle
NUMBER = RAISE @ LOWER                           # diag(0, 1)

# the four matrix units at a site; the (-,-) unit is the number operator
CORNER_KINDS = {
    "++": np.array([[1.0, 0.0], [0.0, 0.0]]),
    "+-": LOWER,
    "-+": RAISE,
    "--": NUMBER,
}

_KIND_MATRICES = {
    "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z,
    "N": NUMBER, "a": LOWER, "a*": RAISE,
    "aa*": LOWER @ RAISE, "a*a": NUMBER,
    **CORNER_KINDS,
}


def _check_cap(n: int):
    if n > DEFAULT_CAP:
        raise ConfigurationError(f"chain length {n} exceeds dense cap {DEFAULT_CAP}")
    if n < 1:
        raise ConfigurationError("need at least one site")


@dataclass(frozen=True)
class SiteObservable:
    """A 2x2 observable acting at one site, identity elsewhere."""

    matrix: np.ndarray
    site: int

    @classmethod
    def of_kind(cls, kind: str, site: int) -> "SiteObservable":
        try:
            return cls(_KIND_MATRICES[kind], site)
        except KeyError:
            raise ConfigurationError(f"unknown observable kind {kind!r}")

    def embed(self, n: int, offset: int = 0) -> np.ndarray:
        return embed_site(self.matrix, self.site + offset, n)


def embed_site(matrix: np.ndarray, site: int, n: int) -> np.ndarray:
    """I x ... x matrix x ... x I with the 2x2 factor in slot `site`."""
    if not 0 <= site < n:
        raise ConfigurationError(f"site {site} outside chain of {n} sites")
    factors = [ID2] * n
    factors[site] = np.asarray(matrix)
    return reduce(np.kron, factors)


def _bond(a: np.ndarray, b: np.ndarray, j: int, n: int) -> np.ndarray:
    """a at site j times b at site j + 1: the same matrix as the product
    of the two embeddings, built in O(4^n) instead of O(8^n)."""
    return np.kron(np.kron(np.eye(2 ** j), np.kron(a, b)),
                   np.eye(2 ** (n - j - 2)))


@dataclass(frozen=True)
class FullHamiltonian:
    model: str
    matrix: np.ndarray
    field: FieldRealization

    @property
    def n_sites(self) -> int:
        return int(round(np.log2(self.matrix.shape[0])))


def total_number_operator(n: int) -> np.ndarray:
    return sum(embed_site(NUMBER, j, n) for j in range(n))


def build_full(model: str, field_realization: FieldRealization,
               gamma: float = 0.0, coupling: float = 1.0,
               anisotropy: float = 2.0, boundary_weight: float = 0.5) -> FullHamiltonian:
    """Exact spin-chain Hamiltonian of the requested model.

    "xy":    - sum (sX sX + sY sY) - sum w_j sZ_j
    "aniso": - sum ((1+g) sX sX + (1-g) sY sY) - coupling * sum w_j sZ_j
    "ising": (1/4) sum (1 - sZ sZ) + sum w_j N_j
             + (1/2)(N_first + N_last), so that every subset eigenvalue
             equals (number of down-spin clusters, boundary counted on the
             infinite chain) plus the summed field
    "xxz":   sum_j [ (1/4)(1 - sZ sZ) - 1/(4 Delta) (sX sX + sY sY) ]
             + sum w_j N_j + boundary_weight (N_first + N_last),
             sites indexed over [-L, L]
    """
    w = np.asarray(field_realization.values, dtype=float)
    n = w.size
    _check_cap(n)
    dim = 2 ** n
    h = np.zeros((dim, dim))

    if model == "xy":
        for j in range(n - 1):
            h -= _bond(SIGMA_X, SIGMA_X, j, n).real + _bond(SIGMA_Y, SIGMA_Y, j, n).real
        for j in range(n):
            h -= w[j] * embed_site(SIGMA_Z, j, n)
    elif model == "aniso":
        for j in range(n - 1):
            h -= ((1 + gamma) * _bond(SIGMA_X, SIGMA_X, j, n).real
                  + (1 - gamma) * _bond(SIGMA_Y, SIGMA_Y, j, n).real)
        for j in range(n):
            h -= coupling * w[j] * embed_site(SIGMA_Z, j, n)
    elif model == "ising":
        if np.any(w < 0):
            raise ConfigurationError("Ising model requires a nonnegative field")
        eye = np.eye(dim)
        for j in range(n - 1):
            h += 0.25 * (eye - _bond(SIGMA_Z, SIGMA_Z, j, n).real)
        for j in range(n):
            h += w[j] * embed_site(NUMBER, j, n)
        h += 0.5 * (embed_site(NUMBER, 0, n) + embed_site(NUMBER, n - 1, n))
    elif model == "xxz":
        if anisotropy <= 1:
            raise ConfigurationError("Ising phase requires anisotropy > 1")
        if boundary_weight < 0.5 * (1 - 1 / anisotropy) - 1e-15:
            raise ConfigurationError(
                "droplet boundary weight must be >= (1 - 1/Delta)/2")
        if np.any(w < 0):
            raise ConfigurationError("XXZ requires a nonnegative field")
        if n % 2 == 0:
            raise ConfigurationError("XXZ box [-L, L] has an odd site count")
        eye = np.eye(dim)
        for j in range(n - 1):
            h += 0.25 * (eye - _bond(SIGMA_Z, SIGMA_Z, j, n).real)
            h -= (_bond(SIGMA_X, SIGMA_X, j, n).real
                  + _bond(SIGMA_Y, SIGMA_Y, j, n).real) / (4 * anisotropy)
        for j in range(n):
            h += w[j] * embed_site(NUMBER, j, n)
        h += boundary_weight * (embed_site(NUMBER, 0, n)
                                + embed_site(NUMBER, n - 1, n))
    else:
        raise ConfigurationError(f"unknown model {model!r}")

    if np.abs(h - h.conj().T).max() > 1e-12:
        raise NumericalError("assembled Hamiltonian is not Hermitian")
    return FullHamiltonian(model, h, field_realization)


def jordan_wigner_modes(n: int) -> list[np.ndarray]:
    """c_1 = a_1, c_j = sZ_1 ... sZ_{j-1} a_j as full 2^n matrices."""
    _check_cap(n)
    modes = []
    string = np.eye(2 ** n)
    for j in range(n):
        modes.append(string @ embed_site(LOWER, j, n))
        string = string @ embed_site(SIGMA_Z, j, n)
    return modes


def car_defect(modes: list[np.ndarray]) -> float:
    """Largest violation of the canonical anticommutation relations."""
    n = len(modes)
    dim = modes[0].shape[0]
    worst = 0.0
    for j in range(n):
        for k in range(j, n):
            acc = modes[j] @ modes[k] + modes[k] @ modes[j]
            worst = max(worst, np.abs(acc).max())
            acc = modes[j] @ modes[k].conj().T + modes[k].conj().T @ modes[j]
            target = np.eye(dim) if j == k else 0.0
            worst = max(worst, np.abs(acc - target).max())
    return float(worst)


# ---------------------------------------------------------------------------
# spectra and dynamics

@dataclass(frozen=True)
class ManyBodyEigenSystem:
    energies: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.energies.size


def diagonalize_full(h: FullHamiltonian) -> ManyBodyEigenSystem:
    try:
        vals, vecs = np.linalg.eigh(h.matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"dense eigensolver failed: {exc}")
    scale = max(np.abs(vals).max(), 1.0)
    residual = np.abs(h.matrix @ vecs - vecs * vals).max()
    if residual > 1e-9 * scale:
        raise NumericalError(f"reconstruction residual {residual:.2e}")
    ortho = np.abs(vecs.conj().T @ vecs - np.eye(vals.size)).max()
    if ortho > 1e-10:
        raise NumericalError(f"orthonormality defect {ortho:.2e}")
    return ManyBodyEigenSystem(vals, vecs)


def window_projector(es: ManyBodyEigenSystem, lower: float,
                     upper: float) -> np.ndarray:
    sel = (es.energies >= lower) & (es.energies <= upper)
    v = es.vectors[:, sel]
    return v @ v.conj().T


def restrict(op: np.ndarray, projector: np.ndarray) -> np.ndarray:
    return projector @ op @ projector


def heisenberg(es: ManyBodyEigenSystem, op: np.ndarray, t: float) -> np.ndarray:
    """tau_t(O) = e^{itH} O e^{-itH} via the spectral decomposition."""
    phases = np.exp(1j * es.energies * t)
    inner = es.vectors.conj().T @ op @ es.vectors
    before = np.linalg.norm(op, 2)
    out = es.vectors @ ((phases[:, None] * inner) * phases.conj()[None, :]) \
        @ es.vectors.conj().T
    after = np.linalg.norm(out, 2)
    if abs(after - before) > 1e-10 * max(before, 1.0):
        raise NumericalError("Heisenberg evolution failed to preserve the norm")
    return out


def _both_norms(op: np.ndarray) -> tuple[float, float]:
    s = np.linalg.svd(op, compute_uv=False)
    return float(s.max(initial=0.0)), float(s.sum())


def commutator_norms(es: ManyBodyEigenSystem, x: np.ndarray, y: np.ndarray,
                     time_grid, window: tuple[float, float] | None = None):
    """Per-t (operator norm, trace norm) of [tau_t(X'), Y'], where the
    primes denote optional both-sided window restriction."""
    if window is not None:
        p = window_projector(es, *window)
        x = restrict(x, p)
        y = restrict(y, p)
    out = []
    for t in np.asarray(time_grid, dtype=float):
        xt = heisenberg(es, x, t)
        out.append(_both_norms(xt @ y - y @ xt))
    return out


def correlation(psi: np.ndarray, x: np.ndarray, y: np.ndarray,
                es: ManyBodyEigenSystem | None = None, t: float = 0.0,
                window: tuple[float, float] | None = None) -> float:
    """|<psi, X'Y' psi> - <psi, X' psi><psi, Y' psi>| with optional window
    restriction of both observables and Heisenberg evolution of X'."""
    if window is not None:
        if es is None:
            raise ConfigurationError("window restriction needs the eigensystem")
        p = window_projector(es, *window)
        x = restrict(x, p)
        y = restrict(y, p)
    if t != 0.0:
        if es is None:
            raise ConfigurationError("time evolution needs the eigensystem")
        x = heisenberg(es, x, t)
    mixed = np.vdot(psi, x @ (y @ psi))
    split = np.vdot(psi, x @ psi) * np.vdot(psi, y @ psi)
    return float(abs(mixed - split))


# ---------------------------------------------------------------------------
# entropies and partial traces

def reduced_density_matrix(psi: np.ndarray, keep_sites, n: int) -> np.ndarray:
    """Partial trace of |psi><psi| onto the given sites (0-based)."""
    keep = sorted(keep_sites)
    rest = [j for j in range(n) if j not in keep]
    tensor = np.asarray(psi).reshape([2] * n)
    tensor = np.transpose(tensor, keep + rest)
    mat = tensor.reshape(2 ** len(keep), 2 ** len(rest))
    return mat @ mat.conj().T


def entropy_of_density_matrix(rho: np.ndarray, base2: bool = False) -> float:
    vals = np.linalg.eigvalsh(rho)
    vals = vals[vals > 1e-14]
    s = float(-(vals * np.log(vals)).sum())
    return s / np.log(2.0) if base2 else s


def reduced_entropy(psi: np.ndarray, ell: int, base2: bool = False) -> float:
    """Von Neumann entropy of the first ell sites of a pure state."""
    n = int(round(np.log2(psi.size)))
    if not 1 <= ell < n:
        raise ConfigurationError(f"cut {ell} must satisfy 1 <= ell < {n}")
    mat = np.asarray(psi).reshape(2 ** ell, 2 ** (n - ell))
    svals = np.linalg.svd(mat, compute_uv=False)
    probs = svals[svals > 1e-14] ** 2
    s = float(-(probs * np.log(probs)).sum())
    return s / np.log(2.0) if base2 else s


def partial_trace_operator(op: np.ndarray, keep_sites, n: int) -> np.ndarray:
    """Partial trace of a 2^n operator over the complement of keep_sites."""
    keep = sorted(keep_sites)
    rest = [j for j in range(n) if j not in keep]
    tensor = np.asarray(op).reshape([2] * (2 * n))
    perm = keep + rest + [n + j for j in keep] + [n + j for j in rest]
    tensor = np.transpose(tensor, perm)
    dk, dr = 2 ** len(keep), 2 ** len(rest)
    tensor = tensor.reshape(dk, dr, dk, dr)
    return np.einsum("arbr->ab", tensor)


def quasi_locality_error(es: ManyBodyEigenSystem, x: SiteObservable, ell: int,
                         time_grid, window: tuple[float, float], n: int,
                         offset: int = 0):
    """Windowed error of the truncated Heisenberg observable.

    The approximant X_ell(t) is the normalized conditional expectation of
    tau_t(X): partial trace over sites farther than ell from the support,
    divided by their dimension, tensored back with the identity.  The
    construction of the approximant is a choice of this code, not forced
    by anything; only the decay of the error in ell is meaningful.
    Returns the per-t operator norms of P (X_ell(t) - tau_t(X)) P.
    """
    center = x.site + offset
    keep = [j for j in range(n) if abs(j - center) <= ell]
    rest_dim = 2 ** (n - len(keep))
    p = window_projector(es, *window)
    full_x = x.embed(n, offset)
    out = []
    for t in np.asarray(time_grid, dtype=float):
        tau = heisenberg(es, full_x, t)
        if rest_dim == 1:
            out.append(0.0)
            continue
        traced = partial_trace_operator(tau, keep, n) / rest_dim
        approx = _lift_to_chain(traced, keep, n)
        out.append(float(np.linalg.norm(restrict(approx - tau, p), 2)))
    return out


def _lift_to_chain(op_a: np.ndarray, keep, n: int) -> np.ndarray:
    """op_a acting on the `keep` sites, identity elsewhere, as a 2^n matrix."""
    keep = sorted(keep)
    rest = [j for j in range(n) if j not in keep]
    dr = 2 ** len(rest)
    big = np.kron(op_a, np.eye(dr))
    # undo the site reordering (keep..., rest...) -> 0..n-1
    order = keep + rest
    inv = np.argsort(order)
    tensor = big.reshape([2] * (2 * n))
    perm = list(inv) + [n + j for j in inv]
    return np.transpose(tensor, perm).reshape(2 ** n, 2 ** n)


# ---------------------------------------------------------------------------
# exactly solvable Ising chain

def ising_exact(field_realization: FieldRealization):
    """Full Ising spectrum by subset enumeration.

    Each subset X of down spins is an eigenstate with energy equal to the
    number of down-spin clusters (boundary edges counted on the infinite
    chain, i.e. |boundary| / 2 per cluster pair) plus the summed field.
    Returns (energies, labels) with labels the subsets as bit masks.
    """
    w = np.asarray(field_realization.values, dtype=float)
    n = w.size
    if n > 24:
        raise ConfigurationError(f"chain length {n} exceeds enumeration cap 24")
    labels = np.arange(2 ** n, dtype=np.uint64)
    # runs of consecutive set bits: popcount(x) - popcount(x & (x >> 1))
    def popcount(v):
        v = v.copy()
        count = np.zeros_like(v, dtype=np.int64)
        while v.any():
            count += (v & 1).astype(np.int64)
            v >>= np.uint64(1)
        return count

    runs = popcount(labels) - popcount(labels & (labels >> np.uint64(1)))
    field_sum = np.zeros(2 ** n)
    for j in range(n):
        bit = (labels >> np.uint64(n - 1 - j)) & np.uint64(1)
        field_sum += w[j] * bit.astype(float)
    return runs.astype(float) + field_sum, labels


def droplet_state(block: tuple[int, int], n: int) -> np.ndarray:
    """Product state with down spins exactly on [block[0], block[1]] (0-based)."""
    lo, hi = block
    if not 0 <= lo <= hi < n:
        raise ConfigurationError("droplet block outside the chain")
    index = 0
    for j in range(n):
        index = 2 * index + (1 if lo <= j <= hi else 0)
    psi = np.zeros(2 ** n)
    psi[index] = 1.0
    return psi


def droplet_superposition_entropy(ell: int, n: int, method: str = "closed",
                                  base2: bool = False) -> float:
    """Entanglement across the cut after site ell of the uniform
    superposition of the ell translates of an ell-site droplet.

    The left and right halves of the distinct translates are pairwise
    orthogonal product states, so the Schmidt spectrum is flat with ell
    values: the entropy is exactly log(ell).  The matrix path verifies
    this by an explicit partial trace.
    """
    if ell < 1 or 2 * ell - 1 > n:
        raise ConfigurationError("need 1 <= ell and 2*ell - 1 <= n")
    if method == "closed":
        s = float(np.log(ell))
        return s / np.log(2.0) if base2 else s
    if method != "matrix":
        raise ConfigurationError(f"unknown method {method!r}")
    _check_cap(n)
    if ell == n:
        raise ConfigurationError("matrix path needs a nontrivial cut")
    psi = np.zeros(2 ** n)
    for j in range(ell):
        psi += droplet_state((j, j + ell - 1), n)
    psi /= np.linalg.norm(psi)
    return reduced_entropy(psi, ell, base2=base2)


# ---------------------------------------------------------------------------
# particle-number structure

def eigenstate_particle_numbers(es: ManyBodyEigenSystem, n: int,
                                tol: float = 1e-9) -> np.ndarray:
    """Total down-spin number of each eigenvector; raises if any vector
    fails to have a sharp particle number (degenerate crossings)."""
    counts = np.zeros(2 ** n)
    labels = np.arange(2 ** n)
    for j in range(n):
        counts += (labels >> (n - 1 - j)) & 1
    weights = np.abs(es.vectors) ** 2
    means = counts @ weights
    spread = (counts[:, None] - means[None, :]) ** 2
    variance = np.einsum("ij,ij->j", spread, weights)
    if variance.max() > tol:
        raise NumericalError(
            f"eigenvector without sharp particle number (var {variance.max():.2e})")
    return np.rint(means).astype(int)


VANISHING_CORRELATION_CASES = (
    ("+-", "+-"), ("-+", "-+"), ("+-", "--"), ("--", "-+"), ("--", "+-"),
)


def corner_observable(kind: str, site: int) -> SiteObservable:
    if kind not in CORNER_KINDS:
        raise ConfigurationError(f"unknown corner kind {kind!r}")
    return SiteObservable(CORNER_KINDS[kind], site)
