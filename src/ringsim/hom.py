"""Two-photon interference at the add/drop ring with internal loss.

One photon enters each bus (inputs a and b).  Writing the input creation
operators in terms of the output pair (c, d) and the collective noise
operators (F_c, F_d) splits the output state into three sectors: both
photons in the buses, one photon lost, both photons lost.  This module
builds that sectored state from the inverse-conjugate transfer matrix
(`add_drop.inverse_conjugate`), reduces it to per-sector density matrices,
and exposes the two coincidence figures used to map the interference dip:

* `coincidence_ratio` — the closed ratio |Perm|^2/|det|^2 of the transfer
  matrix.  It is 1 at zero coupling, 0 on the destructive-interference
  manifold, and coincides with the coincidence probability when the ring
  is lossless; under loss it is a ratio of rates, not a probability, and
  can exceed 1.
* `coincidence_probability` — the probability of a coincidence count
  conditioned on both photons reaching the buses, valid for any loss.

Both vanish on the same manifold Perm = 0, so either can be used to chart
where the generalized two-photon dip survives loss (`hom_region`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import add_drop
from .core import UnitarityError

__all__ = [
    "HomRegion",
    "SectorDensity",
    "TwoPhotonOutputState",
    "coincidence_probability",
    "coincidence_ratio",
    "coincidence_ratio_grid",
    "entropy_grid",
    "entropy_one_photon",
    "hom_region",
    "joint_coincidence",
    "output_state",
    "reduce_density",
    "sector_normalizer",
]

#: Sectors with normalized weight at or below this have no meaningful
#: reduced density matrix.
P1_THRESHOLD = 1e-12
#: Eigenvalues of a reduced density matrix may undershoot 0 by at most this.
_EIG_SLACK = 1e-10


@dataclass(frozen=True)
class TwoPhotonOutputState:
    """Sectored two-photon output of the add/drop ring for inputs a†b†|0>.

    Attributes
    ----------
    two_photon : (3,) complex ndarray
        Amplitudes on (|2,0>, |1,1>, |0,2>) in the (c, d) output modes:
        (sqrt(2) G11 G21, Perm G, sqrt(2) G12 G22) for G the
        inverse-conjugate transfer matrix.
    branch_c, branch_d : (2,) complex ndarray
        One-photon amplitudes on (c, d) multiplying the noise excitations
        F_c†|0> and F_d†|0> respectively.
    env_pair : (2, 2) complex ndarray
        Symmetric table E with the both-photons-lost component
        sum_ij E[i, j] F_i† F_j† |0>.
    """

    two_photon: np.ndarray
    branch_c: np.ndarray
    branch_d: np.ndarray
    env_pair: np.ndarray


def output_state(minv: np.ndarray) -> TwoPhotonOutputState:
    """Sectored output state from the inverse-conjugate transfer matrix.

    ``minv`` is G = conj(M^{-1}) as returned by
    `add_drop.inverse_conjugate`; its rows express the input creation
    operators through output and noise creation operators,
    a† = G11(c† - F_c†) + G12(d† - F_d†) and likewise b† with row 2.
    Expanding a†b†|0> and collecting terms by noise content gives the
    three sectors.
    """
    g = np.asarray(minv, dtype=complex)
    if g.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {g.shape}")
    perm, pair_c, pair_d = _pairs(*g.ravel())
    return TwoPhotonOutputState(
        two_photon=_amplitudes(perm, pair_c, pair_d),
        branch_c=np.array([-2.0 * pair_c, -perm]),
        branch_d=np.array([-perm, -2.0 * pair_d]),
        env_pair=np.array([[pair_c, perm / 2.0], [perm / 2.0, pair_d]]),
    )


def _pairs(g00, g01, g10, g11):
    """(Perm G, G00 G10, G01 G11): the products of G that weight every term
    of a† b† in (c†, d†, F_c†, F_d†).  Broadcasts over array entries."""
    return g00 * g11 + g01 * g10, g00 * g10, g01 * g11


def _amplitudes(perm, pair_c, pair_d):
    """Two-photon amplitudes on (|2,0>, |1,1>, |0,2>), stacked on a last axis."""
    root2 = math.sqrt(2.0)
    return np.stack(np.broadcast_arrays(root2 * pair_c, perm, root2 * pair_d), axis=-1)


def _sectors(perm, pair_c, pair_d, c):
    """Raw sector norms and the unnormalized one-photon matrix.

    ``c`` is the commutator matrix C, rows ((C00, C01), (C10, C11)).
    Returns ``(p2, p1, p0, r00, r11, r01)``: the two-, one- and zero-photon
    norms before normalization and the entries of
    rho1 = sum_ij conj(C_ij) B_i B_j† over the branches B_c, B_d.
    Broadcasts over array entries; never raises, so NaN passes through.
    """
    (c00, c01), (c10, c11) = c
    branches = ((-2.0 * pair_c, -perm), (-perm, -2.0 * pair_d))
    r00 = r11 = r01 = 0j
    for i in range(2):
        for j in range(2):
            w = np.conj(c[i][j])
            r00 = r00 + w * branches[i][0] * np.conj(branches[j][0])
            r11 = r11 + w * branches[i][1] * np.conj(branches[j][1])
            r01 = r01 + w * branches[i][0] * np.conj(branches[j][1])
    p2 = 2.0 * np.abs(pair_c) ** 2 + np.abs(perm) ** 2 + 2.0 * np.abs(pair_d) ** 2
    # Wick pairing over E = [[pair_c, perm/2], [perm/2, pair_d]]: p0 = 2 Re sum
    # conj(E) * X, X = C E C^T; X is symmetric, so X01 and X10 join under perm.
    half = perm / 2.0
    ce00, ce01 = c00 * pair_c + c01 * half, c00 * half + c01 * pair_d
    ce10, ce11 = c10 * pair_c + c11 * half, c10 * half + c11 * pair_d
    p0 = 2.0 * (
        np.conj(pair_c) * (ce00 * c00 + ce01 * c01)
        + np.conj(perm) * (ce00 * c10 + ce01 * c11)
        + np.conj(pair_d) * (ce10 * c10 + ce11 * c11)
    ).real
    return p2, r00.real + r11.real, p0, r00, r11, r01


@dataclass(frozen=True)
class SectorDensity:
    """Per-sector weights and reduced density matrices of the output state.

    ``p2 + p1 + p0 == 1``; the raw sector norms are divided by their total,
    which `sector_normalizer` reproduces in closed form from the transfer
    matrix.  ``rho2`` is the pure two-photon matrix on
    (|2,0>, |1,1>, |0,2>); ``rho1`` is the one-photon matrix on (c, d), or
    ``None`` when the one-photon weight is below ``P1_THRESHOLD`` (then no
    single photon ever survives and the matrix is undefined); the zero-
    photon sector is the vacuum, so only its weight ``p0`` is reported.
    """

    p2: float
    p1: float
    p0: float
    rho2: np.ndarray
    rho1: np.ndarray | None
    normalizer: float


def reduce_density(state: TwoPhotonOutputState, comms: np.ndarray) -> SectorDensity:
    """Trace the noise modes out of each sector of the output state.

    ``comms`` is the noise-commutator matrix C from
    `add_drop.noise_commutators`; it fixes every overlap of noise
    excitations via <0|F_i F_j†|0> = C[i, j] and, through Wick pairings,
    the norm of the two-noise sector.

    Raises
    ------
    UnitarityError
        If any sector weight comes out below -1e-10 (inconsistent C) .
    """
    c = np.asarray(comms, dtype=complex)
    if c.shape != (2, 2):
        raise ValueError(f"expected a 2x2 commutator matrix, got shape {c.shape}")
    # the pair table E = [[pair_c, perm/2], [perm/2, pair_d]] holds all three
    e = state.env_pair
    p2_raw, p1_raw, p0_raw, r00, r11, r01 = _sectors(2.0 * e[0, 1], e[0, 0], e[1, 1], c)
    p2, p1, p0, total = (float(w) for w in _weights(p2_raw, p1_raw, p0_raw))
    rho2, rho1 = _densities(state.two_photon, p2_raw, r00, r11, r01, p1_raw)
    return SectorDensity(
        p2=p2,
        p1=p1,
        p0=p0,
        rho2=rho2,
        rho1=rho1 if p1 > P1_THRESHOLD else None,
        normalizer=total,
    )


def _weights(p2_raw, p1_raw, p0_raw):
    """``(p2, p1, p0, total)``: the sector norms over their total, broadcast.

    Raises `UnitarityError` where the total is not positive or a weight is
    below -1e-10, as `reduce_density` does; NaN passes through.
    """
    total = np.asarray(p2_raw + p1_raw + p0_raw)
    if np.any(total <= 0):
        raise UnitarityError(
            f"sector norms sum to {float(total[total <= 0].flat[0])!r}; state is empty"
        )
    weights = tuple(np.asarray(raw / total) for raw in (p2_raw, p1_raw, p0_raw))
    for name, value in zip(("p2", "p1", "p0"), weights):
        negative = value < -_EIG_SLACK
        if np.any(negative):
            raise UnitarityError(
                f"sector weight {name} = {float(value[negative].flat[0])!r} is negative; "
                "commutator matrix is inconsistent with the state"
            )
    return (*weights, total)


def _densities(amps, p2_raw, r00, r11, r01, p1_raw):
    """``(rho2, rho1)``: (..., 3, 3) and (..., 2, 2) stacks of the two- and
    one-photon matrices, each over its raw sector norm.  Broadcasts; a zero
    norm gives inf or NaN entries, no error."""
    rho1 = np.stack(np.broadcast_arrays(r00, r01, np.conj(r01), r11), axis=-1)
    rho1 = rho1.reshape(rho1.shape[:-1] + (2, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        rho2 = amps[..., :, None] * np.conj(amps[..., None, :])
        return (
            rho2 / np.asarray(p2_raw)[..., None, None],
            rho1 / np.asarray(p1_raw)[..., None, None],
        )


def sector_normalizer(matrix: np.ndarray) -> float:
    """Closed form of the total sector norm: Perm(2 (M M†)^{-1} - I).

    Independent cross-check for ``SectorDensity.normalizer``: it involves
    only the forward transfer matrix M, not the sectored state.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    return float(_sector_normalizer(m))


def _sector_normalizer(m):
    """`sector_normalizer` over a (..., 2, 2) stack of transfer matrices."""
    w = 2.0 * np.linalg.inv(m @ np.conj(m).swapaxes(-1, -2)) - np.eye(2)
    return (w[..., 0, 0] * w[..., 1, 1] + w[..., 0, 1] * w[..., 1, 0]).real


def coincidence_ratio(matrix: np.ndarray) -> float:
    """Coincidence figure |Perm|^2 / |det|^2 of a 2x2 transfer matrix.

    Invariant under matrix inversion and conjugation, so M and
    conj(M^{-1}) give the same value.  Equals the coincidence probability
    for unitary (lossless) M; under loss it can exceed 1 and only its
    zero set (Perm = 0) retains the dip interpretation.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    return float(_coincidence_ratio(m))


def _coincidence_ratio(m):
    """`coincidence_ratio` over a (..., 2, 2) stack of matrices."""
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    if np.any(det == 0):
        raise ValueError("transfer matrix is singular; ratio undefined")
    perm = m[..., 0, 0] * m[..., 1, 1] + m[..., 0, 1] * m[..., 1, 0]
    return np.abs(perm) ** 2 / np.abs(det) ** 2


def coincidence_probability(state: TwoPhotonOutputState) -> float:
    """Probability of a c-d coincidence given both photons exit the buses.

    |<1,1|Psi2>|^2 / <Psi2|Psi2> — exact at any loss level, unlike
    `coincidence_ratio`, but requires the sectored state.
    """
    return float(_coincidence_probability(state.two_photon))


def _coincidence_probability(amps):
    """`coincidence_probability` over a (..., 3) stack of two-photon amplitudes."""
    norm = np.sum(np.abs(amps) ** 2, axis=-1)
    if np.any(norm == 0):
        raise ValueError("two-photon sector is empty")
    return np.abs(amps[..., 1]) ** 2 / norm


def joint_coincidence(state: TwoPhotonOutputState, comms: np.ndarray) -> float:
    """Unconditional coincidence probability p2 * coincidence_probability."""
    density = reduce_density(state, comms)
    return density.p2 * coincidence_probability(state)


def coincidence_ratio_grid(
    tau: np.ndarray, eta: np.ndarray, theta: np.ndarray, alpha: float
) -> np.ndarray:
    """`coincidence_ratio` on broadcast grids of real coupler parameters.

    Evaluates |Perm M|^2/|det M|^2 directly from tau, eta, the round-trip
    phase theta and the survival factor alpha; the common circulation
    denominator cancels.  Points where both Perm and det vanish (e.g.
    tau*eta = alpha exactly on resonance) come out NaN.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    t = np.asarray(tau, dtype=float)
    e = np.asarray(eta, dtype=float)
    if np.any(t < 0) or np.any(t > 1) or np.any(e < 0) or np.any(e > 1):
        raise ValueError("real coupler amplitudes must lie in [0, 1]")
    z = alpha * np.exp(1j * np.asarray(theta, dtype=float))
    te = t * e
    # Perm and det of M share the denominator D^2, so only the numerators
    # matter.  The factored forms avoid the cancellation the expanded
    # polynomials suffer near the decoupled corner tau = eta = 1, theta = 0:
    # perm_num = (tau - eta z)(eta - tau z) + kappa^2 gamma^2 z,
    # det_num = (tau eta - z)(1 - tau eta z).
    perm_num = (t - e * z) * (e - t * z) + (1.0 - t * t) * (1.0 - e * e) * z
    det_num = (te - z) * (1.0 - te * z)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs(perm_num) ** 2 / np.abs(det_num) ** 2
    return ratio


@dataclass(frozen=True)
class HomRegion:
    """Grid census of the low-coincidence region at fixed loss.

    ``points`` holds the (tau, eta, theta) triples whose coincidence ratio
    is at or below the threshold, ``values`` the ratio there; ``fraction``
    is count over the *full* grid size (NaN points, where the ratio is
    undefined, never pass).
    """

    points: np.ndarray
    values: np.ndarray
    count: int
    fraction: float
    grid_shape: tuple[int, int, int]
    threshold: float
    alpha: float


def hom_region(
    alpha: float,
    threshold: float = 1e-3,
    tau_count: int = 101,
    eta_count: int = 101,
    theta_count: int = 201,
    tau_range: tuple[float, float] = (0.0, 1.0),
    eta_range: tuple[float, float] = (0.0, 1.0),
    theta_range: tuple[float, float] = (-math.pi, math.pi),
) -> HomRegion:
    """Census of where the two-photon dip survives at survival factor alpha.

    Scans a regular (tau, eta, theta) grid of real couplers and collects
    the points with `coincidence_ratio` <= threshold.  Shrinking fractions
    with decreasing alpha quantify how loss erodes the interference
    manifold.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    for name, count in (
        ("tau_count", tau_count),
        ("eta_count", eta_count),
        ("theta_count", theta_count),
    ):
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count}")
    for name, (lo, hi) in (
        ("tau_range", tau_range),
        ("eta_range", eta_range),
        ("theta_range", theta_range),
    ):
        if not lo <= hi:
            raise ValueError(f"{name} is empty: {lo} > {hi}")
    if not (0.0 <= tau_range[0] and tau_range[1] <= 1.0):
        raise ValueError(f"tau_range must lie in [0, 1], got {tau_range}")
    if not (0.0 <= eta_range[0] and eta_range[1] <= 1.0):
        raise ValueError(f"eta_range must lie in [0, 1], got {eta_range}")

    taus = np.linspace(*tau_range, tau_count)
    etas = np.linspace(*eta_range, eta_count)
    thetas = np.linspace(*theta_range, theta_count)
    ratio = coincidence_ratio_grid(
        taus[:, None, None], etas[None, :, None], thetas[None, None, :], alpha
    )
    mask = ratio <= threshold  # NaN compares False: undefined points excluded
    idx = np.argwhere(mask)
    points = np.column_stack([taus[idx[:, 0]], etas[idx[:, 1]], thetas[idx[:, 2]]])
    return HomRegion(
        points=points,
        values=ratio[mask],
        count=int(mask.sum()),
        fraction=float(mask.sum() / ratio.size),
        grid_shape=(tau_count, eta_count, theta_count),
        threshold=threshold,
        alpha=alpha,
    )


def entropy_one_photon(density: SectorDensity) -> float:
    """Von Neumann entropy (bits) of the one-photon reduced density matrix.

    Ranges over [0, 1] for the two-mode photon: 0 when the surviving
    photon's path is pure, 1 bit when it is maximally mixed with its lost
    partner's which-path record.  Returns NaN when the one-photon sector
    is empty (``rho1 is None``) — that point has no surviving photon to
    ascribe an entropy to.
    """
    if density.rho1 is None:
        return math.nan
    rho = density.rho1
    bits, low = _entropy_bits(rho[0, 0].real, rho[1, 1].real, rho[0, 1])
    if low < -_EIG_SLACK:
        raise UnitarityError(f"density matrix eigenvalue {float(low)!r} < 0")
    return float(bits)


def _entropy_bits(a, d, off):
    """Entropy (bits) of the unit-trace Hermitian [[a, off], [conj(off), d]].

    Returns ``(bits, low)`` with ``low`` the smaller eigenvalue; the larger
    one is at least 1/2.  A ``low`` within ``_EIG_SLACK`` below 0 counts as
    0 and the caller rejects a lower one.  Broadcasts over array entries;
    NaN passes through.
    """
    mean = 0.5 * (a + d)
    half_gap = np.sqrt((0.5 * (a - d)) ** 2 + np.abs(off) ** 2)
    high, low = mean + half_gap, mean - half_gap
    low = np.where((low > -_EIG_SLACK) & (low < 0.0), 0.0, low)
    return -(_xlogx(high) + _xlogx(low)) / math.log(2.0), low


def _xlogx(x):
    """x log x, taken as 0 at x = 0 and NaN below 0 or at NaN.

    Each logarithm is `math.log`, the C library's ``log``; numpy's own
    ``log`` rounds some values differently and would change output bytes.
    """
    x = np.asarray(x, dtype=float)
    out = np.where(x == 0.0, 0.0, math.nan)
    pos = x > 0.0
    vals = x[pos]
    out[pos] = vals * np.fromiter(map(math.log, vals.tolist()), float, vals.size)
    return out


def entropy_grid(
    tau: np.ndarray,
    eta: np.ndarray,
    theta: np.ndarray,
    alpha: float,
    p1_threshold: float = P1_THRESHOLD,
) -> np.ndarray:
    """One-photon entropy (bits) on broadcast grids of real couplers.

    Vectorized equivalent of building the transfer matrix, sectored state
    and reduced one-photon matrix pointwise and applying
    `entropy_one_photon`.  Entries where the normalized one-photon weight
    does not exceed ``p1_threshold`` (e.g. the decoupled tau = eta = 1
    line, or alpha = 1 everywhere) are NaN.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    t = np.asarray(tau, dtype=float)
    e = np.asarray(eta, dtype=float)
    th = np.asarray(theta, dtype=float)
    if np.any(t < 0) or np.any(t > 1) or np.any(e < 0) or np.any(e > 1):
        raise ValueError("real coupler amplitudes must lie in [0, 1]")
    z = alpha * np.exp(1j * th)
    s = math.sqrt(alpha) * np.exp(0.5j * th)
    kap = np.sqrt(1.0 - t * t)
    gam = np.sqrt(1.0 - e * e)
    denom = 1.0 - t * e * z

    with np.errstate(divide="ignore", invalid="ignore"):
        m11 = (t - e * z) / denom
        m12 = m21 = -gam * kap * s / denom
        m22 = (e - t * z) / denom
        # noise commutators I - M M†, entry by entry
        c11 = 1.0 - np.abs(m11) ** 2 - np.abs(m12) ** 2
        c22 = 1.0 - np.abs(m21) ** 2 - np.abs(m22) ** 2
        c12 = -(m11 * np.conj(m21) + m12 * np.conj(m22))
        g = add_drop._inverse_conjugate(m11, m12, m21, m22)
        p2_raw, p1_raw, p0_raw, r00, r11, r01 = _sectors(
            *_pairs(*g), ((c11, c12), (np.conj(c12), c22))
        )
        p1 = p1_raw / (p2_raw + p1_raw + p0_raw)
        bits, low = _entropy_bits(r00.real / p1_raw, r11.real / p1_raw, r01 / p1_raw)
    defined = p1 > p1_threshold
    bad = defined & (low < -_EIG_SLACK)  # NaN compares False
    if np.any(bad):
        raise UnitarityError(
            f"negative one-photon eigenvalue at {int(bad.sum())} grid points"
        )
    return np.where(defined, bits, math.nan)
