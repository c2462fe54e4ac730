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
import os
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import add_drop
from .core import UnitarityError, _as_2x2, _check_alpha, _elementwise, _real_couplers

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
    "output_state",
    "reduce_density",
    "sector_normalizer",
]

#: Sectors with normalized weight at or below this have no meaningful
#: reduced density matrix.
P1_THRESHOLD = 1e-12
#: Eigenvalues of a reduced density matrix may undershoot 0 by at most this.
_EIG_SLACK = 1e-10
#: Most points, or axis values, in one chunk of any sweep.  Fixed, so the
#: chunks never depend on the worker count.  It also pins output bytes:
#: `entropy_grid` writes its ``c12`` products with the operand order of
#: the call's size (see `_ELIDE`), and numpy's complex multiply is not
#: bitwise commutative; at 16384 points 67,376 of the 450,241 cells of a
#: 61x61x121 entropy grid change in the last digit.  So a longer theta axis
#: is cut into even slices, each of at least 32,768 points, which stay on
#: the whole axis's side of that size.
_CHUNK = 65536
#: Chunks a pooled grid walk keeps in flight, per worker: enough to keep
#: every worker busy while the caller consumes a chunk.  Each worker process
#: evaluates a chunk in `_TILE`-point tiles (about 2 MB of kernel arrays,
#: reused through the heap) and sends back its rendered text.
_WINDOW = 2
#: Most points in one tile of a grid kernel or census batch, unless one row
#: is longer.  A tile's complex temporaries then take 64 KiB each, under
#: glibc's 128 KiB mmap threshold, so they are recycled through the heap,
#: not fresh pages.
_TILE = 4096
#: Fewest complex points (256 KiB) at which numpy's temporary elision
#: computes ``a * conj(b)`` in place as ``conj(b) * a``.  The output bytes
#: of `entropy_grid` were fixed with that order on calls of at least this
#: size and with the written one below it.  `_grid_state` writes out the
#: order of the call's size, so no numpy build or tiling can move them.
_ELIDE = 16384
#: Slack of the census window (`_census_window`): an absolute bound on the
#: rounding of |Perm| and |det| numerators, in the kernel and the window,
#: and a relative one on their squares and the ratio, each many times over.
_SCREEN_ABS = 1e-12
_SCREEN_REL = 1e-12


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
    perm, pair_c, pair_d = _stack_pairs(_as_2x2(minv))
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


def _stack_pairs(g):
    """`_pairs` of each G of a (..., 2, 2) stack.  One G's entries stay numpy
    scalars, whose product rounds unlike numpy's array product."""
    return _pairs(*np.moveaxis(g.reshape(g.shape[:-2] + (4,)), -1, 0))


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
    Each sector is summed in its own helper, so its terms are released
    before the next sector's are built.
    """
    r00, r11, r01 = _one_photon_matrix(perm, pair_c, pair_d, c)
    p2 = 2.0 * np.abs(pair_c) ** 2 + np.abs(perm) ** 2 + 2.0 * np.abs(pair_d) ** 2
    p0 = _zero_photon_norm(perm, pair_c, pair_d, c)
    return p2, r00.real + r11.real, p0, r00, r11, r01


def _one_photon_matrix(perm, pair_c, pair_d, c):
    """``(r00, r11, r01)`` of rho1 = sum_ij conj(C_ij) B_i B_j†."""
    branches = ((-2.0 * pair_c, -perm), (-perm, -2.0 * pair_d))
    r00 = r11 = r01 = 0j
    for i in range(2):
        for j in range(2):
            w = np.conj(c[i][j])
            r00 = r00 + w * branches[i][0] * np.conj(branches[j][0])
            r11 = r11 + w * branches[i][1] * np.conj(branches[j][1])
            r01 = r01 + w * branches[i][0] * np.conj(branches[j][1])
    return r00, r11, r01


def _zero_photon_norm(perm, pair_c, pair_d, c):
    """The both-photons-lost norm p0, by Wick pairing over the pair table
    E = [[pair_c, perm/2], [perm/2, pair_d]]: p0 = 2 Re sum conj(E) * X with
    X = C E C^T.  X is symmetric, so X01 and X10 join under perm."""
    (c00, c01), (c10, c11) = c
    half = perm / 2.0
    ce00, ce01 = c00 * pair_c + c01 * half, c00 * half + c01 * pair_d
    ce10, ce11 = c10 * pair_c + c11 * half, c10 * half + c11 * pair_d
    return 2.0 * (
        np.conj(pair_c) * (ce00 * c00 + ce01 * c01)
        + np.conj(perm) * (ce00 * c10 + ce01 * c11)
        + np.conj(pair_d) * (ce10 * c10 + ce11 * c11)
    ).real


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
    the norm of the two-noise sector.  Every sector, ``rho2`` included,
    comes from the pair table ``env_pair``; `output_state` fills
    ``two_photon`` from the same products, so for a state it built ``rho2``
    is what ``two_photon`` would give, bit for bit.

    Raises
    ------
    UnitarityError
        If any sector weight comes out below -1e-10 (inconsistent C) .
    """
    c = _as_2x2(comms, "commutator matrix")
    # the pair table E = [[pair_c, perm/2], [perm/2, pair_d]] holds all three
    e = state.env_pair
    p2, p1, p0, total, rho2, rho1 = _reduce(2.0 * e[0, 1], e[0, 0], e[1, 1], c)
    rho1 = rho1 if p1 > P1_THRESHOLD else None
    return SectorDensity(float(p2), float(p1), float(p0), rho2, rho1, float(total))


def _reduce(perm, pair_c, pair_d, c):
    """`reduce_density` over array entries of the `_pairs` products and of C.

    Returns ``(p2, p1, p0, total, rho2, rho1)``: `_weights` of the
    `_sectors` norms, and (..., 3, 3) and (..., 2, 2) stacks of the two- and
    one-photon matrices over their raw norms (a zero norm gives inf or NaN
    entries, no error).
    """
    p2_raw, p1_raw, p0_raw, r00, r11, r01 = _sectors(perm, pair_c, pair_d, c)
    weights = _weights(p2_raw, p1_raw, p0_raw)
    amps = _amplitudes(perm, pair_c, pair_d)
    rho1 = np.stack(np.broadcast_arrays(r00, r01, np.conj(r01), r11), axis=-1)
    rho1 = rho1.reshape(rho1.shape[:-1] + (2, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        rho2 = amps[..., :, None] * np.conj(amps[..., None, :])
        return (
            *weights,
            rho2 / np.asarray(p2_raw)[..., None, None],
            rho1 / np.asarray(p1_raw)[..., None, None],
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


def sector_normalizer(matrix: np.ndarray) -> float:
    """Closed form of the total sector norm: Perm(2 (M M†)^{-1} - I).

    Independent cross-check for ``SectorDensity.normalizer``: it involves
    only the forward transfer matrix M, not the sectored state.
    """
    return float(_sector_normalizer(_as_2x2(matrix)))


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
    return float(_coincidence_ratio(_as_2x2(matrix)))


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


def coincidence_ratio_grid(
    tau: np.ndarray, eta: np.ndarray, theta: np.ndarray, alpha: float
) -> np.ndarray:
    """`coincidence_ratio` on broadcast grids of real coupler parameters.

    Evaluates |Perm M|^2/|det M|^2 directly from tau, eta, the round-trip
    phase theta and the survival factor alpha; the common circulation
    denominator cancels.  Points where both Perm and det vanish (e.g.
    tau*eta = alpha exactly on resonance) come out NaN.

    The result is always a fresh array (a numpy scalar for 0-d inputs).
    A 0-d call can differ in the last bit from the same point inside a
    grid: numpy's 0-d complex multiply does not fuse the multiply-add that
    its array loop fuses.  Within arrays every step is elementwise, so a
    point's value does not depend on the other points of the call; a census
    (`hom_region`) evaluates only the points inside its windows, gathered
    flat, and still gives the whole grid's bits.  The grid is evaluated in
    tiles of whole rows along its leading axis, at most `_TILE` points each
    (a longer row is one tile), and the call keeps nothing.
    """
    _check_alpha(alpha)
    t, e = _real_couplers(tau, eta)
    return _tiled(_ratio, _operands(t, e, alpha * np.exp(1j * np.asarray(theta, dtype=float))))


def _tiled(kernel, operands):
    """``kernel(*part)`` over tiles of the broadcast ``operands``, written
    into one fresh float array, or a numpy scalar for 0-d operands.

    A tile is whole rows along the leading axis, at most `_TILE` points (a
    longer row is one tile); an operand without that axis, or of extent 1
    on it, broadcasts whole into every tile.  Division by zero and invalid
    operations give inf or NaN without a warning.
    """
    shape = np.broadcast_shapes(*(x.shape for x in operands))
    with np.errstate(divide="ignore", invalid="ignore"):
        if not shape:
            return np.float64(kernel(*operands))
        out = np.empty(shape)
        rows = max(1, _TILE // max(1, math.prod(shape[1:])))
        cut = [x.ndim == len(shape) and len(x) > 1 for x in operands]
        for lo in range(0, shape[0], rows):
            tile = slice(lo, lo + rows)
            out[tile] = kernel(*(x[tile] if c else x for x, c in zip(operands, cut)))
    return out


def _operands(t, e, z):
    """The `_ratio` operands of real couplers t, e and z = alpha exp(i theta)."""
    return t, e, z, t * e, (1.0 - t * t) * (1.0 - e * e)


def _ratio(t, e, z, te, kk):
    """|Perm|^2/|det|^2 of `coincidence_ratio_grid` on broadcast operands."""
    # Perm and det of M share the denominator D^2, so only the numerators
    # matter.  The factored forms avoid the cancellation the expanded
    # polynomials suffer near the decoupled corner tau = eta = 1, theta = 0:
    # perm_num = (tau - eta z)(eta - tau z) + kappa^2 gamma^2 z,
    # det_num = (tau eta - z)(1 - tau eta z).
    # Where numpy reuses a temporary in place, it is a left operand, so no
    # product swaps its operands and the bits do not depend on the tiling.
    perm = (t - e * z) * (e - t * z) + kk * z
    det = (te - z) * (1.0 - te * z)
    return np.square(np.abs(perm)) / np.square(np.abs(det))


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
) -> HomRegion:
    """Census of where the two-photon dip survives at survival factor alpha.

    Scans the regular grid of real couplers tau, eta in [0, 1] and phases
    theta in [-pi, pi] (the ``homm-grid`` axes) and collects the points with
    `coincidence_ratio` <= threshold.  Shrinking fractions with decreasing
    alpha quantify how loss erodes the interference manifold.

    The ratio is evaluated only at the points whose cos theta lies in their
    (tau, eta) pair's `_census_window`, outside which it exceeds the
    threshold, gathered flat, so the result is the whole grid's, bit for bit.
    """
    if not threshold > 0:  # NaN too
        raise ValueError(f"threshold must be > 0, got {threshold}")
    for name, count in (
        ("tau_count", tau_count),
        ("eta_count", eta_count),
        ("theta_count", theta_count),
    ):
        if isinstance(count, bool) or not (isinstance(count, (int, np.integer)) and count >= 1):
            raise ValueError(f"{name} must be an integer >= 1, got {count}")

    axes = _grid_axes(tau_count, eta_count, theta_count)
    taus, etas, thetas = axes

    def reduce(ti, ei, hi, values):
        return np.column_stack([taus[ti], etas[ei], thetas[hi]]), values

    chunks = _census(axes, alpha, threshold, reduce)
    empty = (np.empty((0, 3)), np.empty(0))
    points, values = (np.concatenate(part) for part in zip(empty, *chunks))
    return HomRegion(
        points=points,
        values=values,
        count=values.size,
        fraction=values.size / (tau_count * eta_count * theta_count),
        grid_shape=(tau_count, eta_count, theta_count),
        threshold=threshold,
        alpha=alpha,
    )


def _census(axes, alpha: float, threshold: float, reduce):
    """Yield ``reduce(ti, ei, hi, values)`` of the grid points with ratio
    <= ``threshold`` (never NaN), in grid order, serially, one `_ratio` call
    of at most `_TILE` (and `_CHUNK`) points each, on only the points whose
    cos theta lies in their pair's `_census_window`: found in `_plan`'s
    blocks, gathered into one tile of flat axis indices.  Cos theta, and
    z = alpha exp(i theta) of an unsliced axis, are computed once per census
    (a sliced axis takes z at its candidates).  Alpha is checked first."""
    _check_alpha(alpha)
    taus, etas, thetas = axes
    pairs, step, width = _plan(axes)  # a sliced axis: one pair a block, so grid order
    size, cos = min(_TILE, _CHUNK), np.cos(thetas)
    z = alpha * np.exp(1j * thetas) if width == len(thetas) else None

    def flat(ti, ei, hi):
        phase = z[hi] if z is not None else alpha * np.exp(1j * thetas[hi])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = _ratio(*_operands(taus[ti], etas[ei], phase))
        keep = ratio <= threshold
        return reduce(ti[keep], ei[keep], hi[keep], ratio[keep])

    held, fill = np.empty((3, size), dtype=np.intp), 0  # (ti, ei, hi) not yet evaluated
    for start in range(0, pairs, size):
        it, ie = np.divmod(np.arange(start, min(start + size, pairs)), len(etas))
        lo, hi = _census_window(taus[it], etas[ie], alpha, threshold)
        live = np.flatnonzero((lo <= 1.0) & (hi >= -1.0))  # NaN edges hold no u
        for k in range(0, live.size, step):
            part = live[k : k + step]
            for h in range(0, len(thetas), width):
                u = cos[h : h + width]
                found = np.flatnonzero((u >= lo[part, None]) & (u <= hi[part, None]))
                while found.size:
                    pair, ith = np.divmod(found[: size - fill], len(u))
                    pair, n = part[pair], len(ith)
                    held[:, fill : fill + n] = it[pair], ie[pair], ith + h
                    found, fill = found[n:], fill + n
                    if fill == size:
                        yield flat(*held)
                        fill = 0
    if fill:
        yield flat(*held[:, :fill])


def _census_window(tau, eta, alpha: float, threshold: float):
    """``(lo, hi)``: for each (tau, eta) pair, the window on u = cos theta
    outside which `coincidence_ratio_grid` exceeds ``threshold`` or is NaN.

    With A = tau eta and z = alpha exp(i theta), both kernel numerators are
    A + B z + A z^2 (Perm: B = kappa^2 gamma^2 - tau^2 - eta^2; det:
    B = -(1 + A^2)), whose squared modulus is (alpha B + (1 + alpha^2) A u)^2
    + ((1 - alpha^2) A)^2 (1 - u^2).  So |det| <= U = alpha (1 + A^2)
    + (1 + alpha^2) A, its value at u = -1, and |Perm|^2 is Fp(u) =
    4 alpha^2 A^2 (u - v)^2 + m, with c = (1 + alpha^2) B / 2, vertex
    v = -c / (2 alpha A) and m = (1 - alpha^2)^2 (A^2 - B^2 / 4).

    Kernel rounding: every term of either numerator is at most about 5, so
    the kernel's numerator, z included, is within a few hundred ulp of 1
    (3e-14) of the exact one (about 5 ulp measured), plus 2**-1074 for a
    subnormal step: its |Perm| >= sqrt(Fp(u)) - `_SCREEN_ABS`, |det| <= U
    + `_SCREEN_ABS`, and `_SCREEN_REL` covers the few ulp its abs, square
    and divide add while the left side below is normal.  So its ratio
    exceeds ``threshold`` (or is NaN) wherever

        (sqrt(Fp(u)) - _SCREEN_ABS)^2 (1 - _SCREEN_REL)
            > max(threshold (U + _SCREEN_ABS)^2, smallest normal float),

    that is where Fp(u) > G^2, G = `_SCREEN_ABS` + sqrt(max(...) /
    (1 - `_SCREEN_REL`)): outside |u - v| <= sqrt(G^2 - m) / (2 alpha A).

    Window rounding: A, B, c and m (|m| <= 1) are within 1e-14 of exact and
    G^2 within some 20 ulp, so s, the root of s^2 = G^2 (1 + `_SCREEN_REL`)
    - m + `_SCREEN_ABS`, exceeds the exact sqrt(G^2 - m) by over
    2e-13 (1 + G), twenty times the rounding of s and of -c -+ s: the
    numerators of lo = (-c - s) / (2 alpha A) and hi = (s - c) / (2 alpha A)
    hold the exact window's.  The `_SCREEN_ABS` added to each edge covers
    the few ulp of the division and of ``np.cos`` within [-2, 2]; an edge
    beyond cannot round into [-1, 1].  A subnormal 2 alpha A has no relative
    rounding bound, but an edge that then cuts [-1, 1] has a numerator under
    4.5e-308, so the exact one is 2e-13 past zero and the exact window
    misses [-1, 1] on that side.

    Where 2 alpha A = 0 the edges are infinite: Fp is constant (A = 0), and
    the window is the whole axis or empty.  A NaN edge (0/0, or a NaN
    input) keeps the whole axis, except where s^2 < 0: no u passes there.
    """
    a = tau * eta
    b = (1.0 - tau * tau) * (1.0 - eta * eta) - tau * tau - eta * eta
    with np.errstate(all="ignore"):
        high = alpha * (1.0 + a * a) + (1.0 + alpha * alpha) * a + _SCREEN_ABS
        floor = np.maximum(threshold * (high * high), np.finfo(float).tiny)
        g = _SCREEN_ABS + np.sqrt(floor / (1.0 - _SCREEN_REL))
        c = 0.5 * (1.0 + alpha * alpha) * b
        m = (1.0 - alpha * alpha) ** 2 * ((a - 0.5 * b) * (a + 0.5 * b))
        s2 = g * g * (1.0 + _SCREEN_REL) - m + _SCREEN_ABS
        s = np.sqrt(s2)
        slope = 2.0 * alpha * a
        lo = (-c - s) / slope - _SCREEN_ABS
        hi = (s - c) / slope + _SCREEN_ABS
    whole = (np.isnan(lo) | np.isnan(hi)) & ~(s2 < 0.0)
    return np.where(whole, -np.inf, lo), np.where(whole, np.inf, hi)


def _grid_axes(
    tau_count: int, eta_count: int, theta_count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The census axes: tau and eta over [0, 1], theta over [-pi, pi]."""
    return (
        np.linspace(0.0, 1.0, tau_count),
        np.linspace(0.0, 1.0, eta_count),
        np.linspace(-math.pi, math.pi, theta_count),
    )


def _plan(axes) -> tuple[int, int, int]:
    """``(pairs, step, width)`` of a grid walk: chunks of at most ``step``
    of the ``pairs`` (tau, eta) pairs, in grid order, against ``width``
    thetas, at most `_CHUNK` points; a longer theta axis is cut evenly."""
    taus, etas, thetas = axes
    slices = -(-len(thetas) // _CHUNK)
    width = -(-len(thetas) // slices)
    return len(taus) * len(etas), max(1, _CHUNK // width), width


def _walk_grid(axes, evaluate, reduce, workers: int = 1):
    """Yield ``reduce`` of each of `_plan`'s chunks of a (tau, eta, theta)
    grid, in grid order: the ``entropy-grid`` walk.

    ``evaluate(tau, eta, theta)`` receives (pairs, 1), (pairs, 1) and
    (1, slice) arrays and returns the block's values; ``reduce(ti, ei, hi,
    values)`` receives every point's axis indices and value, in C order.
    Both run in the chunk's task.  With more than one of ``workers``
    (capped per usable CPU and per chunk) and ``fork``, the chunks run in
    forked processes (`_pool`), ``_WINDOW * workers`` at a time, and
    ``reduce``'s result must pickle; closing the generator early cancels
    the chunks not yet started.  Otherwise they run serially.
    """
    taus, etas, thetas = axes
    pairs, step, width = _plan(axes)

    def chunk(start):
        lo, h = start
        it, ie = np.divmod(np.arange(lo, min(lo + step, pairs)), len(etas))
        values = evaluate(taus[it][:, None], etas[ie][:, None], thetas[None, h : h + width])
        pair, ith = np.indices(values.shape).reshape(2, -1)
        return reduce(it[pair], ie[pair], ith + h, values.ravel())

    starts = [(lo, h) for lo in range(0, pairs, step) for h in range(0, len(thetas), width)]
    workers = min(workers, _usable_cpus(), len(starts))
    pool = _pool(chunk, workers) if workers > 1 else None
    if pool is None:
        yield from map(chunk, starts)
        return
    try:
        window = deque()
        for start in starts:
            if len(window) == _WINDOW * workers:
                yield window.popleft().result()
            window.append(pool.submit(_run_adopted, start))
        while window:
            yield window.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool(chunk, workers: int):
    """An executor of ``workers`` forked processes for `_run_adopted`, or
    ``None`` without the ``fork`` start method.  Each inherits ``chunk``
    through the initializer, so a task passes only its start and result;
    the pool forks them all at its first submit, before it starts a thread."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    from concurrent.futures.process import ProcessPoolExecutor

    # A worker flushes its copies of sys.stdout and sys.stderr when it
    # exits; multiprocessing flushes both before each fork, so no buffered
    # line is written twice.  A file sink is never flushed in a worker.
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_adopt,
        initargs=(chunk,),
    )


# The chunk function a forked worker process runs, set in that process only.
_adopted = None


def _adopt(chunk) -> None:
    global _adopted
    _adopted = chunk


def _run_adopted(start):
    return _adopted(start)


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
    out[pos] = vals * _elementwise(math.log, vals)
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

    The result is a fresh array (a numpy scalar for 0-d inputs), evaluated
    in `_TILE`-point tiles as `coincidence_ratio_grid` is.  A point's bits
    depend on the rest of the call only through its size: a call of at
    least `_ELIDE` points takes the other operand order in `_grid_state`.
    A negative eigenvalue anywhere raises `UnitarityError` with the call's
    count of such points.
    """
    _check_alpha(alpha)
    if not p1_threshold >= 0:  # NaN too
        raise ValueError(f"p1_threshold must be >= 0, got {p1_threshold}")
    operands = (*_real_couplers(tau, eta), np.asarray(theta, dtype=float))
    conj_first = np.broadcast(*operands).size >= _ELIDE
    bad = 0

    def tile(t, e, th):
        nonlocal bad
        p1, a, d, off = _one_photon_sector(t, e, th, alpha, conj_first)
        bits, low = _entropy_bits(a, d, off)
        defined = p1 > p1_threshold
        bad += int(np.count_nonzero(defined & (low < -_EIG_SLACK)))  # NaN compares False
        return np.where(defined, bits, math.nan)

    out = _tiled(tile, operands)
    if bad:
        raise UnitarityError(f"negative one-photon eigenvalue at {bad} grid points")
    return out


def _one_photon_sector(t, e, th, alpha, conj_first):
    """``(p1, a, d, off)`` on a broadcast grid of real couplers: the
    normalized one-photon weight and the entries of the normalized one-photon
    matrix [[a, off], [conj(off), d]].

    `entropy_grid` builds its state through this helper and `_grid_state`,
    so each intermediate array is released at the return of the helper that
    uses it last: M and G before the sector sums, the other sector norms
    before the entropy.
    """
    p2_raw, p1_raw, p0_raw, r00, r11, r01 = _sectors(*_grid_state(t, e, th, alpha, conj_first))
    p1 = p1_raw / (p2_raw + p1_raw + p0_raw)
    return p1, r00.real / p1_raw, r11.real / p1_raw, r01 / p1_raw


def _grid_state(t, e, th, alpha, conj_first):
    """The arguments of `_sectors` on a broadcast grid of real couplers: the
    pair products of G = conj(M^{-1}) and the noise commutators I - M M†,
    entry by entry.  ``conj_first`` puts the conjugates on the left of the
    ``c12`` products (see `_ELIDE`); each conjugate is named first, so no
    temporary elision can swap the operands."""
    z = alpha * np.exp(1j * th)
    s = math.sqrt(alpha) * np.exp(0.5j * th)
    kap = np.sqrt(1.0 - t * t)
    gam = np.sqrt(1.0 - e * e)
    denom = 1.0 - t * e * z
    m11 = (t - e * z) / denom
    m12 = m21 = -gam * kap * s / denom
    m22 = (e - t * z) / denom
    c11 = 1.0 - np.abs(m11) ** 2 - np.abs(m12) ** 2
    c22 = 1.0 - np.abs(m21) ** 2 - np.abs(m22) ** 2
    cm21, cm22 = np.conj(m21), np.conj(m22)
    if conj_first:
        c12 = -(cm21 * m11 + cm22 * m12)
    else:
        c12 = -(m11 * cm21 + m12 * cm22)
    pairs = _pairs(*add_drop._inverse_conjugate(m11, m12, m21, m22))
    return (*pairs, ((c11, c12), (np.conj(c12), c22)))
