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
import signal
from dataclasses import dataclass

import numpy as np

from . import add_drop
from .core import (
    UnitarityError,
    _as_2x2_stack,
    _check_alpha,
    _elementwise,
    _real_couplers,
    _shaped,
)

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
#: chunks never depend on the worker count; it also pins the entropy-grid
#: bytes (see `_ELIDE`).
_CHUNK = 65536
#: Most points in one tile of a grid kernel or census batch.  A tile's
#: complex temporaries then take 64 KiB each, under glibc's 128 KiB mmap
#: threshold, so they are recycled through the heap, not fresh pages.
_TILE = 4096
#: Fewest points of an `entropy_grid` call whose ``c12`` products
#: `_grid_state` writes as ``conj(b) * a``; a smaller call writes
#: ``a * conj(b)``.  This is the size (256 KiB of complex points) at which
#: numpy's temporary elision computed ``a * conj(b)`` in place as
#: ``conj(b) * a`` when the output bytes were fixed.  Numpy's complex
#: multiply is not bitwise commutative (its SIMD loop fuses multiply-adds):
#: in chunks of 16384 points, 67,376 of the 450,241 cells of a 61x61x121
#: entropy grid change in the last digit.  Both orders are written out, so
#: no numpy build or tiling moves the bytes, but a point's bits depend on
#: its call's size.  So `_CHUNK` is fixed, and a longer theta axis is cut
#: into even slices of at least 32,768 points, on the whole axis's side of
#: this size.
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
    two_photon : (..., 3) complex ndarray
        Amplitudes on (|2,0>, |1,1>, |0,2>) in the (c, d) output modes:
        (sqrt(2) G11 G21, Perm G, sqrt(2) G12 G22) for G the
        inverse-conjugate transfer matrix.
    branch_c, branch_d : (..., 2) complex ndarray
        One-photon amplitudes on (c, d) multiplying the noise excitations
        F_c†|0> and F_d†|0> respectively.
    env_pair : (..., 2, 2) complex ndarray
        Symmetric table E with the both-photons-lost component
        sum_ij E[i, j] F_i† F_j† |0>.  Each ``...`` is the leading axes of
        a stack, none for one matrix.
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
    three sectors.  Broadcasts over a (..., 2, 2) stack, whose entries may
    differ in the last bits from one G's: numpy's array loop fuses the
    complex multiply-add that the numpy scalars of one G do not.
    """
    # unpacked rows keep one G's entries numpy scalars, not 0-d arrays
    (g00, g01), (g10, g11) = np.moveaxis(_as_2x2_stack(minv), (-2, -1), (0, 1))
    perm, pair_c, pair_d = _pairs(g00, g01, g10, g11)
    half = perm / 2.0
    return TwoPhotonOutputState(
        two_photon=_amplitudes(perm, pair_c, pair_d),
        branch_c=_stacked(-2.0 * pair_c, -perm),
        branch_d=_stacked(-perm, -2.0 * pair_d),
        env_pair=_stacked(pair_c, half, half, pair_d).reshape(np.shape(perm) + (2, 2)),
    )


def _pairs(g00, g01, g10, g11):
    """(Perm G, G00 G10, G01 G11): the products of G that weight every term
    of a† b† in (c†, d†, F_c†, F_d†).  Broadcasts over array entries."""
    return g00 * g11 + g01 * g10, g00 * g10, g01 * g11


def _amplitudes(perm, pair_c, pair_d):
    """Two-photon amplitudes on (|2,0>, |1,1>, |0,2>), stacked on a last axis."""
    root2 = math.sqrt(2.0)
    return _stacked(root2 * pair_c, perm, root2 * pair_d)


def _stacked(*entries):
    """The broadcast ``entries`` stacked on a new last axis."""
    return np.stack(np.broadcast_arrays(*entries), axis=-1)


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
    A stack's weights are arrays and its matrices gain its leading axes;
    ``rho1`` is ``None`` only if every weight is at or below the threshold,
    and holds inf, NaN or junk at each entry that is.
    """

    p2: float | np.ndarray
    p1: float | np.ndarray
    p0: float | np.ndarray
    rho2: np.ndarray
    rho1: np.ndarray | None
    normalizer: float | np.ndarray


def reduce_density(state: TwoPhotonOutputState, comms: np.ndarray) -> SectorDensity:
    """Trace the noise modes out of each sector of the output state.

    ``comms`` is the noise-commutator matrix C from
    `add_drop.noise_commutators`; it fixes every overlap of noise
    excitations via <0|F_i F_j†|0> = C[i, j] and, through Wick pairings,
    the norm of the two-noise sector.  Every sector, ``rho2`` included,
    comes from the pair table ``env_pair``; `output_state` fills
    ``two_photon`` from the same products, so for a state it built ``rho2``
    is what ``two_photon`` would give, bit for bit.  Broadcasts over
    stacks of both, in the last bits as `output_state` does.

    Raises
    ------
    UnitarityError
        If any sector weight comes out below -1e-10 (inconsistent C) .
    """
    c = np.moveaxis(_as_2x2_stack(comms), (-2, -1), (0, 1))
    (pair_c, half), (_, pair_d) = np.moveaxis(state.env_pair, (-2, -1), (0, 1))
    perm = 2.0 * half  # exact: E = [[pair_c, perm/2], [perm/2, pair_d]]
    p2_raw, p1_raw, p0_raw, r00, r11, r01 = _sectors(perm, pair_c, pair_d, c)
    p2, p1, p0, total = _weights(p2_raw, p1_raw, p0_raw)
    amps = _amplitudes(perm, pair_c, pair_d)
    rho1 = _stacked(r00, r01, np.conj(r01), r11)
    rho1 = rho1.reshape(rho1.shape[:-1] + (2, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        rho2 = amps[..., :, None] * np.conj(amps[..., None, :])
        rho2 = rho2 / np.asarray(p2_raw)[..., None, None]
        rho1 = rho1 / np.asarray(p1_raw)[..., None, None]
    rho1 = rho1 if np.any(p1 > P1_THRESHOLD) else None
    return SectorDensity(p2, p1, p0, rho2, rho1, total)


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
    return tuple(_shaped(x, x.shape) for x in (*weights, total))


def sector_normalizer(matrix: np.ndarray) -> float | np.ndarray:
    """Closed form of the total sector norm: Perm(2 (M M†)^{-1} - I).

    Independent cross-check for ``SectorDensity.normalizer``: it involves
    only the forward transfer matrix M, not the sectored state.  Broadcasts
    over a (..., 2, 2) stack: one matrix gives a float, a stack an array of
    its shape.  One matrix is evaluated as a stack of one, so it rounds as
    it would within a stack: numpy's product of two complex scalars does not
    fuse the multiply-add that its array loop fuses.
    """
    m = _as_2x2_stack(matrix).reshape(-1, 2, 2)
    w = 2.0 * np.linalg.inv(m @ np.conj(m).swapaxes(-1, -2)) - np.eye(2)
    return _shaped((w[:, 0, 0] * w[:, 1, 1] + w[:, 0, 1] * w[:, 1, 0]).real, np.shape(matrix)[:-2])


def coincidence_ratio(matrix: np.ndarray) -> float | np.ndarray:
    """Coincidence figure |Perm|^2 / |det|^2 of a 2x2 transfer matrix.

    Invariant under matrix inversion and conjugation, so M and
    conj(M^{-1}) give the same value.  Equals the coincidence probability
    for unitary (lossless) M; under loss it can exceed 1 and only its
    zero set (Perm = 0) retains the dip interpretation.  Broadcasts over a
    (..., 2, 2) stack as `sector_normalizer` does; any singular matrix
    raises `ValueError`.
    """
    m00, m01, m10, m11 = np.moveaxis(_as_2x2_stack(matrix).reshape(-1, 4), -1, 0)
    det = m00 * m11 - m01 * m10
    if np.any(det == 0):
        raise ValueError("transfer matrix is singular; ratio undefined")
    perm = m00 * m11 + m01 * m10
    return _shaped(np.abs(perm) ** 2 / np.abs(det) ** 2, np.shape(matrix)[:-2])


def coincidence_probability(state: TwoPhotonOutputState) -> float | np.ndarray:
    """Probability of a c-d coincidence given both photons exit the buses.

    |<1,1|Psi2>|^2 / <Psi2|Psi2> — exact at any loss level, unlike
    `coincidence_ratio`, but requires the sectored state, one or stacked.
    """
    norm = np.sum(np.abs(state.two_photon) ** 2, axis=-1)
    if np.any(norm == 0):
        raise ValueError("two-photon sector is empty")
    return _shaped(np.abs(state.two_photon[..., 1]) ** 2 / norm, np.shape(norm))


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
    point's value does not depend on the other points of the call: the
    census (`hom_region`) calls this on flat tiles of its window candidates
    and gets the whole grid's bits.  The grid is evaluated in tiles of at
    most `_TILE` points (`_tiled`), and the call keeps nothing.
    """
    _check_alpha(alpha)
    t, e = _real_couplers(tau, eta)
    z = alpha * np.exp(1j * np.asarray(theta, dtype=float))
    return _tiled(_ratio, (t, e, z, t * e, (1.0 - t * t) * (1.0 - e * e)))


def _tiled(kernel, operands, out=None):
    """``kernel(*part)`` over tiles of the broadcast ``operands``, written
    into ``out`` or one fresh float array, or a numpy scalar for 0-d
    operands.

    A tile is whole rows along the leading axis, at most `_TILE` points; an
    operand without that axis, or of extent 1 on it, broadcasts whole into
    every tile.  A row longer than `_TILE` is itself tiled, as views of
    the operands without the leading axis.  Division by zero and invalid
    operations give inf or NaN without a warning.
    """
    shape = np.broadcast_shapes(*(x.shape for x in operands))
    with np.errstate(divide="ignore", invalid="ignore"):
        if not shape:
            return np.float64(kernel(*operands))
        out = np.empty(shape) if out is None else out
        row = math.prod(shape[1:])
        rows = max(1, _TILE // max(1, row))
        cut = [x.ndim == len(shape) and len(x) > 1 for x in operands]
        for lo in range(0, shape[0], rows):
            tile = slice(lo, lo + rows)
            part = [x[tile] if c else x for x, c in zip(operands, cut)]
            if row > _TILE:  # one row: tile it without its leading axis
                _tiled(kernel, [x[0] if x.ndim == len(shape) else x for x in part], out[lo])
            else:
                out[tile] = kernel(*part)
    return out


def _ratio(t, e, z, te, kk):
    """|Perm|^2/|det|^2 of `coincidence_ratio_grid` on its broadcast operands."""
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

    `coincidence_ratio_grid` is called only on the points whose cos theta
    lies in their (tau, eta) pair's `_census_window`, outside which the
    ratio exceeds the threshold, gathered flat in tiles of at most `_TILE`
    points (`_census`), so the result is the whole grid's, bit for bit.
    """
    if not threshold > 0:  # NaN too
        raise ValueError(f"threshold must be > 0, got {threshold}")
    counts = (tau_count, eta_count, theta_count)
    for name, count in zip(("tau_count", "eta_count", "theta_count"), counts):
        if isinstance(count, bool) or not (isinstance(count, (int, np.integer)) and count >= 1):
            raise ValueError(f"{name} must be an integer >= 1, got {count}")

    axes = _grid_axes(*counts)
    taus, etas, thetas = axes

    def reduce(tiles):
        return [(np.column_stack([taus[t], etas[e], thetas[h]]), v) for t, e, h, v in tiles]

    tiles = [tile for chunk in _census(axes, alpha, threshold, reduce) for tile in chunk]
    empty = (np.empty((0, 3)), np.empty(0))
    points, values = (np.concatenate(part) for part in zip(empty, *tiles))
    return HomRegion(
        points=points,
        values=values,
        count=values.size,
        fraction=values.size / math.prod(counts),
        grid_shape=counts,
        threshold=threshold,
        alpha=alpha,
    )


def _census(axes, alpha: float, threshold: float, reduce):
    """Yield ``reduce(tiles)`` of the grid points with ratio <=
    ``threshold`` (never NaN), in grid order, serially: one
    `coincidence_ratio_grid` call a tile of at most `_TILE` (and `_CHUNK`)
    candidates, the points whose cos theta (computed once) lies in their
    pair's `_census_window`, found in `_plan`'s blocks.  ``tiles`` holds one
    tile of `_walk_grid`'s form, ``(ti, ei, hi, values)``: the kept points
    of one call, so a call that keeps no point still passes one empty tile.
    Alpha is checked first, so a census with no candidates rejects it too."""
    _check_alpha(alpha)
    taus, etas, thetas = axes
    pairs, step, width = _plan(axes)  # a sliced axis: one pair a block, so grid order
    size, cos = min(_TILE, _CHUNK), np.cos(thetas)

    def flat(ti, ei, hi):
        ratio = coincidence_ratio_grid(taus[ti], etas[ei], thetas[hi], alpha)
        keep = ratio <= threshold
        return reduce([(ti[keep], ei[keep], hi[keep], ratio[keep])])

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
    (1, slice) arrays and returns the block's values; ``reduce(tiles)``
    receives an iterator of ``(ti, ei, hi, values)`` tiles, the axis indices
    and values of at most `_TILE` consecutive points each, in C order, and
    returns an iterable of the chunk's items.  A tile's indices are built as
    it is taken, so the chunk holds only its values and its pairs' indices,
    not chunk-sized index arrays.  Both run in the chunk's task.  With more
    than one of ``workers`` (capped per usable CPU and per chunk) and
    ``fork``, the chunks run in forked processes (`_ring`), and each is
    yielded as an iterator over the items its process sent; otherwise they
    run serially, each as it is taken.
    """
    taus, etas, thetas = axes
    pairs, step, width = _plan(axes)

    def chunk(start):
        lo, h = start
        it, ie = np.divmod(np.arange(lo, min(lo + step, pairs)), len(etas))
        values = evaluate(taus[it][:, None], etas[ie][:, None], thetas[None, h : h + width])
        row, values = values.shape[-1], values.ravel()  # points a pair

        def tiles():
            for k in range(0, values.size, _TILE):
                pair, ith = np.divmod(np.arange(k, min(k + _TILE, values.size)), row)
                yield it[pair], ie[pair], ith + h, values[k : k + _TILE]

        return reduce(tiles())

    starts = [(lo, h) for lo in range(0, pairs, step) for h in range(0, len(thetas), width)]
    workers = min(workers, _usable_cpus(), len(starts))
    if workers > 1 and hasattr(os, "fork"):
        yield from _ring(chunk, starts, workers)
    else:
        yield from map(chunk, starts)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _WorkerDied(RuntimeError):
    """A `_ring` child ended before it sent its chunk's end or an error."""


def _ring(chunk, starts, workers: int):
    """Run ``chunk(start)`` of each of ``starts`` in ``workers`` forked
    children, chunk k in child k mod ``workers``, and yield, for each chunk
    in order, an iterator over the items of the iterable it returned, which
    must pickle and be neither ``None`` nor an exception.

    Each child makes a chunk's items whole, sends them to this process on a
    one-way pipe of its own, dropping each once sent, then an end marker, so
    it holds one chunk's items at a time.  A chunk that raises sends its
    exception instead and its child stops: the iterator raises it once the
    chunks before it have been read whole.  End of file before a chunk's
    end, a child that died, raises `_WorkerDied`.  A child stops at its
    next send once this process is gone (a broken pipe), and a walk left
    early (an error, an interrupt, SIGTERM) ends every child.
    """
    import multiprocessing

    context = multiprocessing.get_context("fork")
    pipes = [context.Pipe(duplex=False) for _ in range(workers)]  # (read, write)
    ends = [end for pipe in pipes for end in pipe]

    def run(w: int) -> None:
        # A child that kept `ringsim.cli.main`'s raising SIGTERM handler, or
        # Python's SIGINT one, would print a traceback when this process
        # ends it or a Ctrl-C reaches the process group: only this process
        # reports a signal.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        out = pipes[w][1]
        for end in set(ends) - {out}:
            end.close()  # a pipe breaks only once all its readers are gone
        try:
            for index in range(w, len(starts), workers):
                try:
                    items = list(chunk(starts[index]))
                except Exception as exc:
                    out.send(exc)
                    return
                items.reverse()  # sent in order, each dropped once sent
                while items:
                    out.send(items.pop())
                out.send(None)
        except BrokenPipeError:  # this process is gone
            pass

    children = [context.Process(target=run, args=(w,)) for w in range(workers)]
    try:
        for child in children:
            child.start()
        for _, out in pipes:
            out.close()  # a pipe reads end of file only once all its writers are gone
        for index in range(len(starts)):
            yield _received(pipes[index % workers][0])
    finally:
        for end in ends:
            end.close()
        for child in children:
            if child.pid is not None:
                child.terminate()
                child.join()


def _received(inbox):
    """The items a `_ring` child sends on ``inbox`` up to its chunk's end."""
    while True:
        try:
            item = inbox.recv()
        except EOFError:
            raise _WorkerDied from None
        if item is None:
            return
        if isinstance(item, Exception):
            raise item
        yield item


def entropy_one_photon(density: SectorDensity) -> float | np.ndarray:
    """Von Neumann entropy (bits) of the one-photon reduced density matrix.

    Ranges over [0, 1] for the two-mode photon: 0 when the surviving
    photon's path is pure, 1 bit when it is maximally mixed with its lost
    partner's which-path record.  Returns NaN when the one-photon sector
    is empty (weight ``p1`` at or below ``P1_THRESHOLD``) — that point has
    no surviving photon to ascribe an entropy to.  Broadcasts over a stack.
    """
    p1 = np.asarray(density.p1)
    if density.rho1 is None:
        return _shaped(np.full(p1.shape, math.nan), p1.shape)
    (a, off), (_, d) = np.moveaxis(density.rho1, (-2, -1), (0, 1))
    bits, low = _entropy_bits(a.real, d.real, off)
    defined = p1 > P1_THRESHOLD
    negative = defined & (low < -_EIG_SLACK)
    if np.any(negative):
        raise UnitarityError(f"density matrix eigenvalue {float(low[negative].flat[0])!r} < 0")
    return _shaped(np.where(defined, bits, math.nan), p1.shape)


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
    depend on the rest of the call only through its size (see `_ELIDE`).
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
    temporary elision can swap them."""
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
