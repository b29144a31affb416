"""Seeded generation of carbon-13 baths and their disjoint-cluster partitions.

Positions are in nm with the defect at the origin.  A bath walks the
diamond-cubic lattice (a = 0.3567 nm, 8-atom conventional cell) outward from
the origin and occupies each site with the isotopic abundance.  All
randomness comes from numpy's default generator seeded per bath, so a
(seed, parameters) pair is fully replayable.

The walk visits the lattice in shells of integer q.q, q the integer
quarter-cell coordinates (site = q a / 4): a site has three coordinates of
one parity and a sum of 0 or 3 mod 4, so each (qx, qy) row of a shell
holds runs of qz with step 4.  Sites are ordered by (r^2, x, y, z), which
makes the occupancy draws independent of how far the walk goes: a larger
bath continues the draws of a smaller one, so the near-origin draws never
change.  The walk stops at the shell that completes the bath, so memory
grows with the bath, not with a search ball around it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .constants import (
    C13_ABUNDANCE,
    DIAMOND_ATOM_DENSITY_NM3,
    DIAMOND_BOND_NM,
    DIAMOND_LATTICE_NM,
    GAMMA_C13_HZ_PER_G,
    as_count,
    as_quantity,
    dipole_prefactor_hz,
)
from .hamiltonians import _dipole_tensors

__all__ = [
    "Bath",
    "Partition",
    "generate_bath",
    "check_bath_parameters",
    "cluster_bath",
    "child_seed",
]

# Most lattice sites a bath's walk may visit (and, before the walk, may be
# expected to visit); the walk then reaches about r = 23.8 nm.  A larger
# request fails before it draws them.
_MAX_SITES = 10_000_000

# About how many sites the inner shells of the lattice walk hold.
_SHELL_SITES = 4096

@dataclass(frozen=True, eq=False)
class Bath:
    """Bath spins around the origin defect: positions (n, 3) in nm and
    gyromagnetic ratios (n,) in Hz/G, both read-only; the ratios default to
    carbon-13.  Rows must be finite and distinct, and none at the origin.
    """

    positions: np.ndarray
    gammas: np.ndarray | None = None

    def __post_init__(self):
        # reshape refuses (ValueError) any other number of entries
        pos = np.array(self.positions, dtype=float).reshape(
            len(self.positions), 3)
        gammas = np.full(len(pos), GAMMA_C13_HZ_PER_G) if self.gammas is None \
            else np.array(self.gammas, dtype=float).reshape(len(pos))
        if not (np.isfinite(pos).all() and np.isfinite(gammas).all()):
            raise ValueError("bath positions and gammas must be finite")
        order = np.lexsort(pos.T)
        if (pos[order[1:]] == pos[order[:-1]]).all(axis=1).any():
            raise ValueError("bath spins must occupy distinct positions")
        if not np.einsum("ij,ij->i", pos, pos).all():
            raise ValueError("no bath spin may sit on the defect site")
        pos.flags.writeable = gammas.flags.writeable = False
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "gammas", gammas)

    def __len__(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class Partition:
    """Disjoint cover of bath indices by groups of bounded size."""

    groups: tuple[tuple[int, ...], ...]
    g: int
    n_spins: int

    def __post_init__(self):
        groups = tuple(tuple(int(i) for i in grp) for grp in self.groups)
        object.__setattr__(self, "groups", groups)
        seen: set[int] = set()
        for grp in groups:
            if not 1 <= len(grp) <= self.g:
                raise ValueError(f"group size {len(grp)} outside [1, {self.g}]")
            if seen.intersection(grp):
                raise ValueError("groups must be pairwise disjoint")
            seen.update(grp)
        if seen != set(range(self.n_spins)):
            raise ValueError("groups must cover every bath index exactly once")

    def __len__(self) -> int:
        return len(self.groups)

    def __iter__(self):
        return iter(self.groups)


def child_seed(master_seed: int, index: int) -> int:
    """Stable per-bath seed derived from a master seed.

    First 8 bytes of sha256(f"{master_seed}:{index}") as a big-endian
    integer, masked to 63 bits.  Stable across versions and platforms.
    """
    import hashlib  # only here, so that no run without a bath loads OpenSSL

    digest = hashlib.sha256(f"{master_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") & (2 ** 63 - 1)


def _check_site_budget(n_candidates: float, r_max: float) -> None:
    if n_candidates > _MAX_SITES:
        raise ValueError(
            f"a bath out to {r_max:.4g} nm needs about {n_candidates:.3g} "
            f"candidate sites, above the budget of {_MAX_SITES:.3g}; lower "
            f"min_radius or n_spins, or raise abundance")


def _runs(label, start, stop, step):
    """label repeated for, and the values of, runs start..stop by step."""
    count = np.maximum((stop - start) // step + 1, 0)
    values = step * np.arange(count.sum()) \
        + np.repeat(start - step * (np.cumsum(count) - count), count)
    return np.repeat(label, count, axis=-1), values


def _lattice_shells():
    """Yield the lattice sites with r > 0 outward, one shell at a time.

    A shell holds every site with lo <= q.q < hi for integer bounds, about
    max(_SHELL_SITES, 2 lo) of them (so the shell count grows as the cube
    root of the sites walked), as (sites, r^2) in (r^2, x, y, z) order.
    Float r^2 is monotone in the integer q.q (lattice q.q are 0 or 3 mod 8,
    and rounding moves r^2 by a few parts in 1e16), so the shells follow
    each other in the (r^2, x, y, z) order of the whole lattice.
    """
    a = DIAMOND_LATTICE_NM
    lo = 1
    while True:
        # (pi / 6) Q^1.5 sites have q.q < Q
        hi = int((lo ** 1.5 + 6.0 / math.pi * max(_SHELL_SITES, 2 * lo))
                 ** (2.0 / 3.0)) + 1
        # rows (qx, qy) of one parity inside q.q < hi, each with two runs of
        # qz (step 4, residue fixed by the row): -outer..-inner and
        # inner..outer, the zero in the first one only
        # (floor and ceil of the float sqrt of an integer are exact this far
        # below 2^52)
        qmax = math.isqrt(hi - 1)
        qx = np.arange(-qmax, qmax + 1)
        top = np.sqrt(hi - 1 - qx * qx).astype(np.int64)
        qx, qy = _runs(qx, -top + (qx + top) % 2, top, 2)
        rho = qx * qx + qy * qy
        outer = np.sqrt(hi - 1 - rho).astype(np.int64)
        inner = np.ceil(np.sqrt(np.maximum(lo - rho, 0))).astype(np.int64)
        low = np.stack([-outer, np.maximum(inner, 1)], axis=1).ravel()
        high = np.stack([-inner, outer], axis=1).ravel()
        qx, qy = np.repeat(qx, 2), np.repeat(qy, 2)
        (qx, qy), qz = _runs(np.stack([qx, qy]),
                             low + (3 * (qx % 2) - qx - qy - low) % 4, high, 4)
        # q / 4 * a rounds as (cell corner + cell fraction) * a
        sites = np.stack([qx, qy, qz], axis=1) * 0.25
        sites *= a
        r2 = np.einsum("ij,ij->i", sites, sites)
        # Sites are in (x, y, z) order, so a stable sort by r^2 gives the
        # (r^2, x, y, z) order.  A stable radix sort by the integer q.q
        # (a shell spans far fewer than 2^16 values) first leaves r^2
        # nearly sorted; equal r^2 implies equal q.q, so it keeps the tie
        # order.
        qq = qx * qx + qy * qy + qz * qz - lo
        order = np.argsort(qq.astype(np.uint16), kind="stable")
        order = order[np.argsort(r2[order], kind="stable")]
        yield sites[order], r2[order]
        lo = hi


def _occupied_lattice_sites(rng: np.random.Generator, n_spins: int,
                            abundance: float, r2_min: float) -> np.ndarray:
    """The first n_spins occupied lattice sites with r^2 >= r2_min.

    Each shell of _lattice_shells gets its own occupancy draw, and the walk
    stops at the shell that holds the n_spins-th site.  The draws equal
    one draw over the sites of a ball in the same order, so the bath is
    that of the ball.  A shell that would take the sites walked past the
    budget raises before it is drawn.
    """
    kept, found, walked = [], 0, 0
    for sites, r2 in _lattice_shells():
        walked += len(sites)
        _check_site_budget(walked, math.sqrt(r2[-1]))
        keep = (rng.random(len(sites)) < abundance) & (r2 >= r2_min)
        kept.append(sites[keep])
        found += len(kept[-1])
        if found >= n_spins:
            return np.concatenate(kept)[:n_spins]


def check_bath_parameters(n_spins: int, abundance: float,
                          min_radius: float = DIAMOND_BOND_NM, *,
                          seed: int = 0) -> tuple[int, float, float]:
    """(n_spins, abundance, min_radius) as generate_bath admits them, an int
    and two floats; ValueError unless it accepts them, the seed and the
    site budget of the sites it is expected to need included."""
    n_spins = as_count(n_spins, "n_spins", 0)
    abundance = as_quantity(abundance, "abundance must lie in (0, 1]")
    if not 0.0 < abundance <= 1.0:
        raise ValueError("abundance must lie in (0, 1]")
    min_radius = as_quantity(min_radius,
                             "min_radius must be finite and non-negative", 0.0)
    if n_spins:
        # the walk is expected to visit every site inside min_radius, then
        # n_spins / abundance sites to find the bath beyond it (a count past
        # 1e308 as that float: float products saturate at inf where r ** 3
        # would raise)
        ball = 4.0 / 3.0 * math.pi * DIAMOND_ATOM_DENSITY_NM3
        sites = (ball * min_radius * min_radius * min_radius
                 + min(n_spins, 1e308) / abundance)
        _check_site_budget(sites, (sites / ball) ** (1.0 / 3.0))
    as_count(seed, "seed", 0)
    return n_spins, abundance, min_radius


def generate_bath(seed: int, n_spins: int = 125,
                  abundance: float = C13_ABUNDANCE,
                  min_radius: float = DIAMOND_BOND_NM) -> Bath:
    """Generate the n_spins occupied lattice sites nearest the origin.

    Sites are occupied independently with probability `abundance`; sites
    closer than min_radius (default: one bond length, so the first neighbor
    shell is retained) are discarded.  The lattice is walked shell by shell
    until enough occupied sites exist.  A request that would need more than
    _MAX_SITES candidate sites raises ValueError before allocating them.
    Deterministic for a fixed seed.
    """
    n_spins, abundance, min_radius = check_bath_parameters(
        n_spins, abundance, min_radius, seed=seed)
    if n_spins == 0:
        return Bath(np.zeros((0, 3)))
    # inclusive min_radius cut, robust to rounding of the shell distance
    r2_min = (min_radius * (1.0 - 1e-9)) ** 2
    return Bath(_occupied_lattice_sites(np.random.default_rng(seed), n_spins,
                                        abundance, r2_min))


def _pair_couplings(pos, gamma, first, second) -> np.ndarray:
    """Coupling (Hz) of pairs (first[k], second[k]) of spins at pos with
    ratios gamma, 8192 at a time: |A_zz| of the point-dipole tensor (the
    secular part), bit-identical to hamiltonians._dipole_tensors.
    """
    coupling = np.empty(len(first))
    for start in range(0, len(first), 8192):
        i, j = first[start:start + 8192], second[start:start + 8192]
        coupling[start:start + 8192] = np.abs(_dipole_tensors(
            pos.take(j, 0) - pos.take(i, 0), gamma[i], gamma[j])[:, 2, 2])
    return coupling


# The cell itself, then the 13 cell offsets after it in (dx, dy, dz) order:
# each pair of neighbouring cells once.
_NEIGHBOURS = np.array(
    [d for d in itertools.product((-1, 0, 1), repeat=3) if d >= (0, 0, 0)])


def _pairs_within(pos: np.ndarray, radius: float):
    """Row pairs (a, b) of pos with float |pos[b] - pos[a]|^2 <= radius^2,
    each once, and that r^2.

    Found on a grid of cells a little wider than radius, so that such a
    pair lies in one cell or in two neighbouring ones.  The candidate
    pairs are measured about 2^14 at a time.
    """
    cell = ((pos - pos.min(axis=0)) / (radius * (1.0 + 1e-6))).astype(np.int64)
    # one empty cell of padding on each axis keeps every offset key of an
    # occupied cell off every other occupied cell
    dims = cell.max(axis=0) + 2
    key = (cell[:, 0] * dims[1] + cell[:, 1]) * dims[2] + cell[:, 2]
    order = np.argsort(key, kind="stable")
    key = key[order]
    target = key[:, None] + (_NEIGHBOURS @ [dims[1] * dims[2], dims[2], 1])
    lo = np.searchsorted(key, target, "left")
    # in the cell itself, the spins after each one in key order
    lo[:, 0] = np.arange(1, len(key) + 1)
    lo, hi = lo.ravel(), np.searchsorted(key, target, "right").ravel()
    owner = np.repeat(order, len(_NEIGHBOURS))
    ends = np.cumsum(np.maximum(hi - lo, 0))
    cuts = np.searchsorted(ends, np.arange(1 << 14, ends[-1], 1 << 14))
    found = []
    for rows in np.split(np.arange(len(lo)), cuts):
        a, b = _runs(owner[rows], lo[rows], hi[rows] - 1, 1)
        b = order[b]
        d = pos[b]
        d -= pos[a]
        r2 = np.einsum("ij,ij->i", d, d)
        near = r2 <= radius * radius
        found.append((a[near], b[near], r2[near]))
    return (np.concatenate(part) for part in zip(*found))


def _descending_pairs(pos: np.ndarray, gamma: np.ndarray, open_: np.ndarray):
    """Pairs (i, j), i < j, of open spins at pos with ratios gamma by
    descending coupling, ties by the lower pair.

    Lazy, so a visit that stops early skips most couplings.  Each round
    takes the window of open pairs no farther apart than a radius R,
    computes the couplings of the pairs new to it and yields, sorted, those
    above the bound sqrt(6) |c| of every open pair outside it, c the dipole
    prefactor of the largest open |gamma| at distance R: the norm of
    c (1 - 3 rhat rhat) is sqrt(6) |c|, its zz element at most 2 |c|.  R
    starts where the window holds about 16 pairs a spin and grows so that
    the window grows about 4x a round; the round whose window holds every
    open pair takes the rest, pairs with a zero gamma among them.

    open_ is the caller's mask of spins whose group can still grow; it may
    clear spins between yields.  A pair with a cleared spin is never
    yielded after, as no merge could take it.
    """
    # relative margin far above the rounding of distances and couplings
    scale = math.sqrt(6.0) * (1.0 + 1e-6) * dipole_prefactor_hz(1.0, 1.0, 1.0)
    first = second = np.zeros(0, dtype=np.intp)
    coupling = np.zeros(0)
    radius, seen = 0.0, -1.0
    while True:
        spins = np.flatnonzero(open_)
        m = len(spins)
        if m < 2:
            return
        if not radius:
            # about 32 neighbours a spin in a ball the size of the bath
            radius = np.ptp(pos[spins], axis=0).max() / 2 * (32 / m) ** (1 / 3)
        a, b, r2 = _pairs_within(pos[spins], radius)
        new = r2 > seen
        i, j = spins[a[new]], spins[b[new]]
        i, j = np.minimum(i, j), np.maximum(i, j)
        still = open_[first] & open_[second]
        first = np.concatenate([first[still], i])
        second = np.concatenate([second[still], j])
        coupling = np.concatenate([coupling[still],
                                   _pair_couplings(pos, gamma, i, j)])
        if len(r2) == m * (m - 1) // 2:
            bound = -1.0
        else:
            top = np.abs(gamma[spins]).max()
            bound = scale * top * top / radius ** 3
        ready = coupling > bound
        order = np.lexsort((second[ready], first[ready], -coupling[ready]))
        yield from zip(first[ready][order].tolist(),
                       second[ready][order].tolist())
        if bound < 0.0:
            return
        first, second, coupling = \
            first[~ready], second[~ready], coupling[~ready]
        seen, radius = radius * radius, radius * 4.0 ** (1.0 / 3.0)


def cluster_bath(bath: Bath, g: int = 3) -> Partition:
    """Greedy agglomeration into groups of size at most g.

    All pairs are visited in order of descending coupling (ties broken by
    the lower index pair); a pair's groups merge whenever the merged size
    stays within g.  Spins never merged remain singletons.  The pairs of a
    group that reaches g leave the visit, and the visit stops once the two
    smallest groups together exceed g, as no pair skipped either way could
    merge: the partition is that of the full visit.
    """
    g = as_count(g, "g")
    n = len(bath)
    label = list(range(n))  # each spin's group, by the index of its list
    members = [[i] for i in range(n)]
    count = [0, n] + [0] * (min(g, n) - 1)  # count[s]: groups of size s
    if g > 1 and n > 1:
        open_ = np.ones(n, dtype=bool)  # spins whose group can still grow
        for i, j in _descending_pairs(bath.positions, bath.gammas, open_):
            keep, gone = members[label[i]], members[label[j]]
            if keep is gone or len(keep) + len(gone) > g:
                continue
            for m in gone:
                label[m] = label[i]
            count[len(keep)] -= 1
            count[len(gone)] -= 1
            keep += gone
            gone.clear()
            count[len(keep)] += 1
            if len(keep) == g:
                open_[keep] = False
            # the two smallest group sizes left, with multiplicity
            smallest = [s for s in range(1, len(count))
                        for _ in range(min(count[s], 2))][:2]
            if len(smallest) < 2 or sum(smallest) > g:
                break

    groups = sorted(tuple(sorted(group)) for group in members if group)
    return Partition(groups=groups, g=g, n_spins=n)
