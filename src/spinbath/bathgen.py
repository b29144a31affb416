"""Seeded generation of carbon-13 baths and their disjoint-cluster partitions.

Positions are in nm with the defect at the origin.  Lattice mode walks the
diamond-cubic lattice (a = 0.3567 nm, 8-atom conventional cell) outward from
the origin and occupies each site with the isotopic abundance; continuum mode
scatters points uniformly at the matching number density.  All randomness
comes from numpy's default generator seeded per bath, so a (seed, parameters)
pair is fully replayable.

Site ordering in lattice mode is by (r^2, x, y, z), which makes the occupancy
draws independent of how far the enumeration happened to extend: growing the
search radius appends sites, so the near-origin draws never change.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .constants import (
    DIAMOND_ATOM_DENSITY_NM3,
    DIAMOND_BOND_NM,
    DIAMOND_LATTICE_NM,
    GAMMA_C13_HZ_PER_G,
)
from .hamiltonians import _dipole_tensors, hyperfine_tensor

__all__ = [
    "BathSpin",
    "Bath",
    "Partition",
    "generate_bath",
    "check_bath_parameters",
    "pair_coupling",
    "cluster_bath",
    "child_seed",
]

# fractional coordinates of the 8-atom conventional diamond cell
_CELL_SITES = np.array([
    [0.00, 0.00, 0.00], [0.00, 0.50, 0.50],
    [0.50, 0.00, 0.50], [0.50, 0.50, 0.00],
    [0.25, 0.25, 0.25], [0.25, 0.75, 0.75],
    [0.75, 0.25, 0.75], [0.75, 0.75, 0.25],
])

# Most candidate sites (lattice) or points (continuum) one enumeration may
# hold; at this budget (r near 18.5 nm on the lattice) the enumeration
# peaks at about 0.55 GB.  A larger request fails before it allocates.
_MAX_SITES = 10_000_000

@dataclass(frozen=True)
class BathSpin:
    """One nuclear spin of the bath: position (nm) and gyromagnetic ratio (Hz/G)."""

    position: tuple[float, float, float]
    gamma: float = GAMMA_C13_HZ_PER_G
    species: str = "13C"

    def __post_init__(self):
        pos = tuple(float(x) for x in self.position)
        if len(pos) != 3:
            raise ValueError("position must have three components")
        object.__setattr__(self, "position", pos)

    @property
    def r(self) -> float:
        return math.sqrt(sum(x * x for x in self.position))


@dataclass(frozen=True)
class Bath:
    """An immutable collection of bath spins around the origin defect."""

    spins: tuple[BathSpin, ...]
    seed: int
    abundance: float = 0.011
    min_radius: float = DIAMOND_BOND_NM
    lattice: bool = True

    def __post_init__(self):
        object.__setattr__(self, "spins", tuple(self.spins))
        positions = [s.position for s in self.spins]
        if len(set(positions)) != len(positions):
            raise ValueError("bath spins must occupy distinct positions")
        if any(s.r == 0.0 for s in self.spins):
            raise ValueError("no bath spin may sit on the defect site")

    def __len__(self) -> int:
        return len(self.spins)

    def __iter__(self):
        return iter(self.spins)

    def nearest_distance(self) -> float:
        """Distance from the origin to the closest bath spin (nm)."""
        if not self.spins:
            raise ValueError("empty bath has no nearest spin")
        return min(s.r for s in self.spins)

    def to_json(self) -> str:
        payload = {
            "seed": self.seed,
            "abundance": self.abundance,
            "min_radius": self.min_radius,
            "lattice": self.lattice,
            "spins": [
                {"position": list(s.position), "gamma": s.gamma,
                 "species": s.species}
                for s in self.spins
            ],
        }
        return json.dumps(payload, indent=2)


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
    digest = hashlib.sha256(f"{master_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") & (2 ** 63 - 1)


def _check_site_budget(n_candidates: float, r_max: float) -> None:
    if n_candidates > _MAX_SITES:
        raise ValueError(
            f"a bath out to {r_max:.4g} nm needs about {n_candidates:.3g} "
            f"candidate sites, above the budget of {_MAX_SITES:.3g}; lower "
            f"min_radius or n_spins, or raise abundance")


def _lattice_sites(r_max: float) -> np.ndarray:
    """All lattice sites with 0 < r <= r_max, sorted by (r^2, x, y, z)."""
    a = DIAMOND_LATTICE_NM
    m = int(math.ceil(r_max / a)) + 1
    _check_site_budget(len(_CELL_SITES) * (2 * m + 1) ** 3, r_max)
    cells = np.arange(-m, m + 1)
    ci, cj, ck = np.meshgrid(cells, cells, cells, indexing="ij")
    corners = np.stack([ci.ravel(), cj.ravel(), ck.ravel()], axis=1)
    sites = (corners[:, None, :] + _CELL_SITES[None, :, :]).reshape(-1, 3) * a
    r2 = np.einsum("ij,ij->i", sites, sites)
    keep = (r2 > 1e-18) & (r2 <= r_max * r_max)
    sites, r2 = sites[keep], r2[keep]
    order = np.lexsort((sites[:, 2], sites[:, 1], sites[:, 0], r2))
    return sites[order]


def _continuum_points(rng: np.random.Generator, r_max: float,
                      density: float) -> np.ndarray:
    """Uniform points in the ball of radius r_max at the given density (nm^-3)."""
    volume = 4.0 / 3.0 * math.pi * r_max ** 3
    _check_site_budget(density * volume, r_max)
    count = int(rng.poisson(density * volume))
    radii = r_max * rng.random(count) ** (1.0 / 3.0)
    direction = rng.normal(size=(count, 3))
    norms = np.linalg.norm(direction, axis=1)
    norms[norms == 0.0] = 1.0
    points = direction / norms[:, None] * radii[:, None]
    r2 = np.einsum("ij,ij->i", points, points)
    order = np.argsort(r2, kind="stable")
    return points[order]


def check_bath_parameters(n_spins: int, abundance: float,
                          min_radius: float = DIAMOND_BOND_NM) -> None:
    """Raise ValueError unless generate_bath accepts these parameters."""
    if n_spins < 0:
        raise ValueError("n_spins must be non-negative")
    if not 0.0 < abundance <= 1.0:
        raise ValueError("abundance must lie in (0, 1]")
    if not (math.isfinite(min_radius) and min_radius >= 0.0):
        raise ValueError("min_radius must be finite and non-negative")


def generate_bath(seed: int, n_spins: int = 125, abundance: float = 0.011,
                  min_radius: float = DIAMOND_BOND_NM, *,
                  lattice: bool = True) -> Bath:
    """Generate the n_spins occupied sites nearest the origin.

    Lattice sites are occupied independently with probability `abundance`;
    sites closer than min_radius (default: one bond length, so the first
    neighbor shell is retained) are discarded.  The enumeration radius
    grows geometrically until enough occupied sites exist; a request that
    would need more than _MAX_SITES candidate sites raises ValueError
    before allocating them.  Deterministic for a fixed seed.
    """
    check_bath_parameters(n_spins, abundance, min_radius)
    if n_spins == 0:
        return Bath(spins=(), seed=seed, abundance=abundance,
                    min_radius=min_radius, lattice=lattice)

    # initial radius from the expected count, with headroom
    expected_volume = n_spins / (abundance * DIAMOND_ATOM_DENSITY_NM3)
    r_max = max((expected_volume * 3.0 / (4.0 * math.pi)) ** (1.0 / 3.0) * 1.3,
                min_radius + 2.0 * DIAMOND_BOND_NM)

    # inclusive min_radius cut, robust to rounding of the shell distance
    r2_min = (min_radius * (1.0 - 1e-9)) ** 2

    for _ in range(64):
        rng = np.random.default_rng(seed)
        if lattice:
            sites = _lattice_sites(r_max)
            occupied = sites[rng.random(len(sites)) < abundance]
        else:
            occupied = _continuum_points(
                rng, r_max, abundance * DIAMOND_ATOM_DENSITY_NM3)
        r2 = np.einsum("ij,ij->i", occupied, occupied)
        occupied = occupied[r2 >= r2_min]
        if len(occupied) >= n_spins:
            chosen = occupied[:n_spins]
            spins = tuple(BathSpin(position=(float(p[0]), float(p[1]),
                                             float(p[2])))
                          for p in chosen)
            return Bath(spins=spins, seed=seed, abundance=abundance,
                        min_radius=min_radius, lattice=lattice)
        r_max *= 1.4
    raise RuntimeError("bath generation failed to converge")  # pragma: no cover


def pair_coupling(spin_i: BathSpin, spin_j: BathSpin, *,
                  metric: str = "zz") -> float:
    """Coupling magnitude (Hz) between two bath spins, used for clustering.

    The default metric is the |zz| element of the point-dipole tensor (the
    secular part along the field axis); "frobenius" uses the full tensor
    norm instead.
    """
    r = np.asarray(spin_j.position) - np.asarray(spin_i.position)
    tensor = hyperfine_tensor(r, spin_i.gamma, spin_j.gamma)
    if metric == "zz":
        return abs(float(tensor[2, 2]))
    if metric == "frobenius":
        return float(np.linalg.norm(tensor))
    raise ValueError(f"unknown clustering metric {metric!r}")


def _pair_couplings(bath: Bath, metric: str):
    """(i, j, coupling) for every pair i < j, bit-identical to pair_coupling.

    The tensors come from pair_coupling's dipole formula, 8192 pairs at a
    time, and the norm is a dot product as in np.linalg.norm.
    """
    if metric not in ("zz", "frobenius"):
        raise ValueError(f"unknown clustering metric {metric!r}")
    pos = np.array([s.position for s in bath.spins])
    gamma = np.array([s.gamma for s in bath.spins])
    i, j = np.triu_indices(len(bath), 1)
    coupling = np.empty(len(i))
    for start in range(0, len(i), 8192):
        k = slice(start, start + 8192)
        tensors = _dipole_tensors(pos[j[k]] - pos[i[k]], gamma[i[k]],
                                  gamma[j[k]]).reshape(-1, 9)
        coupling[k] = (np.abs(tensors[:, 8]) if metric == "zz"  # A_zz
                       else np.sqrt(np.vecdot(tensors, tensors)))
    return i, j, coupling


def cluster_bath(bath: Bath, g: int = 3, *, metric: str = "zz") -> Partition:
    """Greedy agglomeration into groups of size at most g.

    All pairs are visited in order of descending coupling (ties broken by
    the lower index pair); a pair's groups merge whenever the merged size
    stays within g.  Spins never merged remain singletons.  The visit
    stops once the two smallest groups together exceed g, as no later
    pair could merge: the partition is that of the full visit.
    """
    if g < 1:
        raise ValueError("g must be at least 1")
    n = len(bath)
    parent = list(range(n))
    size = [1] * n
    count = [0, n] + [0] * (g - 1)  # count[s]: groups of size s

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    if g > 1 and n > 1:
        first, second, coupling = _pair_couplings(bath, metric)
        # stable, so ties keep the lower-index-first order of the pairs
        order = np.argsort(-coupling, kind="stable")
        for i, j in zip(first[order].tolist(), second[order].tolist()):
            ri, rj = find(i), find(j)
            if ri == rj:
                continue
            if size[ri] + size[rj] <= g:
                if rj < ri:
                    ri, rj = rj, ri
                parent[rj] = ri
                count[size[ri]] -= 1
                count[size[rj]] -= 1
                size[ri] += size[rj]
                count[size[ri]] += 1
                # the two smallest group sizes left, with multiplicity
                smallest = [s for s in range(1, g + 1)
                            for _ in range(min(count[s], 2))][:2]
                if len(smallest) < 2 or sum(smallest) > g:
                    break

    members: dict[int, list[int]] = {}
    for i in range(n):
        members.setdefault(find(i), []).append(i)
    groups = tuple(tuple(sorted(members[root]))
                   for root in sorted(members, key=lambda r: min(members[r])))
    return Partition(groups=groups, g=g, n_spins=n)
