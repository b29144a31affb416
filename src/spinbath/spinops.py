"""Spin operator algebra, composite spaces and ideal two-level pulses.

Matrices are dense complex numpy arrays; Hilbert dimensions stay at or
below 48 (a six-level center and three bath carbons), so evolution is
computed by exact Hermitian eigendecomposition rather than series
approximations.

Conventions:
    basis states within a slot are ordered by descending projection,
    m = +s, ..., -s;
    Hamiltonians are in ordinary-frequency units (Hz) and evolution
    supplies the 2*pi: U(t) = exp(-i 2 pi H t);
    composite slot order is fixed per simulation as
    [central electron, central nucleus (if present), bath spin 1..g].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce, lru_cache

import numpy as np

__all__ = [
    "SpinOperatorSet",
    "CompositeSpace",
    "spin_operators",
    "embed",
    "two_level_unitary",
    "AXIS_VECTORS",
]

# unit vectors (x, y) of the four pulse-phase labels, the only axis table
AXIS_VECTORS = {
    "x": (1.0, 0.0),
    "y": (0.0, 1.0),
    "-x": (-1.0, 0.0),
    "-y": (0.0, -1.0),
}


@dataclass(frozen=True, eq=False)
class SpinOperatorSet:
    """Angular momentum matrices for a single spin (hbar = 1)."""

    s: float
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray

    @property
    def dim(self) -> int:
        return int(round(2 * self.s + 1))



@lru_cache(maxsize=None)
def _spin_matrices(twice_s: int):
    s = twice_s / 2.0
    dim = twice_s + 1
    m = s - np.arange(dim)  # descending projections
    sz = np.diag(m).astype(complex)
    sp = np.zeros((dim, dim), dtype=complex)
    for k in range(dim - 1):
        sp[k, k + 1] = np.sqrt(s * (s + 1) - m[k + 1] * (m[k + 1] + 1))
    sx = (sp + sp.conj().T) / 2.0
    sy = (sp - sp.conj().T) / 2.0j
    for a in (sx, sy, sz):
        a.flags.writeable = False
    return sx, sy, sz


def spin_operators(s: float) -> SpinOperatorSet:
    """Return sx, sy, sz for spin quantum number s (2s must be integral)."""
    twice_s = 2 * s
    if abs(twice_s - round(twice_s)) > 1e-12 or twice_s < 1:
        raise ValueError(f"spin quantum number must be half-integral, got {s}")
    sx, sy, sz = _spin_matrices(int(round(twice_s)))
    return SpinOperatorSet(s=s, sx=sx, sy=sy, sz=sz)


@dataclass(frozen=True)
class CompositeSpace:
    """An ordered tensor product of subsystems, identified by dimension."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if any(d < 2 for d in dims):
            raise ValueError("every slot must have dimension >= 2")
        object.__setattr__(self, "dims", dims)


def embed(op: np.ndarray, slot: int, space: CompositeSpace) -> np.ndarray:
    """Tensor op on the given slot with identities on every other slot."""
    op = np.asarray(op, dtype=complex)
    if not (0 <= slot < len(space.dims)):
        raise ValueError(f"slot {slot} outside space with {len(space.dims)} slots")
    if op.shape != (space.dims[slot], space.dims[slot]):
        raise ValueError(
            f"operator dimension {op.shape} does not match slot dimension "
            f"{space.dims[slot]}")
    factors = [op if k == slot else np.eye(d, dtype=complex)
               for k, d in enumerate(space.dims)]
    return reduce(np.kron, factors)


def two_level_unitary(axis: str, angle: float) -> np.ndarray:
    """Ideal rotation exp(-i angle (n . sigma) / 2), n = AXIS_VECTORS[axis]."""
    if axis not in AXIS_VECTORS:
        raise ValueError(f"unknown pulse axis {axis!r}")
    nx, ny = AXIS_VECTORS[axis]
    c = np.cos(angle / 2.0)
    s = np.sin(angle / 2.0)
    return np.array(
        [[c, -1j * s * (nx - 1j * ny)],
         [-1j * s * (nx + 1j * ny), c]], dtype=complex)
