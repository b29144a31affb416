"""A fixed reference program that the benchmark times next to each workload run.

    python3 perfbench/reference_load.py

It has the cost profile of a spinbath command, but shares no code with it:
a fresh interpreter, the numpy and scipy imports spinbath makes, then dense
work on small complex matrices (Kronecker-built Hermitian matrices of
dimension 48, one eigensolve each, then phase multiplies and products over
a grid of delays).  Its inputs are fixed, so its work never changes; only
the machine's speed moves its time.  ``run.py`` divides each workload run's
wall time by the wall time of the reference run in the same cycle
(``wall_rel``), which cancels the speed drift of a shared host.
"""

from __future__ import annotations

import sys

import numpy as np
import scipy.constants  # noqa: F401  (spinbath imports both)
import scipy.optimize  # noqa: F401

GROUPS = 80
TAUS = 150
DIM_CENTRAL = 6
DIM_GROUP = 8  # three spin-1/2 carbons


def main() -> int:
    rng = np.random.default_rng(12345)
    sx = np.array([[0, 1], [1, 0]], dtype=complex) / 2
    sy = np.array([[0, -1j], [1j, 0]]) / 2
    sz = np.diag([0.5, -0.5]).astype(complex)
    eye2 = np.eye(2, dtype=complex)
    hc = rng.standard_normal((DIM_CENTRAL, DIM_CENTRAL)) + 0j
    hc = hc + hc.T
    eye_c = np.eye(DIM_CENTRAL)
    total = 0.0
    for _ in range(GROUPS):
        h = np.kron(hc, np.eye(DIM_GROUP))
        for k in range(3):
            for s in (sx, sy, sz):
                ops = [eye2, eye2, eye2]
                ops[k] = s
                op = np.kron(np.kron(ops[0], ops[1]), ops[2])
                h = h + rng.standard_normal() * np.kron(eye_c, op)
        w, v = np.linalg.eigh(h)
        m0 = v.conj().T[:, :DIM_GROUP].copy()
        row = v[:DIM_GROUP, :]
        rot = v.conj().T @ np.kron(eye_c + 0.1j * hc, np.eye(DIM_GROUP)) @ v
        for tau in np.linspace(0.0, 3e-5, TAUS):
            phases = np.exp(-2j * np.pi * w * tau)[:, None]
            m = phases * (rot @ (phases * m0))
            total += float(np.linalg.norm(row @ m) ** 2)
    if not np.isfinite(total):
        print("reference load: non-finite result", file=sys.stderr)
        return 1
    print(repr(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
