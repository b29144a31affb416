import hashlib
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinbath.bathgen as bathgen
from oracles import (bath_from_json, bath_to_json, cluster_every_pair,
                     every_pair_coupling, lattice_bath_by_ball,
                     lattice_sites_by_lexsort, nearest_distance,
                     pair_coupling, radii)
from spinbath.bathgen import (
    Bath,
    Partition,
    child_seed,
    cluster_bath,
    generate_bath,
)
from spinbath.constants import (
    C13_ABUNDANCE,
    DIAMOND_ATOM_DENSITY_NM3,
    DIAMOND_BOND_NM,
    DIAMOND_LATTICE_NM,
    GAMMA_C13_HZ_PER_G,
    GAMMA_N14_HZ_PER_G,
    dipole_prefactor_hz,
)
from spinbath.hamiltonians import _dipole_tensors, _dipole_zz

_CELL_FRACTIONS = {
    (0.00, 0.00, 0.00), (0.00, 0.50, 0.50), (0.50, 0.00, 0.50),
    (0.50, 0.50, 0.00), (0.25, 0.25, 0.25), (0.25, 0.75, 0.75),
    (0.75, 0.25, 0.75), (0.75, 0.75, 0.25),
}


def test_generation_is_deterministic():
    b1 = generate_bath(seed=42, n_spins=60)
    b2 = generate_bath(seed=42, n_spins=60)
    assert b1.positions.tolist() == b2.positions.tolist()
    b3 = generate_bath(seed=43, n_spins=60)
    assert b1.positions.tolist() != b3.positions.tolist()


def test_requested_count_and_exclusion_zone():
    bath = generate_bath(seed=3, n_spins=80)
    assert len(bath) == 80
    assert min(radii(bath)) >= DIAMOND_BOND_NM * (1.0 - 1e-9)
    positions = {tuple(p) for p in bath.positions.tolist()}
    assert len(positions) == 80


def test_spins_are_sorted_from_the_origin_outward():
    bath = generate_bath(seed=9, n_spins=50)
    r = radii(bath).tolist()
    assert r == sorted(r)


def test_zero_spin_bath():
    bath = generate_bath(seed=0, n_spins=0)
    assert len(bath) == 0
    with pytest.raises(ValueError):
        nearest_distance(bath)


def test_positions_sit_on_the_diamond_lattice():
    bath = generate_bath(seed=12, n_spins=40)
    for position in bath.positions:
        frac = np.mod(position / DIAMOND_LATTICE_NM, 1.0)
        frac = np.round(frac, 6) % 1.0
        assert tuple(frac) in _CELL_FRACTIONS, position


def test_full_occupancy_starts_at_one_bond_length():
    # abundance 1 fills the lattice, so the nearest spin must sit exactly
    # on the first-neighbor shell; the shell is kept despite rounding
    bath = generate_bath(seed=1, n_spins=8, abundance=1.0)
    assert nearest_distance(bath) == pytest.approx(DIAMOND_BOND_NM, rel=1e-12)
    # the first shell has four members
    on_shell = [r for r in radii(bath) if abs(r - DIAMOND_BOND_NM) < 1e-9]
    assert len(on_shell) == 4


def test_larger_exclusion_radius_is_respected():
    bath = generate_bath(seed=5, n_spins=30, min_radius=1.0)
    assert nearest_distance(bath) >= 1.0 * (1.0 - 1e-9)


def test_growing_the_bath_keeps_the_near_spins():
    # occupancy draws are tied to the site ordering, not the search radius,
    # so a bigger bath extends a smaller one spin for spin
    small = generate_bath(seed=7, n_spins=20)
    large = generate_bath(seed=7, n_spins=90)
    assert small.positions.tolist() == large.positions.tolist()[:20]


def test_nearest_spin_statistic_matches_closed_form():
    # mean distance to the closest spin of a random bath at density n:
    # (4 pi n / 3)^(-1/3) Gamma(4/3)
    n = C13_ABUNDANCE * DIAMOND_ATOM_DENSITY_NM3
    expect = (4.0 * math.pi * n / 3.0) ** (-1.0 / 3.0) * math.gamma(4.0 / 3.0)
    for lattice in (True, False):
        mean = np.mean([
            nearest_distance(generate_bath(seed=k, n_spins=1, lattice=lattice))
            for k in range(200)])
        assert mean == pytest.approx(expect, rel=0.05), lattice


def test_continuum_mode():
    bath = generate_bath(seed=21, n_spins=50, lattice=False)
    assert len(bath) == 50
    assert nearest_distance(bath) >= DIAMOND_BOND_NM * (1.0 - 1e-9)
    again = generate_bath(seed=21, n_spins=50, lattice=False)
    assert bath.positions.tolist() == again.positions.tolist()
    # continuum points are generic, never lattice sites
    frac = np.mod(bath.positions[0] / DIAMOND_LATTICE_NM, 1.0)
    assert tuple(np.round(frac, 6)) not in _CELL_FRACTIONS


def _shells_up_to(r_max):
    """The sites of the lattice walk with r <= r_max, in walk order."""
    parts = []
    for sites, r2 in bathgen._lattice_shells():
        assert r2.tobytes() == np.einsum("ij,ij->i", sites, sites).tobytes()
        parts.append(sites[r2 <= r_max * r_max])
        if r2[-1] > r_max * r_max:
            return np.concatenate(parts)


def test_ball_enumeration_matches_the_cube_lexsort(monkeypatch):
    # the starting radii of the default and 400-spin baths, as generated
    radii = []
    real = bathgen._occupied_lattice_sites
    monkeypatch.setattr(bathgen, "_occupied_lattice_sites",
                        lambda rng, r_max, *args:
                        radii.append(r_max) or real(rng, r_max, *args))
    for n_spins in (125, 400):
        generate_bath(seed=0, n_spins=n_spins)
    monkeypatch.undo()
    assert [round(r, 2) for r in radii] == [3.24, 4.77]
    # one growth step, inside the first shell, and on and beside the
    # shells at q.q = 3 (one bond), 8, 11, 16 (one cell edge), 19, 24, 27
    radii += [radii[-1] * 1.4, 0.1]
    for qq in (3, 8, 11, 16, 19, 24, 27):
        r = math.sqrt(qq) * DIAMOND_LATTICE_NM / 4.0
        radii += [r, math.nextafter(r, 0.0), math.nextafter(r, 1.0)]
    radii += [DIAMOND_BOND_NM, DIAMOND_LATTICE_NM]
    for r_max in radii:
        sites = _shells_up_to(r_max)
        assert sites.tobytes() == lattice_sites_by_lexsort(r_max).tobytes(), \
            r_max


@pytest.mark.parametrize("n_spins,seeds", [(1, range(20)), (125, range(6)),
                                           (400, range(2)), (2000, range(1))])
def test_shell_draws_give_the_bath_of_one_ball_draw(n_spins, seeds):
    # one occupancy draw per shell equals one draw over the sorted ball;
    # at 2000 spins the shells have grown past _SHELL_SITES sites
    for seed in seeds:
        for abundance, min_radius in ((C13_ABUNDANCE, DIAMOND_BOND_NM),
                                      (1.0, 0.0), (0.05, 1.0)):
            bath = generate_bath(seed, n_spins, abundance, min_radius)
            ball = lattice_bath_by_ball(seed, n_spins, abundance, min_radius)
            assert bath.positions.tobytes() \
                == ball.tobytes(), (seed, abundance, min_radius)


def test_shell_walk_meets_the_budget_where_the_ball_does(monkeypatch):
    # A budget for balls up to about 3.9 nm: baths that need a larger ball
    # (a wider exclusion zone, more spins) must fail as the ball did.
    monkeypatch.setattr(bathgen, "_MAX_SITES", 8 * 25 ** 3)
    outcomes = set()
    for n_spins in (1, 40, 120, 200):
        for min_radius in (0.0, 0.5, 1.0, 1.5, 2.0, 2.75, 3.25):
            try:
                ball = lattice_bath_by_ball(3, n_spins, min_radius=min_radius)
            except ValueError as err:
                assert "above the budget" in str(err)
                with pytest.raises(ValueError, match="above the budget"):
                    generate_bath(3, n_spins, min_radius=min_radius)
                outcomes.add("over")
            else:
                bath = generate_bath(3, n_spins, min_radius=min_radius)
                assert bath.positions.tobytes() == ball.tobytes()
                outcomes.add("within")
    assert outcomes == {"over", "within"}


def test_generation_input_validation():
    with pytest.raises(ValueError):
        generate_bath(seed=0, n_spins=-1)
    with pytest.raises(ValueError):
        generate_bath(seed=0, n_spins=5, abundance=0.0)
    with pytest.raises(ValueError):
        generate_bath(seed=0, n_spins=5, abundance=1.2)
    with pytest.raises(ValueError):
        generate_bath(seed=0, n_spins=5, min_radius=-0.1)


@pytest.fixture
def enumeration_up_to_20_nm(monkeypatch):
    # Beyond 20 nm the real enumerations allocate gigabytes or walk millions
    # of sites; stop there so that a missing check fails fast.
    real_shells = bathgen._lattice_shells
    real_points = bathgen._continuum_points

    def check(r_max):
        if r_max > 20.0:
            pytest.fail(f"bath enumeration reached r = {r_max:.3g} nm")

    def shells():
        for sites, r2 in real_shells():
            check(math.sqrt(r2[-1]))
            yield sites, r2

    def points(rng, r_max, density):
        check(r_max)
        return real_points(rng, r_max, density)

    monkeypatch.setattr(bathgen, "_lattice_shells", shells)
    monkeypatch.setattr(bathgen, "_continuum_points", points)


def test_shell_walk_stops_at_the_budget(enumeration_up_to_20_nm, monkeypatch):
    # no site is ever kept, so only the budget can end the walk
    monkeypatch.setattr(bathgen, "_MAX_SITES", 8 * 25 ** 3)
    with pytest.raises(ValueError, match="above the budget"):
        bathgen._occupied_lattice_sites(np.random.default_rng(0), 1.0, 1,
                                        C13_ABUNDANCE, math.inf)


@pytest.mark.parametrize("min_radius", [math.nan, math.inf])
@pytest.mark.parametrize("lattice", [True, False])
def test_generate_bath_rejects_non_finite_min_radius(enumeration_up_to_20_nm,
                                                     min_radius, lattice):
    with pytest.raises(ValueError, match="min_radius must be finite"):
        generate_bath(seed=0, n_spins=5, min_radius=min_radius,
                      lattice=lattice)


_BUDGET_SCRIPT = """
import resource, sys
# a missing budget check then fails with MemoryError, not by exhausting memory
limit = 2 << 30
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
import numpy as np
from spinbath import bathgen
for call in (lambda: bathgen._occupied_lattice_sites(
                 np.random.default_rng(0), 100.0, 125, 0.011, 0.0),
             lambda: bathgen.generate_bath(0, 125, min_radius=100.0),
             lambda: bathgen.generate_bath(0, 125, min_radius=1000.0,
                                           lattice=False)):
    try:
        call()
    except ValueError as err:
        assert "above the budget" in str(err), err
    else:
        sys.exit("no ValueError")
print("ok")
"""


def test_site_budget_fails_before_allocating():
    # Run under a 2 GB address-space limit: without the budget each call
    # would try to allocate tens of gigabytes.
    src = os.path.dirname(os.path.dirname(bathgen.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _BUDGET_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


# Builds and clusters a 4000-spin bath in a fresh interpreter and prints the
# seconds it took and its peak RSS above the RSS after the imports (MiB).
_LARGE_BATH_SCRIPT = """
import time
from spinbath.bathgen import cluster_bath, generate_bath

def status_mib(field):
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024

base = status_mib("VmRSS")
start = time.perf_counter()
cluster_bath(generate_bath(7, 4000), 3)
print(time.perf_counter() - start, status_mib("VmHWM") - base)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak RSS from /proc")
def test_4000_spin_bath_builds_and_clusters_in_little_memory():
    # A sorted headroom ball and arrays over every pair took this run to
    # +453 MB and 2.7 s.
    src = os.path.dirname(os.path.dirname(bathgen.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _LARGE_BATH_SCRIPT],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    seconds, peak_mib = map(float, proc.stdout.split())
    assert peak_mib < 40.0
    assert seconds < 1.0


def test_site_budget_leaves_large_lattice_baths_alone():
    # 2000 spins at natural abundance stay far inside the budget
    assert len(generate_bath(seed=0, n_spins=2000)) == 2000


def test_bath_validation():
    with pytest.raises(ValueError):
        Bath([(0.0, 0.0, 0.0)])
    with pytest.raises(ValueError):
        Bath([(0.5, 0.0, 0.0), (0.5, 0.0, 0.0)])
    with pytest.raises(ValueError):
        Bath([(1.0, 2.0)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_bath_refuses_non_finite_positions_and_gammas(bad):
    # such a spin used to pass, and its group's eigh failed to converge
    with pytest.raises(ValueError, match="positions and gammas must be finite"):
        Bath([(0.5, 0.0, 0.0), (0.0, bad, 0.3)])
    with pytest.raises(ValueError, match="positions and gammas must be finite"):
        Bath([(0.5, 0.0, 0.0), (0.0, 0.2, 0.3)], [GAMMA_C13_HZ_PER_G, bad])


def test_bath_holds_read_only_arrays():
    bath = Bath([(0.5, 0.0, 0.0), (0.0, 0.2, 0.3)])
    assert bath.positions.shape == (2, 3)
    assert bath.gammas.tolist() == [GAMMA_C13_HZ_PER_G] * 2
    with pytest.raises(ValueError):
        bath.positions[0, 0] = 1.0
    with pytest.raises(ValueError):
        bath.gammas[0] = 1.0
    with pytest.raises(ValueError):
        Bath([(0.5, 0.0, 0.0)], [1.0, 2.0])


def test_bath_json_round_trip():
    bath = generate_bath(seed=17, n_spins=25)
    clone = bath_from_json(bath_to_json(bath))
    assert clone.positions.tolist() == bath.positions.tolist()
    assert clone.gammas.tolist() == bath.gammas.tolist()


def test_child_seed_is_stable_and_distinct():
    assert child_seed(0, 0) == child_seed(0, 0)
    seeds = {child_seed(123, k) for k in range(100)}
    assert len(seeds) == 100
    assert all(0 <= s < 2 ** 63 for s in seeds)
    # derivation is pinned: sha256 of "master:index", first 8 bytes, 63 bits
    digest = hashlib.sha256(b"123:7").digest()
    assert child_seed(123, 7) == int.from_bytes(digest[:8], "big") & (2 ** 63 - 1)


def test_pair_coupling_axial_pair():
    # two spins stacked along z: |A_zz| = 2 c / r^3
    bath = Bath([(0.0, 0.0, 0.5), (0.0, 0.0, 1.0)])
    c = pair_coupling(bath, 0, 1)
    expect = 2.0 * abs(dipole_prefactor_hz(GAMMA_C13_HZ_PER_G,
                                           GAMMA_C13_HZ_PER_G, 0.5))
    assert c == pytest.approx(expect, rel=1e-12)
    assert c == pytest.approx(pair_coupling(bath, 1, 0), rel=1e-12)


def test_pair_coupling_vanishes_at_magic_angle():
    # 3 cos^2 theta = 1
    z = 1.0 / math.sqrt(3.0)
    t = math.sqrt(1.0 - z * z)
    bath = Bath([(0.3, 0.0, 0.0), (0.3 + t, 0.0, z), (0.3, 0.0, 1.0)])
    assert pair_coupling(bath, 0, 1) < 1e-6 * pair_coupling(bath, 0, 2)


def test_partition_validation():
    Partition(groups=((0, 1), (2,)), g=2, n_spins=3)
    with pytest.raises(ValueError):
        Partition(groups=((0, 1, 2),), g=2, n_spins=3)
    with pytest.raises(ValueError):
        Partition(groups=((0, 1), (1, 2)), g=2, n_spins=3)
    with pytest.raises(ValueError):
        Partition(groups=((0, 1),), g=2, n_spins=3)
    with pytest.raises(ValueError):
        Partition(groups=((0, 1), (2, 3)), g=2, n_spins=3)


def test_cluster_invariants_across_seeds():
    for seed in range(6):
        bath = generate_bath(seed=seed, n_spins=40)
        part = cluster_bath(bath, g=3)
        assert part.n_spins == 40
        sizes = [len(grp) for grp in part]
        assert max(sizes) <= 3
        covered = sorted(i for grp in part for i in grp)
        assert covered == list(range(40))
        # deterministic
        assert cluster_bath(bath, g=3).groups == part.groups


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 63 - 1), n_spins=st.integers(0, 300),
       lattice=st.booleans(), g=st.integers(1, 5))
def test_a_seed_replays_the_bath_and_its_partition(seed, n_spins, lattice, g):
    bath = generate_bath(seed, n_spins, lattice=lattice)
    again = generate_bath(seed, n_spins, lattice=lattice)
    assert again.positions.tobytes() == bath.positions.tobytes()
    assert again.gammas.tobytes() == bath.gammas.tobytes()
    assert cluster_bath(again, g) == cluster_bath(bath, g)


def test_cluster_g1_gives_singletons():
    bath = generate_bath(seed=2, n_spins=15)
    part = cluster_bath(bath, g=1)
    assert part.groups == tuple((i,) for i in range(15))
    with pytest.raises(ValueError):
        cluster_bath(bath, g=0)


# the "-zz" ids name the coupling clustering ranks pairs by, |A_zz|
@pytest.mark.parametrize("n_spins", [125, 400], ids=["125-zz", "400-zz"])
def test_early_stop_keeps_the_partition_of_the_full_visit(n_spins):
    for seed in range(20):
        bath = generate_bath(seed=seed, n_spins=n_spins)
        for g in range(1, 6):
            assert cluster_bath(bath, g) == cluster_every_pair(bath, g), \
                (seed, g)


# on a 0.01 nm grid, so that equal couplings (ties) come up often
_coordinate = st.integers(-150, 150).map(lambda q: q / 100)
_drawn_spin = st.tuples(
    st.tuples(_coordinate, _coordinate, _coordinate).filter(any),
    st.sampled_from([GAMMA_C13_HZ_PER_G, -GAMMA_N14_HZ_PER_G, 0.0]))


@settings(max_examples=60, deadline=None)
@given(bath=st.one_of(
           st.builds(generate_bath, st.integers(0, 2 ** 32 - 1),
                     st.integers(1, 60), lattice=st.booleans()),
           st.lists(_drawn_spin, min_size=1, max_size=30,
                    unique_by=lambda spin: spin[0]).map(
               lambda spins: Bath(*zip(*spins)))),
       g=st.integers(1, 5))
def test_partition_covers_the_bath_and_equals_the_every_pair_visit(bath, g):
    part = cluster_bath(bath, g)
    assert sorted(i for group in part for i in group) == list(range(len(bath)))
    assert all(1 <= len(group) <= g for group in part)
    assert part == cluster_every_pair(bath, g)


def _mixed_gamma_bath(seed):
    """A default bath with some spins of other (signed) or zero gamma."""
    bath = generate_bath(seed=seed, n_spins=125)
    gammas = bath.gammas.copy()
    for k in range(0, len(gammas), 9):
        gammas[k] = GAMMA_N14_HZ_PER_G if k % 2 else -GAMMA_N14_HZ_PER_G
    gammas[4] = 0.0
    return Bath(bath.positions, gammas)


@pytest.mark.parametrize("make_bath", [
    lambda seed: generate_bath(seed=seed, n_spins=150, lattice=False),
    _mixed_gamma_bath,
], ids=["continuum-zz", "mixed-gamma-zz"])
def test_early_stop_keeps_the_partition_on_other_baths(make_bath):
    for seed in range(5):
        bath = make_bath(seed)
        for g in range(1, 6):
            assert cluster_bath(bath, g) == cluster_every_pair(bath, g), \
                (seed, g)


def _scalar_couplings(bath):
    """(i, j, coupling) of every pair i < j through pair_coupling."""
    pairs = list(itertools.combinations(range(len(bath)), 2))
    return pairs, [pair_coupling(bath, i, j) for i, j in pairs]


def _scalar_greedy_groups(n, pairs, couplings, g):
    """Reference clustering: the pair loop, sorted as (-coupling, i, j)."""
    parent = list(range(n))
    size = [1] * n

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for _, i, j in sorted((-c, i, j) for (i, j), c in zip(pairs, couplings)):
        ri, rj = sorted((find(i), find(j)))
        if ri != rj and size[ri] + size[rj] <= g:
            parent[rj] = ri
            size[ri] += size[rj]
    members = {}
    for i in range(n):
        members.setdefault(find(i), []).append(i)
    return tuple(tuple(m) for m in sorted(members.values()))


def _check_against_scalar(bath):
    # bit-equal couplings are what keep the greedy order, ties included
    first, second, coupling = every_pair_coupling(bath)
    pairs, scalar = _scalar_couplings(bath)
    assert list(zip(first.tolist(), second.tolist())) == pairs
    assert np.array_equal(coupling, scalar)
    assert cluster_bath(bath, g=3).groups == \
        _scalar_greedy_groups(len(bath), pairs, scalar, 3)


@pytest.mark.parametrize("n_spins,seeds", [(125, range(10)), (400, range(2))])
def test_vectorised_clustering_matches_scalar_pair_loop(n_spins, seeds):
    for seed in seeds:
        _check_against_scalar(generate_bath(seed=seed, n_spins=n_spins))


@pytest.mark.parametrize("n_spins,lattice", [(400, True), (125, False)],
                         ids=["bath-large-nv", "continuum"])
def test_zz_couplings_equal_the_tensor_element(n_spins, lattice):
    # clustering computes A_zz alone; it must keep every bit of the
    # tensor's element, signed zeros included
    bath = generate_bath(child_seed(0, 0), n_spins=n_spins, lattice=lattice)
    pos, gamma = bath.positions, bath.gammas
    first, second = np.triu_indices(len(bath), 1)
    args = pos[second] - pos[first], gamma[first], gamma[second]
    tensor_zz = _dipole_tensors(*args)[:, 2, 2]
    assert _dipole_zz(*args).tobytes() == tensor_zz.tobytes()
    coupling = bathgen._pair_couplings(pos, gamma, first, second)
    assert coupling.tobytes() == np.abs(tensor_zz).tobytes()


def _intra_sum(bath, groups):
    total = 0.0
    for grp in groups:
        for i, j in itertools.combinations(grp, 2):
            total += pair_coupling(bath, i, j)
    return total


def test_two_tight_pairs_cluster_optimally():
    # two near pairs, far apart: the greedy result must match the best
    # partition found by exhaustive search
    bath = Bath([(1.0, 0.0, 0.0), (1.0, 0.0, 0.2),
                 (-4.0, 2.0, 1.0), (-4.0, 2.0, 1.22)])
    part = cluster_bath(bath, g=2)
    assert part.groups == ((0, 1), (2, 3))

    def partitions_max2(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for sub in partitions_max2(rest):
            yield [[first]] + sub
        for k in range(len(rest)):
            remaining = rest[:k] + rest[k + 1:]
            for sub in partitions_max2(remaining):
                yield [[first, rest[k]]] + sub

    best = max(partitions_max2(list(range(4))),
               key=lambda grps: _intra_sum(bath, grps))
    assert sorted(tuple(sorted(g)) for g in best) == list(part.groups)


def test_greedy_quality_statistic():
    """Groups bind strongly inside and weakly outside, in aggregate.

    The aggregate form is the right quality measure here: a strict
    worst-pair-beats-best-external reading is unattainable for any
    size-capped partition of a dense bath, because four mutually close
    spins cannot share a group of three (one always keeps a strong
    external bond) and the zz coupling has magic-angle zeros that park
    near-zero couplings inside otherwise tight groups.  Measured over
    20 default baths the aggregate form holds in 99.5% of multi-spin
    groups and the partition-wide contrast exceeds a factor of 45.
    """
    good = 0
    total = 0
    contrasts = []
    pref = dipole_prefactor_hz(GAMMA_C13_HZ_PER_G, GAMMA_C13_HZ_PER_G, 1.0)
    for seed in range(20):
        bath = generate_bath(seed=seed, n_spins=125)
        pos = bath.positions
        diff = pos[:, None, :] - pos[None, :, :]
        dist = np.linalg.norm(diff, axis=-1)
        np.fill_diagonal(dist, np.inf)
        cos2 = (diff[:, :, 2] / dist) ** 2
        zz = np.abs(pref * (1.0 - 3.0 * cos2) / dist ** 3)

        # the vectorized couplings must agree with the scalar routine
        if seed == 0:
            rng = np.random.default_rng(0)
            for _ in range(50):
                i, j = rng.integers(0, 125, size=2)
                if i == j:
                    continue
                assert zz[i, j] == pytest.approx(
                    pair_coupling(bath, i, j), rel=1e-9)

        part = cluster_bath(bath, g=3)
        intra_all = []
        ext_means = []
        for grp in part:
            members = list(grp)
            outside_mask = np.ones(125, dtype=bool)
            outside_mask[members] = False
            ext = zz[np.ix_(members, np.where(outside_mask)[0])]
            ext_means.append(ext.mean())
            if len(grp) < 2:
                continue
            total += 1
            intra = [zz[i, j] for i in grp for j in grp if i < j]
            intra_all.extend(intra)
            if np.mean(intra) >= ext.mean():
                good += 1
        contrasts.append(np.mean(intra_all) / np.mean(ext_means))
    assert total > 100
    assert good / total >= 0.9, (good, total)
    assert min(contrasts) > 20.0
