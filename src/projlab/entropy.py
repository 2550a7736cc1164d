"""Dyadic measures, entropy, and projected-entropy experiments.

A `DyadicMeasure` is a probability measure given by positive masses on
level-n dyadic cubes of [0,1)^d, d in {1, 2}.  Its cubes are the rows of an
(N, d) index array in both dimensions; for d = 1 a flat array is accepted.
When a point realization is needed (projections, ball counts) the mass of a
cube sits at the cube center, so every measure manipulated here is a genuine
atomic probability measure and the exact entropy identities apply to it
verbatim.

Entropy is computed in natural log; the normalized value divides by
m*log(2) at aggregation level m and reads as an average local dimension.

Projections along a direction e are pushed into [0,1) by the fixed
per-direction similarity

    w = (t - min(0, cos theta)) / 2,

whose ratio 1/2 is an exact power of two: dyadic intervals of w correspond
to dyadic intervals of t one level up, so the axis-aligned projections of
dyadic constructions stay exactly dyadic.  A similarity shifts dyadic
entropy by a bounded additive amount, which only affects soft-reported
constants, never the exact identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    Direction,
    InvalidParameterError,
    Scale,
    _check_grid_size,
    _group_rows,
    _row_starts,
    direction_grid,
)
from .pointsets import LatticePointSet, ParseError, _header_scale, _read_header, gen_four_corners
from .projections import _project_coords, _unit_coords, covering_number_1d
from .records import ExperimentRecord

LOG2 = math.log(2.0)
MASS_TOL = 1e-12
# Atom centers whose (center, cube) frontier `ad_regularity_check` traverses
# together; bounds the frontier's memory on dense measures.
REGULARITY_BLOCK = 512
# Regularity constant A above which `marstrand_average` flags the measure.
REGULARITY_ALARM_A = 100.0


def shannon(masses) -> float:
    """-sum p log p in natural log, with 0 log 0 = 0."""
    p = np.asarray(masses, dtype=np.float64)
    p = p[p > 0.0]
    if p.size == 0:
        return 0.0
    # + 0.0 turns the -0.0 of a point mass into 0.0 and changes nothing else
    return float(-(p * np.log(p)).sum()) + 0.0


@dataclass(frozen=True)
class EntropyValue:
    raw: float  # nats
    normalized: float  # raw / (level * log 2); 0 at level 0
    level: int


@dataclass(frozen=True)
class DyadicMeasure:
    dim: int
    level: int
    idx: np.ndarray  # (N, dim) int64; rows lexicographically sorted, unique
    mass: np.ndarray  # (N,) float64, strictly positive, sums to 1

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise InvalidParameterError(f"dim={self.dim} must be 1 or 2")
        if not (0 <= self.level <= 62):
            raise InvalidParameterError(f"level={self.level} outside [0, 62]")
        idx = np.asarray(self.idx, dtype=np.int64).reshape(-1, self.dim)
        mass = np.asarray(self.mass, dtype=np.float64).ravel()
        if len(mass) != len(idx):
            raise InvalidParameterError("index and mass arrays disagree in length")
        if (mass < 0).any():
            raise InvalidParameterError("negative mass")
        keep = mass > 0.0
        idx, mass = idx[keep], mass[keep]
        if idx.size == 0:
            raise InvalidParameterError("measure has no mass")
        side = 1 << self.level
        if idx.min() < 0 or idx.max() >= side:
            raise InvalidParameterError(f"cube index outside [0, 2^{self.level})")
        order = np.lexsort(idx.T[::-1])
        idx, mass = idx[order], mass[order]
        if not _row_starts(idx).all():
            raise InvalidParameterError("duplicate cube index")
        total = mass.sum()
        if abs(total - 1.0) > MASS_TOL:
            raise InvalidParameterError(f"masses sum to {float(total)!r}, not 1")
        idx.setflags(write=False)
        mass.setflags(write=False)
        object.__setattr__(self, "idx", idx)
        object.__setattr__(self, "mass", mass)

    def __len__(self) -> int:
        return len(self.mass)

    def coarsen(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Aggregated (indices, masses) at level m, sorted by index."""
        if not (0 <= m <= self.level):
            raise InvalidParameterError(f"level m={m} outside [0, {self.level}]")
        uniq, inv = _group_rows(self.idx >> (self.level - m))
        agg = np.bincount(inv, weights=self.mass)
        return uniq, agg

    def centers(self) -> np.ndarray:
        """Atom locations: cube centers, in [0,1)^d."""
        return (self.idx + 0.5) * 2.0 ** (-self.level)


def from_pointset(ps: LatticePointSet) -> DyadicMeasure:
    """Uniform mass on the cubes occupied by the set."""
    if len(ps) == 0:
        raise InvalidParameterError("cannot build a measure from an empty set")
    n = len(ps)
    return DyadicMeasure(2, ps.scale.n, ps.points, np.full(n, 1.0 / n))


def entropy(mu: DyadicMeasure, m: int) -> EntropyValue:
    """Dyadic entropy of mu aggregated to level m."""
    _, agg = mu.coarsen(m)
    raw = shannon(agg)
    return EntropyValue(raw, raw / (m * LOG2) if m > 0 else 0.0, m)


def conditional_entropy(mu: DyadicMeasure, fine: int, coarse: int) -> float:
    """H(mu, D_fine | D_coarse) computed directly as the mass-weighted sum of
    entropies of the renormalized pieces.  By the chain rule it equals
    H(fine) - H(coarse); `projlab entropy cef` records that identity as a
    hard check."""
    if not (0 <= coarse <= fine <= mu.level):
        raise InvalidParameterError(
            f"need 0 <= coarse <= fine <= {mu.level}, got ({fine}, {coarse})"
        )
    fine_idx, fine_mass = mu.coarsen(fine)
    _, inv = _group_rows(fine_idx >> (fine - coarse))
    return _grouped_entropy(inv, fine_mass)


def _grouped_entropy(group: np.ndarray, mass: np.ndarray) -> float:
    """Mass-weighted entropy of the renormalized groups, in nats:
    sum_g mass(g) * shannon(masses of g / mass(g)), which equals
    -sum_a mass_a log(mass_a / mass(g_a)).  `group` holds dense ids in
    [0, number of groups); the masses are positive.  A group of one atom
    adds +0.0, not -0.0."""
    total = np.bincount(group, weights=mass)
    return float(-(mass * np.log(mass / total[group])).sum()) + 0.0


def _projected_bins(x: np.ndarray, y: np.ndarray, e: Direction, level: int) -> np.ndarray:
    """Level-`level` bins of the points (x, y) in [0,1]^2 projected along e
    and mapped into [0,1) by the similarity w = (t - offset)/2, with
    offset = min(0, cos theta): integers in [0, 2^level), equal to
    floor(w 2^level) bit for bit.

    Scaling.  w 2^level is computed as (t - offset) 2^(level-1), one
    power-of-two scaling.  It equals the rounded w = (t - offset)/2 times
    2^level: t - offset is below 2, so nothing overflows for level <= 62,
    and halving rounds only below 2^-1021, where both products are below 1
    and give bin 0.

    Truncation.  w >= 0, so truncating to an integer is floor.  For
    cos theta >= 0 the offset is 0 and both rounded terms x c and y s are
    non-negative.  For cos theta < 0 the offset is c: every center has
    x <= 1, so x c >= c, and rounding is monotone with c representable, so
    fl(x c) >= c; adding fl(y s) >= 0 and subtracting c keeps it >= 0.
    """
    t = _project_coords((x, y), e)
    t -= min(0.0, math.cos(e.theta))
    t *= 2.0 ** (level - 1)
    return t.astype(np.int64)


def project_measure(mu: DyadicMeasure, e: Direction, out_level: int) -> DyadicMeasure:
    """Push-forward of mu under projection along e, renormalized into [0,1)
    by the per-direction similarity, binned at out_level."""
    if mu.dim != 2:
        raise InvalidParameterError("project_measure needs a planar measure")
    if not (0 <= out_level <= 62):
        raise InvalidParameterError(f"out_level={out_level} outside [0, 62]")
    bins = _projected_bins(*mu.centers().T, e, out_level)
    uniq, inv = np.unique(bins, return_inverse=True)
    agg = np.bincount(inv, weights=mu.mass)
    return DyadicMeasure(1, out_level, uniq, agg / agg.sum())


def multiscale_check(mu: DyadicMeasure, e: Direction, m: int) -> ExperimentRecord:
    """Multi-scale decomposition of projected entropy.

    Verifies (hard) that the full-depth normalized entropy dominates the
    blow-up average

        H_n >= (m/n) sum_k sum_Q mu(Q) H_m(proj of blow-up at Q) - 10/m,

    the absolute constant 10 covering the discarded remainder levels and the
    grid-alignment slack of the per-cube similarities.

    All level-km blow-ups are taken in one pass per k: each atom is binned
    at its center local to its cube, as `project_measure` would place it in
    the renormalized, rescaled restriction of mu to the cube, and
    sum_Q mu(Q) H_m(...) is the entropy of the (cube, bin) masses
    conditional on the cube.  The sum agrees with the per-cube evaluation
    up to the order of the floating-point additions.
    """
    n = mu.level
    if not (0 < m < n):
        raise InvalidParameterError(f"need 0 < m < n = {n}, got m = {m}")
    lhs = entropy(project_measure(mu, e, n), n).normalized
    block_sum = 0.0
    for k in range(n // m):
        shift = n - k * m
        local = ((mu.idx & ((1 << shift) - 1)) + 0.5) * 2.0 ** (-shift)
        keys = np.column_stack([mu.idx >> shift, _projected_bins(*local.T, e, m)])
        pieces, piece = _group_rows(keys)
        # the pieces are sorted, so each cube's pieces form one run
        cube = np.cumsum(_row_starts(pieces[:, :2])) - 1
        piece_mass = np.bincount(piece, weights=mu.mass)
        block_sum += _grouped_entropy(cube, piece_mass) / (m * LOG2)
    rhs = (m / n) * block_sum
    slack = lhs - (rhs - 10.0 / m)
    rec = ExperimentRecord(
        "entropy_multiscale",
        params={"theta": e.theta, "m": m, "n": n},
        results={"lhs": lhs, "rhs_sum": rhs, "allowance": 10.0 / m, "slack": slack},
    )
    rec.check("multiscale_inequality", slack >= -1e-12, lhs, rhs - 10.0 / m)
    return rec


@dataclass(frozen=True)
class ADRegularityReport:
    """Best constant A making r/A <= mu(B(x,r)) <= A r over the tested balls:
    atom centers x, open balls, dyadic radii 2^-j for j = 0..level."""

    A_lower: float
    A_upper: float
    per_level_counts: dict[int, int]

    @property
    def A(self) -> float:
        return max(self.A_lower, self.A_upper)


def _annulus(d2: np.ndarray, n: int) -> np.ndarray:
    """#{j in 0..n : d2 < 4^-j} for a contiguous float64 array d2 >= 0 and
    n <= 62, read off the biased exponent E of each value.

    A normal d2 lies in [2^(E-1023), 2^(E-1022)), and 4^-j is a power of
    two, so d2 < 4^-j exactly when E - 1022 <= -2j, that is for
    j <= (1022 - E)/2: the count is floor((1024 - E)/2), clipped to
    [0, n + 1]; the arithmetic shift floors the negative differences of
    d2 >= 4 too.  Zero and subnormals have E = 0 and are below 4^-62, so
    they count n + 1 as they should.
    """
    return np.clip((1024 - (d2.view(np.int64) >> 52)) >> 1, 0, n + 1)


def ad_regularity_check(mu: DyadicMeasure) -> ADRegularityReport:
    """Sweep all (atom center, dyadic radius) pairs for the regularity ratios,
    summing whole dyadic cubes instead of atom pairs.

    Tree.  The atoms are put in depth-first order by their quadrant digits,
    so every level-l cube is a contiguous run of atoms; each run carries its
    mass, the bounding box of its atom centers and its range of children.

    Annuli.  For a squared distance d^2 let t(d^2) = #{j : d^2 < r_j^2} with
    r_j = 2^-j, the number of tested open balls around a center that contain
    an atom at that distance; `_annulus` reads it off the exponent of d^2.
    Each center keeps a histogram H[t] of masses, and its ball of radius r_j
    has mass sum_{t > j} H[t].  The (center, cube) pairs are traversed level
    by level from the root.  From the box come the nearest and farthest
    squared distances, by the same float expression
    (x_b - x_c)^2 + (y_b - y_c)^2 that a direct sweep applies to each atom.
    Rounding is monotone and subtraction is symmetric in it, so each atom's
    own rounded d^2 lies between the two rounded bounds: when t agrees on
    both, the whole cube mass goes to H[t] with no margin needed; otherwise
    the pair splits into the cube's children.  A one-atom cube has equal
    bounds, equal to that atom's d^2, so every pair is decided by the atom
    level at the latest.

    Only positive masses are added, so each ball mass is within (number of
    terms) x machine epsilon of a direct sum, and exact for dyadic masses.
    Blocks of REGULARITY_BLOCK centers keep the frontier bounded.
    """
    if mu.dim != 2:
        raise InvalidParameterError("ad_regularity_check needs a planar measure")
    n = mu.level
    # Row s holds the quadrant digit at bit s; row n is all zeros and only
    # keeps the key list non-empty at level 0.
    shifts = np.arange(n + 1)[:, None]
    order = np.lexsort(((mu.idx[:, 0] >> shifts) & 1) * 2 + ((mu.idx[:, 1] >> shifts) & 1))
    idx = mu.idx[order]
    x, y = mu.centers()[order].T
    mass = mu.mass[order]
    size = len(mass)
    starts = [np.flatnonzero(_row_starts(idx >> (n - l))) for l in range(n + 1)]
    tree = []
    for l, s in enumerate(starts):
        # at the atom level every pair is decided, so no children are read
        child = np.searchsorted(starts[min(l + 1, n)], np.append(s, size))
        tree.append((np.add.reduceat(mass, s),
                     np.minimum.reduceat(x, s), np.maximum.reduceat(x, s),
                     np.minimum.reduceat(y, s), np.maximum.reduceat(y, s),
                     child[:-1], np.diff(child)))
    radii = 2.0 ** (-np.arange(n + 1))
    worst_lower = 0.0
    worst_upper = 0.0
    for lo in range(0, size, REGULARITY_BLOCK):
        b = np.arange(lo, min(lo + REGULARITY_BLOCK, size))
        rows = len(b)
        c = np.zeros(rows, dtype=np.int64)
        cells = []
        weights = []
        for cube_mass, x0, x1, y0, y1, first, count in tree:
            # the signed gaps from the center to the box's sides: their
            # larger part, floored at 0, is the near gap, and the smaller,
            # negated exactly, the far one
            xb, yb = x[b], y[b]
            dx0, dx1 = x0[c] - xb, xb - x1[c]
            dy0, dy1 = y0[c] - yb, yb - y1[c]
            near = (np.maximum(np.maximum(dx0, dx1), 0.0) ** 2
                    + np.maximum(np.maximum(dy0, dy1), 0.0) ** 2)
            far = np.minimum(dx0, dx1) ** 2 + np.minimum(dy0, dy1) ** 2
            t = _annulus(far, n)
            done = t == _annulus(near, n)
            cells.append((b[done] - lo) * (n + 2) + t[done])
            weights.append(cube_mass[c[done]])
            b, c = b[~done], c[~done]
            if not len(b):
                break
            k = count[c]
            b = np.repeat(b, k)
            c = np.repeat(first[c] - (np.cumsum(k) - k), k) + np.arange(len(b))
        hist = np.bincount(np.concatenate(cells), np.concatenate(weights),
                           minlength=rows * (n + 2))
        ball_mass = np.cumsum(hist.reshape(rows, n + 2)[:, :0:-1], axis=1)[:, ::-1]
        worst_lower = max(worst_lower, float((radii / ball_mass).max()))
        worst_upper = max(worst_upper, float((ball_mass / radii).max()))
    counts = {l: len(s) for l, s in enumerate(starts)}
    return ADRegularityReport(worst_lower, worst_upper, counts)


def marstrand_average(
    mu: DyadicMeasure,
    m: int,
    A: float | None = None,
    s_values: tuple[float, ...] = (0.5, 0.75, 0.9),
) -> ExperimentRecord:
    """Average projected entropy and energy over the 2^m-point direction grid.

    The average of H_m over directions is bounded below by s minus a
    multiple of A * (m 2^((s-1)m) + 1/m) for every s < 1; the multiple is an
    absolute constant that is not pinned, so per-s deficits are reported, not
    asserted.  The measured regularity constant A is attached (computed here
    unless supplied) and flagged against REGULARITY_ALARM_A.  A supplied A
    must be at least 1, since r/A <= mu(B) <= A r has no solution below 1,
    and A (m + 1) must be finite, so that every threshold is.  Each s must
    lie in [0, 1), where the bound is stated.

    Each direction bins the atom centers as `project_measure` does, into
    [0, 2^m) since w < 1, and reads H_m and the L^2 energy 2^m sum p^2 off
    the occupied bins of one weighted bincount; the values are those of the
    projected measure.
    """
    if mu.dim != 2:
        raise InvalidParameterError("marstrand_average needs a planar measure")
    if not (0 < m <= mu.level):
        raise InvalidParameterError(f"need 0 < m <= {mu.level}, got m = {m}")
    for s in s_values:
        if not 0.0 <= s < 1.0:
            raise InvalidParameterError(f"s={s} outside [0, 1)")
    # built first, so an oversized grid is refused before the regularity sweep
    directions = direction_grid(1 << m)
    if A is None:
        A = ad_regularity_check(mu).A
    elif not A >= 1.0:
        raise InvalidParameterError(f"regularity constant A={A} must be at least 1")
    elif not math.isfinite(A * (m + 1)):
        raise InvalidParameterError(
            f"regularity constant A={A} is too large: A*(m+1) overflows"
        )
    x, y = np.ascontiguousarray(mu.centers().T)
    hs = []
    energies = []
    for e in directions:
        agg = np.bincount(_projected_bins(x, y, e, m), weights=mu.mass)
        agg = agg[agg > 0.0]
        p = agg / agg.sum()
        hs.append(shannon(p) / (m * LOG2))
        energies.append(float(2.0**m * (p * p).sum()))
    avg_h = float(np.mean(hs))
    avg_energy = float(np.mean(energies))
    rec = ExperimentRecord(
        "entropy_marstrand_average",
        params={"m": m, "n_directions": 1 << m, "A": A},
        results={
            "average_normalized_entropy": avg_h,
            "average_l2_energy": avg_energy,
            "A": A,
            "per_direction_min": float(np.min(hs)),
            "per_direction_max": float(np.max(hs)),
        },
    )
    for s in s_values:
        bound_term = m * 2.0 ** ((s - 1.0) * m) + 1.0 / m
        rec.results[f"deficit_s_{s}"] = s - avg_h
        rec.soft(f"deficit_vs_A_bound_s_{s}", s - avg_h, A * bound_term)
    rec.soft("l2_energy_vs_Am", avg_energy, A * m)
    rec.soft("regularity_alarm_A", A, REGULARITY_ALARM_A)
    return rec


def covering_from_entropy(nu: DyadicMeasure, s: float) -> ExperimentRecord:
    """Entropy at least s forces more than 2^(n t) occupied level-n cubes for
    t slightly below s - 1/(n log 2); exact statement, hard-asserted.  The
    exponent s must lie in [0, 1], the range of normalized entropy."""
    if nu.dim != 1:
        raise InvalidParameterError("covering_from_entropy needs a line measure")
    if not 0.0 <= s <= 1.0:
        raise InvalidParameterError(f"s={s} outside [0, 1]")
    n = nu.level
    h = entropy(nu, n).normalized
    hypothesis_ok = h >= s - 1e-12
    count = len(nu)
    # 2^(n t) with t = s - 1/(n log 2) - 1e-9, i.e. 2^(n s) / e, minus slack
    threshold = 2.0 ** (n * s) * math.exp(-1.0) * 2.0 ** (-n * 1e-9)
    rec = ExperimentRecord(
        "entropy_covering",
        params={"n": n, "s": s},
        results={
            "normalized_entropy": h,
            "hypothesis_ok": hypothesis_ok,
            "occupied": count,
            "threshold": threshold,
        },
    )
    if hypothesis_ok:
        rec.check("occupied_exceeds_2_nt", count > threshold, count, threshold)
    return rec


def theorem_main2_experiment(
    L: int, p_list: list[int], s: float
) -> ExperimentRecord:
    """Direction-averaged covering numbers of the level-L four-corner set.

    For each p, averages N(projection, delta) over the p-point direction
    grid at delta = 4^-L and reports the ratio to delta^-s.  The axis pair
    p = 2 averages to exactly 2^L, a hard check.  The averages need not grow
    with p, so the first p in the list whose average reaches delta^-s is
    only reported (None if none does).

    Grids share directions (theta = 0 is in every one, and direction_grid(2)
    lies inside direction_grid(4)), so each direction k/p is counted once,
    keyed by the reduced fraction.
    """
    if not 0 <= L <= 31:  # the lattice level 2L must lie in [0, 62]
        raise InvalidParameterError(f"four-corners level L={L} outside [0, 31]")
    if not 0.5 <= s < 1.0:  # Theorem 2's range, as ParamTriple checks it
        raise InvalidParameterError(f"s={s} outside [1/2, 1)")
    for p in p_list:  # before the set is generated
        _check_grid_size(p)
    ps = gen_four_corners(L, Scale(2 * L))
    xy = _unit_coords(ps)
    delta = ps.scale.delta
    counts: dict[Fraction, int] = {}
    averages = {}
    for p in p_list:
        total = 0
        for k, e in enumerate(direction_grid(p)):
            key = Fraction(k, p)
            if key not in counts:
                counts[key] = covering_number_1d(_project_coords(xy, e), delta)
            total += counts[key]
        averages[p] = total / p
    target = delta ** (-s)
    rec = ExperimentRecord(
        "four_corners_direction_average",
        params={"level": L, "p_list": list(p_list), "s": s, "delta": delta},
        results={
            "table": [
                {"p": p, "average": averages[p], "ratio_to_target": averages[p] / target}
                for p in p_list
            ],
        },
    )
    if 2 in averages:
        rec.check(
            "axis_pair_average_exact", averages[2] == float(1 << L), averages[2], 1 << L
        )
    rec.results["first_p_reaching_target"] = next(
        (p for p in p_list if averages[p] >= target), None
    )
    return rec


# ---------------------------------------------------------------------------
# DMEAS v1 text format: header "DMEAS v1 d=<1|2> n=<level>", then one line
# per cube "<i> [<j>] <mass>" with 17-significant-digit decimal mass.
# ---------------------------------------------------------------------------


def write_dmeas(mu: DyadicMeasure, stream) -> None:
    stream.write(f"DMEAS v1 d={mu.dim} n={mu.level}\n")
    for row, w in zip(mu.idx.tolist(), mu.mass.tolist()):
        stream.write(f"{' '.join(map(str, row))} {w:.17g}\n")


def read_dmeas(stream) -> DyadicMeasure:
    """Read a DMEAS v1 file; blank lines are skipped.

    Each cube line is checked as it is read, so a `ParseError` names the
    line of the first bad cube in file order: a field count other than
    d + 1, an index that is not a decimal integer in ASCII digits, a mass
    that is not an ASCII float without '_', a mass that is not finite or is
    negative, and, for a cube of positive mass, an index outside [0, 2^n) or
    one given before.  Cubes of zero mass are dropped, as `DyadicMeasure`
    drops them, before their index is checked.  Line 1 is named only for
    the whole file: the header, the level, a file without mass, and the
    masses' total.
    """
    dim, level = _read_header(stream, "DMEAS", "d", "n")
    if dim not in (1, 2):
        raise ParseError(f"dimension d={dim} is not 1 or 2", 1)
    side = _header_scale(level).side
    cubes: dict[tuple[int, ...], float] = {}
    for lineno, line in enumerate(stream, start=2):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != dim + 1:
            raise ParseError(f"expected {dim + 1} fields, got {line!r}", lineno)
        try:
            # indices as in `read_pset`; `float` also takes '_' and the
            # digits of other scripts
            if not (line.isascii() and "_" not in fields[-1]
                    and all(f.removeprefix("-").isdigit() for f in fields[:-1])):
                raise ValueError
            index = tuple(map(int, fields[:-1]))
            w = float(fields[-1])
        except ValueError:
            raise ParseError(f"malformed cube line {line!r}", lineno) from None
        if not math.isfinite(w):
            raise ParseError(f"mass is not finite in {line!r}", lineno)
        if w < 0:
            raise ParseError(f"negative mass in {line!r}", lineno)
        if w == 0:
            continue
        if min(index) < 0 or max(index) >= side:
            raise ParseError(f"cube index outside [0, 2^{level}) in {line!r}", lineno)
        if index in cubes:
            raise ParseError(f"duplicate cube index in {line!r}", lineno)
        cubes[index] = w
    idx = np.array(list(cubes), dtype=np.int64).reshape(-1, dim)
    try:
        return DyadicMeasure(dim, level, idx, np.array(list(cubes.values())))
    except InvalidParameterError as e:  # no mass, or a total other than 1
        raise ParseError(str(e), 1) from None
