"""Dyadic measures, entropy, blow-ups, and projected-entropy experiments.

A `DyadicMeasure` is a probability measure given by positive masses on
level-n dyadic cubes of [0,1)^d, d in {1, 2}.  When a point realization is
needed (projections, ball counts) the mass of a cube sits at the cube
center, so every measure manipulated here is a genuine atomic probability
measure and the exact entropy identities apply to it verbatim.

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
from dataclasses import dataclass, field

import numpy as np

from .core import Direction, InvalidParameterError, direction_grid
from .pointsets import LatticePointSet, ParseError
from .records import ExperimentRecord

LOG2 = math.log(2.0)
MASS_TOL = 1e-12
# Atom centers per block of `ad_regularity_check`'s quadratic distance sweep.
REGULARITY_BLOCK = 512
# Regularity constant A above which `marstrand_average` flags the measure.
REGULARITY_ALARM_A = 100.0


def shannon(masses) -> float:
    """-sum p log p in natural log, with 0 log 0 = 0."""
    p = np.asarray(masses, dtype=np.float64)
    p = p[p > 0.0]
    if p.size == 0:
        return 0.0
    return float(-(p * np.log(p)).sum())


@dataclass(frozen=True)
class EntropyValue:
    raw: float  # nats
    normalized: float  # raw / (level * log 2); 0 at level 0
    level: int


@dataclass(frozen=True)
class DyadicMeasure:
    dim: int
    level: int
    idx: np.ndarray  # (N,) int64 for dim=1, (N,2) for dim=2; sorted, unique
    mass: np.ndarray  # (N,) float64, strictly positive, sums to 1
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise InvalidParameterError(f"dim={self.dim} must be 1 or 2")
        if not (0 <= self.level <= 62):
            raise InvalidParameterError(f"level={self.level} outside [0, 62]")
        idx = np.asarray(self.idx, dtype=np.int64)
        idx = idx.reshape(-1) if self.dim == 1 else idx.reshape(-1, 2)
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
        if self.dim == 1:
            order = np.argsort(idx, kind="stable")
        else:
            order = np.lexsort((idx[:, 1], idx[:, 0]))
        idx, mass = idx[order], mass[order]
        if self.dim == 1:
            dup = np.diff(idx) == 0
        else:
            dup = np.all(np.diff(idx, axis=0) == 0, axis=1)
        if dup.any():
            raise InvalidParameterError("duplicate cube index")
        total = mass.sum()
        if abs(total - 1.0) > MASS_TOL:
            raise InvalidParameterError(f"masses sum to {total!r}, not 1")
        idx.setflags(write=False)
        mass.setflags(write=False)
        object.__setattr__(self, "idx", idx)
        object.__setattr__(self, "mass", mass)

    def __len__(self) -> int:
        return len(self.mass)

    def coarse_keys(self, m: int) -> np.ndarray:
        """Level-m ancestor indices of the atoms (same shape as idx)."""
        if not (0 <= m <= self.level):
            raise InvalidParameterError(f"level m={m} outside [0, {self.level}]")
        return self.idx >> (self.level - m)

    def coarsen(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Aggregated (indices, masses) at level m, sorted by index."""
        keys = self.coarse_keys(m)
        if self.dim == 1:
            uniq, inv = np.unique(keys, return_inverse=True)
        else:
            uniq, inv = np.unique(keys, axis=0, return_inverse=True)
        agg = np.bincount(inv.ravel(), weights=self.mass)
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
    group = fine_idx >> (fine - coarse)
    _, inv = np.unique(group, axis=None if mu.dim == 1 else 0, return_inverse=True)
    inv = inv.ravel()
    direct = 0.0
    order = np.argsort(inv, kind="stable")
    inv_sorted = inv[order]
    mass_sorted = fine_mass[order]
    boundaries = np.concatenate(
        [[0], np.flatnonzero(np.diff(inv_sorted)) + 1, [len(inv_sorted)]]
    )
    for gi in range(len(boundaries) - 1):
        piece = mass_sorted[boundaries[gi] : boundaries[gi + 1]]
        w = piece.sum()
        direct += w * shannon(piece / w)
    return direct


def blow_up(mu: DyadicMeasure, q, k: int) -> DyadicMeasure:
    """Renormalized, rescaled restriction of mu to the level-k cube q.

    q is an integer (dim 1) or an index pair (dim 2); the result lives at
    level mu.level - k on [0,1)^d.
    """
    if not (0 <= k <= mu.level):
        raise InvalidParameterError(f"cube level k={k} outside [0, {mu.level}]")
    keys = mu.coarse_keys(k)
    if mu.dim == 1:
        sel = keys == int(q)
    else:
        qi, qj = (int(q[0]), int(q[1]))
        sel = (keys[:, 0] == qi) & (keys[:, 1] == qj)
    if not sel.any():
        raise InvalidParameterError(f"cube {q} at level {k} carries no mass")
    shift = mu.level - k
    mask = (1 << shift) - 1
    sub_idx = mu.idx[sel] & mask
    sub_mass = mu.mass[sel]
    total = sub_mass.sum()
    return DyadicMeasure(mu.dim, shift, sub_idx, sub_mass / total, meta=dict(mu.meta))


def projection_offset(e: Direction) -> float:
    """Translation of the fixed per-direction similarity w = (t - offset)/2."""
    return min(0.0, math.cos(e.theta))


def project_measure(mu: DyadicMeasure, e: Direction, out_level: int) -> DyadicMeasure:
    """Push-forward of mu under projection along e, renormalized into [0,1)
    by the per-direction similarity, binned at out_level."""
    if mu.dim != 2:
        raise InvalidParameterError("project_measure needs a planar measure")
    if not (0 <= out_level <= 62):
        raise InvalidParameterError(f"out_level={out_level} outside [0, 62]")
    c, s = e.unit
    xy = mu.centers()
    t = xy[:, 0] * c + xy[:, 1] * s
    offset = projection_offset(e)
    w = (t - offset) * 0.5
    bins = np.floor(w * 2.0**out_level).astype(np.int64)
    uniq, inv = np.unique(bins, return_inverse=True)
    agg = np.bincount(inv, weights=mu.mass)
    return DyadicMeasure(
        1,
        out_level,
        uniq,
        agg / agg.sum(),
        meta={"theta": e.theta, "offset": offset, "ratio": 0.5},
    )


def multiscale_check(mu: DyadicMeasure, e: Direction, m: int) -> ExperimentRecord:
    """Multi-scale decomposition of projected entropy.

    Verifies (hard) that the full-depth normalized entropy dominates the
    blow-up average

        H_n >= (m/n) sum_k sum_Q mu(Q) H_m(proj of blow-up at Q) - 10/m,

    the absolute constant 10 covering the discarded remainder levels and the
    grid-alignment slack of the per-cube similarities.
    """
    n = mu.level
    if not (0 < m < n):
        raise InvalidParameterError(f"need 0 < m < n = {n}, got m = {m}")
    lhs = entropy(project_measure(mu, e, n), n).normalized
    k0 = n // m
    block_sum = 0.0
    for k in range(k0):
        cubes, weights = mu.coarsen(k * m)
        for q, w in zip(cubes, weights):
            piece = blow_up(mu, q if mu.dim == 1 else tuple(q), k * m)
            block_sum += w * entropy(project_measure(piece, e, m), m).normalized
    rhs = (m / n) * block_sum
    slack = lhs - (rhs - 10.0 / m)
    rec = ExperimentRecord(
        "entropy_multiscale",
        params={"theta": e.theta, "m": m, "n": n},
        results={"lhs": lhs, "rhs_sum": rhs, "allowance": 10.0 / m, "slack": slack},
    )
    rec.check("multiscale_inequality", slack >= -1e-12, lhs, rhs - 10.0 / m)
    return rec


def l2_energy_1d(nu: DyadicMeasure, m: int) -> float:
    """2^m * sum of squared level-m interval masses."""
    if nu.dim != 1:
        raise InvalidParameterError("l2_energy_1d needs a line measure")
    _, agg = nu.coarsen(m)
    return float(2.0**m * (agg * agg).sum())


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


def ad_regularity_check(mu: DyadicMeasure) -> ADRegularityReport:
    """Sweep all (atom center, dyadic radius) pairs for the regularity ratios.

    Quadratic in the number of atoms; blocks of REGULARITY_BLOCK centers keep
    memory bounded.
    """
    if mu.dim != 2:
        raise InvalidParameterError("ad_regularity_check needs a planar measure")
    pts = mu.centers()
    mass = mu.mass
    n = mu.level
    radii = 2.0 ** (-np.arange(n + 1))
    worst_lower = 0.0
    worst_upper = 0.0
    for lo in range(0, len(pts), REGULARITY_BLOCK):
        block = pts[lo : lo + REGULARITY_BLOCK]
        d2 = (
            (block[:, None, 0] - pts[None, :, 0]) ** 2
            + (block[:, None, 1] - pts[None, :, 1]) ** 2
        )
        for j, r in enumerate(radii):
            inside = d2 < r * r  # open balls
            ball_mass = inside @ mass
            worst_lower = max(worst_lower, float((r / ball_mass).max()))
            worst_upper = max(worst_upper, float((ball_mass / r).max()))
    counts = {}
    for j in range(n + 1):
        uniq, _ = mu.coarsen(j)
        counts[j] = len(uniq)
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
    unless supplied) and flagged against REGULARITY_ALARM_A.
    """
    if not (0 < m <= mu.level):
        raise InvalidParameterError(f"need 0 < m <= {mu.level}, got m = {m}")
    if A is None:
        A = ad_regularity_check(mu).A
    dirs = direction_grid(1 << m)
    hs = []
    energies = []
    for e in dirs:
        nu = project_measure(mu, e, m)
        hs.append(entropy(nu, m).normalized)
        energies.append(l2_energy_1d(nu, m))
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
    t slightly below s - 1/(n log 2); exact statement, hard-asserted."""
    if nu.dim != 1:
        raise InvalidParameterError("covering_from_entropy needs a line measure")
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
    """
    from .pointsets import gen_four_corners
    from .projections import project
    from .core import Scale

    ps = gen_four_corners(L, Scale(2 * L))
    delta = ps.scale.delta
    averages = {}
    for p in p_list:
        total = 0
        for e in direction_grid(p):
            total += project(ps, e).covering_number
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
    if mu.dim == 1:
        for i, w in zip(mu.idx, mu.mass):
            stream.write(f"{i} {w:.17g}\n")
    else:
        for (i, j), w in zip(mu.idx, mu.mass):
            stream.write(f"{i} {j} {w:.17g}\n")


def read_dmeas(stream) -> DyadicMeasure:
    header = stream.readline()
    parts = header.split()
    if len(parts) != 4 or parts[0] != "DMEAS" or parts[1] != "v1":
        raise ParseError(f"bad DMEAS header {header!r}", 1)
    try:
        dim = int(parts[2].removeprefix("d="))
        level = int(parts[3].removeprefix("n="))
    except ValueError:
        raise ParseError(f"bad DMEAS header fields {header!r}", 1) from None
    idx = []
    mass = []
    for lineno, line in enumerate(stream, start=2):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != dim + 1:
            raise ParseError(f"expected {dim + 1} fields, got {line!r}", lineno)
        try:
            if dim == 1:
                idx.append(int(fields[0]))
            else:
                idx.append((int(fields[0]), int(fields[1])))
            mass.append(float(fields[-1]))
        except ValueError:
            raise ParseError(f"malformed cube line {line!r}", lineno) from None
        if not math.isfinite(mass[-1]):
            raise ParseError(f"mass is not finite in {line!r}", lineno)
    try:
        return DyadicMeasure(dim, level, np.array(idx), np.array(mass))
    except InvalidParameterError as e:
        raise ParseError(str(e), 2) from None
