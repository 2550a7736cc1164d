"""Pure-Python references the output checks compare the library against.

They are written for clarity, not speed, and run only on a few sampled
directions and slopes per operation, outside the timed region.
"""

from __future__ import annotations

import math

# The library's closed-interval slack: a value at most width*(1 + 1e-12)
# past an interval's left end counts as covered.
COVER_SLACK = 1e-12


def greedy_cover_count(sorted_values, width: float) -> int:
    """Greedy count of closed width-intervals covering ascending values."""
    reach = width * (1.0 + COVER_SLACK)
    count = 0
    end = -math.inf
    prev = -math.inf
    for v in sorted_values:
        if v < prev:
            raise ValueError("values are not sorted ascending")
        prev = v
        if v > end:
            count += 1
            end = v + reach
    return count


def projection_values(points, delta: float, theta: float):
    """Sorted projections of lattice points (u, v) at scale delta along theta,
    computed as the library does: (u*delta)*cos + (v*delta)*sin."""
    c, s = math.cos(theta), math.sin(theta)
    return sorted((float(u) * delta) * c + (float(v) * delta) * s for u, v in points)


def distinct_keys(m: int, n_g: int, num: int, den: int) -> int:
    """Distinct values of y - slope*x over the m x n_g grid, as integer keys
    l*den - num*k*n_g over the shared denominator."""
    return len({l * den - num * k * n_g for k in range(m) for l in range(n_g)})


def line_hits(m: int, n_g: int, num: int, den: int) -> int:
    """Columns k < m whose line point k*n_g*num/den is an integer row < n_g."""
    return sum(
        1 for k in range(m)
        if (k * n_g * num) % den == 0 and 0 <= (k * n_g * num) // den < n_g
    )


def projected_bins(centers, theta: float, level: int) -> int:
    """Occupied level-`level` bins of atom centers pushed along theta through
    the library's similarity w = (t - min(0, cos theta)) / 2."""
    c, s = math.cos(theta), math.sin(theta)
    offset = min(0.0, c)
    scale = 2.0 ** level
    return len({math.floor(((x * c + y * s) - offset) * 0.5 * scale)
                for x, y in centers})
