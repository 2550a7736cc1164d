import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_measure, shannon_ref
from projlab import ParseError, conditional_entropy, entropy, read_dmeas
from projlab.entropy import shannon

LEVEL = 6


def _measure(seed: int, dim: int):
    return random_measure(np.random.default_rng(seed), dim, LEVEL, 40)


def _aggregate_ref(mu, m: int) -> list[float]:
    """Masses of the level-m ancestors, summed in a plain dict."""
    shift = mu.level - m
    agg: dict = {}
    for i, w in zip(mu.idx.tolist(), mu.mass.tolist()):
        key = i >> shift if mu.dim == 1 else (i[0] >> shift, i[1] >> shift)
        agg[key] = agg.get(key, 0.0) + w
    return list(agg.values())


class TestDmeasFormat:
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_mass_is_a_parse_error(self, bad):
        text = f"DMEAS v1 d=1 n=2\n0 1\n1 {bad}\n"
        with pytest.raises(ParseError, match="line 3"):
            read_dmeas(io.StringIO(text))


class TestEntropyAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), max_size=50))
    def test_shannon(self, masses):
        want = shannon_ref(masses)
        assert shannon(masses) == pytest.approx(want, rel=1e-12, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]), st.integers(0, LEVEL))
    def test_entropy(self, seed, dim, m):
        mu = _measure(seed, dim)
        ev = entropy(mu, m)
        want = shannon_ref(_aggregate_ref(mu, m))
        assert ev.raw == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert ev.normalized == (ev.raw / (m * math.log(2)) if m else 0.0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]),
           st.integers(0, LEVEL), st.integers(0, LEVEL))
    def test_chain_rule(self, seed, dim, i, j):
        coarse, fine = sorted((i, j))
        mu = _measure(seed, dim)
        want = entropy(mu, fine).raw - entropy(mu, coarse).raw
        assert abs(conditional_entropy(mu, fine, coarse) - want) <= 1e-9
