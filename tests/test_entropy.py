import io

import pytest

from projlab import ParseError, read_dmeas


class TestDmeasFormat:
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_mass_is_a_parse_error(self, bad):
        text = f"DMEAS v1 d=1 n=2\n0 1\n1 {bad}\n"
        with pytest.raises(ParseError, match="line 3"):
            read_dmeas(io.StringIO(text))
