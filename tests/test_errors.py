import re
from pathlib import Path

import pytest

import higgsmult
from higgsmult.errors import ResourceLimitError, check_cost


class TestCheckCost:
    def test_the_cap_itself_passes(self):
        assert check_cost("scan grid", 10, 10, "points") is None
        with pytest.raises(ResourceLimitError, match="scan grid has 11 points, above the cap 10"):
            check_cost("scan grid", 11, 10, "points")

    def test_the_only_refusal_site(self):
        # every cap goes through check_cost, so there is one message format
        sites = [
            (path.name, line.strip())
            for path in Path(higgsmult.__file__).parent.glob("*.py")
            for line in path.read_text().splitlines()
            if re.search(r"\braise ResourceLimitError\b", line)
        ]
        message = 'f"{what} has {cost} {unit}, above the cap {cap}"'
        assert sites == [("errors.py", f"raise ResourceLimitError({message})")]
