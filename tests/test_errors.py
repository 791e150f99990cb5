import re
from pathlib import Path

import pytest

import higgsmult
from higgsmult.errors import DIGITS_CAP, DomainError, ResourceLimitError
from higgsmult.errors import check_cost, check_digits, check_int
from higgsmult.multgl import mult_type_n


class TestCheckDigits:
    def test_the_cap_itself_passes(self):
        assert DIGITS_CAP == 4300
        assert check_digits("n", 10 ** 4300 - 1) is None
        assert check_digits("n", 0) is None
        with pytest.raises(ResourceLimitError, match="^n has 4301 digits, above the cap 4300$"):
            check_digits("n", 10 ** 4300)
        with pytest.raises(ResourceLimitError, match="^n has 4301 digits, above the cap 4300$"):
            check_digits("n", -10 ** 4300)

    def test_refuses_exactly_past_the_cap(self):
        top = 10 ** DIGITS_CAP  # the least integer with 4301 digits
        for m in [top - 1, top, top + 1] + [2 ** b for b in range(14270, 14300)]:
            if m < top:
                check_digits("m", m)
            else:
                digits = DIGITS_CAP + 1
                while m >= 10 ** digits:
                    digits += 1
                with pytest.raises(ResourceLimitError, match=f"has {digits} digits"):
                    check_digits("m", m)

    def test_the_type_n_boundary(self):
        # the value 2**(3(g - 1)) passes its 4300 digits at g = 4763
        check_digits("the value at 1", mult_type_n(4762, 2).value_at_1)
        with pytest.raises(ResourceLimitError, match="has 4301 digits"):
            check_digits("the value at 1", mult_type_n(4763, 2).value_at_1)


class TestCheckInt:
    def test_integers_pass_as_ints(self):
        class Handle:
            def __index__(self):
                return 7

        assert check_int("n", Handle(), 1, 7) == 7 and type(check_int("n", Handle())) is int
        assert check_int("n", -3) == -3 and check_int("n", 2, 2, 2) == 2

    @pytest.mark.parametrize("value", [2.0, 2.5, "2", None, True, False, 1j])
    def test_non_integers_and_bools_refused(self, value):
        with pytest.raises(DomainError) as exc:
            check_int("genus", value, 2)
        assert str(exc.value) == f"genus must be an integer, got {value!r}"

    @pytest.mark.parametrize(
        "value, lo, hi, message",
        [
            (1, 2, None, "genus must be >= 2, got 1"),
            (0, 1, 1, "genus must be in 1..1, got 0"),
            (2, 1, 1, "genus must be in 1..1, got 2"),
            (1, 1, 0, "genus must be in 1..0, got 1"),
        ],
    )
    def test_out_of_range_refused(self, value, lo, hi, message):
        with pytest.raises(DomainError) as exc:
            check_int("genus", value, lo, hi)
        assert str(exc.value) == message


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
