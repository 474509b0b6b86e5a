"""The enumeration guard: ``max_enum`` lowers it, and it trips for any size."""

import sys

import pytest

from finsym.groups import named_group
from finsym.limits import HARD_CEILING, GuardExceeded, check_enum, effective_limit, max_enum
from finsym.pathintegral import surface_gauge_count


@pytest.fixture
def max_digits():
    """Python's default cap on int-to-str conversion, whatever the environment set."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python converts ints of any length to str")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield sys.int_info.default_max_str_digits
    sys.set_int_max_str_digits(old)


def test_max_enum_lowers_but_never_raises_the_ceiling():
    assert effective_limit() == HARD_CEILING
    with max_enum(10):
        assert effective_limit() == 10
        check_enum(10, what="x")
        with pytest.raises(GuardExceeded, match="^x needs 11 states, guard allows 10$"):
            check_enum(11, what="x")
    with max_enum(HARD_CEILING * 2):
        assert effective_limit() == HARD_CEILING


def test_every_printable_size_is_printed(max_digits):
    size = 10 ** (max_digits - 1)  # the most digits str() allows
    with pytest.raises(GuardExceeded) as exc:
        check_enum(size, what="x")
    assert str(exc.value) == f"x needs {size} states, guard allows {HARD_CEILING}"


def test_sizes_too_long_to_print_still_trip(max_digits):
    size = 10**max_digits
    with pytest.raises(GuardExceeded) as exc:
        check_enum(size, what="x")
    assert str(exc.value) == (f"x needs at least 2^{size.bit_length() - 1} states, "
                              f"guard allows {HARD_CEILING}")


def test_high_genus_surface_count_trips_the_guard(max_digits):
    # |Q8|^6000 = 2^18000 has 5419 digits
    with pytest.raises(GuardExceeded, match="needs at least 2\\^18000 states"):
        surface_gauge_count(named_group("Q8"), 3000)
