import sys

import pytest


@pytest.fixture
def default_digit_limit():
    """Run the test under Python's default int-to-str digit limit, as a
    library caller would; the previous limit is put back after it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield  # this Python has no limit
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)
