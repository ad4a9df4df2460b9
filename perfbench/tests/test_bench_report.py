"""Cross-seed check of the report: the 3-stderr miss count of ``compare``."""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import report  # noqa: E402


def test_miss_tail_is_a_binomial_tail():
    assert report.miss_tail(0, 10, 2) == 1.0
    p = 1.0 - (1.0 - math.erfc(3.0 / math.sqrt(2.0))) ** 2
    assert math.isclose(report.miss_tail(10, 10, 2), p ** 10)
    assert report.miss_tail(1, 10, 2) > report.miss_tail(2, 10, 2) > report.miss_tail(3, 10, 2)


def test_three_misses_in_ten_seeds_fail_and_two_pass():
    assert report.miss_tail(2, 10, 2) >= report.MISS_P
    assert report.miss_tail(3, 10, 2) < report.MISS_P
