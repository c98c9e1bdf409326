"""Every reader of a path at caller times goes through `DecreasingPath.grid`."""

import math

import numpy as np
import pytest

from levysheet import fdd, gauss, jumpsim, verify
from levysheet.exponent import brownian
from levysheet.paths import LinearPath, TabulatedPath

PATHS = {
    "linear": LinearPath(0.25, 1.0, 2.0, 1.5, 0.0, 1.0),
    # y vanishes at the right end, and np.interp holds y = 0 past it
    "tabulated-to-zero": TabulatedPath.from_knots([[0.0, 0.2, 1.0], [0.5, 0.6, 0.5],
                                                   [1.0, 1.0, 0.0]]),
}

BAD_TIMES = {
    "empty": [],
    "reversed": [0.6, 0.3],
    "nan-last": [0.2, math.nan],
    "nan": [math.nan],
    "past-end": [0.2, 1.5],
    "equal-outside": [5.0, 5.0],
}


def _law(path):
    return gauss.GaussPathLaw(path)


# Readers of a time list, and readers of one pair s < t, which take only the
# two-time cases.
LIST_READERS = {
    "joint_cf": lambda p, ts: fdd.joint_cf(brownian(1), p, ts, np.ones((len(ts), 1))),
    "gaussian_joint_cf": lambda p, ts: gauss.gaussian_joint_cf(_law(p), ts,
                                                               np.ones((len(ts), 1))),
    "simulate_paths": lambda p, ts: gauss.simulate_paths(_law(p), ts, np.random.default_rng(1)),
    "simulate_triplet": lambda p, ts: jumpsim.simulate_triplet(brownian(1), p, ts, 1,
                                                               np.random.default_rng(1)),
}
PAIR_READERS = {
    "lower_area": lambda p, ts: fdd.lower_area(p, *ts),
    "upper_area": lambda p, ts: fdd.upper_area(p, *ts),
    "increment_cf": lambda p, ts: fdd.increment_cf(brownian(1), p, *ts, 1.0),
    "conditional_mean": lambda p, ts: fdd.conditional_mean(0.0, p, *ts, 1.0),
    "transition_density": lambda p, ts: gauss.transition_density(_law(p), *ts, 0.1, 0.1),
    "zero_prob": lambda p, ts: gauss.zero_prob(_law(p), *ts),
    "zero_prob_conditional": lambda p, ts: gauss.zero_prob_conditional(_law(p), *ts, 0.1),
    "conditional_mean_regression": lambda p, ts: verify.conditional_mean_regression(
        np.zeros((100, 2)), p, *ts, 0.0),
}
READERS = {**LIST_READERS, **PAIR_READERS}
CASES = [(name, times) for name in READERS for times, ts in BAD_TIMES.items()
         if name in LIST_READERS or len(ts) == 2]


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("reader, times", CASES)
def test_reader_rejects_bad_times(path, reader, times):
    with pytest.raises(ValueError, match="nonempty and strictly increasing|outside the path domain"):
        READERS[reader](PATHS[path], BAD_TIMES[times])


def test_zero_probs_at_vanishing_y():
    law = _law(PATHS["tabulated-to-zero"])
    assert gauss.zero_prob(law, 0.25, 1.0) == 1.0
    assert gauss.zero_prob_conditional(law, 0.25, 1.0, 0.1) == 1.0
