import numpy as np
import pytest

from levysheet.paths import TabulatedPath


@pytest.fixture
def flat_stretch_path():
    """64 knots on [0, 1]; x is flat between the knots near t = 0.29 and 0.44,
    y between those near t = 0.59 and 0.79."""
    ts = np.linspace(0.0, 1.0, 64)
    steps = np.diff(ts, prepend=0.0)
    xs = 0.1 + np.cumsum(np.where((ts > 0.3) & (ts <= 0.45), 0.0, steps))
    ys = 1.1 - np.cumsum(np.where((ts > 0.6) & (ts <= 0.8), 0.0, steps))
    return TabulatedPath(ts, xs, ys)
