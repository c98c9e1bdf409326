import numpy as np
import pytest

from levysheet import paths as pth


@pytest.fixture
def flat_stretch_path():
    """64 knots on [0, 1]; x is flat between the knots near t = 0.29 and 0.44,
    y between those near t = 0.59 and 0.79."""
    ts = np.linspace(0.0, 1.0, 64)
    steps = np.diff(ts, prepend=0.0)
    xs = 0.1 + np.cumsum(np.where((ts > 0.3) & (ts <= 0.45), 0.0, steps))
    ys = 1.1 - np.cumsum(np.where((ts > 0.6) & (ts <= 0.8), 0.0, steps))
    return pth.TabulatedPath(ts, xs, ys)


@pytest.fixture
def six_forms(flat_stretch_path):
    """One path of each form, flat stretches included."""
    return {
        "linear": pth.LinearPath(0.25, 1.0, 2.0, 1.5, 0.0, 1.0),
        "exponential": pth.ExponentialPath(0.7, 1.1, 1.3, 0.0, 1.0),
        "corner": pth.VThenHPath(0.5, 1.0, 2.0, 4.0, 2.0, 0.0, 1.0),
        "horizontal": pth.HorizontalPath.affine(0.5, 2.0, 1.5, 0.0, 1.0),
        "vertical": pth.VerticalPath.affine(3.0, 1.0, 2.0, 0.0, 1.0),
        "tabulated": flat_stretch_path,
    }
