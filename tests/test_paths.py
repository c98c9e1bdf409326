import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from levysheet import paths as pth


def bridge_path():
    return pth.LinearPath(0.0, 1.0, 1.0, 1.0, 0.0, 1.0)


class TestEval:
    def test_linear(self):
        assert bridge_path().eval(0.25) == (0.25, 0.75)

    def test_exponential_at_zero(self):
        p = pth.ExponentialPath(1.0, 1.0, 1.0, 0.0, 1.0)
        assert p.eval(0.0) == (1.0, 1.0)

    def test_tabulated_midpoint(self):
        p = pth.TabulatedPath.from_knots([(0.0, (1.0, 2.0)), (1.0, (3.0, 1.0))])
        assert p.eval(0.5) == (2.0, 1.5)

    def test_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            bridge_path().eval(1.5)

    def test_corner_path_legs(self):
        p = pth.VThenHPath(0.5, 1.0, 2.0, 4.0, 2.0, 0.0, 1.0)
        assert p.eval(0.25) == (1.0, 3.0)   # vertical leg
        assert p.eval(0.75) == (1.5, 2.0)   # horizontal leg
        assert p.eval(0.5) == (1.0, 2.0)


class TestConstruction:
    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            pth.TabulatedPath(np.array([0.0, 0.5, 1.0]),
                              np.array([1.0, 0.5, 2.0]),  # x dips
                              np.array([2.0, 1.5, 1.0]))
        with pytest.raises(ValueError):
            pth.LinearPath(0.0, -1.0, 1.0, 1.0, 0.0, 1.0)

    def test_positivity_on_interior(self):
        with pytest.raises(ValueError):
            pth.LinearPath(0.0, 1.0, 0.4, 1.0, 0.0, 1.0)  # y < 0 inside

    def test_some_coordinate_must_vary(self):
        with pytest.raises(ValueError):
            pth.TabulatedPath(np.array([0.0, 0.5, 1.0]),
                              np.full(3, 1.0), np.full(3, 2.0))

    def test_zero_slope_lines_are_linear_paths(self):
        h = pth.HorizontalPath.affine(0.5, 2.0, 1.5, 0.0, 1.0)
        v = pth.VerticalPath.affine(3.0, 1.0, 2.0, 0.0, 1.0)
        assert h == pth.LinearPath(0.5, 2.0, 1.5, 0.0, 0.0, 1.0)
        assert v == pth.LinearPath(2.0, 0.0, 3.0, 1.0, 0.0, 1.0)

    def test_both_slopes_zero_rejected(self):
        with pytest.raises(ValueError, match="non-constant"):
            pth.LinearPath(1.0, 0.0, 2.0, 0.0, 0.0, 1.0)

    def test_endpoint_zero_admitted(self):
        p = bridge_path()  # x(0) = 0 and y(1) = 0 are both fine
        assert p.eval(0.0) == (0.0, 1.0)
        assert p.eval(1.0) == (1.0, 0.0)


class TestClassify:
    def test_linear_bridge(self):
        cls = pth.classify(bridge_path())
        assert cls.tag is pth.PathTag.LINEAR
        assert cls.phi(0.5) == pytest.approx(0.25)
        assert cls.phi(1.0) == pytest.approx(0.0)  # pinned endpoints

    def test_exponential(self):
        cls = pth.classify(pth.ExponentialPath(1.0, 1.0, 1.0, 0.0, 2.0))
        assert cls.tag is pth.PathTag.EXPONENTIAL
        assert cls.phi(math.log(2.0)) == pytest.approx(1.0)

    def test_corner_needs_balanced_rates(self):
        ok = pth.VThenHPath(0.5, 1.0, 2.0, 4.0, 2.0, 0.0, 1.0)  # ac = bd = 4
        assert pth.classify(ok).tag is pth.PathTag.V_THEN_H
        bad = pth.VThenHPath(0.5, 1.0, 2.0, 4.0, 1.0, 0.0, 1.0)  # ac=4, bd=2
        assert pth.classify(bad).tag is pth.PathTag.NON_STATIONARY

    def test_horizontal_and_vertical(self):
        h = pth.HorizontalPath.affine(0.5, 2.0, 1.5, 0.0, 1.0)
        cls = pth.classify(h)
        assert cls.tag is pth.PathTag.HORIZONTAL
        assert cls.phi(0.5) == pytest.approx(1.5 * 2.0 * 0.5)
        v = pth.VerticalPath.affine(3.0, 1.0, 2.0, 0.0, 1.0)
        cls_v = pth.classify(v)
        assert cls_v.tag is pth.PathTag.VERTICAL
        assert cls_v.phi(0.5) == pytest.approx(2.0 * 1.0 * 0.5)

    def test_non_affine_horizontal_is_nonstationary(self):
        ts = np.linspace(0.1, 1.0, 33)
        h = pth.TabulatedPath(ts, 0.5 + ts ** 2, np.full(ts.size, 1.0))
        assert pth.classify(h).tag is pth.PathTag.NON_STATIONARY

    def test_tabulated_quadratic_is_nonstationary(self):
        ts = np.linspace(0.1, 0.9, 64)
        tab = pth.TabulatedPath(ts, ts ** 2, 1.0 - ts)
        assert pth.classify(tab).tag is pth.PathTag.NON_STATIONARY

    @pytest.mark.parametrize("maker,tag", [
        (lambda ts: (0.2 + 1.3 * ts, 2.0 - 1.1 * ts), pth.PathTag.LINEAR),
        (lambda ts: (0.7 * np.exp(1.3 * ts), 1.1 * np.exp(-1.3 * ts)),
         pth.PathTag.EXPONENTIAL),
        (lambda ts: (0.5 + 2.0 * ts, np.full(ts.size, 1.4)), pth.PathTag.HORIZONTAL),
        (lambda ts: (np.full(ts.size, 1.4), 2.0 - 1.3 * ts), pth.PathTag.VERTICAL),
    ])
    def test_tabulated_recovery(self, maker, tag):
        ts = np.linspace(0.1, 0.9, 16)
        xs, ys = maker(ts)
        assert pth.classify(pth.TabulatedPath(ts, xs, ys)).tag is tag

    def test_tabulated_corner_recovery(self):
        corner = pth.VThenHPath(0.5, 1.0, 2.0, 4.0, 2.0, 0.0, 1.0)
        ts = np.linspace(0.0, 1.0, 17)  # knot at the corner
        tab = pth.TabulatedPath(ts, corner.x(ts), corner.y(ts))
        cls = pth.classify(tab)
        assert cls.tag is pth.PathTag.V_THEN_H
        assert cls.params["s_star"] == pytest.approx(0.5)

    def test_degenerate_tabulated_rejected(self):
        tab = pth.TabulatedPath(np.array([0.0, 1.0]), np.array([1.0, 2.0]),
                                np.array([2.0, 1.0]))
        with pytest.raises(ValueError):
            pth.classify(tab)

    def test_classify_invariant_under_rescaling(self):
        rng = np.random.default_rng(21)
        for path in (bridge_path(), pth.ExponentialPath(0.7, 1.1, 1.3, 0.0, 1.0),
                     pth.VThenHPath(0.5, 1.0, 2.0, 4.0, 2.0, 0.0, 1.0)):
            cls = pth.classify(path)
            for p in (0.5, 2.0, 3.7):
                other = pth.classify(pth.scaled(path, p))
                assert other.tag is cls.tag
                for u in rng.uniform(0.0, path.span, size=20):
                    assert other.phi(u) == pytest.approx(cls.phi(u), abs=1e-9)


def unpruned_corner(ts, xs, ys, span, tol):
    """The corner search over every inner knot, with no range pruning."""
    best = None
    scale = max(1.0, float(np.max(np.abs(xs))), float(np.max(np.abs(ys))))
    for k in range(1, ts.size - 1):
        s_star = ts[k]
        a, b = float(xs[: k + 1].mean()), float(ys[k:].mean())
        left, right = ts[: k + 1], ts[k:]
        c = float(np.polynomial.polynomial.polyfit(s_star - left, ys[: k + 1] - b, 1)[1])
        d = float(np.polynomial.polynomial.polyfit(right - s_star, xs[k:] - a, 1)[1])
        if a <= 0 or b <= 0 or c <= 0 or d <= 0:
            continue
        resid = max(float(np.max(np.abs(xs[: k + 1] - a))), float(np.max(np.abs(ys[k:] - b))),
                    float(np.max(np.abs(ys[: k + 1] - (b + c * (s_star - left))))),
                    float(np.max(np.abs(xs[k:] - (a + d * (right - s_star))))))
        if resid > tol * scale or abs(a * c - b * d) > tol * max(a * c, b * d):
            continue
        if best is None or resid < best[0]:
            best = (resid, pth.PathClass(pth.PathTag.V_THEN_H, {
                "s_star": float(s_star), "a": a, "b": b, "c": c, "d": d}, span))
    return None if best is None else best[1]


class TestCornerSearch:
    @staticmethod
    def corner_knots(n, s_star=0.5, a=1.0, b=2.0, c=4.0, d=2.0):
        corner = pth.VThenHPath(s_star, a, b, c, d, 0.0, 1.0)
        ts = np.union1d(np.linspace(0.0, 1.0, n), [s_star])
        return ts, corner.x(ts), corner.y(ts)

    def tabulations(self, flat_stretch_path):
        """True corners, corners bent or unbalanced just past the tolerance,
        and paths with flat stretches of x and y."""
        scale = 4.0  # max |x|, |y| of the corners above
        yield self.corner_knots(17)
        yield self.corner_knots(64, s_star=0.37)
        for factor in (0.5, 0.99, 1.01, 1.99, 2.01, 3.0):
            ts, xs, ys = self.corner_knots(64, s_star=0.37)
            k = int(np.searchsorted(ts, 0.37))
            bent_x, bent_y = xs.copy(), ys.copy()
            # one knot of the vertical leg off x = a, one of the horizontal leg off y = b
            bent_x[k // 2] += factor * pth.TABULATED_TOL * scale
            bent_y[(k + ts.size) // 2] -= factor * pth.TABULATED_TOL * scale
            yield ts, bent_x, ys
            yield ts, xs, bent_y
        for imbalance in (1.0 - 2e-6, 1.0 + 2e-6, 1.0 + 5e-7):
            yield self.corner_knots(64, d=2.0 * imbalance)
        yield flat_stretch_path.times, flat_stretch_path.xs, flat_stretch_path.ys
        ts = np.linspace(0.0, 1.0, 40)  # a staircase: x and y flat in turn
        yield ts, 0.2 + np.floor(4 * ts) / 4, 1.5 - np.ceil(4 * ts) / 4

    @pytest.mark.parametrize("tol", [pth.TABULATED_TOL, 1e-3, 0.1])
    def test_pruned_equals_unpruned(self, flat_stretch_path, tol):
        found = 0
        for ts, xs, ys in self.tabulations(flat_stretch_path):
            span = float(ts[-1] - ts[0])
            got = pth._candidate_corner(ts, xs, ys, span, tol)
            assert got == unpruned_corner(ts, xs, ys, span, tol)
            found += got is not None
        assert found >= 3

    def test_true_corner_classified(self):
        ts, xs, ys = self.corner_knots(64, s_star=0.37)
        cls = pth.classify(pth.TabulatedPath(ts, xs, ys))
        assert cls.tag is pth.PathTag.V_THEN_H
        assert cls.params["s_star"] == 0.37


class TestPhi:
    def test_nonnegative_on_lags(self):
        rng = np.random.default_rng(22)
        for path in (bridge_path(), pth.ExponentialPath(1.0, 0.5, 2.0, 0.0, 1.5),
                     pth.HorizontalPath.affine(0.1, 1.0, 2.0, 0.0, 1.0)):
            cls = pth.classify(path)
            us = rng.uniform(0.0, path.span, size=200)
            assert np.all(cls.phi(us) >= -1e-12)

    def test_phi_matches_functional_equation(self):
        rng = np.random.default_rng(23)
        path = pth.ExponentialPath(0.8, 1.2, 0.9, 0.0, 2.0)
        cls = pth.classify(path)
        s = rng.uniform(0.0, 2.0, size=1000)
        t = rng.uniform(0.0, 2.0, size=1000)
        s, t = np.minimum(s, t), np.maximum(s, t)
        keep = t > s
        lhs = pth.symmetric_increment_area(path, s[keep], t[keep])
        ph = cls.phi(t[keep] - s[keep])
        assert np.max(np.abs(lhs - ph) / np.maximum(1.0, np.abs(ph))) < 1e-9

    def test_zero_lag(self):
        for path in (bridge_path(), pth.ExponentialPath(1.0, 1.0, 1.0, 0.0, 1.0)):
            assert pth.classify(path).phi(0.0) == 0.0

    def test_rejects_nonstationary_and_bad_lag(self):
        cls = pth.PathClass(pth.PathTag.NON_STATIONARY, {}, 1.0)
        with pytest.raises(ValueError):
            pth.phi(cls, 0.5)
        good = pth.classify(bridge_path())
        with pytest.raises(ValueError):
            good.phi(2.0)  # outside the lag range


class TestEquivalent:
    def test_scaled_linear(self):
        p1 = bridge_path()
        p2 = pth.LinearPath(0.0, 2.0, 0.5, 0.5, 0.0, 1.0)
        assert pth.equivalent(p1, p2) == pytest.approx(2.0)

    def test_identity(self):
        assert pth.equivalent(bridge_path(), bridge_path()) == pytest.approx(1.0)

    def test_different_families(self):
        p2 = pth.ExponentialPath(1.0, 1.0, 1.0, 0.0, 1.0)
        assert pth.equivalent(bridge_path(), p2) is None

    def test_domain_mismatch(self):
        p2 = pth.LinearPath(0.0, 1.0, 1.5, 1.0, 0.0, 1.5)
        with pytest.raises(ValueError):
            pth.equivalent(bridge_path(), p2)


class TestTwoPieceGuard:
    def up(self):
        return pth.IncreasingPath(lambda t: np.asarray(t, float),
                                  lambda t: np.asarray(t, float), 0.0, 1.0)

    def down(self):
        return pth.LinearPath(0.0, 1.0, 2.0, 1.0, 1.0, 2.0)  # x=t, y=2-t on [1,2]

    def test_flags_nonstationary(self):
        verdict = pth.check_two_piece_nonstationary(self.up(), self.down(), 0.5, 1.5)
        assert verdict is pth.TwoPieceVerdict.NONSTATIONARY

    def test_inconclusive_when_levels_match(self):
        # y(junction) = 1 = y(s) at s = 1
        verdict = pth.check_two_piece_nonstationary(self.up(), self.down(), 1.0, 1.5)
        assert verdict is pth.TwoPieceVerdict.INCONCLUSIVE

    def test_junction_mismatch(self):
        shifted = pth.LinearPath(0.0, 1.0, 2.0, 1.0, 1.1, 2.0)
        with pytest.raises(ValueError):
            pth.check_two_piece_nonstationary(self.up(), shifted, 0.5, 1.5)

    def test_down_then_down_rejected(self):
        with pytest.raises(TypeError):
            pth.check_two_piece_nonstationary(self.down(), self.down(), 1.2, 1.5)


def _bisect_first_x(path, u):
    """inf{t: x(t) >= u} by bisection to 1e-12 in t; the knot inverse's reference."""
    if u <= float(path.x(path.t_lo)):
        return path.t_lo
    if u > float(path.x(path.t_hi)):
        return None
    lo, hi = path.t_lo, path.t_hi
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if float(path.x(mid)) >= u:
            hi = mid
        else:
            lo = mid
    return hi


def _bisect_last_y(path, v):
    """sup{t: y(t) >= v} by bisection to 1e-12 in t; the knot inverse's reference."""
    if v > float(path.y(path.t_lo)):
        return None
    if v <= float(path.y(path.t_hi)):
        return path.t_hi
    lo, hi = path.t_lo, path.t_hi
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if float(path.y(mid)) >= v:
            lo = mid
        else:
            hi = mid
    return lo


class TestTabulatedInverses:
    def test_match_bisection(self, flat_stretch_path):
        path = flat_stretch_path
        rng = np.random.default_rng(24)
        us = np.concatenate([path.xs, rng.uniform(path.xs[0] - 0.1, path.xs[-1] + 0.1, 1000)])
        vs = np.concatenate([path.ys, rng.uniform(path.ys[-1] - 0.1, path.ys[0] + 0.1, 1000)])
        for inverse, reference, probes in (
                (path.first_time_x_at_least, _bisect_first_x, us),
                (path.last_time_y_at_least, _bisect_last_y, vs)):
            for w in probes:
                got, want = inverse(float(w)), reference(path, float(w))
                assert (got is None) == (want is None)
                if want is not None:
                    assert abs(got - want) <= 1e-12

    def test_flat_stretches_invert_to_their_ends(self, flat_stretch_path):
        path = flat_stretch_path
        on_flat_x = np.flatnonzero(path.xs == path.xs[25])
        on_flat_y = np.flatnonzero(path.ys == path.ys[45])
        assert on_flat_x.size > 2 and on_flat_y.size > 2
        assert path.first_time_x_at_least(path.xs[25]) == pytest.approx(
            path.times[on_flat_x[0]], abs=1e-15)
        assert path.last_time_y_at_least(path.ys[45]) == pytest.approx(
            path.times[on_flat_y[-1]], abs=1e-15)


SIX_FORMS = ["linear", "exponential", "corner", "horizontal", "vertical", "tabulated"]


@pytest.mark.parametrize("form", SIX_FORMS)
def test_array_inverses_match_scalar_calls(form, six_forms):
    """Each form's one inverse formula, behind an array range test and a scalar one,
    gives NaN in an array exactly where a scalar call gives None, and equal values elsewhere."""
    path = six_forms[form]
    rng = np.random.default_rng(25)
    knots = path.times if form == "tabulated" else np.array([path.t_lo, path.t_hi, 0.5])
    x_lo, x_hi = float(path.x(path.t_lo)), float(path.x(path.t_hi))
    y_hi, y_lo = float(path.y(path.t_lo)), float(path.y(path.t_hi))
    us = np.concatenate([path.x(knots), rng.uniform(x_lo - 0.2, x_hi + 0.2, 300)])
    vs = np.concatenate([path.y(knots), rng.uniform(y_lo - 0.2, y_hi + 0.2, 300)])
    for inverse, reference, probes in (
            (path.first_time_x_at_least, _bisect_first_x, us),
            (path.last_time_y_at_least, _bisect_last_y, vs)):
        batch = inverse(probes)
        assert batch.shape == probes.shape
        for w, got in zip(probes, batch):
            one, want = inverse(float(w)), reference(path, float(w))
            assert (one is None) == (want is None) == bool(np.isnan(got))
            if want is not None:
                assert one == got
                assert abs(got - want) <= 1e-12


@pytest.mark.parametrize("form", SIX_FORMS)
class TestScalarInverses:
    def test_ends_are_the_path_values(self, form, six_forms):
        path = six_forms[form]
        want = (float(path.x(path.t_lo)), float(path.x(path.t_hi)),
                float(path.y(path.t_lo)), float(path.y(path.t_hi)))
        assert path.ends == want
        assert all(type(e) is float for e in path.ends)

    def test_every_scalar_kind_gives_the_float_result(self, form, six_forms):
        path = six_forms[form]
        x_lo, x_hi, y_lo, y_hi = path.ends
        rng = np.random.default_rng(26)
        us = np.concatenate([path.ends, rng.uniform(x_lo - 0.2, x_hi + 0.2, 50)])
        vs = np.concatenate([path.ends, rng.uniform(y_hi - 0.2, y_lo + 0.2, 50)])
        for inverse, probes in ((path.first_time_x_at_least, us),
                                (path.last_time_y_at_least, vs)):
            for w in probes:
                want = inverse(float(w))
                assert want is None or type(want) is float
                for kind in (np.float64, np.array):
                    got = inverse(kind(w))
                    assert type(got) is type(want) and got == want
            for k in range(-1, 6):
                got, want = inverse(k), inverse(float(k))
                assert type(got) is type(want) and got == want

    def test_array_keeps_its_shape(self, form, six_forms):
        path = six_forms[form]
        x_lo, x_hi, y_lo, y_hi = path.ends
        us = np.linspace(x_lo - 0.1, x_hi + 0.1, 6).reshape(2, 3)
        vs = np.linspace(y_hi - 0.1, y_lo + 0.1, 6).reshape(2, 3)
        for inverse, probes in ((path.first_time_x_at_least, us),
                                (path.last_time_y_at_least, vs)):
            got = inverse(probes)
            assert got.shape == (2, 3)
            want = [np.nan if t is None else t for t in map(inverse, probes.ravel().tolist())]
            assert np.array_equal(got.ravel(), want, equal_nan=True)

    def test_probes_at_the_ends(self, form, six_forms):
        path = six_forms[form]
        x_lo, x_hi, y_lo, y_hi = path.ends
        assert path.first_time_x_at_least(x_lo) == path.t_lo
        assert path.last_time_y_at_least(y_hi) == path.t_hi
        for inverse, reference, probes in (
                (path.first_time_x_at_least, _bisect_first_x, (x_lo, x_hi)),
                (path.last_time_y_at_least, _bisect_last_y, (y_lo, y_hi))):
            for w in probes:
                got, want = inverse(w), reference(path, w)
                assert (got is None) == (want is None)
                if want is not None:
                    assert abs(got - want) <= 1e-12


class TestSerialization:
    @pytest.mark.parametrize("path", [
        pth.LinearPath(0.0, 1.0, 1.0, 1.0, 0.0, 1.0),
        pth.ExponentialPath(0.7, 1.1, 1.3, 0.0, 2.0),
        pth.VThenHPath(0.5, 1.0, 2.0, 4.0, 2.0, 0.0, 1.0),
        pth.HorizontalPath.affine(0.5, 2.0, 1.5, 0.0, 1.0),
        pth.VerticalPath.affine(3.0, 1.0, 2.0, 0.0, 1.0),
        pth.TabulatedPath(np.array([0.0, 0.5, 1.0]), np.array([0.5, 1.0, 1.5]),
                          np.array([2.0, 1.5, 1.0])),
    ])
    def test_round_trip(self, path):
        spec = pth.path_to_dict(path)
        back = pth.path_from_dict(spec)
        assert pth.path_to_dict(back) == spec

    @pytest.mark.parametrize("spec,tag,params", [
        ({"form": "horizontal", "y": 1.5, "x_intercept": 0.5, "x_slope": 2.0,
          "t_lo": 0.0, "t_hi": 1.0}, pth.PathTag.HORIZONTAL, {"a": 1.5, "b": 0.5, "c": 2.0}),
        ({"form": "vertical", "x": 2.0, "y_intercept": 3.0, "y_slope": 1.0,
          "t_lo": 0.0, "t_hi": 1.0}, pth.PathTag.VERTICAL, {"a": 2.0, "b": 3.0, "c": 1.0}),
    ])
    def test_zero_slope_specs_load_as_linear(self, spec, tag, params):
        path = pth.path_from_dict(spec)
        assert isinstance(path, pth.LinearPath)
        cls = pth.classify(path)
        assert cls.tag is tag
        assert cls.params == params
        out = pth.path_to_dict(path)
        assert out["form"] == "linear"
        assert pth.path_from_dict(out) == path

    def test_missing_field_named(self):
        with pytest.raises(ValueError, match="form"):
            pth.path_from_dict({"a": 1.0})
        with pytest.raises(ValueError, match="t_hi"):
            pth.path_from_dict({"form": "linear", "a": 0, "b": 1, "c": 1,
                                "d": 1, "t_lo": 0})


@given(
    a=st.floats(0.0, 1.0), b=st.floats(0.5, 2.0),
    d=st.floats(0.5, 2.0), extra=st.floats(0.05, 1.0),
    u_frac=st.floats(0.01, 0.99),
)
def test_linear_phi_formula(a, b, d, extra, u_frac):
    c = d * 1.0 + extra
    path = pth.LinearPath(a, b, c, d, 0.0, 1.0)
    cls = pth.classify(path)
    u = u_frac * 1.0
    expected = (a * d + b * c) * u - b * d * u * u
    assert cls.phi(u) == pytest.approx(expected, rel=1e-12, abs=1e-12)
