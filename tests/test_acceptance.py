"""Acceptance suite: every criterion at its stated scale and tolerance.

Runs the same criterion functions as `levysheet verify --suite all` with the
pinned seed and prints one PASS/FAIL line per criterion (visible with -s or
on failure).
"""

import inspect

import pytest

from levysheet import suites

SEED = suites.DEFAULT_SEED

DESCRIPTIONS = {
    1: "path classifier recovers all four families; phi solves the "
       "functional equation at 1e-9; perturbed paths rejected; increment CF "
       "equals the theorem's exp(phi psi) to 1e-12, which raises exactly for "
       "non-symmetric laws on corner and linear paths (< 5 s)",
    2: "general FDD characteristic function matches the Gaussian quadratic "
       "form to 1e-12 on 100 random instances (< 1 s)",
    3: "pinned straight-line path simulates a standard bridge: variance and "
       "covariance bands at N=1e5, endpoints exactly zero (< 30 s)",
    4: "zero-crossing probability: MC sign changes within 0.02 of the "
       "arccos formula; conditional form matches quadrature to 1e-8 (< 60 s)",
    5: "cancelling jumps: restriction equals brute-force rectangle sums "
       "exactly; paired counts even; half-counts Poisson (chi2 p > 0.001)",
    6: "uniform-triangle map yields uniform order statistics "
       "(chi2 p > 0.001; min-law KS p > 0.001) at N=1e5",
    7: "rearranged-difference law matches the symmetrized-sheet joint CF "
       "within 4/sqrt(N) per component at N=1e5 (< 60 s)",
    8: "diffusion-scale bridge at rate 1e3: Var[Z(1/2)] in 0.25 +/- 0.02, "
       "original component variance at 1 in 0.5 +/- 0.03, rearranged one at "
       "1/2 in 0.25 +/- 0.015, walk covariance within 4 SE",
    9: "exponential-path stationarity: lag correlations within 0.02 of "
       "exp(-c u); joint CF shift-invariant to 1e-12",
    10: "OU-type discrimination: jump law yields a CF gap >= 1e-3; Gaussian "
        "max gap <= 1e-10",
    11: "joint CF invariant under path rescaling to 1e-12; conditional-mean "
        "regressions pass on Gaussian and compound-Poisson sheets",
}


@pytest.mark.parametrize("number", sorted(suites.CRITERIA))
def test_criterion(number):
    reports = suites.CRITERIA[number](seed=SEED)
    passed = all(r.passed for r in reports)
    print(f"criterion {number:2d}: {'PASS' if passed else 'FAIL'} - "
          f"{DESCRIPTIONS[number]}")
    for report in reports:
        assert report.passed, report.to_json()
        assert report.passed == (report.statistic <= report.threshold), report.to_json()


@pytest.mark.parametrize("follow_wrapped", [True, False])
def test_every_criterion_takes_only_the_seed(follow_wrapped):
    # each sample size is fixed inside its criterion: no keyword can change it
    for number, criterion in suites.CRITERIA.items():
        params = inspect.signature(criterion, follow_wrapped=follow_wrapped).parameters
        assert list(params) == ["seed"], number


def test_suite_runs_its_criteria_in_order():
    # Neither criterion has a runtime budget, so the whole JSON is reproducible.
    expected = suites.CRITERIA[9](SEED) + suites.CRITERIA[10](SEED)
    got = suites.run_suite("stationary", SEED)
    assert [r.to_json() for r in got] == [r.to_json() for r in expected]
