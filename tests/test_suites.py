"""The named verification suites must all run clean, and their reports must
be internally consistent."""

import pytest

from pqelliptic.suites import SUITE_NAMES, CaseResult, run_suite

# verify's case counts; cli-batch counts each case as a value, so a change
# here changes what that benchmark measures
CASE_COUNTS = {
    "legendre": 25,
    "derivatives": 54,
    "routes": 255,
    "means-ordering": 57,
    "means-bridge": 35,
    "moments": 18,
    "trig": 5,
}


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_passes(name):
    report, cases = run_suite(name)
    failing = [c for c in cases if not c.passed]
    assert report.failures == 0, failing[:5]
    assert report.cases == len(cases)
    assert report.suite == name
    assert report.max_residual == max(c.residual for c in cases)
    assert report.elapsed >= 0.0


def test_suite_case_counts_are_pinned():
    assert {name: run_suite(name)[0].cases for name in SUITE_NAMES} == CASE_COUNTS
    assert sum(CASE_COUNTS.values()) == 449  # verify all


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nosuch")


def test_case_result_nan_counts_as_failure():
    assert not CaseResult("x", float("nan"), 1e-9).passed
    assert CaseResult("x", 0.0, 0.0).passed
    assert not CaseResult("x", 1e-8, 1e-9).passed


def test_log_mean_cases_check_an_independent_route(monkeypatch):
    # M_1 and K_1 return mean_log's closed form and K_0 the limit of K_p's
    # ratio; each of their cases must notice when that closed form is 1e-9 off
    import pqelliptic.means as means

    log_mean, kp_ratio = means.mean_log, means._kp_ratio
    monkeypatch.setattr(means, "mean_log", lambda a, b: log_mean(a, b) * (1.0 + 1e-9))
    monkeypatch.setattr(means, "_kp_ratio", lambda p, lx: kp_ratio(p, lx) * (1.0 + 1e-9))
    prefixes = ("M1=L ", "K1=L ", "K0=x/L ", "p=1 ")
    checked = [
        c for name in ("means-bridge", "means-ordering")
        for c in run_suite(name)[1] if c.name.startswith(prefixes)
    ]
    assert len(checked) == 22
    assert not any(c.passed for c in checked)


def test_derivative_cases_check_the_series(monkeypatch):
    # each case compares a closed form with elliptic._d_series; every one of
    # them must notice when that series is 1e-9 off
    import pqelliptic.elliptic as elliptic

    d_series = elliptic._d_series
    monkeypatch.setattr(
        elliptic, "_d_series", lambda *args: d_series(*args) * (1.0 + 1e-9)
    )
    cases = run_suite("derivatives")[1]
    assert len(cases) == CASE_COUNTS["derivatives"]
    assert not any(c.passed for c in cases)


def test_derivative_cases_run_the_closed_forms(monkeypatch):
    # the grid keeps k^q at or above the series switch, so every case forms
    # (K, E) once for its closed form
    import pqelliptic.elliptic as elliptic

    k_and_e, calls = elliptic._k_and_e, []

    def counted(*args):
        calls.append(args)
        return k_and_e(*args)

    monkeypatch.setattr(elliptic, "_k_and_e", counted)
    assert len(run_suite("derivatives")[1]) == len(calls) == CASE_COUNTS["derivatives"]
