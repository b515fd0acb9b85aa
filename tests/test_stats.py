"""sheetlab.stats against scipy.stats, which these tests alone import."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sheetlab
from sheetlab import stats

SRC = Path(sheetlab.__file__).resolve().parent.parent


_TINY = np.finfo(float).tiny
_STEP = 2.0**-1074  # the smallest subnormal, and the spacing of all of them
# Where scipy's KS survival function is subnormal, its sum loses digits: a
# 50-digit sum of the same terms agrees with sheetlab.stats, not with scipy
# (test_smirnov_keeps_subnormal_digits_scipy_loses). So no relative bound can
# hold there, and _close compares in log space, allowing _SUBNORMAL_STEPS
# steps of _STEP. Over 8195 subnormal cases with 141 <= n <= 20000 and
# 340 <= n x^2 < 370 or x >= 1/2, the largest deviation found in smirnov was
# 37 steps (n = 19068, x = 0.139068: scipy 0, sheetlab 1.83e-322), so up to
# 74 in the two-sided p-value 2 smirnov.
_SUBNORMAL_STEPS = 128


def _close(p, ref):
    """p within 1e-12 relative of scipy's ref where ref is a normal double;
    below, in log space, within _SUBNORMAL_STEPS subnormal steps."""
    if ref >= _TINY:
        return abs(p - ref) <= 1e-12 * abs(ref)
    if ref == 0.0 or p == 0.0:
        return max(p, ref) <= _SUBNORMAL_STEPS * _STEP
    return p < _TINY and abs(np.log(p / ref)) <= np.log1p(_SUBNORMAL_STEPS * _STEP / ref)


def _sizes():
    small = st.tuples(st.integers(1, 280), st.integers(1, 280))  # en <= 140
    large = st.tuples(st.integers(282, 3000), st.integers(282, 3000))  # en > 140
    equal = st.integers(1, 3000).map(lambda n: (n, n))
    return st.one_of(small, large, equal).filter(lambda s: s != (1, 1))  # en rounds to 0


@settings(max_examples=300, deadline=None)
@given(
    sizes=_sizes(),
    shift=st.sampled_from([0.0, 0.02, 0.1, 0.5, 3.0]),
    ties=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_ks_2samp_matches_scipy(sizes, shift, ties, seed):
    gen = np.random.default_rng(seed)
    a = gen.normal(size=sizes[0])
    b = gen.normal(shift, size=sizes[1])
    if ties:
        a, b = np.round(a, 1), np.round(b, 1)
    res = stats.ks_2samp(a, b)
    ref = scipy.stats.ks_2samp(a, b, method="asymp")
    assert res.statistic == ref.statistic
    assert type(res.pvalue) is np.float64
    assert _close(res.pvalue, ref.pvalue)


# One case per branch of the survival function, with the helpers it must call.
_BRANCHES = [
    (10, 0.0, set()),  # x <= 0
    (10, 0.04, set()),  # t <= 1/2
    (10, 0.08, set()),  # Ruben-Gambino t <= 1, n <= 140
    (500, 0.0018, set()),  # Ruben-Gambino t <= 1, n > 140
    (10, 0.95, set()),  # Ruben-Gambino t >= n - 1
    (10, 0.6, {"smirnov"}),  # x >= 1/2
    (100, 0.08, {"_kolmogn_dmtw"}),  # n <= 140, n x^2 <= 0.754693
    (100, 0.15, {"_kolmogn_pomeranz"}),  # n <= 140, n x^2 <= 4
    (100, 0.3, {"smirnov"}),  # n <= 140, n x^2 > 4
    (5000, 0.3, set()),  # n x^2 >= 370
    (500, 0.1, {"smirnov"}),  # n x^2 >= 2.2
    (500, 0.015, {"_kolmogn_dmtw"}),  # n x^1.5 <= 1.4
    (500, 0.05, {"_kolmogn_pelz_good"}),  # n x^1.5 > 1.4
    (200_000, 0.002, {"_kolmogn_pelz_good"}),  # n > 100000
    (200_000, 2e-5, {"_kolmogn_pelz_good"}),  # z so small that the CDF is 0
    (10, 1.0, set()),  # x >= 1
]


@pytest.mark.parametrize("n, x, helpers", _BRANCHES)
def test_kolmogn_sf_branches_match_scipy(monkeypatch, n, x, helpers):
    called = set()
    for name in ("smirnov", "_kolmogn_dmtw", "_kolmogn_pomeranz", "_kolmogn_pelz_good"):
        fn = getattr(stats, name)
        monkeypatch.setattr(stats, name,
                            lambda *a, _fn=fn, _name=name: called.add(_name) or _fn(*a))
    p = stats._kolmogn_sf(n, np.float64(x))
    assert called == helpers
    assert _close(p, scipy.stats.kstwo.sf(x, n))


def _smirnov(n, x):
    """sheetlab's port, which must not be the scipy oracle it is compared with."""
    assert stats.smirnov is not scipy.special.smirnov
    return stats.smirnov(n, x)


@st.composite
def _smirnov_cases(draw):
    """(n, x) where _kolmogn_sf calls smirnov: x >= 1/2, or n x^2 in [2.2, 370),
    at random x and at lattice points x = k/n."""
    n = draw(st.one_of(st.integers(1, 140), st.integers(141, 20_000)))
    kind = draw(st.sampled_from(["half", "tail", "lattice"]))
    if kind == "half":
        x = draw(st.floats(0.5, 1.0, exclude_max=True))
    elif kind == "tail":
        c = draw(st.floats(2.2, 370.0, exclude_max=True))
        assume(c < n)
        x = float(np.sqrt(c / n))
    else:
        lo = min(int(np.ceil(np.sqrt(2.2 * n))), (n + 1) // 2)
        assume(lo < n)
        x = draw(st.integers(lo, n - 1)) / n
    return n, x


@settings(max_examples=300, deadline=None)
@given(case=_smirnov_cases())
def test_smirnov_matches_scipy(case):
    n, x = case
    p = _smirnov(n, x)
    assert type(p) is np.float64
    assert _close(p, scipy.special.smirnov(n, x))


@pytest.mark.parametrize("n, x", [
    # without its rounding errors added back, the running sum of log C(n, j)
    # was off by 3e-13 and 1e-11 at these two
    (166_071, 0.04616391615693011),
    (952_351, 0.0173184646848137),
    (1_000_001, 0.0015),  # above 10^6 scipy's asymptotic form
    (2_000_000, 0.002),
])
def test_smirnov_matches_scipy_at_large_n(n, x):
    assert _close(_smirnov(n, x), scipy.special.smirnov(n, x))


def test_smirnov_reference_values():
    """The datasets of TestSmirnov in scipy/special/tests/test_kolmogorov.py."""
    rows = [(1, 0.1, 0.9), (1, 0.875, 0.125), (2, 0.875, 0.125**2), (3, 0.875, 0.125**3)]
    rows += [(n, 0.0, 1.0) for n in [*range(2, 20), *range(1010, 1020)]]
    rows += [(n, 1.0, 0.0) for n in [*range(2, 20), *range(1010, 1020)]]
    rows += [(1, x, 1 - x) for x in np.linspace(0, 1, 101)]
    rows += [(2, x, (1 - x) ** 2) for x in np.linspace(0.5, 1, 101)]
    rows += [(3, x, (1 - x) ** 3) for x in np.linspace(0.7, 1, 31)]
    for n, x, p in rows:
        assert abs(_smirnov(n, x) - p) <= 1e-12 * p, (n, x)
    # the table at x = 1/2, printed there to 12 digits (its rtol is 1e-10)
    half = [0.5, 0.25, 0.166666666667, 0.09375, 0.056, 0.0327932098765,
            0.0191958707681, 0.0112953186035, 0.00661933257355, 0.003888705]
    for n, p in enumerate(half, start=1):
        assert abs(_smirnov(n, 0.5) - p) <= 1e-10 * p, n
        assert _close(_smirnov(n, 0.5), scipy.special.smirnov(n, 0.5)), n


def test_smirnov_falls_with_n_and_is_nan_at_nan():
    p = [_smirnov(n, 0.4) for n in range(400, 1100, 20)]
    assert np.all(np.diff(p) <= 0)
    assert np.isnan(_smirnov(1, np.nan))


def test_smirnov_keeps_subnormal_digits_scipy_loses():
    # 50-digit sums of the same terms: 1.156e-321 and 1.53e-322 once rounded
    # (scipy.special.smirnov gives 1.09e-321 and 0)
    n = 12460
    assert _smirnov(n, np.sqrt(367 / n)) == 1.156e-321
    assert _smirnov(n, np.sqrt(368 / n)) == 1.53e-322


def test_ks_2samp_pvalue_is_float64_where_durbin_scales_to_longdouble():
    # en = 500 and d = 0.015: n!/n^n times the Durbin matrix entry falls below 2^-128
    a = np.arange(1000) / 1000
    b = a + 0.015 - 1e-9
    assert type(stats._kolmogn_dmtw(500, np.float64(0.015))) is np.longdouble
    res = stats.ks_2samp(a, b)
    assert res.statistic == scipy.stats.ks_2samp(a, b, method="asymp").statistic
    assert type(res.pvalue) is np.float64
    assert _close(res.pvalue, scipy.stats.ks_2samp(a, b, method="asymp").pvalue)


def test_ks_2samp_rejects_an_empty_sample():
    with pytest.raises(ValueError):
        stats.ks_2samp(np.ones(3), np.array([]))


def test_ks_2samp_of_two_single_points_has_no_pvalue():
    # en = 1/2 rounds to n = 0, where scipy's kstwo has no distribution either
    res = stats.ks_2samp(np.zeros(1), np.ones(1))
    assert res.statistic == 1.0 and np.isnan(res.pvalue)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 60),
    slope=st.sampled_from([0.0, 1.0, -2.5, 1e-8]),
    noise=st.sampled_from([0.0, 1e-12, 0.1, 10.0]),
    ties=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_linregress_matches_scipy(n, slope, noise, ties, seed):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=n)
    if ties:
        x = np.round(x)
    y = slope * x + noise * gen.normal(size=n)
    if np.amax(x) == np.amin(x):
        with pytest.raises(ValueError):
            stats.linregress(x, y)
        return
    res = stats.linregress(list(x), list(y))
    ref = scipy.stats.linregress(x, y)
    np.testing.assert_array_equal([res.slope, res.rvalue], [ref.slope, ref.rvalue])


def _run_python(code, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=True)


def test_cli_import_leaves_scipy_stats_unloaded():
    code = ("import sys, sheetlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _run_python(code).stdout.strip() == "[]"


def test_kac_stroock_report_runs_without_scipy(tmp_path):
    # scipy made unimportable; at intensity 4 the KS distances are about 0.26
    # with en = 500 samples, so _kolmogn_sf takes its smirnov branch
    code = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None
        from sheetlab import stats
        from sheetlab.cli import main
        calls = []
        smirnov = stats.smirnov
        stats.smirnov = lambda n, x: calls.append(n) or smirnov(n, x)
        code = main(sys.argv[1:])
        print(code, len(calls))
    """)
    out = _run_python(code, "convergence-report", "--diagnostic", "fdd",
                      "--family", "kac-stroock", "--grid-n", "4", "--n", "4",
                      "--M", "1000", "--projections", "2", "--report-dir", str(tmp_path))
    code, calls = map(int, out.stdout.split())
    assert code == 0 and calls > 0
    assert (tmp_path / "report.json").exists()
