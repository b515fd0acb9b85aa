"""sheetlab.stats against scipy.stats, which these tests alone import."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import sheetlab
from sheetlab import stats

SRC = Path(sheetlab.__file__).resolve().parent.parent


def _close(p, ref):
    return abs(p - ref) <= 1e-12 * abs(ref)


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
    (500, 0.0018, {"_log_nfactorial_div_n_pow_n"}),  # Ruben-Gambino t <= 1, n > 140
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
    for name in ("_log_nfactorial_div_n_pow_n", "smirnov", "_kolmogn_dmtw",
                 "_kolmogn_pomeranz", "_kolmogn_pelz_good"):
        fn = getattr(stats, name)
        monkeypatch.setattr(stats, name,
                            lambda *a, _fn=fn, _name=name: called.add(_name) or _fn(*a))
    p = stats._kolmogn_sf(n, np.float64(x))
    assert called == helpers
    assert _close(p, scipy.stats.kstwo.sf(x, n))


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


def test_cli_import_leaves_scipy_stats_unloaded():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import sys, sheetlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'stats']))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
