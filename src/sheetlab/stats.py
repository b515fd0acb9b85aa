"""Two-sample Kolmogorov-Smirnov test and least-squares line, numpy only.

``ks_2samp`` and ``linregress`` give the numbers of
``scipy.stats.ks_2samp(a, b, method="asymp")`` and ``scipy.stats.linregress``
for the fields sheetlab reads (the KS p-value to 1e-12 relative where it is a
normal double, the rest bit for bit) without importing scipy, which costs
about 0.3 s and 19 MB per process. The p-value is the survival function of
the two-sided one-sample Kolmogorov distribution at
``n = round(n1 n2 / (n1 + n2))``, computed by the algorithm of Simard &
L'Ecuyer, "Computing the two-sided Kolmogorov-Smirnov distribution",
J. Stat. Softw. 39(11), 2011. Where that algorithm takes
``scipy.special.smirnov``, ``smirnov`` below sums the exact one-sided formula
of Birnbaum & Tingey, Ann. Math. Stat. 22, 1951.
"""

# The survival function below is a port of the branches of
# scipy/stats/_ksstats.py (scipy 1.17) that Pr(D_n >= x) reaches:
#
#   Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
#   All rights reserved.
#
#   Redistribution and use in source and binary forms, with or without
#   modification, are permitted provided that the following conditions are
#   met: (1) redistributions of source code must retain the above copyright
#   notice, this list of conditions and the following disclaimer; (2)
#   redistributions in binary form must reproduce the above copyright notice,
#   this list of conditions and the following disclaimer in the documentation
#   and/or other materials provided with the distribution; (3) neither the
#   name of the copyright holder nor the names of its contributors may be used
#   to endorse or promote products derived from this software without
#   specific prior written permission.
#
#   THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS "AS
#   IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT LIMITED TO,
#   THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR A PARTICULAR
#   PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT HOLDER OR
#   CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL, SPECIAL,
#   EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT LIMITED TO,
#   PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE, DATA, OR
#   PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY THEORY OF
#   LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT (INCLUDING
#   NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE OF THIS
#   SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["KsResult", "LinregressResult", "ks_2samp", "linregress"]

_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)

# above this n, scipy.special.smirnov takes an asymptotic form, and so does smirnov
_SMIRNOV_EXACT_MAX_N = 1_000_000

_SQRT2PI = np.sqrt(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi**2
_PI_FOUR = np.pi**4
_PI_SIX = np.pi**6


class KsResult(NamedTuple):
    statistic: np.float64
    pvalue: np.float64


class LinregressResult(NamedTuple):
    slope: np.float64
    rvalue: np.float64


def ks_2samp(a, b) -> KsResult:
    """Two-sided two-sample KS statistic and its asymptotic p-value."""
    a, b = np.sort(a), np.sort(b)
    n1, n2 = a.shape[0], b.shape[0]
    if min(n1, n2) == 0:
        raise ValueError("ks_2samp needs two nonempty samples")
    both = np.concatenate([a, b])
    diffs = (np.searchsorted(a, both, side="right") / n1
             - np.searchsorted(b, both, side="right") / n2)
    below = np.clip(-np.min(diffs), 0, 1)
    above = np.max(diffs)
    d = np.float64(below if below > above else above)
    en = float(n1) * float(n2) / (float(n1) + float(n2))
    return KsResult(d, np.float64(_kolmogn_sf(round(en), d)))


def linregress(x, y) -> LinregressResult:
    """Least-squares slope of y on x and the correlation coefficient."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.size == 0 or y.size == 0:
        raise ValueError("linregress needs nonempty inputs")
    if np.amax(x) == np.amin(x) and len(x) > 1:
        raise ValueError("linregress needs at least two distinct x values")
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = np.float64(np.nan if ssxym == 0 else 0.0)
    else:
        r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
    return LinregressResult(ssxym / ssxm, r)


def _kolmogn_sf(n: int, x) -> float:
    """Pr(D_n >= x) for the two-sided one-sample KS statistic D_n."""
    if n < 1:
        return np.nan
    if x >= 1.0:
        return 0.0
    t = n * x
    if t <= 1.0:  # Ruben-Gambino: 1/2n <= x <= 1/n
        if t <= 0.5:
            return 1.0
        if n > 140:  # cdf <= n!/n^n < e^-137 here, so 1 - cdf rounds to 1
            return 1.0
        cdf = np.prod(np.arange(1, n + 1) * (1.0 / n) * (2 * t - 1))
        return _clip(1.0 - cdf)
    if t >= n - 1:  # Ruben-Gambino
        return _clip(2 * (1.0 - x) ** n)
    if x >= 0.5:  # exact: 2 * smirnov
        return _clip(2 * smirnov(n, x))
    nxsquared = t * x
    if n <= 140:
        if nxsquared <= 0.754693:
            return _clip(1.0 - _kolmogn_dmtw(n, x))
        if nxsquared <= 4:
            return _clip(1.0 - _kolmogn_pomeranz(n, x))
        return _clip(2 * smirnov(n, x))  # Miller's approximation
    if nxsquared >= 370.0:
        return 0.0
    if nxsquared >= 2.2:
        return _clip(2 * smirnov(n, x))
    if n <= 100000 and n * x**1.5 <= 1.4:
        return _clip(1.0 - _kolmogn_dmtw(n, x))
    return _clip(1.0 - _kolmogn_pelz_good(n, x))


def _clip(p):
    return np.clip(p, 0.0, 1.0)


def smirnov(n: int, x) -> float:
    """Pr(D_n^+ >= x) for the one-sided one-sample KS statistic D_n^+.

    The Birnbaum-Tingey sum over j = 0, ..., floor(n (1 - x)) of
    C(n, j) x (x + j/n)^(j-1) (1 - x - j/n)^(n-j), whose terms are all positive:
    it is summed in long double, in log space with the largest term factored
    out, so that nothing overflows and p-values far below 1e-300 keep their
    digits. log C(n, j) is a running sum of log((n - j + 1)/j), which does not
    cancel as a difference of log-gamma values does, with its rounding errors
    added back so that it stays exact to about 1e-15 up to n = 10^6. A last
    term whose 1 - x - j/n rounds to zero or below is 0 and is dropped. Above
    _SMIRNOV_EXACT_MAX_N it is exp(-(6 n x + 1)^2 / (18 n)), as in scipy.
    """
    if np.isnan(x):
        return np.nan
    if x <= 0.0:
        return 1.0
    if x >= 1.0:
        return 0.0
    if n > _SMIRNOV_EXACT_MAX_N:
        return np.exp(-((6 * n * x + 1) ** 2) / (18 * n))
    j = np.arange(int(n * (1 - x)) + 1)
    steps = np.zeros(j.size, dtype=np.longdouble)
    steps[1:] = np.log((n + 1 - j[1:]) / j[1:].astype(np.longdouble))
    sums = np.cumsum(steps)
    # the rounding error of each addition, exact by TwoSum, summed apart
    prev = np.concatenate(([0], sums[:-1]))
    back = sums - prev
    log_binom = sums + np.cumsum((prev - (sums - back)) + (steps - back))
    x = np.longdouble(x)
    jn = j / np.longdouble(n)
    rest = 1 - x - jn
    keep = rest > 0
    j, jn, rest, log_binom = j[keep], jn[keep], rest[keep], log_binom[keep]
    logs = log_binom + np.log(x) + (j - 1) * np.log(x + jn) + (n - j) * np.log(rest)
    top = np.max(logs)
    return np.float64(np.exp(top) * np.sum(np.exp(logs - top)))


def _kolmogn_dmtw(n, d):
    """Pr(D_n <= d) by Durbin's matrix algorithm as Marsaglia, Tsang & Wang compute it.

    With d = (k - h)/n, the k-th diagonal entry of (n!/n^n) H^n for an
    m x m matrix H, m = 2k - 1, rescaled by 2^128 as it grows or shrinks.
    """
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1
    H = np.zeros([m, m])
    # v is the first column and the reversed last row; w[j] = 1/j!
    intm = np.arange(1, m + 1)
    v = 1.0 - h**intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j  # may underflow, harmlessly
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0) ** m - 2 * h**m
    v[-1] = (1.0 + tt) * fac
    for i in range(1, m):
        H[i - 1:, i] = w[: m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    Hpwr = np.eye(m)
    nn = n
    expnt = 0  # scaling of Hpwr
    Hexpnt = 0  # scaling of H
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2
    p = Hpwr[k - 1, k - 1]
    for i in range(1, n + 1):  # times n!/n^n
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128  # p is a longdouble from here on
            expnt -= _E128
    if expnt != 0:
        p = np.ldexp(p, expnt)
    return _clip(p)


def _pomeranz_j1j2(i, n, ll, ceilf, roundf):
    """First and last nonzero column of row i of the Pomeranz recursion."""
    if i == 0:
        j1, j2 = -ll - ceilf - 1, ll + ceilf - 1
    else:
        ip1div2, ip1mod2 = divmod(i + 1, 2)
        if ip1mod2 == 0:  # i is odd
            if ip1div2 == n + 1:
                j1, j2 = n - ll - ceilf - 1, n + ll + ceilf - 1
            else:
                j1, j2 = ip1div2 - 1 - ll - roundf - 1, ip1div2 + ll - 1 + ceilf - 1
        else:
            j1, j2 = ip1div2 - 1 - ll - 1, ip1div2 + ll + roundf - 1
    return max(j1 + 2, 0), min(j2, n)


def _kolmogn_pomeranz(n, x):
    """Pr(D_n <= x) by the Pomeranz (1974) recursion.

    Each of 2n + 1 rows is the previous row convolved with one of three
    unnormalised Poisson sequences; the answer is n! times the last entry.
    Only two rows and their nonzero windows are kept, rescaled by 2^128.
    """
    t = n * x
    ll = int(np.floor(t))
    f = 1.0 * (t - ll)
    g = min(f, 1.0 - f)
    ceilf = 1 if f > 0 else 0
    roundf = 1 if f > 0.5 else 0
    npwrs = 2 * (ll + 1)
    gpower = np.empty(npwrs)  # (g/n)^m / m!
    twogpower = np.empty(npwrs)  # (2g/n)^m / m!
    onem2gpower = np.empty(npwrs)  # ((1-2g)/n)^m / m!
    gpower[0] = twogpower[0] = onem2gpower[0] = 1.0
    expnt = 0
    g_over_n, two_g_over_n, one_minus_two_g_over_n = g / n, 2 * g / n, (1 - 2 * g) / n
    for m in range(1, npwrs):
        gpower[m] = gpower[m - 1] * g_over_n / m
        twogpower[m] = twogpower[m - 1] * two_g_over_n / m
        onem2gpower[m] = onem2gpower[m - 1] * one_minus_two_g_over_n / m

    V0 = np.zeros([npwrs])
    V1 = np.zeros([npwrs])
    V1[0] = 1
    V0s, V1s = 0, 0  # column of each row's first stored entry
    j1, j2 = _pomeranz_j1j2(0, n, ll, ceilf, roundf)
    for i in range(1, 2 * n + 2):
        k1 = j1
        V0, V1 = V1, V0
        V0s, V1s = V1s, V0s
        V1.fill(0.0)
        j1, j2 = _pomeranz_j1j2(i, n, ll, ceilf, roundf)
        if i == 1 or i == 2 * n + 1:
            pwrs = gpower
        else:
            pwrs = twogpower if i % 2 else onem2gpower
        ln2 = j2 - k1 + 1
        if ln2 > 0:
            conv = np.convolve(V0[k1 - V0s : k1 - V0s + ln2], pwrs[:ln2])
            conv_start = j1 - k1
            conv_len = j2 - j1 + 1
            V1[:conv_len] = conv[conv_start : conv_start + conv_len]
            if 0 < np.max(V1) < _EM128:
                V1 *= _EP128
                expnt -= _E128
            V1s = V0s + j1 - k1

    ans = V1[n - V1s]
    for m in range(1, n + 1):  # times n!
        if np.abs(ans) > _EP128:
            ans *= _EM128
            expnt += _E128
        ans *= m
    if expnt != 0:
        ans = np.ldexp(ans, expnt)
    return _clip(ans)


def _kolmogn_pelz_good(n, x):
    """Pelz & Good's (1976) approximation to Pr(D_n <= x) for 0 < x < 1.

    The Li-Chien / Korolyuk expansion K0 + K1/sqrt(n) + K2/n + K3/n^1.5 in
    z = x sqrt(n), each term transformed by the Jacobi theta identity into a
    series that converges fast for small z.
    """
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6
    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:  # z below about 0.0417
        return 0.0
    q = np.exp(qlog)

    k1a = -zsquared
    k1b = _PI_SQUARED / 4
    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16
    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8

    # Horner in q of sum c_m q^(m^2) over odd m = 2k - 1
    K0to3 = np.zeros(4)
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0,
                           k1a + k1b * msquared,
                           k2a + k2b * msquared + k2c * mfour,
                           k3a + k3b * msquared + k3c * mfour + k3d * msix])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])

    # the terms of K2 and K3 summed over all integers k, directly
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks**2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q**ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI / (-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI / (216 * zsix)
    K0to3[3] += k3extra
    K0to3 /= np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    return sum(K0to3)
