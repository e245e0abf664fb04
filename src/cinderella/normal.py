"""The standard normal CDF and its inverse, as the Cephes Math Library computes them.

A port of the Cephes Math Library's ``ndtr.c`` (with its ``erf`` and ``erfc``)
and ``ndtri.c``, by Stephen L. Moshier, as scipy's copy of Cephes has them:
``scipy.special.ndtr`` and ``ndtri`` evaluate this code (bit for bit against
scipy 1.17, ``tests/test_normal.py``). The coefficients, branch points and
operation order are Cephes', and ``math.exp``, ``math.log`` and ``math.sqrt``
are the libm calls that the compiled code makes, so every result has scipy's
bits. Importing scipy for these two functions put about 20 MB of resident
memory and 280 modules into every run and sweep worker.

Each polynomial is evaluated in ``polevl``/``p1evl`` order, unrolled: ``polevl``
is Horner's rule from the leading coefficient, ``p1evl`` the same with a
leading coefficient of 1.0, whose first step ``1.0 * x + c`` is ``x + c``.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT1_2 = 0.70710678118654752440  # sqrt(1/2)
_MAXLOG = 7.09782712893383996843e2  # log(2**1024): exp(-z*z) underflows below -_MAXLOG
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_EXP_M2_UPPER = 1.0 - _EXP_M2

# erf(x) = x T(x^2) / U(x^2) for |x| <= 1
_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_U = (  # leading 1.0 omitted
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)
# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8
_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_Q = (  # leading 1.0 omitted
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
# erfc(x) = exp(-x^2) R(x) / S(x) for x >= 8
_R = (
    5.64189583547755073984e-1,
    1.27536670759978104416e0,
    5.01905042251180477414e0,
    6.16021097993053585195e0,
    7.40974269950448939160e0,
    2.97886665372100240670e0,
)
_S = (  # leading 1.0 omitted
    2.26052863220117276590e0,
    9.39603524938001434673e0,
    1.20489539808096656605e1,
    1.70814450747565897222e1,
    9.60896809063285878198e0,
    3.36907645100081516050e0,
)

# ndtri: x = y + y y^2 P0(y^2) / Q0(y^2) with y = p - 1/2, scaled by sqrt(2 pi), on (e^-2, 1 - e^-2)
_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (  # leading 1.0 omitted
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
# beyond it, with x = sqrt(-2 log p) and z = 1/x: x - log(x)/x - z P(z)/Q(z), P1/Q1 for x < 8
_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (  # leading 1.0 omitted
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
# and P2/Q2 for x >= 8 (p <= e^-32)
_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (  # leading 1.0 omitted
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)


def _erf(x: float) -> float:
    """Cephes ``erf`` for |x| <= 1: x T(x^2) / U(x^2)."""
    T, U = _T, _U
    w = x * x
    return (x * ((((T[0] * w + T[1]) * w + T[2]) * w + T[3]) * w + T[4])) / (
        ((((w + U[0]) * w + U[1]) * w + U[2]) * w + U[3]) * w + U[4]
    )


def _ratio_9_8(s: float, x: float, P: tuple, Q: tuple) -> float:
    """s polevl(x, P, 8) / p1evl(x, Q, 8) for 9 coefficients over 8 (and Q's leading 1.0)."""
    p = (((((((P[0] * x + P[1]) * x + P[2]) * x + P[3]) * x + P[4]) * x + P[5]) * x + P[6]) * x
         + P[7]) * x + P[8]  # fmt: skip
    q = (((((((x + Q[0]) * x + Q[1]) * x + Q[2]) * x + Q[3]) * x + Q[4]) * x + Q[5]) * x
         + Q[6]) * x + Q[7]  # fmt: skip
    return (s * p) / q


def ndtr(a: float) -> float:
    """The standard normal CDF at ``a``, with scipy.special.ndtr's bits (Cephes ``ndtr``)."""
    x = float(a) * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    if z != z:
        return math.nan
    # y = erfc(z) / 2, by Cephes' erfc at z >= sqrt(1/2), so its branches for z < 0 never run
    if z < 1.0:
        y = 0.5 * (1.0 - _erf(z))
    else:
        w = -z * z
        if w < -_MAXLOG:
            y = 0.0  # exp(-z^2) underflows
        elif z < 8.0:
            y = 0.5 * _ratio_9_8(math.exp(w), z, _P, _Q)
        else:
            R, S = _R, _S
            r = ((((R[0] * z + R[1]) * z + R[2]) * z + R[3]) * z + R[4]) * z + R[5]
            s = (((((z + S[0]) * z + S[1]) * z + S[2]) * z + S[3]) * z + S[4]) * z + S[5]
            y = 0.5 * ((math.exp(w) * r) / s)
    return 1.0 - y if x > 0 else y


def ndtri(y0: float) -> float:
    """The standard normal quantile at ``y0``, with scipy.special.ndtri's bits (Cephes ``ndtri``):
    -inf at 0, inf at 1 and NaN outside [0, 1].

    The central range (e^-2, 1 - e^-2] is tested first. Cephes first maps y0 > 1 - e^-2 to
    1 - y0, but that is below e^-2 for every such y0, so it reaches the range from y0 alone.
    """
    y0 = float(y0)
    if _EXP_M2 < y0 <= _EXP_M2_UPPER:
        P0, Q0 = _P0, _Q0
        y = y0 - 0.5
        y2 = y * y
        p = (((P0[0] * y2 + P0[1]) * y2 + P0[2]) * y2 + P0[3]) * y2 + P0[4]
        q = (((((((y2 + Q0[0]) * y2 + Q0[1]) * y2 + Q0[2]) * y2 + Q0[3]) * y2 + Q0[4]) * y2
              + Q0[5]) * y2 + Q0[6]) * y2 + Q0[7]  # fmt: skip
        return (y + y * ((y2 * p) / q)) * _S2PI
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if y0 < 0.0 or y0 > 1.0:
        return math.nan
    upper = y0 > _EXP_M2_UPPER
    x = math.sqrt(-2.0 * math.log(1.0 - y0 if upper else y0))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    x = x0 - (_ratio_9_8(z, z, _P1, _Q1) if x < 8.0 else _ratio_9_8(z, z, _P2, _Q2))
    return x if upper else -x


# The six polynomials of ndtr as one table for a stacked Horner pass, a (6, 1) column per
# coefficient: each p1evl table gains its leading 1.0, and shorter tables lead with zeros. For
# finite x, 0 * x + 0 = 0, 0 * x + c = c and 1.0 * x + c = x + c, so every row takes polevl's or
# p1evl's roundings.
_NDTR_TABLE = np.array(
    [(0.0,) * (9 - len(c)) + c for c in (_T, (1.0,) + _U, _P, (1.0,) + _Q, _R, (1.0,) + _S)]
).T[:, :, None]
# Below this many elements the scalar loop is the faster path: about 0.6 us an element against
# the stacked pass's fixed 35 us (CPython 3.11, numpy 2.4, 2 vCPU).
NDTR_ARRAY_MIN = 64


def ndtr_array(x: np.ndarray) -> np.ndarray:
    """``ndtr`` at every element of ``x``, as a new float64 array of its shape, with its bits.

    Arrays under ``NDTR_ARRAY_MIN`` elements loop the scalar. Larger ones evaluate the six
    polynomials in one pass over a (6, n) array, T and U at x^2 / 2 and P, Q, R and S at |x|
    / sqrt(2), and take ``exp(-z^2)`` from ``math.exp``, whose bits numpy's vectorized ``exp``
    does not always give.
    """
    x = np.asarray(x, dtype=float)
    if x.size < NDTR_ARRAY_MIN:
        return np.fromiter(map(ndtr, x.ravel().tolist()), float, x.size).reshape(x.shape)
    flat = x.ravel()
    with np.errstate(all="ignore"):  # inf and NaN overflow the rows that they do not use
        xs = flat * _SQRT1_2
        z = np.abs(xs)
        arg = np.empty((6, flat.size))
        np.multiply(xs, xs, out=arg[0])
        arg[1] = arg[0]
        arg[2:] = z
        acc = _NDTR_TABLE[0] * arg
        for c in _NDTR_TABLE[1:-1]:
            acc += c
            acc *= arg
        acc += _NDTR_TABLE[-1]
        t, u, p, q, r, s = acc
        erf = xs * t / u  # erf(x) for |x| <= 1
        w = -z * z
        e = np.fromiter(map(math.exp, w.tolist()), float, w.size)
        near = z < 8.0
        erfc = np.where(near, e * p / q, e * r / s)
        erfc[w < -_MAXLOG] = 0.0
        erfc = np.where(z < 1.0, 1.0 - np.abs(erf), erfc)  # erf(z) = |erf(x)|, by symmetry
        half = 0.5 * erfc
        out = np.where(z < _SQRT1_2, 0.5 + 0.5 * erf, np.where(xs > 0, 1.0 - half, half))
        out[np.isnan(flat)] = np.nan
    return out.reshape(x.shape)
