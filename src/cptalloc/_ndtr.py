"""Cephes's standard normal CDF and quantile, ported to scalar Python.

``ndtr`` and ``ndtri`` follow the Cephes routines behind ``scipy.special``
(Stephen L. Moshier's Cephes Math Library, as shipped in scipy's xsf): the
same coefficient tables, branch tests and order of operations, with
``math.exp``, ``math.log`` and ``math.sqrt`` as the C library calls. They
return scipy's bits. Do not reorder, fuse or vectorise the arithmetic: numpy's
SIMD ``exp`` and ``log`` may differ from libm in the last bit.

Python float arithmetic sets no numpy error state, so an argument whose
square overflows gives no warning.
"""

from __future__ import annotations

import math

__all__ = ["ndtr", "ndtri"]

SQRT1_2 = 7.07106781186547524401e-1
MAXLOG = 7.09782712893383996843e2  # log(2**1024)
EXP_M2 = 0.13533528323661269189  # exp(-2)
S2PI = 2.50662827463100050242e0  # sqrt(2 pi)

# erfc(x) = exp(-x**2) P(x) / Q(x), 1 <= x < 8
P = (
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
Q = (
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
# erfc(x) = exp(-x**2) R(x) / S(x), x >= 8
R = (
    5.64189583547755073984e-1,
    1.27536670759978104416e0,
    5.01905042251180477414e0,
    6.16021097993053585195e0,
    7.40974269950448939160e0,
    2.97886665372100240670e0,
)
S = (
    2.26052863220117276590e0,
    9.39603524938001434673e0,
    1.20489539808096656605e1,
    1.70814450747565897222e1,
    9.60896809063285878198e0,
    3.36907645100081516050e0,
)
# erf(x) = x T(x**2) / U(x**2), |x| <= 1
T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
U = (
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)

# ndtri(y) = sqrt(2 pi) (y + y y2 P0(y2) / Q0(y2)), y = p - 1/2, |y| <= 3/8
P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
Q0 = (
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
# In z = 1 / sqrt(-2 log p): P1/Q1 for 2 <= 1/z < 8, P2/Q2 for 1/z >= 8.
P1 = (
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
Q1 = (
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
P2 = (
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
Q2 = (
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)


def polevl(x: float, coef: tuple) -> float:
    """coef[0] x**N + ... + coef[N] by Horner's rule."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def p1evl(x: float, coef: tuple) -> float:
    """polevl with an implicit leading coefficient of 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def erf(x: float) -> float:
    """The error function for |x| <= 1, the only range erfc and ndtr pass."""
    if x < 0.0:
        return -erf(-x)
    z = x * x
    t0, t1, t2, t3, t4 = T
    u0, u1, u2, u3, u4 = U
    # polevl(z, T) and p1evl(z, U), unrolled.
    return x * ((((t0 * z + t1) * z + t2) * z + t3) * z + t4) / (
        ((((z + u0) * z + u1) * z + u2) * z + u3) * z + u4)


def erfc(a: float) -> float:
    """The complementary error function for a >= 0, the only range ndtr passes."""
    if a < 1.0:
        return 1.0 - erf(a)
    z = -a * a
    if z < -MAXLOG:  # exp(z) would be subnormal: Cephes reports underflow
        return 0.0
    z = math.exp(z)
    # polevl(a, P) and p1evl(a, Q), or polevl(a, R) and p1evl(a, S), unrolled.
    if a < 8.0:
        p0, p1, p2, p3, p4, p5, p6, p7, p8 = P
        q0, q1, q2, q3, q4, q5, q6, q7 = Q
        p = (((((((p0 * a + p1) * a + p2) * a + p3) * a + p4) * a + p5) * a + p6) * a + p7) * a + p8
        q = (((((((a + q0) * a + q1) * a + q2) * a + q3) * a + q4) * a + q5) * a + q6) * a + q7
    else:
        r0, r1, r2, r3, r4, r5 = R
        s0, s1, s2, s3, s4, s5 = S
        p = ((((r0 * a + r1) * a + r2) * a + r3) * a + r4) * a + r5
        q = (((((a + s0) * a + s1) * a + s2) * a + s3) * a + s4) * a + s5
    return (z * p) / q


def ndtr(a: float) -> float:
    """The standard normal CDF at a."""
    x = a * SQRT1_2
    z = abs(x)
    if z < SQRT1_2:
        return 0.5 + 0.5 * erf(x)
    y = 0.5 * erfc(z)
    return 1.0 - y if x > 0 else y


def ndtri(y0: float) -> float:
    """The standard normal quantile at 0 < y0 < 1."""
    y = y0
    lower = True
    if y > 1.0 - EXP_M2:
        y = 1.0 - y
        lower = False
    if y > EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * polevl(y2, P0) / p1evl(y2, Q0))
        return x * S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:  # y > exp(-32)
        x1 = z * polevl(z, P1) / p1evl(z, Q1)
    else:
        x1 = z * polevl(z, P2) / p1evl(z, Q2)
    x = x0 - x1
    return -x if lower else x
