"""QUADPACK's QAGS: adaptive Gauss-Kronrod quadrature with epsilon extrapolation.

A line-for-line port of the routines ``dqagse``, ``dqk21``, ``dqpsrt`` and
``dqelg`` (Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner, 1983), the
code behind ``scipy.integrate.quad`` on a finite interval. QAGS is sequential
float64 arithmetic, so keeping the Fortran order of every operation gives
scipy's value, error estimate and evaluation count bit for bit. Do not reorder,
fuse or vectorise any expression here. The integrand is called once per
panel: it takes the list of the panel's 21 abscissae, the centre first and then
the pair centr - absc, centr + absc for each node in _NODE_ORDER, and returns
their 21 values, which QAGS sums in the Fortran order.

The work lists are indexed from 1, as in the Fortran; slot 0 is unused.
"""

from __future__ import annotations

import sys

__all__ = ["quad"]

EPMACH = sys.float_info.epsilon  # d1mach(4)
UFLOW = sys.float_info.min  # d1mach(1)
OFLOW = sys.float_info.max  # d1mach(2)

# The 21-point Kronrod rule on [-1, 1]: abscissae xgk(1..10) in decreasing
# order and their weights wgk(1..10). The even-numbered abscissae are the
# 10-point Gauss nodes, weighted by wg(1..5).
_XGK = (
    0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
    0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
    0.2943928627014602, 0.14887433898163122,
)
_WGK = (
    0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996,
    0.0931254545836976, 0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
    0.14277593857706009, 0.14773910490133849,
)
_WGK_CENTRE = 0.1494455540029169  # wgk(11), at the centre xgk(11) = 0
_WG = (0.06667134430868814, 0.1494513491505806, 0.21908636251598204, 0.26926671930999635,
       0.29552422471475287)
# The centre first, then the five Gauss pairs, then the Kronrod pairs (0-based).
_NODE_ORDER = (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)

# One line per QAGS failure code; code 6, an unattainable tolerance, is a ValueError.
MESSAGES = {
    1: "the maximum number of subintervals was reached",
    2: "roundoff error prevents the requested tolerance from being reached",
    3: "the integrand behaves extremely badly at some point of the interval",
    4: "roundoff error in the extrapolation table prevents convergence",
    5: "the integral is probably divergent or converges too slowly",
}


def _qk21(f, a, b):
    """dqk21: the 21-point Kronrod estimate on [a, b] with its error estimate,
    and the integrals of |f| and of |f - mean| (resabs, resasc)."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    xs = [centr]
    for j in _NODE_ORDER:
        absc = hlgth * _XGK[j]
        xs.append(centr - absc)
        xs.append(centr + absc)
    fx = f(xs)
    fc = float(fx[0])
    resg = 0.0
    resk = _WGK_CENTRE * fc
    resabs = abs(resk)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    for i, j in enumerate(_NODE_ORDER, 1):
        fval1 = float(fx[2 * i - 1])
        fval2 = float(fx[2 * i])
        fv1[j] = fval1
        fv2[j] = fval2
        fsum = fval1 + fval2
        if j % 2:
            resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK_CENTRE * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        ratio = 200.0 * abserr / resasc
        # min(1, ratio**1.5); Python's pow raises where C's overflows to inf.
        abserr = resasc * (ratio**1.5 if ratio < 1.0 else 1.0)
    if resabs > UFLOW / (50.0 * EPMACH):
        abserr = max((EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """dqpsrt: keep iord descending in elist after a bisection; return the
    updated nrmax. The interval to bisect next is then iord[nrmax]."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
        return nrmax
    errmax = elist[maxerr]
    if nrmax != 1:
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
    jupbn = last
    if last > limit // 2 + 2:
        jupbn = limit + 3 - last
    errmin = elist[last]
    jbnd = jupbn - 1
    # Insert errmax by traversing the list top-down.
    for i in range(nrmax + 1, jbnd + 1):
        isucc = iord[i]
        if errmax >= elist[isucc]:
            break
        iord[i - 1] = isucc
    else:
        iord[jbnd] = maxerr
        iord[jupbn] = last
        return nrmax
    # Insert errmin by traversing the list bottom-up.
    iord[i - 1] = maxerr
    k = jbnd
    for _ in range(i, jbnd + 1):
        isucc = iord[k]
        if errmin < elist[isucc]:
            iord[k + 1] = last
            break
        iord[k + 1] = isucc
        k -= 1
    else:
        iord[i] = last
    return nrmax


def _qelg(n, epstab, res3la, nres):
    """dqelg: one step of Wynn's epsilon algorithm on epstab[1..n].

    Updates epstab and res3la in place; returns the new n, the extrapolated
    value, its error estimate and the incremented call count nres.
    """
    nres += 1
    abserr = OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * EPMACH * abs(result)), nres
    limexp = 50
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = OFLOW
    num = n
    k1 = n
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 agree to machine accuracy: convergence.
            result = res
            abserr = err2 + err3
            return n, result, max(abserr, 5.0 * EPMACH * abs(result)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1  # two elements are too close: drop part of the table
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1e-4:
            n = i + i - 1  # irregular behaviour: drop part of the table
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 -= 2
        error = err2 + abs(res - e2) + err3
        if not error > abserr:
            abserr = error
            result = res
    # Shift the table.
    if n == limexp:
        n = 2 * (limexp // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres] = result
        abserr = OFLOW
    else:
        abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    return n, result, max(abserr, 5.0 * EPMACH * abs(result)), nres


def quad(f, a: float, b: float, epsabs: float, epsrel: float, limit: int):
    """dqagse: integrate f over the finite interval [a, b], a < b.

    Returns ``(value, abserr, {"neval": n})`` like ``scipy.integrate.quad``
    with ``full_output=1``, followed by a one-line message from MESSAGES when
    QAGS reports failure. f takes a list of 21 floats, a panel's abscissae,
    and returns their 21 values; ``neval`` counts the abscissae.
    """
    if epsabs <= 0.0 and epsrel < max(50.0 * EPMACH, 0.5e-28):
        raise ValueError("quad: with epsabs <= 0, epsrel must exceed max(50 * eps, 5e-29)")
    ier = 0
    result, abserr, defabs, resabs = _qk21(f, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    last = 1
    if abserr <= 100.0 * EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return _result(result, abserr, last, ier)

    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    alist[1] = a
    blist[1] = b
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    rlist2 = [0.0] * 53
    res3la = [0.0] * 4
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    ierro = 0
    iroff1 = iroff2 = iroff3 = 0
    ksgn = 1 if dres >= (1.0 - 50.0 * EPMACH) * defabs else -1
    small = erlarg = ertest = correc = 0.0  # each is reassigned before it is read

    sum_lists = False  # label 115: return the sum of rlist
    for last in range(2, limit + 1):
        # Bisect the subinterval with the nrmax-th largest error estimate.
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, resabs, defab1 = _qk21(f, a1, b1)
        area2, error2, resabs, defab2 = _qk21(f, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * EPMACH) * (abs(a2) + 1000.0 * UFLOW):
            ier = 4
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        maxerr = iord[nrmax]
        errmax = elist[maxerr]
        if errsum <= errbnd:
            sum_lists = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # Test whether the interval to be bisected next is the smallest.
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # The smallest interval has the largest error: before bisecting it,
            # decrease erlarg over the larger intervals, then extrapolate.
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        # Prepare bisection of the smallest interval.
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # Set the final result and error estimate (labels 100 to 130).
    if not sum_lists and abserr == OFLOW:
        sum_lists = True
    if not sum_lists:
        test_divergence = True
        if ier + ierro != 0:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                sum_lists = abserr / abs(result) > errsum / abs(area)
            elif abserr > errsum:
                sum_lists = True
            elif area == 0.0:
                test_divergence = False
        if not sum_lists and test_divergence:
            if not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
                if area == 0.0:  # result / area is +-inf, or nan when result is 0
                    diverges = result != 0.0 or errsum > 0.0
                else:
                    diverges = 0.01 > result / area or result / area > 100.0 or errsum > abs(area)
                if diverges:
                    ier = 6
    if sum_lists:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    if ier > 2:
        ier -= 1
    return _result(result, abserr, last, ier)


def _result(result, abserr, last, ier):
    out = (result, abserr, {"neval": 42 * last - 21})
    return out + (MESSAGES[ier],) if ier else out
