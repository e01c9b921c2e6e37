"""Adaptive 21-point Gauss-Kronrod quadrature: QUADPACK's dqagse in Python.

A port of dqagse with its helpers dqk21, dqpsrt and dqelg (Piessens, de
Doncker-Kapenga, Ueberhuber & Kahaner, QUADPACK, Springer 1983): global
adaptive bisection of the panel with the largest error, with Wynn's
epsilon algorithm extrapolating the sequence of sums when the smallest
panels carry the largest errors (an endpoint singularity).  Every sum is
formed in QUADPACK's order, so `quad` returns what scipy's `quad` returns
for a finite interval, bit for bit, when the integrand is called at the
same Python floats; the tests check this against scipy.  Lists are 1-based
as in the Fortran (index 0 unused), so the index arithmetic of dqpsrt and
dqelg reads as in the original.

Its one caller is `model._radial_j`, for the head panels of Theta.
"""

from __future__ import annotations

import sys

__all__ = ["quad"]

_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_OFLOW = sys.float_info.max
_LIMEXP = 50  # longest epsilon table dqelg keeps

# dqk21: the 21-point Kronrod abscissae on [0, 1] in decreasing order (those
# at odd index are the 10-point Gauss nodes, the last is the centre), their
# Kronrod weights, and the Gauss weights of the nodes at index 1, 3, ..., 9
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_GK_ORDER = (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)  # Gauss nodes first, as dqk21


def qk21(f, a: float, b: float):
    """dqk21 on [a, b]: (value, error, resabs, resasc).

    resabs approximates int |f| and resasc int |f - mean f|; the error is
    resasc min(1, (200 |K - G| / resasc)^1.5), and at least 50 eps resabs.
    f is called with Python floats.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = f(centr)
    resg = 0.0
    resk = _WGK[10] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    for j in _GK_ORDER:
        absc = hlgth * _XGK[j]
        fv1[j] = f1 = f(centr - absc)
        fv2[j] = f2 = f(centr + absc)
        fsum = f1 + f2
        if j % 2:
            resg += _WG[j // 2] * fsum
        resk += _WGK[j] * fsum
        resabs += _WGK[j] * (abs(f1) + abs(f2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc += _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    resabs *= abs(hlgth)
    resasc *= abs(hlgth)
    err = abs((resk - resg) * hlgth)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        err = max(50.0 * _EPMACH * resabs, err)
    return resk * hlgth, err, resabs, resasc


def _qpsrt(limit: int, last: int, maxerr: int, elist: list, iord: list, nrmax: int):
    """dqpsrt: keep iord[1..] in descending order of elist after panel
    maxerr was bisected into maxerr and last; returns (maxerr, errmax,
    nrmax) of the panel to bisect next.  Only the first limit + 3 - last
    entries are kept sorted once more than half the panels are in use."""
    if last <= 2:
        iord[1], iord[2] = 1, 2
    else:
        errmax = elist[maxerr]
        # the bisection raised the error: move maxerr up past nrmax first
        while nrmax > 1 and errmax > elist[iord[nrmax - 1]]:
            iord[nrmax] = iord[nrmax - 1]
            nrmax -= 1
        jupbn = limit + 3 - last if last > limit // 2 + 2 else last
        errmin = elist[last]
        jbnd = jupbn - 1
        i = nrmax + 1
        while i <= jbnd and errmax < elist[iord[i]]:  # insert errmax top-down
            iord[i - 1] = iord[i]
            i += 1
        if i > jbnd:
            iord[jbnd] = maxerr
            iord[jupbn] = last
        else:
            iord[i - 1] = maxerr
            k = jbnd
            while k >= i and errmin >= elist[iord[k]]:  # insert errmin bottom-up
                iord[k + 1] = iord[k]
                k -= 1
            iord[k + 1] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n: int, epstab: list, res3la: list, nres: int):
    """dqelg: one step of Wynn's epsilon algorithm on epstab[1..n], whose
    last entry is the newest partial sum; returns (n, result, error, nres)
    with n the table's new length.  res3la holds the last three results,
    whose spread is the error once there are three."""
    nres += 1
    result = epstab[n]
    abserr = _OFLOW
    if n < 3:
        return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = k1 = n
    for i in range(1, newelm + 1):
        res = e2 = epstab[k1 + 2]
        e0 = epstab[k1 - 2]
        e1 = epstab[k1 - 1]
        e1abs = abs(e1)
        err2 = abs(e2 - e1)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if err2 <= tol2 and err3 <= tol3:
            # e0, e1 and e2 agree to machine accuracy: converged
            return n, res, max(err2 + err3, 5.0 * _EPMACH * abs(res)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1  # two elements nearly equal: cut the table
            break
        ss = 1.0 / delta1 + 1.0 / (e2 - e1) - 1.0 / delta3
        if not abs(ss * e1) > 1e-4:
            n = i + i - 1  # irregular behaviour: cut the table
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 -= 2
        error = err2 + abs(res - e2) + err3
        if error <= abserr:
            abserr = error
            result = res
    if n == _LIMEXP:
        n = 2 * (_LIMEXP // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):  # shift the table
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        epstab[1 : n + 1] = epstab[num - n + 1 : num + 1]
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
        res3la[1:4] = res3la[2], res3la[3], result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def quad(f, a: float, b: float, epsabs: float, epsrel: float, limit: int):
    """(value, error) of int_a^b f by dqagse, for a finite [a, b].

    The target is max(epsabs, epsrel |value|).  One dqk21 on [a, b] is
    accepted when its error meets the target (and does not equal resasc)
    or is zero.  Otherwise panels are bisected until the summed error
    meets the target, an extrapolated value does, `limit` panels are in
    use, or roundoff, a non-shrinking panel or an unsteady extrapolation
    stops the refinement; the value and error are then returned as they
    stand (where scipy would warn), and the caller judges the error.
    """
    if a == b:
        return 0.0, 0.0  # as scipy's quad, which calls no rule here
    alist = [0.0, a] + [0.0] * limit
    blist = [0.0, b] + [0.0] * limit
    rlist = [0.0] * (limit + 2)
    elist = [0.0] * (limit + 2)
    iord = [0] * (limit + 2)
    rlist2 = [0.0] * (_LIMEXP + 3)
    res3la = [0.0] * 4
    result, abserr, defabs, resasc = qk21(f, a, b)
    errbnd = max(epsabs, epsrel * abs(result))
    rlist[1], elist[1], iord[1] = result, abserr, 1
    if (
        (abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd)
        or limit == 1
        or (abserr <= errbnd and abserr != resasc)
        or abserr == 0.0
    ):
        return result, abserr
    rlist2[1] = result
    errmax, maxerr, area, errsum = abserr, 1, result, abserr
    abserr = _OFLOW
    nrmax, nres, numrl2, ktmin = 1, 0, 2, 0
    extrap = noext = False
    iroff1 = iroff2 = iroff3 = 0
    stop = roundoff = False  # QUADPACK's ier != 0 and ierro = 3
    small = erlarg = ertest = correc = 0.0
    converged = False  # the summed error met the target
    for last in range(2, limit + 1):
        a1, b2 = alist[maxerr], blist[maxerr]
        b1 = a2 = 0.5 * (a1 + b2)
        erlast = errmax
        area1, error1, _, defab1 = qk21(f, a1, b1)
        area2, error2, _, defab2 = qk21(f, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if abs(rlist[maxerr] - area12) <= 1e-5 * abs(area12) and erro12 >= 0.99 * errmax:
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr], rlist[last] = area1, area2
        errbnd = max(epsabs, epsrel * abs(area))
        roundoff = roundoff or iroff2 >= 5
        stop = (
            iroff1 + iroff2 >= 10
            or iroff3 >= 20
            or last == limit
            or max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW)
        )
        if error2 > error1:
            alist[maxerr], alist[last], blist[last] = a2, a1, b1
            rlist[maxerr], rlist[last] = area2, area1
            elist[maxerr], elist[last] = error2, error1
        else:
            alist[last], blist[maxerr], blist[last] = a2, b1, b2
            elist[maxerr], elist[last] = error1, error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            converged = True
            break
        if stop:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg -= erlast
        if abs(b1 - a1) > small:
            erlarg += erro12
        if not extrap:
            # extrapolate only once the panel to bisect next is a smallest one
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not roundoff and erlarg > ertest:
            # a large panel still has a large error: bisect it first
            jupbnd = limit + 3 - last if last > 2 + limit // 2 else last
            large = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    large = True
                    break
                nrmax += 1
            if large:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        stop = ktmin > 5 and abserr < 1e-3 * errsum  # extrapolation stalled
        if abseps < abserr:
            ktmin = 0
            abserr, result, correc = abseps, reseps, erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        if numrl2 == 1:
            noext = True
        if stop:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small *= 0.5
        erlarg = errsum
    if not converged and abserr != _OFLOW:
        # keep the extrapolated value unless its error is worse, relative
        # to it, than the summed error is to the sum
        if not (stop or roundoff):
            return result, abserr
        if roundoff:
            abserr += correc
        if result != 0.0 and area != 0.0:
            if abserr / abs(result) <= errsum / abs(area):
                return result, abserr
        elif abserr <= errsum:
            return result, abserr
    total = 0.0
    for k in range(1, last + 1):  # not sum(), which compensates since Python 3.12
        total = total + rlist[k]
    return total, errsum
