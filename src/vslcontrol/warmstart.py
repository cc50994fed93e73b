"""`speed_limits` with vsl_sensitivity > 0: its bisection and warm start.

`limits_block` solves F(rho, l) = u f(rho) on one block of cells through
`fundamental_diagram._bisect_all`.  `bracket` gives, for each cell with
l_sat = 1, the bracket that the bisection from [0, 1] holds just before
its first test whose outcome is not proven, so the cell starts there and
keeps every bit; its docstring has the proof.  `newton_limit` proposes
the root it starts from.

`speed_limits` imports this module on its first call with
vsl_sensitivity > 0, so a process that never inverts a limit response
does not compile it.
"""

from __future__ import annotations

import numpy as np

from . import fundamental_diagram
from .fundamental_diagram import ExponentialDiagram


def newton_limit(diagram: ExponentialDiagram, ar: np.ndarray, br: np.ndarray,
                 y: np.ndarray) -> np.ndarray:
    """An approximate root l of F(rho, l) = y on (0, 1], for `bracket`.

    Four Newton steps on ln F in x = ln l, from the root of ln F's
    quadratic model at l = 1.  Nothing here is trusted: `bracket`
    checks what it uses.
    """
    a, shape = diagram.vsl_sensitivity, diagram.shape
    with np.errstate(all="ignore"):
        c = np.log(y / ar)
        w = br ** shape
        x = c + w / shape  # ln(y / F(rho, 1))
        # at l = 1, ln F has slope g and curvature -a (1 + a + a shape) w in
        # x; start from the root of that quadratic
        g = 1.0 - a * w
        x = 2.0 * x / (g + np.sqrt(g * g - 2.0 * a * (1.0 + a + a * shape) * w * x))
        del g
        for _ in range(4):
            al = a * np.exp(x)
            s = (1.0 + a) - al
            w = (br / s) ** shape
            x -= (x - c - w / shape) / (1.0 - al * w / s)
        return np.exp(x, out=x)


def bracket(diagram: ExponentialDiagram, ar: np.ndarray, br: np.ndarray,
            y: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per cell, a bracket that speed_limits' bisection from [0, hi] passes through.

    That loop tests fl(F(mid)) >= y, F = _limited_flow(A rho, b rho, .).
    For a cell with hi = 1 (rho <= delta) this returns the bracket that the
    loop from [0, 1] holds just before its first test whose outcome is not
    proven, so the same loop ends there with the same bits.  Every other
    cell gets [0, hi] without running newton_limit or the checks below,
    and so does one that fails a check.

    Monotone.  For rho <= delta, d ln F / dl = 1/l - a w / s, with
    s = 1 + a (1 - l) >= 1, w = (b rho / s)^shape and
    a w / s <= a (b rho)^shape <= 1, so F(rho, .) increases on (0, 1].
    With rho <= fl(delta), a (b rho)^shape may exceed 1 by a few ulp; F may
    then fall on the last few ulp below 1, by a relative O(ulp^2), far
    inside eps.

    Rounding.  _limited_flow evaluates t = 1 - l, a t, s = 1 + a t,
    b rho / s, w = (.)^shape, z = w / -shape, exp(z), A rho l and the
    product.  Take A rho and b rho as exact, u = 2^-53, and assume numpy's
    float64 pow and exp within 4 ulp (8 u).  Then s is within 3 u, w
    within (4 shape + 8) u, z within (4 shape + 9) u and exp(z) within
    (8 + |z| (4 shape + 9)) u, where |z| <= W / shape with
    W = (b delta)^shape >= (b rho)^shape.  With the two products, fl(F) is
    within u (10 + W (4 + 9 / shape)) of F wherever its result is normal.
    eps = 2^-47 (1 + W (1 + 1/shape)) is 6.4 times that or more, which
    also covers the rounding of the tests below.  The cell needs
    eps <= 2^-42, which keeps W / shape < 31, so exp(z) is normal.  At
    shape 1, w = b rho / s and z = -w come from one division, as
    b rho / -s, and no pow runs, so the 4-ulp pow assumption is not used
    there; the bound above still holds.

    Proven region.  From the guess l of `newton_limit`, A = l (1 - 2^-41)
    and B = min(l (1 + 2^-41), 1).  The cell is kept only if A >= 2^-40,
    A (1 + 2^-42) < B, fl(F(A)) is normal, fl(F(A)) (1 + eps) < y (1 - eps),
    and B = 1 or fl(F(B)) (1 - eps) >= y (1 + eps).  Then every mid <= A
    tests False: a subnormal fl(F(mid)) is below y, which the checks make
    normal, and a normal one is at most F(A) (1 + eps), as F increases,
    and F(A) (1 + eps) <= fl(F(A)) (1 + eps) / (1 - eps) < y.  Likewise every mid >= B tests True, and no mid reaches hi = 1.
    A NaN or wrong guess fails a test.  So does a cell whose slope
    d ln F / d ln l at the root is below about 2^42 eps, near rho = delta
    with l near 1.

    Dyadic brackets.  From [0, 1] the loop's brackets are [j, j + 1] 2^-n
    exactly while j + 1 <= 2^52.  With B < 2^e that holds down to level
    L = 52 - min(e, 0) for every bracket on the way to (A, B), so take the
    integers xa = floor(A 2^L) and xb = ceil(B 2^L) - 1; (xa, xb] holds at
    least 2^8 of them.  Every mid before the first one in (xa, xb] is
    forced, and that one, p, is the point with the fewest bits there: xb
    with the bits below the highest bit in which xa and xb differ cleared.
    p is tested for real.  Then (xa, p) or (p, xb] is left, and the mids
    from p towards its far end are forced until the first one inside, so
    the loop reaches [p - width, p] or [p, p + width], width the least
    power of two that reaches the far end.  A root >= 2^-40 brings the loop
    from [0, 1] to its fixed point within 96 tests, inside its cap of 100,
    so from any bracket on its path it stops at the same point.
    """
    eps = 2.0 ** -47 * (1.0 + (diagram.density_scale * diagram.delta) ** diagram.shape
                        * (1.0 + 1.0 / diagram.shape))
    sat = (hi == 1.0) & (eps <= 2.0 ** -42)
    if sat.all():
        return _proven_bracket(diagram, ar, br, y, eps)
    lo, up = np.zeros_like(hi), hi.copy()
    if sat.any():
        lo[sat], up[sat] = _proven_bracket(diagram, ar[sat], br[sat], y[sat], eps)
    return lo, up


def _proven_bracket(diagram: ExponentialDiagram, ar: np.ndarray, br: np.ndarray,
                    y: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """`bracket` for cells with hi = 1, given eps <= 2^-42."""
    with np.errstate(all="ignore"):
        lo = newton_limit(diagram, ar, br, y)
        up = np.minimum(lo * (1.0 + 2.0 ** -41), 1.0)
        lo *= 1.0 - 2.0 ** -41
        f = diagram._limited_flow(ar, br, lo)
        ok = (lo >= 2.0 ** -40) & (lo * (1.0 + 2.0 ** -42) < up) & (f >= np.finfo(float).tiny)
        ok &= f * (1.0 + eps) < y * (1.0 - eps)
        del f
        ok &= (up == 1.0) | (diagram._limited_flow(ar, br, up) * (1.0 - eps) >= y * (1.0 + eps))
    cold = ~ok
    lo[cold], up[cold] = 0.25, 0.75  # any bracket that keeps the steps below finite
    # integers on the grid 2^-level, exact in float64 below 2^53
    level = 52 - np.minimum(np.frexp(up)[1], 0)
    xa = np.floor(np.ldexp(lo, level, out=lo), out=lo)
    xb = np.ceil(np.ldexp(up, level, out=up), out=up)
    xb -= 1.0
    # p, the mid with the fewest bits in (xa, xb]: xb rounded down to a
    # multiple of the highest bit in which xa and xb differ
    p = np.ldexp(1.0, np.frexp((xa.astype(np.int64) ^ xb.astype(np.int64)).astype(float))[1] - 1)
    np.multiply(np.floor(xb / p), p, out=p)
    go = diagram._limited_flow(ar, br, np.ldexp(p, -level)) >= y
    # the far end is xa if go, else xb + 1
    xb += 1.0
    width = np.abs(p - (xb - go * (xb - xa)))
    del xa, xb
    width = np.ldexp(1.0, np.frexp(width - 0.5)[1])
    lo = p - go * width
    up = np.ldexp(lo + width, -level)
    up[cold] = 1.0
    lo = np.ldexp(lo, -level, out=lo)
    lo[cold] = 0.0
    return lo, up


def limits_block(diagram: ExponentialDiagram, rb: np.ndarray, ob: np.ndarray) -> None:
    """speed_limits on one block: ob holds the controls and gets the limits.

    Cells with l_sat = 1 start from `bracket`'s bracket, the others from
    [0, l_sat].  The two sets bisect in separate calls, since
    a call stops only when its slowest cell does; each set's arrays are
    its own and go when its call is done.
    """
    pos = rb > 0.0
    rp = rb[pos]
    hi = diagram.saturating_limit(rp)
    y = np.minimum(ob[pos] * diagram.flow(rp), diagram._vsl_flow_raw(rp, hi))
    # hi >= 1e-9, so every mid >= hi * 2^-100 > 7e-40 stays positive
    ar, br = diagram.flow_scale * rp, diagram.density_scale * rp
    del rp
    lo, hi = bracket(diagram, ar, br, y, hi)
    sets = [(pos, ar, br, y, lo, hi)]
    warm = lo > 0.0
    if 0 < np.count_nonzero(warm) < warm.size:  # both sets: each gets copies
        sets = []
        for m in (warm, ~warm):
            at = pos.copy()
            at[pos] = m
            sets.append((at, ar[m], br[m], y[m], lo[m], hi[m]))
    del ar, br, y, lo, hi
    while sets:
        at, ar, br, y, lo, hi = sets.pop()
        ob[at] = fundamental_diagram._bisect_all(
            lambda mid: diagram._limited_flow(ar, br, mid) >= y, lo, hi, 100)
