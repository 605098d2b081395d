"""30-digit mpmath references for every value the benchmark checks.

Each reference is computed at two working precisions and rejected when the
two disagree, so a reference is never less trustworthy than the value it
judges.  Complements are never formed by rounding: 1 - k^q, 1 - x^p and
1 - s^q come from expm1 of a logarithm (or are exact, as c^q is for cos),
and the zero-balanced series behind K_pq and 1/M_p are summed in the
complement w itself (A&S 15.3.10) once w drops below one half.  Where a
z = 1 - w still goes to ``mpmath.hyp2f1``, the working precision grows by
the digits w would lose in it.

Tolerances are the library's contract tolerances:

- K_pq, E_pq: 1e-10, relative above 1 and absolute below (the bound at which
  the ``hypergeo`` suite and acceptance criterion c02 hold the two routes);
- sin_pq, cos_pq, tan_pq: a residual of 1.1e-12 in theta (``sin_pq``'s
  inversion tolerance plus ``arcsin_pq``'s quadrature tolerance), widened by
  the theta-width of 8 ulps of the returned value;
- mean_mp: 1e-9 relative (the five-way agreement bound of criterion c05);
- mean_kp: 1e-12 relative (the ``means-bridge`` bound for K_p identities);
- ordering: the gap within the sum of both mean tolerances, and a verdict
  that does not contradict the sign of the reference gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
from mpmath import mp, mpf

DPS = 30
CHECK_DPS = 40
_AGREE_DIGITS = 25

_EPS = 2.220446049250313e-16
TOL_ELLIPTIC = 1e-10
TOL_THETA = 1.1e-12
TOL_MP = 1e-9
TOL_KP = 1e-12
ORDERING_EQUAL = 1e-12  # the library reports |gap| below this * max(a, b) as "equal"


class OracleError(RuntimeError):
    """A reference could not be established to the required precision."""


@dataclass(frozen=True)
class Reference:
    """What a returned value is judged against.

    ``kind`` is "value" (|v - value| <= tol), "theta" (the theta at which the
    function takes v must lie within tol of ``value``) or "ordering" (the gap
    within tol of ``value``, and the verdict not contradicting its sign).
    """

    kind: str
    value: float
    tol: float
    fn: str = ""
    p: float = 0.0
    q: float = 0.0


def _twice(compute, *args):
    """compute(*args) at DPS, after checking it against CHECK_DPS; if the two
    disagree, the pair of precisions is doubled once before giving up."""
    for scale in (1, 2):
        with mp.workdps(CHECK_DPS * scale):
            hi = compute(*args)
        with mp.workdps(DPS * scale):
            lo = compute(*args)
            if abs(lo - hi) <= mpf(10) ** -_AGREE_DIGITS * max(abs(hi), mpf(1)):
                return lo
    raise OracleError(f"reference unstable across precisions for {args!r}")


def _extra_digits(w):
    """Digits that z = 1 - w loses in its own complement."""
    return max(0, int(-mpmath.log10(w)) + 2) if w > 0 else 0


# Below this complement the Gauss series in z = 1 - w is slow, and the
# connection series in w take over; above it mpmath sums the Gauss series.
_W_SWITCH = 0.25


def _log_series(a, b, m, w, log_w, guard=True):
    """sum_n (a)_n (b)_n / (n! (n+m)!) w^n [log w - psi(n+1) - psi(n+m+1)
    + psi(a+n) + psi(b+n)], the logarithmic part of A&S 15.3.10/15.3.11.

    For large a and b the terms grow before they fall and cancel; the sum is
    then taken again with as many more digits as the largest term exceeds
    it by.
    """
    tiny = mpf(2) ** (-mp.prec - 8)
    psi1, psim = mpmath.psi(0, 1), mpmath.psi(0, m + 1)
    psia, psib = mpmath.psi(0, a), mpmath.psi(0, b)
    coef = 1 / mpmath.factorial(m)
    wn = mpf(1)
    total = peak = mpf(0)
    n = 0
    while True:
        term = coef * wn * (log_w - psi1 - psim + psia + psib)
        total += term
        peak = max(peak, abs(term))
        if n > 2 and abs(term) <= tiny * abs(total):
            break
        coef *= (a + n) * (b + n) / ((n + 1) * (n + m + 1))
        psi1 += mpf(1) / (n + 1)
        psim += mpf(1) / (n + m + 1)
        psia += 1 / (a + n)
        psib += 1 / (b + n)
        wn *= w
        n += 1
    lost = int(mpmath.log10(peak / abs(total))) if total else 0
    if guard and lost > 0:
        with mp.extradps(lost + 5):
            return +_log_series(a, b, m, w, log_w, guard=False)
    return total


def zero_balanced(a, b, w, log_w):
    """F(a, b; a + b; 1 - w) for w in (0, 1], given log(w).

    For small w this is A&S 15.3.10, a series in w with a log(w) term, so
    w may lie far below the double range; otherwise the Gauss series in
    z = 1 - w, which then has no cancellation to fear.
    """
    if w >= _W_SWITCH:
        return mpmath.hyp2f1(a, b, a + b, 1 - w)
    g = mpmath.gamma
    return -g(a + b) / (g(a) * g(b)) * _log_series(a, b, 0, w, log_w)


def once_balanced(a, b, w, log_w):
    """F(a, b; a + b + 1; 1 - w) for w in [0, 1]: A&S 15.3.11 with m = 1
    for small w, the Gauss series otherwise."""
    if w >= _W_SWITCH:
        return mpmath.hyp2f1(a, b, a + b + 1, 1 - w)
    g = mpmath.gamma
    head = g(a + b + 1) / (g(a + 1) * g(b + 1))
    if w == 0:
        return head
    return head + w * g(a + b + 1) / (g(a) * g(b)) * _log_series(a + 1, b + 1, 1, w, log_w)


def _conj(p):
    return p / (p - 1)


def _half_pi(p, q):
    return mpmath.beta(1 / _conj(p), 1 / q) / q


def _complement_pow(x, e):
    """(1 - x^e, log(1 - x^e)) for 0 < x < 1 with no rounded complement."""
    w = -mpmath.expm1(e * mpmath.log(x))
    return w, mpmath.log(w)


def _k_pq(p, q, k):
    p, q = mpf(p), mpf(q)
    if k == 0:
        return _half_pi(p, q)
    w, log_w = _complement_pow(mpf(k), q)
    return _half_pi(p, q) * zero_balanced(1 / _conj(p), 1 / q, w, log_w)


def _e_pq(p, q, k):
    p, q = mpf(p), mpf(q)
    if k == 0:
        return _half_pi(p, q)
    w, log_w = _complement_pow(mpf(k), q)
    return _half_pi(p, q) * once_balanced(-1 / p, 1 / q, w, log_w)


def _theta_of(fn, p, q, v):
    """The theta in [0, pi_pq/2] at which fn(theta) equals v exactly."""
    p, q, v = mpf(p), mpf(q), mpf(v)
    if v == 0:
        if fn == "cos_pq":
            return _half_pi(p, q)
        return mpf(0)
    # z = s^q and w = 1 - s^q, each formed without cancellation
    if fn == "sin_pq":
        lz = q * mpmath.log(v)
        z, w = mpmath.exp(lz), -mpmath.expm1(lz)
    elif fn == "cos_pq":
        lw = q * mpmath.log(v)
        z, w = -mpmath.expm1(lw), mpmath.exp(lw)
    elif fn == "tan_pq":
        tq = v**q
        z, w = tq / (1 + tq), 1 / (1 + tq)
    else:
        raise ValueError(f"no theta form for {fn!r}")
    a, b, c = 1 / p, 1 / q, 1 + 1 / q
    # arcsin_pq(s) = s F(1/p, 1/q; 1 + 1/q; s^q)
    with mp.extradps(_extra_digits(w)):
        return z ** (1 / q) * mpmath.hyp2f1(a, b, c, z)


def _theta_width(fn, p, q, v):
    """Theta-width of 8 ulps of v: 8 eps |v| |ds/dv| dtheta/ds, to first
    order, where dtheta/ds = (1 - s^q)^(-1/p)."""
    p, q, v = mpf(p), mpf(q), mpf(v)
    if v == 0:
        return mpf(0)
    if fn == "sin_pq":
        w, ds = -mpmath.expm1(q * mpmath.log(v)), mpf(1)
    elif fn == "cos_pq":
        w = v**q
        ds = v ** (q - 1) * (1 - w) ** (1 / q - 1)
    else:
        w = 1 / (1 + v**q)
        ds = w ** (1 / q + 1)
    if w == 0:
        return mpf(0)
    return 8 * _EPS * v * ds * w ** (-1 / p)


def _recip_mp(p, x):
    """1/M_p(1, x) = F(1/p, 1/p; 2/p; 1 - x^p), formed from log(x^p)."""
    p, x = mpf(p), mpf(x)
    log_w = p * mpmath.log(x)
    a = 1 / p
    return zero_balanced(a, a, mpmath.exp(log_w), log_w)


def _kp(p, x):
    """K_p(1, x) = ((p - 1)/p) (1 - x^p) / (1 - x^(p-1))."""
    p, x = mpf(p), mpf(x)
    lx = mpmath.log(x)
    return (p - 1) / p * mpmath.expm1(p * lx) / mpmath.expm1((p - 1) * lx)


def _normalized(a, b):
    """(scale, x) with x = min/max formed exactly."""
    a, b = mpf(a), mpf(b)
    scale = max(a, b)
    return scale, min(a, b) / scale


def reference(fn: str, args: tuple) -> Reference:
    """The reference for one call fn(*args) as the workloads issue it."""
    if fn in ("K_pq", "E_pq"):
        p, q, k = args
        val = float(_twice(_k_pq if fn == "K_pq" else _e_pq, p, q, k))
        return Reference("value", val, TOL_ELLIPTIC * max(1.0, abs(val)))
    if fn in ("sin_pq", "cos_pq", "tan_pq"):
        p, q, theta = args
        return Reference("theta", theta, TOL_THETA, fn, p, q)
    if fn == "mean_mp":
        a, b, p = args
        val = float(_twice(_mean_mp, a, b, p))
        return Reference("value", val, TOL_MP * val)
    if fn == "mean_kp":
        a, b, p = args
        val = float(_twice(_mean_kp, a, b, p))
        return Reference("value", val, TOL_KP * val)
    if fn == "ordering":
        a, b, p = args
        m = float(_twice(_mean_mp, a, b, p))
        k = float(_twice(_mean_kp, a, b, p))
        return Reference("ordering", m - k, TOL_MP * m + TOL_KP * k + ORDERING_EQUAL * max(a, b))
    raise ValueError(f"no reference for {fn!r}")


def _mean_mp(a, b, p):
    scale, x = _normalized(a, b)
    return scale / _recip_mp(p, x)


def _mean_kp(a, b, p):
    scale, x = _normalized(a, b)
    return scale * _kp(p, x)


def theta_residual(ref: Reference, v: float) -> tuple[float, float]:
    """(|theta(v) - theta|, allowed) for a trig value v."""
    at = _twice(_theta_of, ref.fn, ref.p, ref.q, v)
    with mp.workdps(DPS):
        width = _theta_width(ref.fn, ref.p, ref.q, v)
        return float(abs(at - mpf(ref.value))), ref.tol + float(width)


def judge(ref: Reference, value: float, verdict: str | None = None) -> bool:
    """True when a returned value meets its reference; ``verdict`` is the
    verdict ``ordering`` returned with its gap."""
    if value != value:  # NaN never passes
        return False
    if ref.kind == "value":
        return abs(value - ref.value) <= ref.tol
    if ref.kind == "theta":
        residual, allowed = theta_residual(ref, value)
        return residual <= allowed
    if abs(value - ref.value) > ref.tol:
        return False
    if ref.value > ref.tol:
        return verdict == "Mp_greater"
    if ref.value < -ref.tol:
        return verdict == "Kp_greater"
    return True
