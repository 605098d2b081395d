"""A walk through the generalized (p, q)-trigonometric functions.

sin_pq inverts the integral x -> integral_0^x (1 - t^q)^(-1/p) dt on the
principal branch [0, pi_pq/2].  arcsin_pq evaluates that integral by the
first of three routes that admits x: the series x F(1/p, 1/q; 1 + 1/q; x^q)
for x^q <= 1/2, pi_pq/2 less an incomplete beta series in 1 - x^q near
x = 1, and tanh-sinh quadrature where neither series is safe.  This script
tabulates the half-period constant, shows the classical degeneration at
p = q = 2, compares the routes of arcsin_pq, and spot-checks the
Pythagorean and derivative identities numerically.

Run:  python demos/generalized_trigonometry.py
"""

import math

from pqelliptic import PQParams, arcsin_pq, cos_pq, pi_pq, sin_pq, tan_pq

pairs = [PQParams(2, 2), PQParams(3, 2), PQParams(2, 3), PQParams(1.5, 4), PQParams(-2, 2)]

print("Half-period constants pi_pq = (2/q) B(1/p*, 1/q)")
print(f"{'p':>6} {'q':>6} {'p*':>10} {'pi_pq':>20}")
for par in pairs:
    print(f"{par.p:6.1f} {par.q:6.1f} {par.p_star:10.4f} {pi_pq(par):20.15f}")
print(f"(classical check: pi_22 - pi = {pi_pq(pairs[0]) - math.pi:.1e})")

print()
print("arcsin_pq by each route that admits x, at (p, q) = (3, 2):")
par = pairs[1]
for x in (0.5, 0.9, 1.0):
    row = []
    for method in ("series", "complement", "quadrature"):
        try:
            row.append(f"{method}={arcsin_pq(par, x, method):.15f}")
        except ValueError:
            row.append(f"{method}=(outside its domain)")
    print(f"  x={x}  " + "  ".join(row))

print()
print("At p = q = 2 the functions are the classical ones:")
for frac in (0.25, 0.5, 0.75):
    theta = frac * math.pi / 2.0
    par = pairs[0]
    print(
        f"  theta={theta:.4f}  sin_22={sin_pq(par, theta):.12f} "
        f"(sin={math.sin(theta):.12f})  tan_22={tan_pq(par, theta):.12f}"
    )

print()
print("Pythagorean identity cos^q + sin^q = 1 at theta = 0.6 * pi_pq/2:")
for par in pairs:
    theta = 0.6 * 0.5 * pi_pq(par)
    s, c = sin_pq(par, theta), cos_pq(par, theta)
    resid = c**par.q + s**par.q - 1.0
    print(f"  (p={par.p:4.1f}, q={par.q:3.1f})  sin={s:.10f}  cos={c:.10f}  residual={resid:+.1e}")

print()
print("Derivative identity (sin_pq)' = cos_pq^(q/p) by central differences:")
h = 1e-6
for par in pairs:
    theta = 0.4 * 0.5 * pi_pq(par)
    fd = (sin_pq(par, theta + h) - sin_pq(par, theta - h)) / (2.0 * h)
    rhs = cos_pq(par, theta) ** (par.q / par.p)
    print(f"  (p={par.p:4.1f}, q={par.q:3.1f})  fd={fd:.10f}  cos^(q/p)={rhs:.10f}  diff={fd - rhs:+.1e}")

print()
print("Round trip sin_pq(arcsin_pq(x)) = x at x = 0.7:")
for par in pairs:
    back = sin_pq(par, arcsin_pq(par, 0.7))
    print(f"  (p={par.p:4.1f}, q={par.q:3.1f})  {back:.15f}")
