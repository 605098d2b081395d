"""Complete (p, q)-elliptic integrals: independent routes to every value.

K_pq and E_pq each have three routes: a hypergeometric series in k^q, its
logarithmic connection series in 1 - k^q, and a tanh-sinh quadrature of the
defining integral.  This script compares the series with the quadrature,
which agree to ~1e-13 and serve as mutual checks.  The pair satisfies a
first-order system in k, and the (p, q) / (q, p) integrals are tied together
by a Legendre-type product relation whose residual this script tabulates.

Run:  python demos/elliptic_duality.py
"""

from pqelliptic import E_pq, K_pq, PQParams, dE_dk, dK_dk, legendre_residual, pi_pq

par = PQParams(3, 2)
print(f"K and E for (p, q) = ({par.p:g}, {par.q:g}), pi_pq/2 = {0.5 * pi_pq(par):.12f}")
print(f"{'k':>5} {'K series':>18} {'K quadrature':>18} {'diff':>10} {'E series':>18} {'diff':>10}")
for i in range(10):
    k = i / 10.0
    ks = K_pq(par, k, "series").value
    kq = K_pq(par, k, "quadrature").value
    es = E_pq(par, k, "series").value
    eq = E_pq(par, k, "quadrature").value
    print(f"{k:5.2f} {ks:18.12f} {kq:18.12f} {ks - kq:10.1e} {es:18.12f} {es - eq:10.1e}")
print("K increases toward its k -> 1 divergence while E decreases toward 1:")
print(f"  K(0.999) = {K_pq(par, 0.999).value:.6f}   E(0.9999) = {E_pq(par, 0.9999).value:.6f}")

print()
print("The derivative system, closed forms vs central differences (h = 1e-6):")
h = 1e-6
for k in (0.2, 0.5, 0.8):
    fd_k = (K_pq(par, k + h).value - K_pq(par, k - h).value) / (2.0 * h)
    fd_e = (E_pq(par, k + h).value - E_pq(par, k - h).value) / (2.0 * h)
    print(
        f"  k={k}:  dK={dK_dk(par, k):+.9f} (fd {fd_k:+.9f})   "
        f"dE={dE_dk(par, k):+.9f} (fd {fd_e:+.9f})"
    )

print()
print("Legendre-type relation: p E_pq(k^(1/q)) K_qp(k^(1/p)) - q K_pq(k^(1/q)) E_qp(k^(1/p))")
print("minus (p - q) pi_pq pi_qp / 4 vanishes for p, q > 1:")
print(f"{'(p, q)':>12} " + "".join(f"{f'k={k}':>12}" for k in (0.0, 0.2, 0.5, 0.8, 0.95)))
for p, q in ((2, 3), (3, 2), (1.5, 4), (4, 1.5), (2.5, 2.5)):
    resid = [legendre_residual(p, q, k) for k in (0.0, 0.2, 0.5, 0.8, 0.95)]
    print(f"{f'({p}, {q})':>12} " + "".join(f"{r:12.1e}" for r in resid))
