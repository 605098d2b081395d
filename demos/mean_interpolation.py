"""The mean family M_p and the power-difference means K_p.

M_p interpolates the geometric mean (p = 0), the logarithmic mean (p = 1)
and the arithmetic-geometric mean (p = 2).  Its reciprocal has four
representations (half-line integral, elliptic integral, and two
hypergeometric series related by a quadratic transformation), and 1/K_p has
four.  Each named route runs only itself: a series whose argument exceeds
0.99 raises ValueError.  Comparing the third parameters of the two
transformed series decides the ordering: M_p > K_p below p = 1 and
M_p < K_p above.

Run:  python demos/mean_interpolation.py
"""

from pqelliptic import c_p, mean_ag, mean_kp, mean_log, mean_mp, ordering

a, b = 1.0, 0.3

print(f"The family M_p on (a, b) = ({a}, {b}):")
print(f"  M_0 = sqrt(ab)      = {mean_mp(a, b, 0.0):.12f}")
print(f"  M_1 = L(a, b)       = {mean_mp(a, b, 1.0):.12f}  (L     = {mean_log(a, b):.12f})")
print(f"  M_2 = AG(a, b)      = {mean_mp(a, b, 2.0):.12f}  (AGM   = {mean_ag(a, b):.12f})")
print(f"  normalizer c_2      = {c_p(2.0):.12f}  (2/pi  = {2.0 / 3.141592653589793:.12f})")

print()
print("Four routes to 1/M_3(1, 0.3):")
for method in ("integral", "elliptic", "hyp_base", "hyp_quad"):
    print(f"  {method:9s} -> {1.0 / mean_mp(a, b, 3.0, method):.15f}")
try:
    mean_mp(a, 0.001, 3.0, "hyp_base")
except ValueError as err:
    print(f"At (1, 0.001) the base series is out of reach: {err}")
print("Four routes to 1/K_3(1, 0.3):")
for method in ("closed", "integral", "hyp_base", "hyp_quad"):
    print(f"  {method:9s} -> {1.0 / mean_kp(a, b, 3.0, method):.15f}")

print()
print("Ordering sweep: the gap M_p - K_p changes sign exactly at p = 1.")
print(f"{'p':>6} {'M_p':>16} {'K_p':>16} {'gap':>12}  verdict")
for p in (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0):
    r = ordering(a, b, p)
    mp = mean_mp(a, b, p)
    kp = mean_kp(a, b, p)
    print(f"{p:6.2f} {mp:16.12f} {kp:16.12f} {r.gap:12.2e}  {r.verdict}")

print()
print("Both families are genuine binary means (min <= mean <= max, symmetric,")
print("homogeneous); a quick look at homogeneity with alpha = 3:")
for p in (0.5, 2.0):
    lhs = mean_mp(3.0 * a, 3.0 * b, p)
    rhs = 3.0 * mean_mp(a, b, p)
    print(f"  M_{p:g}(3a, 3b) = {lhs:.12f}   3 M_{p:g}(a, b) = {rhs:.12f}")
