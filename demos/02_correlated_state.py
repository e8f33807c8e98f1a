"""The strictly correlated state: defining values, support, positivity.

The state assigns exp{i a lambda} to W(a,0) x W(-a,0) and exp{i b mu} to
W(0,b) x W(0,b), vanishes off the manifold {c = -a, d = b}, and its twisted
kernel is positive semidefinite on any finite rational point set, which is
what makes it a state at all.
"""

import random
from fractions import Fraction

import numpy as np

from eprbell import (
    StateFunctional,
    eval_point,
    kernel_matrix,
    point,
    psd_check,
    rank_one_class_check,
    support_relation,
)

state = StateFunctional.epr(lam=0.8, mu=-0.3)

print("defining values (lambda = 0.8, mu = -0.3):")
print("  omega(W(2,0) x W(-2,0)) =", eval_point(state, point(2, 0, -2, 0)))
print("  omega(W(0,1) x W(0,1))  =", eval_point(state, point(0, 1, 0, 1)))
print("  omega(W(1,2) x W(3,4))  =", eval_point(state, point(1, 2, 3, 4)), "(off manifold)")

# kernel positivity on a random rational battery; half the points land on
# the correlation manifold so the support classes are nontrivial
rng = random.Random(1)
pts = []
seen = set()
while len(pts) < 48:
    if len(pts) % 2:
        p = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(4))
    else:
        a, b = (Fraction(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(2))
        p = (a, b, -a, b)
    if p not in seen:
        seen.add(p)
        pts.append(p)
m = kernel_matrix(state, pts)
res = psd_check(m, 1e-10)
classes = support_relation(m).classes
print(f"\nkernel on 48 random rational points: min eigenvalue {res['min_eigenvalue']:.2e}"
      f" -> PSD {res['passed']}; {len(classes)} support classes,"
      f" largest {max(len(c) for c in classes)}")

# support classes group points by the invariant (a+c, b-d); within a class
# the kernel is a rank-one table of unimodular phases
pts = [point(0, 0, 0, 0), point(1, 0, -1, 0), point(2, 1, -2, 1), point(1, 0, 0, 0)]
m = kernel_matrix(state, pts)
part = support_relation(m)
print("\nsupport classes of", len(pts), "points:", part.classes)
rank = rank_one_class_check(m, part, 1e-10)
print("rank-one cocycle on classes:", rank["passed"],
      f"(max cocycle dev {rank['max_cocycle_dev']:.1e})")

# the Gaussian reference state runs the same machinery, everywhere-supported
regular = StateFunctional.regular()
m = kernel_matrix(regular, pts)
print("\nGaussian reference kernel PSD:", psd_check(m, 1e-10)["passed"])
print("  |entries| are strictly positive:", float(np.min(np.abs(m))) > 0)
