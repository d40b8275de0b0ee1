"""Deciding the distribution-function order between commuting tuples.

A tuple is ordered below another when, pointwise on the grid of joint
eigenvalues, the second tuple's distribution projection is contained in the
first's. For simultaneously diagonalizable inputs this is decidable exactly.
"""

import numpy as np

from specorder import (
    axis_shift_family,
    joint_measure,
    spectral_leq,
    spectral_leq_componentwise,
    validate_tuple,
)

# two diagonal pairs over C^3, second one shifted up coordinatewise
a = validate_tuple([np.diag([0.0, 1.0, 1.0]), np.diag([0.0, 0.0, 2.0])])
b = validate_tuple([np.diag([1.0, 2.0, 1.0]), np.diag([0.5, 1.0, 2.0])])

print("atoms of a:", [tuple(map(float, p)) for p in joint_measure(a).points()])
print("atoms of b:", [tuple(map(float, p)) for p in joint_measure(b).points()])

v = spectral_leq(a, b)
print("a <= b:", v.holds, " largest axis-line residual:", f"{v.defect:.2e}")

# the reverse direction fails and reports the first bad grid point
back = spectral_leq(b, a)
print("b <= a:", back.holds, " witness grid point:", back.witness)

# the componentwise route reads the same axis lines and names the failing
# axis and value
comp = spectral_leq_componentwise(a, b)
print("componentwise route:", comp.holds,
      " reverse witness (axis, value):", spectral_leq_componentwise(b, a).witness)

# a one-parameter family that is comparable at exactly one parameter value
for theta in (1.5, 2.0, 3.0):
    ta, tb = axis_shift_family(theta)
    print(f"axis-shift family, theta={theta}:", spectral_leq(ta, tb).holds)
