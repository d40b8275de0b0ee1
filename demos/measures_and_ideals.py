"""Scalar atomic measures: orthant CDFs against lower-set mass dominance.

In one variable the two notions coincide. In two variables the CDF order is
strictly weaker, and the crossed Dirac pair below is the smallest example:
its CDFs are ordered everywhere, yet the lower set generated by
{(0,1), (1,0)} carries mass 2 under one measure and 1 under the other.
"""

from specorder import (
    cdf_leq,
    crossed_dirac_pair,
    enumerate_downward_closed,
    lowerset_dominance,
    thm31_equivalence_check,
)

mu1, mu2 = crossed_dirac_pair()
print("mu1 atoms:", [tuple(map(float, p)) for p in mu1.points], "weights", [float(w) for w in mu1.weights])
print("mu2 atoms:", [tuple(map(float, p)) for p in mu2.points], "weights", [float(w) for w in mu2.weights])

print("CDF dominance:", cdf_leq(mu1, mu2).holds)

dom = lowerset_dominance(mu1, mu2, iota=2)
print("lower-set dominance:", dom.holds)
print("  witness ideal:", [tuple(map(float, p)) for p in dom.witness.member_points()])
print("  mass gap:", dom.defect)

# the ideal lattice of the merged atoms, enumerated as an illustration:
# the check above solves one max-flow and never lists these
import numpy as np
union = np.unique(np.vstack([mu1.points, mu2.points]), axis=0)
ideals = enumerate_downward_closed(union, iota=2)
print(len(ideals), "downward-closed subsets of the union poset:")
for ideal in ideals:
    print("  ", sorted(tuple(map(float, p)) for p in ideal.member_points()))

# three independent verdicts, one answer
eq = thm31_equivalence_check(mu1, mu2, iota=2)
print("lower sets", eq.lowerset.holds,
      "| indicator integrals", eq.indicator.holds,
      "| mollifier ladder", eq.mollifier.holds,
      "| all agree:", eq.agreement)
