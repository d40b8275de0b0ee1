"""Functional calculus on a commuting tuple, and when order survives it.

Applying a coordinatewise-increasing function to both sides of an ordered
pair preserves the order. The audit is literal: the rule is evaluated on
every joint eigenvalue and any decrease is a counterexample. Products fail
the audit as soon as a coordinate goes negative.
"""

import numpy as np

from specorder import (
    MonotonicityError,
    fractional_power,
    joint_measure,
    monomial,
    monotone_transport_check,
    parts_decompose,
    product_fn,
    sum_fn,
    validate_tuple,
)

t = validate_tuple([np.diag([1.0, 4.0]), np.diag([9.0, 16.0])])

# monomials and fractional powers act on the joint eigenvalues directly
sq = monomial(t, (1, 1))
print("A1 A2 eigenvalues:", np.diag(sq.matrix))
half = fractional_power(t, (0.5, 0.5))
print("A1^(1/2) A2^(1/2) eigenvalues:", np.diag(half.matrix))

# positive and negative parts split each component; on this mixed-sign
# tuple the pieces recombine to the original
m = validate_tuple([np.diag([-2.0, 3.0])])
plus = parts_decompose(m, "+")
minus = parts_decompose(m, "-")
print("f_plus + f_minus == id:",
      np.allclose(plus.ops[0].matrix + minus.ops[0].matrix, m.ops[0].matrix))

# transport through an increasing function keeps the order
a = validate_tuple([np.diag([0.0, 1.0]), np.diag([0.0, 1.0])])
b = validate_tuple([np.diag([0.5, 2.0]), np.diag([1.0, 1.5])])
print("a <= b, so sum(a) <= sum(b):",
      monotone_transport_check(a, b, sum_fn()).holds)

# the product rule is not increasing once a coordinate dips below zero
neg_a = validate_tuple([np.diag([-1.0, -1.0]), np.diag([1.0, 2.0])])
neg_b = validate_tuple([np.diag([-0.5, -0.5]), np.diag([1.5, 2.5])])
try:
    monotone_transport_check(neg_a, neg_b, product_fn())
except MonotonicityError as exc:
    print("product audit rejects:", exc)

print("atoms seen by the audit:",
      [tuple(map(float, p)) for p in joint_measure(neg_a).points()])
