import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    fresh_rng,
    merge_first_occurrence,
    merge_radius,
    near_duplicate_points,
    random_commuting,
    random_projection_split,
)
from specorder.errors import CommutationError, DimensionError
from specorder.functions import monomial_fn, parts_fns, coordinate_fn, sum_fn
from specorder.gallery import projection_pair_no_infimum
from specorder.linalg import TOL, Projection, commutator_norm, proj_leq
from specorder.spectral import (
    JointSpectralMeasure,
    calculus_scalar,
    calculus_vector,
    fractional_power,
    is_positive_tuple,
    joint_measure,
    monomial,
    parts_decompose,
    pushforward,
    validate_tuple,
)

INF = np.inf


def test_validate_diagonal_pair():
    t = validate_tuple([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])])
    assert t.kappa == 2 and t.dim == 2
    assert t.max_commutator_defect == 0.0


def test_validate_rejects_noncommuting():
    with pytest.raises(CommutationError) as info:
        validate_tuple([np.diag([1.0, 2.0]), [[0.0, 1.0], [1.0, 0.0]]])
    assert info.value.indices == (0, 1)
    assert info.value.defect > 1.0


def test_validate_rejects_noncommuting_near_float_limit():
    # unscaled, both the defect and its threshold overflow to inf, and inf > inf is false
    with np.errstate(over="raise"):
        with pytest.raises(CommutationError) as info:
            validate_tuple([1e300 * np.array([[1.0, 1.0], [1.0, 0.0]]), np.diag([1.0, 2.0])])
    assert info.value.indices == (0, 1)
    assert info.value.defect == pytest.approx(np.sqrt(2.0) * 1e300)
    assert np.isfinite(info.value.tol) and info.value.tol < info.value.defect


@given(salt=st.integers(0, 10_000), scale=st.integers(-40, 40), noise=st.integers(-14, 0),
       tol_exp=st.integers(-12, -4))
def test_commutation_check_matches_unscaled_rule(salt, scale, noise, tol_exp):
    # power-of-two scaling inside validate_tuple changes no bit of the decision
    rng = fresh_rng(salt)
    t = random_commuting(rng, int(rng.integers(1, 6)), 2)
    h = rng.normal(size=(t.dim, t.dim))
    ops = [op.matrix * 10.0 ** scale for op in t.ops]
    ops[1] = ops[1] + (h + h.T) * 10.0 ** (scale + noise)
    tol = 10.0 ** tol_exp
    a, b = (validate_tuple([m]).ops[0] for m in ops)
    defect = commutator_norm(a, b)
    threshold = tol * a.norm() * b.norm()
    if defect > threshold:
        with pytest.raises(CommutationError) as info:
            validate_tuple(ops, tol_comm=tol)
        assert (info.value.defect, info.value.tol) == (defect, threshold)
    else:
        assert validate_tuple(ops, tol_comm=tol).max_commutator_defect == defect


def test_validate_rejects_dimension_mismatch():
    with pytest.raises(DimensionError):
        validate_tuple([np.eye(2), np.eye(3)])


def test_projection_pair_commutes_in_half_block():
    a, _ = projection_pair_no_infimum()
    m1, m2 = a.matrices()
    prod = m1 @ m2
    half_block = np.zeros((3, 3))
    half_block[:2, :2] = 0.5
    assert np.allclose(prod, half_block, atol=1e-15)
    assert np.allclose(prod, m2 @ m1, atol=1e-15)


def test_scalar_tuple_single_atom():
    t = validate_tuple([2.0 * np.eye(3), -1.0 * np.eye(3)])
    e = joint_measure(t)
    assert e.n_atoms() == 1
    point, proj = e.atoms[0]
    assert point == (2.0, -1.0)
    assert proj.rank == 3


def test_degenerate_scalar_pair():
    t = validate_tuple([np.diag([0.0, 0.0]), np.diag([5.0, 5.0])])
    e = joint_measure(t)
    assert e.n_atoms() == 1
    assert e.atoms[0][0] == (0.0, 5.0)


def test_projection_pair_measure_atoms():
    a, _ = projection_pair_no_infimum()
    e = joint_measure(a)
    assert e.n_atoms() == 3
    assert [tuple(p) for p in e.points()] == [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
    assert [p.rank for p in e.projections()] == [1, 1, 1]
    s = 1 / np.sqrt(2)
    expected = {
        (0.0, 1.0): np.array([0.0, 0.0, 1.0]),
        (1.0, 0.0): np.array([s, -s, 0.0]),
        (1.0, 1.0): np.array([s, s, 0.0]),
    }
    for point, proj in e.atoms:
        v = proj.range_basis[:, 0]
        assert np.allclose(v, expected[tuple(point)], atol=1e-12)


def test_cluster_splitting_inside_degenerate_eigenspace():
    a1 = np.diag([1.0, 1.0, 2.0])
    a2 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 5.0]])
    e = joint_measure(validate_tuple([a1, a2]))
    assert [tuple(p) for p in e.points()] == [(1.0, -1.0), (1.0, 1.0), (2.0, 5.0)]


def test_near_degenerate_values_split_like_their_rescaling():
    # diag(0, 1e-12) is 1e-12 * diag(0, 1): two atoms, like diag(0, 1)
    t = validate_tuple([np.diag([0.0, 1e-12])])
    e = joint_measure(t)
    assert e.n_atoms() == 2
    assert e.points()[:, 0].tolist() == [0.0, 1e-12]


def test_marginal_projection():
    a, _ = projection_pair_no_infimum()
    e = joint_measure(a)
    p = e.marginal_interval(0, [(-INF, 0.0)])
    assert p.rank == 1
    assert np.allclose(np.abs(p.range_basis[:, 0]), [0.0, 0.0, 1.0], atol=1e-12)
    assert e.marginal_interval(0, [(-INF, INF)]).rank == 3
    assert e.marginal_interval(1, []).rank == 0


def test_distribution_steps():
    a, _ = projection_pair_no_infimum()
    e = joint_measure(a)
    s = 1 / np.sqrt(2)
    p = e.distribution((1.0, 0.0))
    assert p.rank == 1
    assert np.allclose(np.abs(p.range_basis[:, 0]), [s, s, 0.0], atol=1e-12)
    assert e.distribution((-1.0, -1.0)).rank == 0
    assert e.distribution((1.0, 1.0)).rank == 3
    # atol pulls in an atom just above the corner
    assert e.distribution((1.0 - 1e-9, 1.0)).rank == 1
    assert e.distribution((1.0 - 1e-9, 1.0), atol=1e-8).rank == 3


@given(salt=st.integers(0, 30))
def test_measure_axioms(salt):
    rng = fresh_rng(salt)
    n = int(rng.integers(1, 9))
    kappa = int(rng.integers(1, 4))
    t = random_commuting(rng, n, kappa)
    e = joint_measure(t)
    assert e.completeness_defect() <= 1e-8 * n
    assert e.orthogonality_defect() <= 1e-8
    norms = max(op.norm() for op in t.ops)
    assert e.reconstruction_defect(t) <= 1e-7 * (1 + norms)


def test_box_product_property():
    # E(s1 x s2) = E1(s1) E2(s2) on random tuples and random boxes
    for salt in range(200):
        rng = fresh_rng(1000 + salt)
        n = int(rng.integers(2, 9))
        kappa = int(rng.integers(2, 4))
        t = random_commuting(rng, n, kappa)
        e = joint_measure(t)
        lo = rng.uniform(-1.2, 1.0, size=kappa)
        hi = lo + rng.uniform(0.0, 1.5, size=kappa)
        inside = [i for i, pt in enumerate(e.points())
                  if np.all((lo <= pt) & (pt <= hi))]
        box = e.join(inside).matrix
        prod = np.eye(n, dtype=complex)
        for j in range(kappa):
            prod = prod @ e.marginal_interval(j, [(lo[j], hi[j])]).matrix
        assert np.allclose(box, prod, atol=1e-9)


@given(salt=st.integers(0, 20))
def test_distribution_monotone(salt):
    rng = fresh_rng(2000 + salt)
    t = random_commuting(rng, int(rng.integers(2, 7)), 2)
    e = joint_measure(t)
    x = rng.uniform(-1, 1, size=2)
    y = x + rng.uniform(0, 1, size=2)
    assert proj_leq(e.distribution(x), e.distribution(y))


def test_calculus_recovers_coordinates():
    rng = fresh_rng(3)
    t = random_commuting(rng, 5, 2)
    e = joint_measure(t)
    for j in range(2):
        back = calculus_scalar(e, coordinate_fn(j, 2))
        assert np.allclose(back.matrix, t.ops[j].matrix, atol=1e-10)
    one = calculus_scalar(e, monomial_fn((0, 0)))
    assert np.allclose(one.matrix, np.eye(5), atol=1e-12)


def test_calculus_sum_on_projection_pair():
    a, _ = projection_pair_no_infimum()
    e = joint_measure(a)
    total = calculus_scalar(e, sum_fn(2))
    m1, m2 = a.matrices()
    assert np.allclose(total.matrix, m1 + m2, atol=1e-12)


def test_calculus_vector_identity_and_duplicate():
    rng = fresh_rng(4)
    t = random_commuting(rng, 4, 2)
    e = joint_measure(t)
    ident = calculus_vector(e, [coordinate_fn(0, 2), coordinate_fn(1, 2)])
    for got, src in zip(ident.ops, t.ops):
        assert np.allclose(got.matrix, src.matrix, atol=1e-10)
    dup = calculus_vector(e, [coordinate_fn(0, 2), coordinate_fn(0, 2)])
    assert np.allclose(dup.ops[0].matrix, dup.ops[1].matrix, atol=1e-15)
    assert dup.max_commutator_defect <= 1e-12


def test_monomial_values():
    assert np.allclose(monomial(validate_tuple([np.diag([1.0, 2.0])]), (2,)).matrix,
                       np.diag([1.0, 4.0]))
    a2 = np.array([[2.0, 1.0], [1.0, 2.0]])
    t = validate_tuple([np.zeros((2, 2)), a2])
    sq = monomial(t, (0, 2))
    assert np.allclose(sq.matrix, [[5.0, 4.0], [4.0, 5.0]], atol=1e-12)
    ident = monomial(t, (0, 0))
    assert np.allclose(ident.matrix, np.eye(2), atol=1e-15)


def test_fractional_power():
    t = validate_tuple([np.diag([4.0, 4.0]), np.diag([9.0, 9.0])])
    r = fractional_power(t, (0.5, 0.5))
    assert np.allclose(r.matrix, 6.0 * np.eye(2), atol=1e-12)
    assert np.allclose(fractional_power(t, (0.0, 0.0)).matrix, np.eye(2))
    neg = validate_tuple([np.diag([-1.0]), np.diag([1.0])])
    assert np.allclose(fractional_power(neg, (0.5, 0.5)).matrix, [[0.0]])


def test_fractional_power_absorbs_roundoff_per_axis():
    # the second axis's -1e-3 c is a real negative coordinate at any scale c,
    # however large the first axis is, so its atom contributes zero
    for c in (1e-6, 1.0, 1e6):
        t = validate_tuple([np.diag([1e6, 2e6]), np.diag([-1e-3 * c, c])])
        assert np.diag(fractional_power(t, (1.0, 0.0)).matrix).real.tolist() == [0.0, 2e6]


def test_parts_decompose():
    t = validate_tuple([np.diag([-2.0, 3.0])])
    plus = parts_decompose(t, "+")
    minus = parts_decompose(t, "-")
    assert np.allclose(plus.ops[0].matrix, np.diag([0.0, 3.0]))
    assert np.allclose(minus.ops[0].matrix, np.diag([-2.0, 0.0]))
    # f_+ + f_- = id exactly
    assert np.allclose(plus.ops[0].matrix + minus.ops[0].matrix,
                       t.ops[0].matrix, atol=1e-15)


def test_parts_identity_on_positive_tuple():
    rng = fresh_rng(5)
    t = random_commuting(rng, 4, 2, low=0.1, high=2.0)
    kept = parts_decompose(t, "++")
    for got, src in zip(kept.ops, t.ops):
        assert np.allclose(got.matrix, src.matrix, atol=1e-10)


def test_parts_pushforward_matches_tuple_measure():
    rng = fresh_rng(6)
    t = random_commuting(rng, 5, 2, low=-1.5, high=1.5)
    via_tuple = joint_measure(parts_decompose(t, "+-"))
    via_push = pushforward(joint_measure(t), parts_fns("+-"))
    assert via_tuple.n_atoms() == via_push.n_atoms()
    assert np.allclose(via_tuple.points(), via_push.points(), atol=1e-10)
    for p, q in zip(via_tuple.projections(), via_push.projections()):
        assert p.rank == q.rank
        assert np.allclose(p.matrix, q.matrix, atol=1e-9)


def test_pushforward_constant_map_merges_everything():
    rng = fresh_rng(7)
    t = random_commuting(rng, 4, 2)
    e = joint_measure(t)
    squashed = pushforward(e, [monomial_fn((0, 0))])
    assert squashed.n_atoms() == 1
    assert squashed.atoms[0][1].rank == 4


@given(mapped=near_duplicate_points(TOL, max_points=7), salt=st.integers(0, 50))
@settings(max_examples=100)
def test_pushforward_matches_first_occurrence_loop(mapped, salt):
    # atom i of a kappa=1 measure sits at i and is sent to mapped[i]
    m = len(mapped)
    bases = random_projection_split(fresh_rng(500 + salt), m + 2, m) if m else []
    e = JointSpectralMeasure(kappa=1, dim=m + 2,
                             atoms=tuple(((float(i),), Projection(b))
                                         for i, b in enumerate(bases)))
    phis = [lambda x, j=j: mapped[int(x[0]), j] for j in range(mapped.shape[1])]
    image = pushforward(e, phis)
    reps, members = merge_first_occurrence(mapped, merge_radius(mapped))
    assert image.points().tobytes() == np.array(reps).tobytes()
    assert [p.range_basis.tobytes() for p in image.projections()] == [
        np.hstack([bases[i] for i in ms]).astype(np.complex128).tobytes()
        for ms in members]


def test_is_positive_tuple():
    a, _ = projection_pair_no_infimum()
    assert is_positive_tuple(a)
    bad = validate_tuple([np.diag([1.0, -1.0]), np.diag([1.0, 1.0])])
    assert not is_positive_tuple(bad)
    theta3 = validate_tuple([np.eye(2), [[3.0, 1.0], [1.0, 4.0]]])
    assert is_positive_tuple(theta3)
    w = np.linalg.eigvalsh(np.array([[3.0, 1.0], [1.0, 4.0]]))
    assert np.allclose(w, [(7 - np.sqrt(5)) / 2, (7 + np.sqrt(5)) / 2])


def test_joint_measure_diagonalizes_each_tuple_once(monkeypatch):
    import specorder.spectral as spectral

    calls = []
    real = spectral.hermitian_eig

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, "hermitian_eig", counting)
    t = random_commuting(fresh_rng(77), 5, 3)
    first = joint_measure(t)
    n_first = len(calls)
    # A_1 has a simple spectrum, so every later compression is 1x1 and
    # needs no eigendecomposition
    assert first.n_atoms() == 5
    assert n_first == 1
    assert joint_measure(t) is first
    assert len(calls) == n_first
    # the memo lives on the instance: an equal tuple diagonalizes afresh
    n_before = len(calls)
    joint_measure(validate_tuple(t.matrices()))
    assert len(calls) > n_before
