import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import fresh_rng, normalize_columns_loop, random_unitary
from specorder.errors import DimensionError, HermiticityError
from specorder.linalg import (
    HermitianOperator,
    Projection,
    _normalize_columns,
    commutator_norm,
    hermitian_eig,
    is_psd,
    orthonormalize,
    proj_leq,
    subspace_join,
    subspace_meet,
)

dims = st.integers(min_value=1, max_value=6)


def random_hermitian(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (z + z.conj().T) / 2


def test_from_matrix_rejects_asymmetric():
    with pytest.raises(HermiticityError):
        HermitianOperator.from_matrix([[0.0, 1.0], [0.0, 0.0]])


def test_from_matrix_symmetrizes_below_tol():
    m = np.array([[1.0, 1e-13], [0.0, 2.0]])
    op = HermitianOperator.from_matrix(m)
    assert op.hermiticity_defect <= 1e-12
    assert np.array_equal(op.matrix, op.matrix.conj().T)


def test_from_matrix_rejects_nonsquare():
    with pytest.raises(DimensionError):
        HermitianOperator.from_matrix(np.zeros((2, 3)))


@given(n=dims, salt=st.integers(0, 10))
def test_eigendecomposition_reconstructs(n, salt):
    rng = fresh_rng(salt)
    op = HermitianOperator.from_matrix(random_hermitian(rng, n))
    w, v = hermitian_eig(op)
    assert np.all(np.diff(w) >= 0)
    assert np.allclose((v * w) @ v.conj().T, op.matrix, atol=1e-12 * (1 + op.norm()))
    # deterministic phases: first significant entry of each column real positive
    for col in v.T:
        lead = col[np.argmax(np.abs(col) > 1e-8)]
        assert abs(lead.imag) <= 1e-12
        assert lead.real > 0


def test_projection_zero_identity():
    z, i = Projection.zero(3), Projection.identity(3)
    assert z.rank == 0 and i.rank == 3
    assert np.array_equal(z.matrix, np.zeros((3, 3)))
    assert np.array_equal(i.matrix, np.eye(3))
    assert z.complement().rank == 3
    assert i.complement().rank == 0


@given(n=st.integers(2, 6), salt=st.integers(0, 10))
def test_complement_is_orthogonal(n, salt):
    rng = fresh_rng(salt)
    q = random_unitary(rng, n)
    r = int(rng.integers(1, n))
    p = Projection(q[:, :r])
    c = p.complement()
    assert c.rank == n - r
    assert np.max(np.abs(p.range_basis.conj().T @ c.range_basis)) <= 1e-12
    assert np.allclose(p.matrix + c.matrix, np.eye(n), atol=1e-12)


def test_orthonormalize_drops_dependent_columns():
    cols = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]).T
    # columns: e1, 2*e1, e2 -> rank 2
    p = orthonormalize(cols.T)
    assert p.rank == 2
    assert p.orthonormality_defect() <= 1e-12


def test_orthonormalize_empty():
    p = orthonormalize(np.zeros((4, 0)))
    assert p.rank == 0 and p.dim == 4


def test_proj_leq_nested_and_incomparable():
    e = np.eye(4)
    p1 = Projection(e[:, :1])
    p12 = Projection(e[:, :2])
    q = Projection(e[:, 2:3])
    assert proj_leq(p1, p12)
    assert not proj_leq(p12, p1)
    assert not proj_leq(p1, q)
    assert proj_leq(Projection.zero(4), q)
    assert proj_leq(q, Projection.identity(4))


def test_proj_leq_tolerates_small_rotation():
    n = 5
    rng = fresh_rng(1)
    q = random_unitary(rng, n)
    p = Projection(q[:, :2])
    wiggle = q[:, :2] + 1e-12 * rng.normal(size=(n, 2))
    assert proj_leq(orthonormalize(wiggle), p)


@given(n=st.integers(2, 6), salt=st.integers(0, 8))
def test_join_meet_de_morgan(n, salt):
    rng = fresh_rng(100 + salt)
    q = random_unitary(rng, n)
    u = random_unitary(rng, n)
    p = Projection(q[:, : int(rng.integers(1, n + 1))])
    r = Projection(u[:, : int(rng.integers(1, n + 1))])
    join = subspace_join(p, r)
    meet = subspace_meet(p, r)
    assert proj_leq(p, join) and proj_leq(r, join)
    assert proj_leq(meet, p) and proj_leq(meet, r)
    # (p v r)' = p' ^ r'
    lhs = join.complement()
    rhs = subspace_meet(p.complement(), r.complement())
    assert lhs.rank == rhs.rank
    assert np.allclose(lhs.matrix, rhs.matrix, atol=1e-9)


def test_meet_of_generic_planes_in_r3():
    # two generic 2-d subspaces of C^3 intersect in a line
    p = orthonormalize(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    r = orthonormalize(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
    meet = subspace_meet(p, r)
    assert meet.rank == 1
    direction = meet.range_basis[:, 0]
    assert np.allclose(np.abs(direction), [1.0, 0.0, 0.0], atol=1e-12)


def test_is_psd():
    assert is_psd(np.zeros((2, 2)))
    assert is_psd([[1.0, 1.0], [1.0, 1.0]])
    assert not is_psd(np.diag([1.0, -0.1]))
    # borderline: tiny negative eigenvalue within tolerance scale
    assert is_psd(np.diag([1.0, -1e-12]))


def test_commutator_norm():
    a = np.diag([1.0, 2.0])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert commutator_norm(a, a) == 0.0
    assert commutator_norm(a, b) > 1.0
    assert abs(commutator_norm(a, b) - commutator_norm(b, a)) <= 1e-15


@given(n=st.integers(0, 7), k=st.integers(0, 7), stack=st.integers(1, 3),
       salt=st.integers(0, 10_000), tol=st.sampled_from((1e-12, 1e-10, 1e-3)))
def test_normalize_columns_matches_column_loop_bitwise(n, k, stack, salt, tol):
    rng = fresh_rng(salt)
    shape = (stack, n, k)
    v = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) \
        * 10.0 ** rng.integers(-14, 3, size=shape)
    v[rng.random(shape) < 0.3] = 0.0  # leading zeros and all-below-tol columns
    got = _normalize_columns(v, tol)
    for i in range(stack):
        assert got[i].tobytes() == normalize_columns_loop(v[i], tol).tobytes()
        assert _normalize_columns(v[i], tol).tobytes() == got[i].tobytes()
        assert (_normalize_columns(v[i].real, tol).tobytes()
                == normalize_columns_loop(v[i].real, tol).tobytes())


def matrices_in_range(low: float, high: float):
    """Square complex matrices, n 1-5, whose nonzero parts have magnitudes in [low, high]."""
    part = st.one_of(st.just(0.0),
                     st.floats(low, high) | st.floats(-high, -low))
    return st.integers(1, 5).flatmap(lambda n: st.lists(
        st.tuples(part, part), min_size=n * n, max_size=n * n).map(
            lambda entries: np.array([complex(re, im) for re, im in entries]).reshape(n, n)))


@given(m=matrices_in_range(1e-300, 1e300))
def test_halved_symmetrization_matches_the_sum_form_bitwise(m):
    # m/2 + m*/2 cannot overflow; on normal-range entries it rounds exactly as
    # (m + m*)/2, because halving a normal float is exact
    old = (m + m.conj().T) / 2.0
    assert HermitianOperator.from_matrix(m, tol=np.inf).matrix.tobytes() == old.tobytes()


def test_norm_near_float_limit_is_finite():
    # squaring 1.5e308 overflows; the norm itself is within the float range
    op = HermitianOperator.from_matrix(np.diag([1.5e308, 0.5e308]))
    assert np.array_equal(op.matrix, np.diag([1.5e308, 0.5e308]))
    assert op.norm() == pytest.approx(np.hypot(1.5e308, 0.5e308), rel=1e-15)
    assert HermitianOperator.from_matrix(np.full((2, 2), 1.5e308)).norm() == np.inf
