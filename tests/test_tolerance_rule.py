"""The tolerance rule: every threshold is TOL times the size of what it compares.

The spectral order survives every separately increasing map, positive
scalings among them, and it is unchanged by unitary conjugation and by a
common shift. With thresholds relative to the operands, the verdicts keep
these symmetries at any scale; an absolute floor in a threshold merges the
atoms of small spectra and flips verdicts there.
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import fresh_rng, positive_ordered_pair, random_unitary, tuple_from_eigs
from specorder.cli import main
from specorder.errors import NormalityError, ParameterError, PreconditionError
from specorder.functions import fractional_fn, sum_fn
from specorder.io import save_json, tuple_to_dict
from specorder.linalg import TOL, HermitianOperator, Projection, commutator_norm, is_psd, proj_leq
from specorder.measures import audit_iota_increasing
from specorder.order import (
    NormalOperator,
    bounded_vector_membership,
    distribution_order,
    growth_ratio,
    infimum_probe,
    loewner_leq,
    olson_necessity_scan,
    restricted_monotone_check,
    scaled_monomial_check,
    spectral_leq,
    spectral_leq_componentwise,
)
from specorder.spectral import is_positive_tuple, joint_measure, validate_tuple

SCAN_DEPTH = 3


@st.composite
def integer_pairs(draw, low: int = 1):
    """(q_a, q_b, eigs_a, eigs_b, truth): kappa 1-2, n 1-6, integer levels
    low..low+3, eigenbases q_a and q_b.

    Half the pairs share one eigenbasis with b = a plus steps of 0 or 1, so
    truth = (a <= b, b <= a) = (True, no step taken); the other half take
    independent bases, with truth None.
    """
    kappa = draw(st.integers(1, 2))
    n = draw(st.integers(1, 6))
    rng = fresh_rng(draw(st.integers(0, 10_000)))
    eigs_a = rng.integers(low, low + 4, size=(kappa, n)).astype(np.float64)
    steps = rng.integers(0, 2, size=(kappa, n))
    q = random_unitary(rng, n)
    shared = draw(st.booleans())
    q_b = q if shared else random_unitary(rng, n)
    truth = (True, not steps.any()) if shared else None
    return q, q_b, eigs_a, eigs_a + steps, truth


def both_ways(q_a, q_b, eigs_a, eigs_b, c=1.0, shift=0.0, u=None):
    """The pair u (c (A + shift I)) u^H, u (c (B + shift I)) u^H, and its reverse.

    The map is applied to the eigenvalues and eigenbases, so the shifted
    operators are exact: a shift that zeroes a spectrum leaves exact zeros.
    A computed A - cI with A's spectrum all c would be pure roundoff, which
    a rule without an absolute floor cannot tell from a small operator that
    does not commute with the other components.
    """
    u = np.eye(q_a.shape[0]) if u is None else u
    a = tuple_from_eigs(u @ q_a, c * (eigs_a + shift))
    b = tuple_from_eigs(u @ q_b, c * (eigs_b + shift))
    return (a, b), (b, a)


def assert_point_scaled(got, want, c: float):
    got, want = np.asarray(got) / c, np.asarray(want)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@given(pair=integer_pairs(), k=st.integers(-40, 40))
def test_power_of_two_scaling_keeps_verdicts(pair, k):
    c = 2.0 ** k
    for x, y in both_ways(*pair[:4]):
        # scaling by a power of two is exact, so the scaled operators are c x and c y
        sx, sy = (validate_tuple([c * m for m in t.matrices()]) for t in (x, y))
        want, got = spectral_leq(x, y), spectral_leq(sx, sy)
        assert got.holds == want.holds
        if not want.holds:
            assert_point_scaled(got.witness, want.witness, c)
        want, got = spectral_leq_componentwise(x, y), spectral_leq_componentwise(sx, sy)
        assert got.holds == want.holds
        if not want.holds:
            assert got.witness[0] == want.witness[0]
            assert_point_scaled(got.witness[1], want.witness[1], c)
        want = olson_necessity_scan(x, y, SCAN_DEPTH)
        got = olson_necessity_scan(sx, sy, SCAN_DEPTH)
        assert (got.holds, got.witness) == (want.holds, want.witness)


@given(pair=integer_pairs(low=0), k=st.integers(-40, 40), shift=st.integers(-8, 8),
       salt=st.integers(0, 10_000))
def test_conjugation_and_shift_keep_verdicts(pair, k, shift, salt):
    # integer spectra scaled by 2^k, shifted by an integer multiple of 2^k I
    # and conjugated by a unitary u
    truth = pair[4]
    u = random_unitary(fresh_rng(salt), pair[0].shape[0])
    plain = both_ways(*pair[:4])
    moved = both_ways(*pair[:4], c=2.0 ** k, shift=shift, u=u)
    for (x, y), (tx, ty), want in zip(plain, moved, truth or (None, None)):
        verdicts = {spectral_leq(tx, ty).holds, spectral_leq_componentwise(tx, ty).holds,
                    spectral_leq_componentwise(x, y).holds}
        assert verdicts == {spectral_leq(x, y).holds}
        if want is not None:
            assert verdicts == {want}


@st.composite
def shared_basis_pairs(draw):
    """(q, eigs_a, eigs_b): kappa 1-3, n 1-6, integer levels -1..3 in one
    eigenbasis q. b moves each level by a step in {-1, 0, 1} or in {0, 1},
    and half the time leaves the trailing components as they are."""
    kappa = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    rng = fresh_rng(draw(st.integers(0, 10_000)))
    eigs_a = rng.integers(-1, 4, size=(kappa, n)).astype(np.float64)
    steps = rng.integers(draw(st.sampled_from([-1, 0])), 2, size=(kappa, n))
    if draw(st.booleans()):
        steps[1:] = 0
    return random_unitary(rng, n), eigs_a, eigs_a + steps


def issue_pair(scale: float = 1.0):
    """A = (q diag(0,1,1,2) q^T, q diag(1,1,2,2) q^T) and B = (q diag(1,1,2,2) q^T,
    q diag(1,2,2,3) q^T), q the Q factor of a seeded normal 4x4 matrix; A <= B."""
    q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(4, 4)))

    def ops(*diags):
        return [q @ np.diag(np.asarray(d, dtype=np.float64)) @ q.T * scale for d in diags]

    return ops([0, 1, 1, 2], [1, 1, 2, 2]), ops([1, 1, 2, 2], [1, 2, 2, 3])


def transport_outcome(x, y):
    """restricted_monotone_check's verdict for sum at iota=1, or the
    hypothesis it refused."""
    try:
        return restricted_monotone_check(x, y, sum_fn(), iota=1).holds
    except PreconditionError as exc:
        return exc.hypothesis


ISSUE_EIGS = (np.array([[0.0, 1, 1, 2], [1, 1, 2, 2]]), np.array([[1.0, 1, 2, 2], [1, 2, 2, 3]]))


@given(pair=shared_basis_pairs(), k=st.integers(-1000, 1000))
@example(pair=(np.linalg.qr(np.random.default_rng(0).normal(size=(4, 4)))[0], *ISSUE_EIGS),
         k=-565)
@example(pair=(np.linalg.qr(np.random.default_rng(0).normal(size=(4, 4)))[0], *ISSUE_EIGS),
         k=-830)
def test_exact_scaling_keeps_verdicts_across_the_float_range(pair, k):
    # 2^-565 and 2^-830 put the squared entries below the float range, where
    # an unscaled Frobenius norm reads 0; 2^1000 puts them above it
    c = 2.0 ** k
    for x, y in both_ways(pair[0], pair[0], *pair[1:]):
        sx, sy = (validate_tuple([c * m for m in t.matrices()]) for t in (x, y))
        spread = max(float(np.max(np.abs(joint_measure(t).points()))) for t in (x, y))

        def assert_scaled(got, want):
            assert np.max(np.abs(np.asarray(got) / c - want)) <= TOL * spread

        for t, st_ in ((x, sx), (y, sy)):
            assert joint_measure(st_).n_atoms() == joint_measure(t).n_atoms()
            assert is_positive_tuple(st_) == is_positive_tuple(t)
        want, got = spectral_leq(x, y), spectral_leq(sx, sy)
        assert got.holds == want.holds
        if not want.holds:
            assert_scaled(got.witness, want.witness)
        want, got = spectral_leq_componentwise(x, y), spectral_leq_componentwise(sx, sy)
        assert got.holds == want.holds
        if not want.holds:
            assert got.witness[0] == want.witness[0]
            assert_scaled(got.witness[1], want.witness[1])
        assert ([loewner_leq(a, b) for a, b in zip(sx.ops, sy.ops)]
                == [loewner_leq(a, b) for a, b in zip(x.ops, y.ops)])
        assert transport_outcome(sx, sy) == transport_outcome(x, y)


def test_check_order_at_1e_170_reads_as_at_scale_1(tmp_path, capsys):
    # the pair multiplied by 1e-170 failed spectral_leq with residual 0.52:
    # its norms read 0, so no eigenvalue ties were merged
    docs = []
    for scale in (1.0, 1e-170):
        files = []
        for name, ops in zip("ab", issue_pair(scale)):
            save_json(str(tmp_path / f"{name}.json"), tuple_to_dict(validate_tuple(ops)))
            files.append(str(tmp_path / f"{name}.json"))
        assert main(["check-order", *files, "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        docs.append(json.loads(captured.out))
    assert [[(v["name"], v["holds"]) for v in doc["verdicts"]] for doc in docs] == [
        [("spectral_leq", True), ("componentwise", True), ("routes_agree", True)]] * 2


def test_loewner_leq_at_1e_250_reads_as_at_scale_1():
    for scale in (1.0, 1e-250):
        (a1, _), (b1, _) = issue_pair(scale)
        assert loewner_leq(a1, b1) and not loewner_leq(b1, a1)


@pytest.mark.parametrize("k", [0, -565])
def test_unequal_trailing_components_are_refused_at_any_scale(k):
    # at 2^-565 the gap between diag(1, 1) and diag(1, 2) read 0
    c = 2.0 ** k
    a = (np.diag([0.0, 1.0]) * c, np.diag([1.0, 1.0]) * c)
    b = (np.diag([1.0, 1.0]) * c, np.diag([1.0, 2.0]) * c)
    with pytest.raises(PreconditionError, match="trailing components equal"):
        restricted_monotone_check(a, b, sum_fn(), iota=1)


@pytest.mark.parametrize("scale", [1.0, 1e160, 1e-160])
def test_a_nilpotent_matrix_is_not_normal_at_any_scale(scale):
    # at 1e160 the unscaled defect was nan, at 1e-160 it was 0.0
    with pytest.raises(NormalityError):
        NormalOperator.from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]) * scale)


@pytest.mark.parametrize("k", [-565, -830, 1000])
def test_reconstruction_defect_scales_with_the_tuple(k):
    # unscaled, the defect read 0.0 at 2^-565 and 2^-830, so selftest's
    # bound on it held there whatever the measure
    t = tuple_from_eigs(random_unitary(fresh_rng(5), 4), ISSUE_EIGS[0])
    c = 2.0 ** k
    scaled = validate_tuple([c * m for m in t.matrices()])
    want = joint_measure(t).reconstruction_defect(t)
    got = joint_measure(scaled).reconstruction_defect(scaled) / c
    # the same roundoff, up to how eigh rounds at each scale
    assert 0 < want / 16 <= got <= 16 * want


@pytest.mark.parametrize("scale", [1e200, 2.0, 1e-200])
def test_a_scaled_projection_is_refused_without_warnings(scale):
    # at 1e200 the unscaled defect was nan, read as a projection with three
    # numpy warnings; at 1e-200 it read 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="not a projection"):
            infimum_probe([scale * np.diag([1.0, 0.0])], [np.diag([1.0, 0.0])])


VECTOR_TUPLE = [np.diag([0.5, 2.0, 1.0])]
# zero, or a magnitude whose products with 2^-1000 and 2^1000 stay normal
VECTOR_PARTS = st.one_of(st.just(0.0), st.floats(2.0 ** -20, 2.0 ** 20),
                         st.floats(-2.0 ** 20, -2.0 ** -20))


def vector_outcome(h):
    membership = bounded_vector_membership(VECTOR_TUPLE, h, [1.5])
    return membership, growth_ratio(VECTOR_TUPLE, [np.eye(3)], h).shell_maxima


@given(h=st.lists(VECTOR_PARTS, min_size=6, max_size=6).map(
    lambda parts: np.array(parts).view(np.complex128)), k=st.integers(-1000, 1000))
# at about 1e-160 and 1e-170 the squared entries left the float range and
# the residual read 0, so non-members were members and every shell read 0;
# at about 1e200 the residual was inf and the growth ratio raised
@example(h=np.array([1.0, 1e-3, 1.0], dtype=np.complex128), k=-532)
@example(h=np.array([0.0, 1.0, 0.0], dtype=np.complex128), k=-565)
@example(h=np.array([0.0, 1.0, 0.0], dtype=np.complex128), k=664)
@example(h=np.ones(3, dtype=np.complex128), k=-565)
@example(h=np.ones(3, dtype=np.complex128), k=664)
def test_vector_checks_do_not_depend_on_the_scale_of_h(h, k):
    want, want_maxima = vector_outcome(h)
    got, got_maxima = vector_outcome(np.ldexp(h.view(np.float64), k).view(np.complex128))
    assert (got.member, got.growth_member) == (want.member, want.growth_member)
    assert got.growth_rate.hex() == want.growth_rate.hex()
    assert {s: m.hex() for s, m in got_maxima.items()} == {
        s: m.hex() for s, m in want_maxima.items()}
    with np.errstate(over="ignore"):
        residual = np.ldexp(want.residual, k)
    if np.isfinite(residual):
        assert got.residual.hex() == float(residual).hex()


def test_loewner_leq_near_the_float_limit():
    # B - A = diag(3e308, 0) is PSD, though it is past the float range
    a, b = np.diag([-1.5e308, 0.0]), np.diag([1.5e308, 0.0])
    assert loewner_leq(a, b) and not loewner_leq(b, a)


def test_commutator_norm_scales_exactly():
    a = np.array([[1.0, 2.0], [2.0, 1.0]])
    b = np.diag([1.0, 2.0])
    want = commutator_norm(a, b)
    # squaring the commutator's entries overflows, though its norm does not
    assert commutator_norm(a * 2.0 ** 300, b * 2.0 ** 300) == want * 2.0 ** 600
    assert commutator_norm(a * 2.0 ** -300, b * 2.0 ** -300) == want * 2.0 ** -600
    # past the float range it reads inf; commuting operators read 0 at any scale
    assert commutator_norm(a * 1e200, b * 1e200) == np.inf
    assert commutator_norm(b * 1e200, b * 1e200) == 0.0


def test_scan_decides_relative_to_the_monomials():
    # b raises one eigenvalue of A_1, so a <= b and every A^alpha <= B^alpha;
    # A_2's spectrum near 1e6 puts roundoff of B^alpha - A^alpha far above
    # any threshold taken relative to that difference
    levels = np.array([[1.0, 2.0, 3.0, 1.0, 2.0, 3.0], [1e6, 2e6, 3e6, 4e6, 5e6, 6e6]])
    raised = levels.copy()
    raised[0, 0] += 1.0
    for salt in range(20):
        q = random_unitary(fresh_rng(salt), 6)
        a, b = tuple_from_eigs(q, levels), tuple_from_eigs(q, raised)
        assert spectral_leq(a, b).holds
        verdict = olson_necessity_scan(a, b, 1)
        assert verdict.holds, (salt, verdict)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
@pytest.mark.parametrize("check", [
    spectral_leq,
    spectral_leq_componentwise,
    lambda a, b, tol: distribution_order(joint_measure(a), joint_measure(b), tol=tol),
    lambda a, b, tol: olson_necessity_scan(a, b, 3, tol=tol),
    lambda a, b, tol: scaled_monomial_check(a, b, lambda alpha: 1.0, 3, tol=tol),
], ids=["spectral_leq", "componentwise", "distribution_order", "olson_scan", "scaled_scan"])
def test_order_checks_refuse_malformed_tol(check, tol):
    # b <= a fails at the default tol; a NaN tol made it hold, and a
    # negative one made a <= a fail
    a, b = positive_ordered_pair(fresh_rng(5), 4, 2)
    assert not spectral_leq(b, a).holds
    for x, y in ((b, a), (a, a)):
        with pytest.raises(ParameterError, match="tol must be finite and nonnegative"):
            check(x, y, tol=tol)


ONE = np.eye(2)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
@pytest.mark.parametrize("check", [
    lambda tol: validate_tuple([ONE, ONE], tol_comm=tol),
    lambda tol: proj_leq(Projection.identity(2), Projection.identity(2), tol=tol),
    lambda tol: is_psd(ONE, tol=tol),
    lambda tol: loewner_leq(ONE, ONE, tol=tol),
    lambda tol: is_positive_tuple(validate_tuple([ONE]), tol=tol),
    lambda tol: audit_iota_increasing(lambda x: -x[0], [(0.0,), (1.0,)], 1, tol=tol),
    lambda tol: bounded_vector_membership(validate_tuple([ONE]), ONE[0], [1.0], tol=tol),
    lambda tol: NormalOperator.from_matrix(ONE, tol=tol),
    lambda tol: infimum_probe(validate_tuple([ONE]), validate_tuple([ONE]), tol=tol),
    lambda tol: HermitianOperator.from_matrix(ONE, tol=tol),
    lambda tol: fractional_fn([0.5], tol=tol),
    lambda tol: fractional_fn([0.5, 0.5], tol=[0.0, tol]),
], ids=["commutation", "proj_leq", "is_psd", "loewner_leq", "positive_tuple",
        "audit", "bounded_vector", "normal", "infimum_probe", "hermitian",
        "fractional", "fractional_per_axis"])
def test_every_tolerance_is_checked(check, tol):
    # a NaN tolerance passed every gate: a decreasing function its audit, a
    # non-commuting pair validate_tuple, a non-Hermitian matrix from_matrix
    with pytest.raises(ParameterError, match="must be finite and nonnegative"):
        check(tol)
