import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prostar.algebra import (
    FiniteCStarAlgebra,
    StarHomomorphism,
    bound_or_exact,
    verify_star_homomorphism,
    wedderburn_decompose,
)
from prostar.errors import PreconditionError, StructuralError

from conftest import power_iteration_top

M2 = FiniteCStarAlgebra((2,))
M2M3 = FiniteCStarAlgebra((2, 3))


def unit_elem(alg, block, i, j):
    return alg.basis_element(alg.basis_index(block, i, j))


def test_unit_law(rng):
    a = M2M3.random_element(rng)
    assert (M2M3.unit() * a - a).frobenius() == 0.0
    assert (a * M2M3.unit() - a).frobenius() == 0.0


def test_matrix_unit_product():
    e12 = unit_elem(M2, 0, 0, 1)
    e21 = unit_elem(M2, 0, 1, 0)
    e11 = unit_elem(M2, 0, 0, 0)
    assert ((e12 * e21) - e11).frobenius() == 0.0


def test_product_adjoint_entrywise(rng):
    m3 = FiniteCStarAlgebra((3,))
    a, b = m3.random_element(rng), m3.random_element(rng)
    lhs = (a * b).adjoint().blocks[0]
    # independent recomputation with raw numpy
    rhs = (b.blocks[0].conj().T) @ (a.blocks[0].conj().T)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_operator_norm_against_power_iteration(rng):
    m4 = FiniteCStarAlgebra((4,))
    a = m4.random_element(rng)
    gram = a.blocks[0].conj().T @ a.blocks[0]
    oracle = np.sqrt(power_iteration_top(gram))
    assert abs(a.operator_norm() - oracle) <= 1e-8 * oracle


@pytest.mark.parametrize("blocks", [(2,), (2, 3), (4, 4), (8,)])
def test_cstar_identity_and_submultiplicativity(blocks, rng):
    alg = FiniteCStarAlgebra(blocks)
    for _ in range(5):
        a, b = alg.random_element(rng), alg.random_element(rng)
        na = a.operator_norm()
        assert abs((a.adjoint() * a).operator_norm() - na**2) <= 1e-9 * max(1.0, na**2)
        assert (a * b).operator_norm() <= na * b.operator_norm() + 1e-9


def test_cstar_identity_dim_64(rng):
    alg = FiniteCStarAlgebra((64,))
    a = alg.random_element(rng)
    na = a.operator_norm()
    assert abs((a.adjoint() * a).operator_norm() - na**2) <= 1e-9 * na**2


def test_identity_norm():
    assert M2M3.unit().operator_norm() == pytest.approx(1.0)
    assert unit_elem(M2, 0, 0, 1).operator_norm() == pytest.approx(1.0)


def test_is_positive(rng):
    a = M2M3.random_element(rng)
    assert (a.adjoint() * a).is_positive().positive
    bad = M2.from_blocks([np.diag([1.0, -1e-3])])
    w = bad.is_positive(tol=1e-10)
    assert not w.positive
    assert w.min_eigenvalue == pytest.approx(-1e-3, rel=1e-6)


def test_psd_sqrt_examples(rng):
    d = M2.from_blocks([np.diag([4.0, 9.0])])
    assert (d.psd_sqrt() - M2.from_blocks([np.diag([2.0, 3.0])])).frobenius() <= 1e-12
    # projections are fixed points
    p = M2.from_blocks([np.array([[0.5, 0.5], [0.5, 0.5]])])
    assert (p.psd_sqrt() - p).frobenius() <= 1e-9
    # random PSD reconstructs
    m8 = FiniteCStarAlgebra((8,))
    a = m8.random_element(rng)
    pos = a.adjoint() * a
    s = pos.psd_sqrt()
    assert (s * s - pos).operator_norm() <= 1e-9 * (1.0 + pos.operator_norm())
    with pytest.raises(PreconditionError):
        M2.from_blocks([np.diag([1.0, -1.0])]).psd_sqrt()


def test_trace_functional(rng):
    assert M2M3.unit().trace() == pytest.approx(5.0)
    assert unit_elem(M2, 0, 0, 1).trace() == 0.0
    a, b = M2M3.random_element(rng), M2M3.random_element(rng)
    assert abs((a * b).trace() - (b * a).trace()) <= 1e-12
    assert (a.adjoint() * a).trace().real > 0.0


@settings(max_examples=30, deadline=None)
@given(
    entries=st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=8, max_size=8
    )
)
def test_symmetrization_is_hermitian(entries):
    block = np.array(entries[:4]).reshape(2, 2) + 1j * np.array(entries[4:]).reshape(2, 2)
    a = M2.from_blocks([block])
    sym = 0.5 * (a + a.adjoint())
    assert (sym - sym.adjoint()).frobenius() == 0.0


def test_adjoint_involution(rng):
    a = M2M3.random_element(rng)
    assert (a.adjoint().adjoint() - a).frobenius() == 0.0


def test_algebra_mismatch_raises(rng):
    with pytest.raises(StructuralError):
        M2.random_element(rng) * M2M3.random_element(rng)


class TestStarHomomorphisms:
    def test_identity(self):
        rep = verify_star_homomorphism(StarHomomorphism.identity(M2))
        assert rep.passed and rep.max_residual == 0.0

    def test_block_projection(self):
        pi = StarHomomorphism.block_projection(M2M3, [0])
        rep = verify_star_homomorphism(pi)
        assert rep.passed and pi.is_surjective()
        for name in ("multiplicative", "star", "unital"):
            assert rep.check(name).passed

    def test_surjectivity_is_the_rank_of_the_action_matrix(self):
        assert StarHomomorphism.block_projection(M2M3, [0]).is_surjective()
        target = FiniteCStarAlgebra((2, 2))
        diagonal = StarHomomorphism.from_images(
            M2, target, [target.from_blocks([b.blocks[0], b.blocks[0]]) for b in M2.basis()]
        )
        assert verify_star_homomorphism(diagonal).passed
        assert not diagonal.is_surjective()

    def test_broken_multiplicativity(self):
        # send E12 to E12 + E11, keep the rest; evaluated on (E12, E21)
        images = list(M2.basis())
        images[M2.basis_index(0, 0, 1)] = (
            M2.basis_element(M2.basis_index(0, 0, 1))
            + M2.basis_element(M2.basis_index(0, 0, 0))
        )
        phi = StarHomomorphism.from_images(M2, M2, images)
        rep = verify_star_homomorphism(phi)
        assert not rep.check("multiplicative").passed
        assert rep.check("multiplicative").residual >= 1.0

    def test_composition_and_inverse(self, rng):
        u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        ad = StarHomomorphism.conjugation_by(M2, [u])
        inv = ad.inverse()
        composed = ad.compose(inv)
        assert np.allclose(composed.action_matrix, np.eye(4), atol=1e-12)


class TestWedderburn:
    def test_already_standard(self):
        span = [b.dense() for b in M2M3.basis()]
        w = wedderburn_decompose(span, seed=0)
        assert w.standard_form.block_sizes == (2, 3)
        assert w.report.passed

    def test_commutative_span(self):
        span = [np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex)]
        w = wedderburn_decompose(span, seed=0)
        assert w.standard_form.block_sizes == (1, 1)

    def test_s3_regular_representation(self):
        from itertools import permutations

        perms = list(permutations(range(3)))
        index = {p: i for i, p in enumerate(perms)}
        span = []
        for p in perms:
            mat = np.zeros((6, 6), dtype=complex)
            for q in perms:
                mat[index[tuple(p[q[x]] for x in range(3))], index[q]] = 1.0
            span.append(mat)
        w = wedderburn_decompose(span, seed=0)
        # Character theory gives irreducible dimensions {1, 1, 2}; cross-check
        # the center dimension (= number of blocks) by brute force.
        onb = np.linalg.svd(np.stack([m.ravel() for m in span], axis=1), full_matrices=False)[0]
        basis = [onb[:, i].reshape(6, 6) for i in range(onb.shape[1])]
        comm = np.stack(
            [
                np.concatenate([(x @ b - b @ x).ravel() for b in basis])
                for x in basis
            ],
            axis=1,
        )
        center_dim = comm.shape[1] - np.linalg.matrix_rank(comm, tol=1e-9)
        assert center_dim == 3
        assert w.standard_form.block_sizes == (1, 1, 2)
        assert sum(m * m for m in w.standard_form.block_sizes) == 6
        assert w.report.passed and w.report.max_residual <= 1e-8

    def test_dimension_conservation_and_iso(self, rng):
        # span generated by a random unitary conjugate of M2 ⊕ C inside M3
        u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        alg = FiniteCStarAlgebra((2, 1))
        span = [u @ b.dense() @ u.conj().T for b in alg.basis()]
        w = wedderburn_decompose(span, seed=1)
        assert w.standard_form.block_sizes == (1, 2)
        assert w.standard_form.linear_dim == 5
        assert w.report.check("span round trip").residual <= 1e-8

    def test_rejects_non_star_closed(self):
        span = [np.eye(2, dtype=complex), np.array([[0.0, 1.0], [0.0, 0.0]])]
        with pytest.raises(PreconditionError):
            wedderburn_decompose(span)

    def test_rejects_non_algebra(self):
        # {I, X + iY-ish} star-closed but not closed under products
        x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        span = [np.eye(2, dtype=complex), x]
        # x*x = I so this IS closed; use a genuinely non-closed set in M3
        a = np.zeros((3, 3), dtype=complex)
        a[0, 1] = 1.0
        a_star = a.conj().T
        with pytest.raises(PreconditionError):
            wedderburn_decompose([np.eye(3, dtype=complex), a + a_star])


def test_bound_or_exact_decides_on_every_part():
    """The bound stands in for the exact value only where every part of it is
    at most the threshold; the exact value is formed only otherwise."""
    formed = []

    def exact():
        formed.append(True)
        return "exact value", "exact"

    assert bound_or_exact(1e-12, "bound", 1e-9, exact) == (1e-12, "bound")
    assert bound_or_exact((1e-12, 1e-9), "bound", 1e-9, exact) == ((1e-12, 1e-9), "bound")
    assert formed == []
    assert bound_or_exact((1e-12, 2e-9), "bound", 1e-9, exact) == ("exact value", "exact")
    assert bound_or_exact(2e-9, "bound", 1e-9, exact) == ("exact value", "exact")
    assert formed == [True, True]
