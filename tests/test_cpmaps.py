from dataclasses import replace

import numpy as np
import pytest

from prostar.algebra import FiniteCStarAlgebra
from prostar.cpmaps import CompletelyPositiveMap, require_certified_cp
from prostar.errors import PreconditionError, StructuralError
from prostar.modules import HilbertModule
from prostar.recipes import random_cp_map, unitalize

M2 = FiniteCStarAlgebra((2,))
C = FiniteCStarAlgebra((1,))


def transpose_map():
    e = HilbertModule.free(C, 2)
    return CompletelyPositiveMap.from_dense_images(
        M2, e, [b.dense().T for b in M2.basis()]
    )


def test_apply_identity_embedding():
    e = HilbertModule.free(C, 2)
    rho = CompletelyPositiveMap.identity_representation(M2, e)
    e11 = M2.basis_element(M2.basis_index(0, 0, 0))
    assert np.allclose(rho(e11).flat, e11.dense())


def test_trace_state_on_unit():
    e = HilbertModule.free(C, 1)
    rho = CompletelyPositiveMap.trace_state(M2, e)
    assert rho(M2.unit()).flat == pytest.approx(np.array([[1.0]]))
    two_id = rho(2.0 * M2.unit())
    assert two_id.flat == pytest.approx(np.array([[2.0]]))


def test_linearity(rng):
    e = HilbertModule.free(C, 2)
    rho = random_cp_map(M2, e, rng)
    a, b = M2.random_element(rng), M2.random_element(rng)
    lam = 0.7 - 0.2j
    lhs = rho(a + lam * b).flat
    rhs = rho(a).flat + lam * rho(b).flat
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_hermiticity_preservation(rng):
    e = HilbertModule.free(C, 2)
    rho = random_cp_map(M2, e, rng)
    a = M2.random_element(rng)
    assert np.abs(rho(a.adjoint()).flat - rho(a).flat.conj().T).max() <= 1e-11


class TestChoi:
    def test_identity_map_choi(self):
        e = HilbertModule.free(C, 2)
        rho = CompletelyPositiveMap.identity_representation(M2, e)
        (choi,) = rho.choi_matrices()
        vals = np.linalg.eigvalsh(choi)
        assert np.allclose(sorted(vals), [0.0, 0.0, 0.0, 2.0], atol=1e-12)

    def test_transpose_choi_is_swap(self):
        rho = transpose_map()
        (choi,) = rho.choi_matrices()
        # independent oracle: the swap operator on C^2 (x) C^2
        swap = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                swap[i * 2 + j, j * 2 + i] = 1.0
        assert np.allclose(choi, swap)
        cert = rho.verify_completely_positive()
        assert not cert.is_cp
        assert cert.min_eigenvalue == pytest.approx(-1.0, abs=1e-10)

    def test_zero_map(self):
        e = HilbertModule.free(C, 2)
        rho = CompletelyPositiveMap.zero(M2, e)
        (choi,) = rho.choi_matrices()
        assert np.abs(choi).max() == 0.0
        assert rho.verify_completely_positive().is_cp

    def test_star_homomorphism_is_cp(self):
        e = HilbertModule.free(C, 2)
        rho = CompletelyPositiveMap.identity_representation(M2, e)
        cert = rho.verify_completely_positive()
        assert cert.is_cp and cert.min_eigenvalue >= -1e-10

    def test_mixture_is_cp(self):
        e = HilbertModule.free(C, 2)
        ident = CompletelyPositiveMap.identity_representation(M2, e)
        values = [
            0.5 * ident.basis_values[i].flat
            + 0.5 * (b.trace() / 2.0) * np.eye(2, dtype=complex)
            for i, b in enumerate(M2.basis())
        ]
        mix = CompletelyPositiveMap.from_dense_images(M2, e, values)
        assert mix.verify_completely_positive().is_cp

    def test_multiblock_source(self, rng):
        alg = FiniteCStarAlgebra((2, 1))
        e = HilbertModule.free(C, 2)
        rho = random_cp_map(alg, e, rng)
        cert = rho.verify_completely_positive()
        assert len(cert.choi_min_eigenvalues) == 2
        assert cert.is_cp


class TestAmplify:
    def test_order_one_is_same(self, rng):
        e = HilbertModule.free(C, 2)
        rho = random_cp_map(M2, e, rng)
        assert rho.amplify(1) is rho

    def test_identity_amplified(self):
        e = HilbertModule.free(C, 2)
        rho = CompletelyPositiveMap.identity_representation(M2, e)
        amp = rho.amplify(2)
        assert amp.source.block_sizes == (4,)
        assert amp.module.flat_dim == 4
        # the amplified map is the identity on M2(M2) = M4 (flattened action)
        for b in amp.source.basis():
            assert np.allclose(amp(b).flat, b.dense(), atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cp_implies_positivity_at_level_n(self, n, rng):
        e = HilbertModule.free(C, 2)
        rho = unitalize(random_cp_map(M2, e, rng))
        require_certified_cp(rho)
        amp = rho.amplify(n)
        for _ in range(3):
            x = amp.source.random_element(rng)
            pos = x.adjoint() * x
            out = amp(pos)
            # independent eigencheck of the output operator
            assert np.linalg.eigvalsh((out.flat + out.flat.conj().T) / 2).min() >= -1e-10

    def test_invalid_order(self, rng):
        e = HilbertModule.free(C, 2)
        rho = random_cp_map(M2, e, rng)
        with pytest.raises(PreconditionError):
            rho.amplify(0)


class TestNondegeneracy:
    def test_unital_passes(self):
        e = HilbertModule.free(C, 2)
        rho = CompletelyPositiveMap.identity_representation(M2, e)
        rep = rho.verify_nondegenerate()
        assert rep.passed and rep.max_residual == 0.0

    def test_half_scaling_fails(self):
        e = HilbertModule.free(C, 2)
        rho = CompletelyPositiveMap.from_dense_images(
            M2, e, [0.5 * b.dense() for b in M2.basis()]
        )
        rep = rho.verify_nondegenerate()
        assert not rep.passed
        assert rep.max_residual == pytest.approx(0.5)

    def test_trace_state_unital(self):
        e = HilbertModule.free(C, 1)
        rho = CompletelyPositiveMap.trace_state(M2, e)
        assert rho.verify_nondegenerate().passed


def test_require_certified_rejects_transpose():
    with pytest.raises(PreconditionError):
        require_certified_cp(transpose_map())


def test_map_has_no_certificate_field():
    rho = transpose_map()
    cert = rho.verify_completely_positive()
    with pytest.raises(TypeError):
        CompletelyPositiveMap(M2, rho.module, rho.basis_values, certification=cert)


def test_replaced_map_is_certified_on_its_own_values():
    """replace() of a certified CP map by its transpose is refused."""
    e = HilbertModule.free(C, 2)
    rho = CompletelyPositiveMap.identity_representation(M2, e)
    assert require_certified_cp(rho).is_cp
    transposed = tuple(rho.basis_values[M2.basis_index(0, j, i)] for i in range(2) for j in range(2))
    with pytest.raises(PreconditionError):
        require_certified_cp(replace(rho, basis_values=transposed))


def test_source_mismatch(rng):
    e = HilbertModule.free(C, 2)
    rho = random_cp_map(M2, e, rng)
    with pytest.raises(StructuralError):
        rho(FiniteCStarAlgebra((3,)).random_element(rng))


def test_certificate_reused_only_at_its_tolerance():
    """x -> x + 9e-6 x^T has Choi minimum -9e-6: CP at 1e-3, not at 1e-12."""
    e = HilbertModule.free(C, 2)
    rho = CompletelyPositiveMap.from_dense_images(
        M2, e, [b.dense() + 9e-6 * b.dense().T for b in M2.basis()]
    )
    assert rho.verify_completely_positive(1e-3).is_cp
    with pytest.raises(PreconditionError):
        require_certified_cp(rho, 1e-12)
    assert require_certified_cp(rho, 1e-3).is_cp
