import numpy as np
import pytest

from prostar.errors import PreconditionError
from prostar.linalg import (
    hermitian_eigendecomposition,
    psd_sqrt_matrix,
    random_hermitian,
    spectral_norm,
)

from conftest import power_iteration_top
from pairwise_reference import jacobi_eigh

# The library's eigensolver and the independent Jacobi reference.
SOLVERS = {"lapack": hermitian_eigendecomposition, "jacobi": jacobi_eigh}


@pytest.mark.parametrize("n", [2, 5, 16, 33])
def test_jacobi_matches_lapack(n, rng):
    h = random_hermitian(rng, n)
    vals, vecs = jacobi_eigh(h)
    ref = np.linalg.eigvalsh(h)
    scale = np.linalg.norm(h)
    assert np.max(np.abs(vals - ref)) <= 1e-11 * scale
    assert np.linalg.norm((vecs * vals) @ vecs.conj().T - h) <= 1e-10 * scale
    assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(n)) <= 1e-10


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("n", [8, 32, 64])
def test_roundtrip_contract_up_to_64(solver, n, rng):
    h = random_hermitian(rng, n)
    vals, vecs = SOLVERS[solver](h)
    scale = np.linalg.norm(h)
    assert np.linalg.norm((vecs * vals) @ vecs.conj().T - h) <= 1e-10 * scale
    assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(n)) <= 1e-10
    assert np.all(np.diff(vals) >= 0)


def test_diagonal_example():
    vals, vecs = hermitian_eigendecomposition(np.diag([3.0, 1.0]))
    assert np.allclose(vals, [1.0, 3.0])
    # Columns are identity columns up to order.
    assert np.allclose(np.abs(vecs), [[0.0, 1.0], [1.0, 0.0]])


def test_reflection_example():
    vals, _ = hermitian_eigendecomposition(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(vals, [-1.0, 1.0])


def test_non_hermitian_rejected():
    with pytest.raises(PreconditionError):
        hermitian_eigendecomposition(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(PreconditionError):
        hermitian_eigendecomposition(np.zeros((2, 3)))


def test_eigenvector_phases_deterministic(rng):
    h = random_hermitian(rng, 12)
    a = hermitian_eigendecomposition(h)
    b = hermitian_eigendecomposition(h)
    assert np.array_equal(a[1], b[1])


def test_spectral_norm_against_power_iteration(rng):
    for _ in range(5):
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        top = power_iteration_top(m.conj().T @ m)
        assert abs(spectral_norm(m) - np.sqrt(top)) <= 1e-8 * max(1.0, np.sqrt(top))


def test_psd_sqrt_and_support(rng):
    m = rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4))
    h = m @ m.conj().T  # PSD of rank 4
    s = psd_sqrt_matrix(h)
    assert np.linalg.norm(s @ s - h) <= 1e-9 * np.linalg.norm(h)
    # The root keeps the support of h: it vanishes, up to sqrt of rounding, on
    # the kernel of h (the vectors that m* annihilates).
    kernel = np.linalg.svd(m.conj().T)[2][4:].conj().T
    assert np.linalg.norm(s @ kernel) <= 1e-6 * np.linalg.norm(s)
