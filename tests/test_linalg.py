import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prostar.errors import PreconditionError
from prostar.linalg import (
    _fix_phases,
    hermitian_eigendecomposition,
    psd_root,
    random_complex,
    random_hermitian,
    spectral_norm,
)

from conftest import power_iteration_top
from pairwise_reference import fix_phases_reference, jacobi_eigh

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
    s = psd_root(*hermitian_eigendecomposition(h))
    assert np.linalg.norm(s @ s - h) <= 1e-9 * np.linalg.norm(h)
    # The root keeps the support of h: it vanishes, up to sqrt of rounding, on
    # the kernel of h (the vectors that m* annihilates).
    kernel = np.linalg.svd(m.conj().T)[2][4:].conj().T
    assert np.linalg.norm(s @ kernel) <= 1e-6 * np.linalg.norm(s)


@settings(max_examples=80, deadline=None)
@given(
    rows=st.integers(1, 9),
    cols=st.integers(1, 9),
    zero_cols=st.lists(st.integers(0, 8), max_size=3),
    ties=st.lists(st.tuples(st.integers(0, 8), st.integers(-3, 3)), max_size=4),
    exponent=st.integers(-200, 200),
    seed=st.integers(0, 2**32 - 1),
)
def test_fix_phases_matches_column_loop(rows, cols, zero_cols, ties, exponent, seed):
    """All columns rotated at once give the column loop's phases bit for bit,
    with zero columns and with entries a few ulps either side of the 1e-8 cut."""
    rng = np.random.default_rng(seed)
    v = random_complex(rng, rows, cols) * 2.0**exponent
    for j, ulps in ties:
        col = v[:, j % cols]
        cut = (1.0 - 1e-8) * np.abs(col).max()
        for _ in range(abs(ulps)):
            cut = np.nextafter(cut, np.sign(ulps) * np.inf)
        col[0] = cut * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    for j in zero_cols:
        v[:, j % cols] = 0.0
    got, want = _fix_phases(v), fix_phases_reference(v)
    assert np.array_equal(got.view(np.float64), want.view(np.float64))
    assert np.array_equal(np.signbit(got.view(np.float64)), np.signbit(want.view(np.float64)))
