"""The product table and the streamed pairwise-product kernel.

Every certificate that checks all basis pairs goes through
`linalg.max_product_residual`. `pairwise_reference` keeps the loops it
replaced; `test_acceptance.py` compares the two on the acceptance grid, and
the tests here cover the table, the negative controls and the chunking.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairwise_reference as ref
from prostar import linalg
from prostar.algebra import FiniteCStarAlgebra, StarHomomorphism, verify_star_homomorphism
from prostar.cpmaps import CompletelyPositiveMap
from prostar.crossed import build_crossed_product, extend_covariant_cp
from prostar.dilation import covariant_dilation
from prostar.modules import HilbertModule
from prostar.recipes import dilation_instance

M2 = FiniteCStarAlgebra((2,))


@pytest.mark.parametrize("sizes", [(1,), (2,), (3,), (2, 1), (1, 1, 2), (1, 3, 2), (2, 2, 2, 3)])
def test_product_table_matches_basis_products(sizes):
    alg = FiniteCStarAlgebra(sizes)
    assert np.array_equal(alg.structure_constants(), ref.structure_constants(alg))
    assert not alg.product_table.flags.writeable


def test_negative_controls_fail_with_reference_residual():
    rho = CompletelyPositiveMap.trace_state(M2, HilbertModule.free(FiniteCStarAlgebra((1,)), 2))
    check = rho.verify_representation().check("multiplicative")
    assert not check.passed
    assert check.residual == pytest.approx(ref.representation_residual(rho), rel=ref.REL)

    broken = StarHomomorphism(M2, M2, 2.0 * np.eye(4))
    check = verify_star_homomorphism(broken).check("multiplicative")
    assert not check.passed
    assert check.residual == pytest.approx(ref.star_homomorphism_residual(broken), rel=ref.REL)


def test_chunk_boundaries_mid_basis(monkeypatch):
    """Chunks of one row, and of three rows of M2⊕C (splitting its M2 block), change nothing."""
    rho, act, rep = dilation_instance("m2+c", "m2", 2, "s3", seed=7000)
    d = covariant_dilation(rho, act, rep)
    xp = build_crossed_product(act)
    maps = (d.representation, extend_covariant_cp(d, xp).integrated.standard_map)
    scales = [ref.product_scale(m._value_tensor) for m in maps] + [1.0]

    def residuals():
        out = [m.verify_representation().check("multiplicative").residual for m in maps]
        rebuilt = build_crossed_product(act)
        return out + [rebuilt.embedding_report.check("convolution -> product").residual]

    before = residuals()
    dim, fd = maps[0]._value_tensor.shape[:2]
    for budget in (1, 3 * dim * fd * fd * 16):
        monkeypatch.setattr(linalg, "PRODUCT_CHUNK_BYTES", budget)
        for new, old, scale in zip(residuals(), before, scales):
            assert abs(new - old) <= ref.REL * scale
        new = maps[0].verify_representation().check("multiplicative").residual
        ref.assert_agrees(new, ref.representation_residual(maps[0]), scales[0], 1e-9)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 6),
    n=st.integers(1, 6),
    d=st.integers(1, 4),
    k=st.integers(1, 5),
    gather=st.booleans(),
    budget=st.integers(1, 4096),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_matches_dense_formula(m, n, d, k, gather, budget, seed):
    rng = np.random.default_rng(seed)
    left = linalg.random_complex(rng, m * d, d).reshape(m, d, d)
    right = linalg.random_complex(rng, n * d, d).reshape(n, d, d)
    values = linalg.random_complex(rng, k * d, d).reshape(k, d, d)
    if gather:
        coeffs = rng.integers(-1, k, size=(m, n))
        dense = np.zeros((m, n, k), dtype=np.complex128)
        a, b = np.nonzero(coeffs >= 0)
        dense[a, b, coeffs[a, b]] = 1.0
    else:
        coeffs = dense = linalg.random_complex(rng, m * n, k).reshape(m, n, k)
    products = np.matmul(left[:, None], right[None, :])
    expected = np.tensordot(dense, values, axes=([2], [0]))
    want = np.sqrt(np.max(np.sum(np.abs(products - expected) ** 2, axis=(2, 3))))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "PRODUCT_CHUNK_BYTES", budget)
        got = linalg.max_product_residual(left, right, values, coeffs)
    assert got == pytest.approx(want, rel=1e-12)
