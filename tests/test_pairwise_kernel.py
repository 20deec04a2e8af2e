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
from prostar.groups import UnitaryRepresentation, verify_unitary_representation
from prostar.modules import AdjointableOperator, HilbertModule
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
    """Chunks of one row, and of three rows of M2⊕C (splitting its M2 block), change nothing.

    The maps are rebuilt from their values under each budget: a map caches its
    residuals, so only a fresh one runs the chunked kernel again.
    """
    rho, act, rep = dilation_instance("m2+c", "m2", 2, "s3", seed=7000)
    d = covariant_dilation(rho, act, rep)
    xp = build_crossed_product(act)
    maps = (d.representation, extend_covariant_cp(d, xp).integrated.standard_map)
    scales = [ref.product_scale(m._value_tensor) for m in maps] + [1.0]
    streamed = linalg._streamed_residual
    calls = []

    def counted(*args):
        calls.append(args)
        return streamed(*args)

    def fresh(m):
        return CompletelyPositiveMap(m.source, m.module, m.basis_values)

    def map_residuals():
        return [fresh(m).verify_representation().check("multiplicative").residual for m in maps]

    def product_residual():
        rebuilt = build_crossed_product(act)
        return rebuilt.embedding_report.check("convolution -> product").residual

    before = map_residuals() + [product_residual()]
    dim, fd = maps[0]._value_tensor.shape[:2]
    monkeypatch.setattr(linalg, "_streamed_residual", counted)
    for budget in (1, 3 * dim * fd * fd * 16):
        monkeypatch.setattr(linalg, "PRODUCT_CHUNK_BYTES", budget)
        calls.clear()
        after = map_residuals()
        # Each fresh map streams the first-row table of its bound's relation term.
        assert len(calls) >= len(maps)
        for new, old, scale in zip(after + [product_residual()], before, scales):
            assert abs(new - old) <= ref.REL * scale
        new = fresh(maps[0]).verify_representation().check("multiplicative").residual
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


def _slack(stacks, coeffs, projection):
    """c_L·f_R + f_L·c_R + t·c_W, from dense arithmetic on the full stacks."""
    defect = [max(np.linalg.norm(x - projection @ x @ projection) for x in s) for s in stacks]
    size = [max(np.linalg.norm(x) for x in s) for s in stacks]
    t = float(np.max(np.sum(np.abs(coeffs), axis=2)))
    return defect[0] * size[1] + size[0] * defect[1] + t * defect[2]


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 5),
    n=st.integers(1, 5),
    d=st.integers(1, 6),
    k=st.integers(1, 5),
    rank=st.integers(0, 6),
    leak=st.sampled_from([0.0, 1e-12, 1e-6, 0.3]),
    gather=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_compressed_kernel_brackets_full_residual(m, n, d, k, rank, leak, gather, seed):
    """On the range of a rank-p projection: full <= compressed <= full + 2·slack.

    The compressed result is the p×p corner residual plus the slack, and the
    corner residual itself exceeds the full one by at most c_L·f_R.
    """
    rng = np.random.default_rng(seed)
    p = min(rank, d)
    basis = np.linalg.qr(linalg.random_complex(rng, d, d))[0][:, :p]
    projection = basis @ basis.conj().T

    def stack(count):
        inside = projection @ linalg.random_complex(rng, count * d, d).reshape(count, d, d) @ projection
        noise = linalg.random_complex(rng, count * d, d).reshape(count, d, d)
        off = noise - projection @ noise @ projection
        scale = max(np.linalg.norm(off), 1e-300)
        return inside + leak * off / scale

    left, right, values = stack(m), stack(n), stack(k)
    if gather:
        coeffs = rng.integers(-1, k, size=(m, n))
        dense = np.zeros((m, n, k), dtype=np.complex128)
        a, b = np.nonzero(coeffs >= 0)
        dense[a, b, coeffs[a, b]] = 1.0
    else:
        coeffs = dense = linalg.random_complex(rng, m * n, k).reshape(m, n, k)

    full = linalg.max_product_residual(left, right, values, coeffs)
    assert linalg.max_product_residual(left, right, values, coeffs, None) == full
    products = np.matmul(left[:, None], right[None, :])
    expected = np.tensordot(dense, values, axes=([2], [0]))
    want = np.sqrt(np.max(np.sum(np.abs(products - expected) ** 2, axis=(2, 3))))
    assert full == pytest.approx(want, rel=1e-12)

    got = linalg.max_product_residual(left, right, values, coeffs, basis)
    slack = _slack((left, right, values), dense, projection)
    rounding = 1e-12 * ref.product_scale(np.concatenate([left, right, values]))
    assert full <= got + rounding
    assert got <= full + 2.0 * slack + rounding


@pytest.mark.parametrize("leaky", ["left", "right", "values"])
def test_each_slack_term_is_attained(leaky):
    """Rank-one factors on d = 2, P = diag(1, 0), with one stack off the corner:
    the full residual equals the one slack term that stack carries
    (c_L·f_R, f_L·c_R or t·c_W), and the corner residual is 0."""
    e = np.eye(2, dtype=np.complex128)
    inside, out_left, out_right = np.outer(e[0], e[0]), np.outer(e[1], e[0]), np.outer(e[0], e[1])
    zero = np.zeros((2, 2), dtype=np.complex128)
    left, right, values = {
        "left": (out_left, inside, zero),
        "right": (inside, out_right, zero),
        "values": (zero, zero, np.outer(e[1], e[1])),
    }[leaky]
    coeffs = np.ones((1, 1, 1), dtype=np.complex128)
    if leaky != "values":
        coeffs = np.zeros_like(coeffs)
    stacks = (left[None], right[None], values[None])
    basis = e[:, :1]
    assert linalg.max_product_residual(*stacks, coeffs) == pytest.approx(1.0)
    assert linalg.max_product_residual(*stacks, coeffs, basis) == pytest.approx(1.0)


def test_free_module_keeps_full_flat_kernel():
    """P = 1 has no range basis, so certificates take the full-flat path unchanged."""
    module = HilbertModule.free(M2, 2)
    assert module.range_basis is None
    d = covariant_dilation(*dilation_instance("m2", "m2", 1, "trivial", seed=7000))
    basis = d.module.range_basis
    assert basis is not None and not basis.flags.writeable
    assert np.allclose(basis.conj().T @ basis, np.eye(basis.shape[1]), atol=1e-12)
    assert np.allclose(basis @ basis.conj().T, d.module.projection_flat, atol=1e-12)


def test_leak_off_the_corner_fails_multiplicative():
    """A representation on range(P) plus a second one off the corner is not into L_B(E).

    The full-flat products of Φ ⊕ Ψ multiply exactly, so the pairwise
    reference sees nothing; the corner check counts the off-range mass.
    """
    c = FiniteCStarAlgebra((1,))
    projection = np.diag([1.0, 1.0, 0.0, 0.0]).astype(np.complex128)
    module = HilbertModule(c, 4, projection)
    images = []
    for b in M2.basis():
        inside = np.zeros((4, 4), dtype=np.complex128)
        inside[:2, :2] = b.dense()
        images.append(inside)
    honest = CompletelyPositiveMap.from_dense_images(M2, module, images)
    assert honest.verify_representation().passed

    leaky = CompletelyPositiveMap(
        M2,
        module,
        tuple(AdjointableOperator(module, module, np.kron(np.eye(2), b.dense())) for b in M2.basis()),
    )
    check = leaky.verify_representation().check("multiplicative")
    assert ref.representation_residual(leaky) == 0.0
    assert not check.passed
    assert check.residual >= 1.0


def test_values_stored_transposed_are_certified():
    """Values whose flats are transposed views (as `op.adjoint()` returns them) give
    the same certificate as C-ordered copies."""
    rho, act, rep = dilation_instance("m2", "c", 2, "z2", seed=7000)
    module = rho.module
    phi = covariant_dilation(rho, act, rep).representation
    adjoints = tuple(phi.basis_values[j].adjoint() for j in phi.source.adjoint_index)
    assert not adjoints[0].flat.flags.c_contiguous
    transposed = CompletelyPositiveMap(phi.source, phi.module, adjoints)
    assert transposed.verify_representation().passed
    new = transposed.verify_representation().check("multiplicative").residual
    old = phi.verify_representation().check("multiplicative").residual
    assert abs(new - old) <= ref.REL * ref.product_scale(phi._value_tensor)
    unitaries = tuple(u.adjoint() for u in rep.unitaries)
    flipped = UnitaryRepresentation(act.group, module, unitaries)
    assert verify_unitary_representation(flipped).check("multiplicativity").passed


C = FiniteCStarAlgebra((1,))


def _representation(rng, alg, mults, extra) -> np.ndarray:
    """Values U (⊕_b I_{m_b} ⊗ E^b_ij) U* of a *-representation of `alg` on C^d,
    d = Σ m_b n_b + extra, with U a random unitary."""
    d = sum(m * n for m, n in zip(mults, alg.block_sizes)) + extra
    values = np.zeros((alg.linear_dim, d, d), dtype=np.complex128)
    start = 0
    for b, (m, n) in enumerate(zip(mults, alg.block_sizes)):
        seg = slice(start, start + m * n)
        for i in range(n):
            for j in range(n):
                unit = np.outer(np.eye(n)[i], np.eye(n)[j])
                values[alg.basis_index(b, i, j), seg, seg] = np.kron(np.eye(m), unit)
        start += m * n
    u = np.linalg.qr(linalg.random_complex(rng, d, d))[0]
    return u @ values @ u.conj().T


def _unit_vector(rng, projection) -> np.ndarray:
    w = projection @ linalg.random_complex(rng, projection.shape[0], 1)[:, 0]
    return w / np.linalg.norm(w)


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    mults=st.lists(st.integers(0, 2), min_size=3, max_size=3),
    extra=st.integers(0, 2),
    kind=st.sampled_from(["exact", "noise", "unit", "first column", "across", "leak"]),
    eps=st.sampled_from([1e-13, 1e-6, 0.3]),
    corank=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_matrix_unit_bound_covers_all_pairs(sizes, mults, extra, kind, eps, corank, seed):
    """On random near-representations of ⊕M_n, on free modules (corank 0) and on
    the range of a projection P ≠ 1, the exhaustive all-pairs residual is at most
    the matrix-unit bound, and each rank-one perturbation moves its own relation:
    a unit X_ij off the first row and column moves r1, a first-column X_i1 the
    within-block r2, and a cross-block X^b_11 the across-block r2."""
    rng = np.random.default_rng(seed)
    sizes, mults = list(sizes), list(mults)
    if kind in ("unit", "first column"):
        sizes[0], mults[0] = max(sizes[0], 2), max(mults[0], 1)
    if kind == "across":
        sizes = sizes if len(sizes) > 1 else sizes + [1]
        mults[1] = max(mults[1], 1)
    if kind == "leak":
        corank = max(corank, 1)
    alg = FiniteCStarAlgebra(tuple(sizes))
    mults = mults[: len(sizes)]
    x = _representation(rng, alg, mults, extra + (sum(mults) == 0))
    d = x.shape[1]
    idx = alg.basis_index
    if kind == "noise":
        x = x + eps * linalg.random_complex(rng, alg.linear_dim * d, d).reshape(x.shape)
    elif kind == "unit":
        u, v = _unit_vector(rng, np.eye(d)), _unit_vector(rng, np.eye(d))
        x[idx(0, 1, 1)] += eps * np.outer(u, v.conj())
    elif kind == "first column":
        u, v = _unit_vector(rng, x[idx(0, 1, 1)]), _unit_vector(rng, x[idx(0, 0, 0)])
        x[idx(0, 1, 0)] += eps * np.outer(u, v.conj())
    elif kind == "across":
        p = x[idx(1, 0, 0)]
        x[idx(0, 0, 0)] += eps * np.outer(_unit_vector(rng, p), _unit_vector(rng, p).conj())

    r1, within, across = ref.relation_residuals(x, alg)
    driven = {"unit": r1, "first column": within, "across": across}.get(kind)
    if driven is not None:
        assert driven >= 0.5 * eps

    flats, module = x, HilbertModule.free(C, d)
    if corank:
        isometry = np.linalg.qr(linalg.random_complex(rng, d + corank, d + corank))[0][:, :d]
        projection = isometry @ isometry.conj().T
        flats = isometry @ x @ isometry.conj().T
        module = HilbertModule(C, d + corank, projection)
    if kind == "leak":
        noise = linalg.random_complex(rng, alg.linear_dim * (d + corank), d + corank)
        noise = noise.reshape(flats.shape)
        flats = flats + eps * (noise - projection @ noise @ projection)
    rho = CompletelyPositiveMap(
        alg, module, tuple(AdjointableOperator(module, module, f) for f in flats)
    )
    bound = rho.verify_representation(np.inf).check("multiplicative").residual
    rounding = ref.REL * ref.product_scale(flats)
    assert ref.representation_residual(rho) <= bound + rounding
    assert rho._exact_multiplicative <= bound + rounding
    for tol in (1e-14, 1e-9, 1e-3):
        check = rho.verify_representation(tol).check("multiplicative")
        assert check.passed == (rho._exact_multiplicative <= tol)

    if not corank:
        f = linalg.max_frobenius(x)
        expected = (1.0 + f) ** 2 * r1 + f * f * max(within, across)
        assert abs(bound - expected) <= ref.REL * (1.0 + f) ** 2 * ref.product_scale(x)
        phi = StarHomomorphism(alg, FiniteCStarAlgebra((d,)), x.reshape(len(x), -1).T)
        hom = verify_star_homomorphism(phi, np.inf, check_surjective=False)
        assert ref.star_homomorphism_residual(phi) <= hom.check("multiplicative").residual + rounding


def test_passing_map_forms_no_pair_products(monkeypatch):
    """The all-pairs kernel runs only when the bound exceeds tol: never for a
    passing map, once for a failing CP map (then cached) and once per failing
    *-homomorphism check."""
    calls = []
    original = linalg.max_product_residual

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(linalg, "max_product_residual", counted)
    honest = CompletelyPositiveMap.identity_representation(M2, HilbertModule.free(C, 2))
    assert honest.verify_representation(1e-10).passed
    assert verify_star_homomorphism(StarHomomorphism.identity(M2)).passed
    assert calls == []

    state = CompletelyPositiveMap.trace_state(M2, HilbertModule.free(C, 2))
    assert not state.verify_representation(1e-10).passed
    assert not state.verify_representation(1e-3).passed
    assert len(calls) == 1
    assert not verify_star_homomorphism(StarHomomorphism(M2, M2, 2.0 * np.eye(4))).passed
    assert len(calls) == 2
