"""The product table and the streamed pairwise-product kernel.

Every certificate that checks all basis pairs goes through
`linalg.max_product_residual`. `pairwise_reference` keeps the loops it
replaced; `test_acceptance.py` compares the two on the acceptance grid, and
the tests here cover the table, the negative controls and the chunking.
Wedderburn's closure and centre sweep streams through the same chunk budget
and is compared here with the whole-matrix reference.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pairwise_reference as ref
from prostar import algebra, linalg
from prostar.algebra import (
    FiniteCStarAlgebra,
    StarHomomorphism,
    verify_star_homomorphism,
    wedderburn_decompose,
)
from prostar.cpmaps import CompletelyPositiveMap
from prostar.crossed import build_crossed_product, extend_covariant_cp
from prostar.dilation import covariant_dilation
from prostar.groups import UnitaryRepresentation, verify_unitary_representation
from prostar.errors import PreconditionError, StructuralError
from prostar.modules import AdjointableOperator, HilbertModule, operator_coords
from prostar.recipes import dilation_instance, named_algebra, standard_action

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
    scales = [ref.product_scale(m.values) for m in maps] + [1.0]
    streamed = linalg.max_product_residual
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
    dim, fd = maps[0].values.shape[:2]
    monkeypatch.setattr(linalg, "max_product_residual", counted)
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


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 5),
    n=st.integers(1, 5),
    d=st.integers(1, 6),
    k=st.integers(1, 5),
    rank=st.integers(1, 6),
    leak=st.sampled_from([0.0, 1e-6, 0.3]),
    gather=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_compressed_kernel_brackets_full_residual(m, n, d, k, rank, leak, gather, seed):
    """On the range of a rank-p projection P = UU*, the kernel on the coordinates
    U*XU brackets the kernel on the flats with no slack left: the two agree to
    rounding. A stack with mass off the range is refused where it would enter."""
    rng = np.random.default_rng(seed)
    p = min(rank, d)
    basis = np.linalg.qr(linalg.random_complex(rng, d, d))[0][:, :p]
    projection = basis @ basis.conj().T
    module = HilbertModule(C, d, basis)

    def stack(count):
        corners = linalg.random_complex(rng, count * p, p).reshape(count, p, p)
        return basis @ corners @ basis.conj().T

    left, right, values = stack(m), stack(n), stack(k)
    if gather:
        coeffs = rng.integers(-1, k, size=(m, n))
    else:
        coeffs = linalg.random_complex(rng, m * n, k).reshape(m, n, k)
    if leak and p < d:
        noise = linalg.random_complex(rng, d, d)
        off = noise - projection @ noise @ projection
        with pytest.raises(StructuralError, match="off the module range"):
            operator_coords(module, module, left + leak * off / np.linalg.norm(off))
    full = linalg.max_product_residual(left, right, values, coeffs)
    coords = [operator_coords(module, module, x) for x in (left, right, values)]
    got = linalg.max_product_residual(*coords, coeffs)
    rounding = ref.REL * ref.product_scale(np.concatenate([left, right, values])) ** 2
    assert abs(got - full) <= rounding


@pytest.mark.parametrize("leaky", ["left", "right", "values"])
def test_each_off_corner_factor_is_refused(leaky):
    """Rank-one factors on d = 2, P = diag(1, 0): the factor that maps into or out
    of the complement of range(P), which would move a product residual by its
    full size, is refused at construction, and the corner factors enter."""
    e = np.eye(2, dtype=np.complex128)
    inside = np.outer(e[0], e[0])
    off_corner = {
        "left": np.outer(e[1], e[0]),
        "right": np.outer(e[0], e[1]),
        "values": np.outer(e[1], e[1]),
    }[leaky]
    module = HilbertModule.from_projection(C, 2, inside)
    assert np.allclose(operator_coords(module, module, inside), [[1.0]])
    with pytest.raises(StructuralError, match="off the module range"):
        AdjointableOperator.from_flat(module, module, off_corner)


def test_free_module_keeps_full_flat_kernel():
    """P = 1 has no isometry, so coordinates are the flats themselves; a dilation
    module holds the read-only isometry U with UU* = P it was built from."""
    module = HilbertModule.free(M2, 2)
    assert module.isometry is None and module.coord_dim == module.flat_dim
    flat = np.kron(np.eye(2), M2.unit().dense())
    assert np.array_equal(AdjointableOperator.from_flat(module, module, flat).coords, flat)
    d = covariant_dilation(*dilation_instance("m2", "m2", 1, "trivial", seed=7000))
    basis = d.module.isometry
    assert basis is not None and not basis.flags.writeable
    assert basis.shape == (d.module.flat_dim, d.module.coord_dim)
    assert np.allclose(basis.conj().T @ basis, np.eye(basis.shape[1]), atol=1e-12)
    assert np.allclose(basis @ basis.conj().T, d.module.projection_flat, atol=1e-12)


def test_leak_off_the_corner_is_refused_by_the_map():
    """A representation on range(P) plus a second one off the corner is not into
    L_B(E). Its flats multiply exactly, so no product residual would see the
    second copy; the map refuses the values when they enter."""
    c = FiniteCStarAlgebra((1,))
    projection = np.diag([1.0, 1.0, 0.0, 0.0]).astype(np.complex128)
    module = HilbertModule.from_projection(c, 4, projection)
    images = []
    for b in M2.basis():
        inside = np.zeros((4, 4), dtype=np.complex128)
        inside[:2, :2] = b.dense()
        images.append(inside)
    honest = CompletelyPositiveMap.from_dense_images(M2, module, images)
    assert honest.verify_representation().passed

    leaky = [np.kron(np.eye(2), b.dense()) for b in M2.basis()]
    assert ref._max_residual(
        np.stack(leaky), np.stack(leaky), np.stack(leaky), ref.structure_constants(M2)
    ) == 0.0
    with pytest.raises(StructuralError, match="off the module range"):
        CompletelyPositiveMap.from_dense_images(M2, module, leaky)


def test_values_stored_transposed_are_certified():
    """Values whose flats are transposed views (as `op.adjoint()` returns them) give
    the same certificate as C-ordered copies."""
    rho, act, rep = dilation_instance("m2", "c", 2, "z2", seed=7000)
    module = rho.module
    phi = covariant_dilation(rho, act, rep).representation
    adjoints = tuple(phi.basis_values[j].adjoint() for j in phi.source.adjoint_index)
    assert not adjoints[0].coords.flags.c_contiguous
    transposed = CompletelyPositiveMap(phi.source, phi.module, adjoints)
    assert transposed.verify_representation().passed
    new = transposed.verify_representation().check("multiplicative").residual
    old = phi.verify_representation().check("multiplicative").residual
    assert abs(new - old) <= ref.REL * ref.product_scale(phi.values)
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
# Each r2 relation moved on a free module in every run, not only when drawn.
@example(sizes=[2], mults=[1, 0, 0], extra=0, kind="first column", eps=0.3, corank=0, seed=1)
@example(sizes=[1, 1], mults=[1, 1, 0], extra=0, kind="across", eps=0.3, corank=0, seed=1)
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
        module = HilbertModule(C, d + corank, isometry)
    if kind == "leak":
        # Off-corner mass of Frobenius norm eps on every value: refused unless it
        # is below the conversion's threshold, where the coordinates drop it.
        noise = linalg.random_complex(rng, alg.linear_dim * (d + corank), d + corank)
        noise = noise.reshape(flats.shape)
        off = noise - projection @ noise @ projection
        flats = flats + eps * off / linalg.frobenius_each(off)[:, None, None]
        if eps > 1e-12:
            with pytest.raises(StructuralError, match="off the module range"):
                CompletelyPositiveMap.from_dense_images(alg, module, flats)
            return
    rho = CompletelyPositiveMap.from_dense_images(alg, module, flats)
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
        hom = verify_star_homomorphism(phi, np.inf)
        assert ref.star_homomorphism_residual(phi) <= hom.check("multiplicative").residual + rounding


def test_fallback_decides_when_the_bound_exceeds_tol():
    """Between the all-pairs residual and the matrix-unit bound the decision is
    the all-pairs one: with tol at two thirds of the bound the map passes and
    reports its exact residual."""
    rng = np.random.default_rng(5)
    noise = 1e-6 * linalg.random_complex(rng, 8, 2).reshape(4, 2, 2)
    values = np.stack([b.dense() for b in M2.basis()]) + noise
    rho = CompletelyPositiveMap.from_dense_images(M2, HilbertModule.free(C, 2), values)
    bound, exact = rho._representation_data[0], rho._exact_multiplicative
    tol = 2.0 * bound / 3.0
    assert exact < tol < bound
    check = rho.verify_representation(tol).check("multiplicative")
    assert check.passed and check.residual == exact


def test_star_homomorphism_names_the_certificate_that_decided():
    """A *-automorphism passes on the matrix-unit bound. Ad(u) for u 1e-6 off
    unitary, at a tol between its all-pairs residual and its bound, passes on
    the exact all-pairs residual, and each check's detail names its certificate."""
    rng = np.random.default_rng(5)
    u = np.linalg.qr(linalg.random_complex(rng, 2, 2))[0]
    check = verify_star_homomorphism(StarHomomorphism.conjugation_by(M2, [u])).check("multiplicative")
    assert check.passed and check.detail == "matrix-unit bound"

    phi = StarHomomorphism.conjugation_by(M2, [u + 1e-6 * linalg.random_complex(rng, 2, 2)])
    bound = verify_star_homomorphism(phi, np.inf).check("multiplicative")
    exact = ref.star_homomorphism_residual(phi)
    assert bound.detail == "matrix-unit bound" and 2.0 * exact < bound.residual
    tol = np.sqrt(exact * bound.residual)
    check = verify_star_homomorphism(phi, tol).check("multiplicative")
    assert check.passed and check.detail == "all pairs"
    assert check.residual == pytest.approx(exact, rel=ref.REL)
    assert not verify_star_homomorphism(phi, exact / 2).check("multiplicative").passed


def test_passing_map_forms_no_pair_products(monkeypatch):
    """The all-pairs kernel runs only when the bound exceeds tol: never for a
    passing map, once for a failing CP map (then cached) and once per failing
    *-homomorphism check. Each bound streams its first row × first column,
    2·2 pairs of M2, through the same kernel; the all-pairs residual forms 4·4."""
    pairs = []
    original = linalg.max_product_residual

    def counted(left, right, *args):
        pairs.append(len(left) * len(right))
        return original(left, right, *args)

    def all_pairs_runs():
        return pairs.count(M2.linear_dim**2)

    monkeypatch.setattr(linalg, "max_product_residual", counted)
    honest = CompletelyPositiveMap.identity_representation(M2, HilbertModule.free(C, 2))
    assert honest.verify_representation(1e-10).passed
    assert verify_star_homomorphism(StarHomomorphism.identity(M2)).passed
    assert pairs == [4, 4]

    state = CompletelyPositiveMap.trace_state(M2, HilbertModule.free(C, 2))
    assert not state.verify_representation(1e-10).passed
    assert not state.verify_representation(1e-3).passed
    assert all_pairs_runs() == 1
    assert not verify_star_homomorphism(StarHomomorphism(M2, M2, 2.0 * np.eye(4))).passed
    assert all_pairs_runs() == 2


def _sweep_budgets(dim: int, n: int) -> dict[str, int]:
    """Budgets for one-row chunks, chunks of the fewest rows (at least 2) that
    leave a ragged last chunk, and one chunk, for a basis of `dim` matrices N×N."""
    row = dim * n * n * 16
    ragged = next(k for k in range(2, dim) if dim % k)
    return {"one-row": 1, "ragged": ragged * row, "single": dim * row}


@pytest.mark.parametrize("alg_name, group_name", [("m2", "s3"), ("m2+c", "s3"), ("m3", "z3")])
def test_structure_sweep_matches_whole_matrix_reference(monkeypatch, alg_name, group_name):
    """The chunked closure residual agrees with the whole product matrix's within
    REL, and the triangular factor keeps the commutator matrix's singular values,
    so the centre and the blocks come out the same under every chunking."""
    action = standard_action(group_name, named_algebra(alg_name))
    stack = build_crossed_product(action).spanning_stack
    onb = algebra._orthonormal_span(stack)
    dim, n = onb.shape[1], stack.shape[1]
    basis = onb.T.reshape(dim, n, n)
    residual, svals = ref.wedderburn_structure_reference(onb)
    centre = np.count_nonzero(svals <= max(svals[0], 1.0) * 1e-9)
    blocks = wedderburn_decompose(stack, seed=1).standard_form.block_sizes
    assert len(blocks) == centre
    for name, budget in _sweep_budgets(dim, n).items():
        monkeypatch.setattr(linalg, "PRODUCT_CHUNK_BYTES", budget)
        got, r = algebra._structure_sweep(onb, basis)
        ref.assert_agrees(got, residual, 1.0, 1e-9)
        s = np.linalg.svd(r, compute_uv=False)
        assert np.max(np.abs(s - svals)) <= ref.REL * max(svals[0], 1.0), name
        assert np.count_nonzero(s <= max(s[0], 1.0) * 1e-9) == centre, name
        assert wedderburn_decompose(stack, seed=1).standard_form.block_sizes == blocks, name


@pytest.mark.parametrize("defect_row", ["first", "last"])
def test_structure_sweep_refuses_a_defect_in_any_chunk(monkeypatch, defect_row):
    """span{w1, w2, h} in M4 is *-closed and holds 1 = w1 + w2, and every
    product lies in it except h·h = diag(0, 1, 0, 1). The orthonormal basis is
    ordered by norm, so scaling puts h's row first or last: the only defect
    falls in the first or the last chunk."""
    w1, w2 = np.diag([1.0, 0, 0, 0]), np.diag([0, 1.0, 1, 1])
    h = np.diag([0, 1.0, 0, -1])
    span = np.stack([w1, w2, 3.0 * h] if defect_row == "first" else [3.0 * w1, 2.0 * w2, h])
    onb = algebra._orthonormal_span(span.astype(complex))
    basis = onb.T.reshape(3, 4, 4)
    where = 0 if defect_row == "first" else 2
    assert np.allclose(np.abs(basis[where]), np.abs(h) / np.sqrt(2))
    residual, _ = ref.wedderburn_structure_reference(onb)
    assert residual > 0.1
    for name, budget in _sweep_budgets(3, 4).items():
        monkeypatch.setattr(linalg, "PRODUCT_CHUNK_BYTES", budget)
        got, _ = algebra._structure_sweep(onb, basis)
        ref.assert_agrees(got, residual, 1.0, 1e-9)
        with pytest.raises(PreconditionError, match="not closed under multiplication"):
            wedderburn_decompose(span)
