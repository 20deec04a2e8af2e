import numpy as np
import pytest

from prostar.algebra import FiniteCStarAlgebra
from prostar.cpmaps import CompletelyPositiveMap
from prostar.errors import PreconditionError, StructuralError
from prostar.groups import FiniteGroup, UnitaryRepresentation
from prostar.modules import AdjointableOperator, HilbertModule

from pairwise_reference import adjointability_residual

B = FiniteCStarAlgebra((2,))
C = FiniteCStarAlgebra((1,))


def test_rank_one_inner_product(rng):
    e = HilbertModule.free(B, 1)
    a = B.random_element(rng)
    xi = e.element_from_entries([a])
    assert (xi.inner(xi) - a.adjoint() * a).frobenius() <= 1e-13


def test_zero_element():
    e = HilbertModule.free(B, 2)
    z = e.element_from_flat(np.zeros((e.flat_dim, e.block_dim)))
    assert z.inner(z).frobenius() == 0.0
    assert z.norm() == 0.0


def test_inner_product_symmetry_and_positivity(rng):
    e = HilbertModule.free(B, 3)
    xi, eta = e.random_element(rng), e.random_element(rng)
    assert (xi.inner(eta).adjoint() - eta.inner(xi)).frobenius() <= 1e-12
    assert xi.inner(xi).is_positive().positive
    # faithful: nonzero element has nonzero self-pairing
    assert xi.inner(xi).operator_norm() > 1e-8


def test_module_action_laws(rng):
    e = HilbertModule.free(B, 3)
    xi, eta = e.random_element(rng), e.random_element(rng)
    b, c = B.random_element(rng), B.random_element(rng)
    assert ((xi * B.unit()) - xi).flat.sum() == 0.0
    assert ((xi * b) * c - xi * (b * c)).norm() <= 1e-12 * max(1.0, xi.norm())
    assert ((xi * b).inner(eta) - b.adjoint() * xi.inner(eta)).frobenius() <= 1e-12
    assert (xi.inner(eta * b) - xi.inner(eta) * b).frobenius() <= 1e-12


def test_cauchy_schwarz(rng):
    e = HilbertModule.free(B, 2)
    for _ in range(10):
        xi, eta = e.random_element(rng), e.random_element(rng)
        assert xi.inner(eta).operator_norm() <= xi.norm() * eta.norm() + 1e-9


def test_adjoint_involution_and_composition(rng):
    e = HilbertModule.free(B, 2)
    t = AdjointableOperator.from_entries(
        e, e, [[B.random_element(rng) for _ in range(2)] for _ in range(2)]
    )
    s = AdjointableOperator.from_entries(
        e, e, [[B.random_element(rng) for _ in range(2)] for _ in range(2)]
    )
    assert np.array_equal(t.adjoint().adjoint().flat, t.flat)
    assert np.allclose(
        (s @ t).adjoint().flat, (t.adjoint() @ s.adjoint()).flat, atol=1e-12
    )
    # composition applies the inner operator first
    xi = e.random_element(rng)
    assert np.allclose((s @ t)(xi).flat, s(t(xi)).flat, atol=1e-12)
    # identity composition
    ident = e.identity_operator()
    assert np.allclose((t @ ident).flat, t.flat)
    # <T xi, eta> = <xi, T* eta> on all basis pairs
    assert adjointability_residual(t) <= 1e-11


def test_transpose_unit_operator():
    # B = C, the matrix-unit operator on B^2 has the transposed unit as adjoint
    e = HilbertModule.free(C, 2)
    t = AdjointableOperator.from_flat(e, e, np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.allclose(t.adjoint().flat, np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_operator_cstar_identity(rng):
    e = HilbertModule.free(B, 2)
    t = AdjointableOperator.from_entries(
        e, e, [[B.random_element(rng) for _ in range(2)] for _ in range(2)]
    )
    n = t.norm()
    assert abs((t.adjoint() @ t).norm() - n * n) <= 1e-9 * n * n


def test_norms():
    e1 = HilbertModule.free(B, 1)
    unit_col = e1.element_from_entries([B.unit()])
    assert unit_col.norm() == pytest.approx(1.0)
    assert e1.identity_operator().norm() == pytest.approx(1.0)


def test_is_unitary():
    e = HilbertModule.free(B, 2)
    assert e.identity_operator().is_unitary().passed
    swap = AdjointableOperator.from_flat(e, e, np.kron([[0, 1], [1, 0]], np.eye(2)))
    assert swap.is_unitary().passed
    e1 = HilbertModule.free(C, 1)
    half = 0.5 * e1.identity_operator()
    rep = half.is_unitary()
    assert not rep.passed
    assert rep.check("T*T = id").residual == pytest.approx(0.75)


@pytest.mark.parametrize(
    "algebra,rank,expected",
    [(B, 1, 4), (C, 2, 2), (B, 2, 8)],
)
def test_complex_basis_free(algebra, rank, expected):
    e = HilbertModule.free(algebra, rank)
    assert e.complex_dim == expected
    # linear independence: coordinates round-trip exactly on basis elements
    for k, b in enumerate(e.complex_basis):
        coords = e.coords_of(b)
        assert abs(coords[k] - 1.0) <= 1e-10
        assert np.linalg.norm(np.delete(coords, k)) <= 1e-10


def test_complex_basis_projective():
    v = np.array([[0.6], [0.8]], dtype=complex)
    proj = v @ v.conj().T
    m = HilbertModule.from_projection(C, 2, proj)
    assert m.complex_dim == 1
    xi = m.complex_basis[0]
    assert np.linalg.norm(proj @ xi.flat - xi.flat) <= 1e-12


def test_structural_mismatches(rng):
    e2 = HilbertModule.free(B, 2)
    e3 = HilbertModule.free(B, 3)
    with pytest.raises(StructuralError):
        e2.random_element(rng).inner(e3.random_element(rng))
    t = e2.identity_operator()
    with pytest.raises(StructuralError):
        t(e3.random_element(rng))


@pytest.mark.parametrize("entry", [1e200, 1e160])
def test_rejects_projection_whose_residual_overflows(entry):
    """p² overflows to inf; the test must reject, not compare inf > inf."""
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(StructuralError, match="self-adjoint idempotent"):
            HilbertModule.from_projection(C, 1, np.array([[entry]]))


def test_declared_projection_is_held_as_its_isometry():
    """A declared projection is eigendecomposed once into U with UU* = P; the
    free module holds none; a U that is not an isometry, or whose range is not
    a B-submodule, is refused at construction."""
    assert HilbertModule.free(B, 2).isometry is None
    flat = np.zeros((4, 4), dtype=np.complex128)
    flat[:2, :2] = np.eye(2)
    module = HilbertModule.from_projection(B, 2, flat)
    u = module.isometry
    assert u.shape == (4, 2) and not u.flags.writeable
    assert module.coord_dim == 2 and not module.is_free
    assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-14)
    assert np.allclose(module.projection_flat, flat, atol=1e-14)
    assert not module.projection_flat.flags.writeable
    with pytest.raises(StructuralError, match="not an isometry"):
        HilbertModule(B, 2, 2.0 * u)
    # Over C⊕C the range of (1, 1, 0, 0)/sqrt(2) mixes the two summands of B.
    with pytest.raises(StructuralError, match="outside the base algebra"):
        mixed = np.array([[1.0], [1.0], [0.0], [0.0]]) / np.sqrt(2)
        HilbertModule(FiniteCStarAlgebra((1, 1)), 2, mixed)


def test_equality_with_itself_skips_the_projection_comparison(monkeypatch):
    module = HilbertModule.from_projection(B, 2, np.kron(np.diag([1.0, 0.0]), np.eye(2)))

    def refuse(*args, **kwargs):
        raise AssertionError("compared projections of a module with itself")

    monkeypatch.setattr(np, "allclose", refuse)
    assert module == module


def test_held_arrays_are_read_only_copies_of_a_callers_buffer():
    """A complex128 buffer is not copied by `as_complex_matrix`; the module and
    the operator freeze a copy of it and leave the caller's buffer writeable."""
    module = HilbertModule.free(B, 1)
    buffer = np.eye(2, dtype=np.complex128)
    op = AdjointableOperator(module, module, buffer)
    projected = HilbertModule(B, 1, buffer)
    buffer[0, 1] = 5.0
    assert op.flat[0, 1] == 0.0 and projected.projection_flat[0, 1] == 0.0
    assert not op.flat.flags.writeable and not projected.projection_flat.flags.writeable
    assert op.adjoint().adjoint().flat is not buffer


def _holders(module):
    """Build a CP map on M2 (4 values) and a Z2 representation (2 unitaries) on `module`."""
    return {
        "map": (lambda v: CompletelyPositiveMap(B, module, v), B.linear_dim),
        "representation": (lambda v: UnitaryRepresentation(FiniteGroup.cyclic(2), module, v), 2),
    }


REFUSALS = {
    "nan": (PreconditionError, "NaN or Inf"),
    "shape": (StructuralError, "coordinates of shape"),
    "count": (StructuralError, "need"),
    "other module": (StructuralError, "endomorphisms of the module"),
}


@pytest.mark.parametrize("holder", ["map", "representation"])
@pytest.mark.parametrize("case", list(REFUSALS))
def test_endomorphism_stack_refuses_for_the_reason_it_names(holder, case):
    """A map's values and a representation's unitaries enter through one checked
    entry: a NaN, a wrong shape, a wrong count or an operator on another module
    is refused, each with its own error."""
    module = HilbertModule.free(B, 2)
    build, count = _holders(module)[holder]
    good = np.stack([np.eye(module.coord_dim, dtype=np.complex128)] * count)
    assert build(good).values.shape == good.shape
    assert np.array_equal(build([module.identity_operator()] * count).values, good)
    if case == "nan":
        bad = good.copy()
        bad[-1, 0, 0] = np.nan
    elif case == "shape":
        bad = good[:, :-1]
    elif case == "count":
        bad = good[:-1]
    else:
        # Over C⊕C the coordinates have the same shape: only the domain check tells.
        other = HilbertModule.free(FiniteCStarAlgebra((1, 1)), 2)
        bad = [module.identity_operator()] * (count - 1) + [other.identity_operator()]
    error, match = REFUSALS[case]
    with pytest.raises(error, match=match):
        build(bad)
