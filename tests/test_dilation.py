from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairwise_reference

from prostar import dilation as dilation_layer
from prostar import groups as groups_layer
from prostar import linalg
from prostar.algebra import FiniteCStarAlgebra
from prostar.cpmaps import CompletelyPositiveMap
from prostar.dilation import (
    covariant_dilation,
    covariant_extend,
    gram_operator,
    minimal_dilation,
    padded_variant,
    scaled_connector_variant,
    uniqueness_unitary,
    verify_dilation,
)
from prostar.errors import PreconditionError, StructuralError
from prostar.groups import (
    FiniteGroup,
    GroupAction,
    UnitaryRepresentation,
    verify_action,
    verify_unitary_representation,
)
from prostar.linalg import DEFAULT_TOL
from prostar.modules import AdjointableOperator, HilbertModule
from prostar.recipes import (
    dilation_instance,
    named_algebra,
    random_covariant_cp,
    random_cp_map,
    standard_action,
    standard_representation,
    unitalize,
)

M2 = FiniteCStarAlgebra((2,))
C = FiniteCStarAlgebra((1,))
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def trivial_triple(algebra, module):
    g = FiniteGroup.trivial()
    return GroupAction.trivial(g, algebra), UnitaryRepresentation.trivial(g, module)


class TestGram:
    def test_unit_algebra_scalar(self):
        e = HilbertModule.free(C, 1)
        rho = CompletelyPositiveMap.identity_representation(C, e)
        rho.verify_completely_positive()
        (c_k,) = gram_operator(rho).scalar_blocks
        assert c_k.shape == (1, 1)
        assert c_k[0, 0] == pytest.approx(1.0)

    def test_trace_state_gram_is_half_identity(self):
        e = HilbertModule.free(C, 1)
        rho = CompletelyPositiveMap.trace_state(M2, e)
        rho.verify_completely_positive()
        gram = gram_operator(rho)
        # oracle: S[(i),(j)] = tr(a_i* a_j)/2 over row 0 of the matrix units,
        # E_00 and E_01; with B = C, G_k and C_k coincide.
        row0 = list(M2.basis())[:2]
        oracle = np.array([[(a.adjoint() * b).trace() / 2.0 for b in row0] for a in row0])
        for block in (*gram.scalar_blocks, *gram.bvalued_blocks):
            assert np.allclose(block, oracle, atol=1e-13)
            assert np.allclose(block, 0.5 * np.eye(2), atol=1e-13)

    def test_zero_map_gram(self):
        e = HilbertModule.free(C, 2)
        rho = CompletelyPositiveMap.zero(M2, e)
        rho.verify_completely_positive()
        gram = gram_operator(rho)
        for block in (*gram.bvalued_blocks, *gram.scalar_blocks):
            assert block.shape == (4, 4) and np.abs(block).max() == 0.0

    def test_noncp_rejected(self):
        e = HilbertModule.free(C, 2)
        transpose = CompletelyPositiveMap.from_dense_images(
            M2, e, [b.dense().T for b in M2.basis()]
        )
        with pytest.raises(PreconditionError):
            gram_operator(transpose)


class TestMinimalDilation:
    def test_identity_representation(self):
        e = HilbertModule.free(C, 2)
        rho = CompletelyPositiveMap.identity_representation(M2, e)
        rho.verify_completely_positive()
        # oracle: brute-force rank of the 8x8 scalar Gram built from scratch
        basis = list(M2.basis())
        xs = [np.eye(2, dtype=complex)[:, [k]] for k in range(2)]
        gram = np.zeros((8, 8), dtype=complex)
        for i, a in enumerate(basis):
            for s in range(2):
                for j, b in enumerate(basis):
                    for t in range(2):
                        val = xs[s].conj().T @ (a.adjoint() * b).blocks[0] @ xs[t]
                        gram[i * 2 + s, j * 2 + t] = val[0, 0]
        expected_dim = np.linalg.matrix_rank(gram, tol=1e-9)
        core = minimal_dilation(rho)
        assert core.module.complex_dim == expected_dim == 2
        assert core.connector.is_unitary().passed
        assert core.representation.verify_representation().passed

    def test_trace_state_dim_four(self):
        e = HilbertModule.free(C, 1)
        rho = CompletelyPositiveMap.trace_state(M2, e)
        rho.verify_completely_positive()
        core = minimal_dilation(rho)
        assert core.module.complex_dim == 4
        assert core.quotient.null_dim == 0

    def test_unit_algebra_gives_same_module(self, rng):
        # A = C with rho(1) = id_E: the dilation reproduces E itself
        e = HilbertModule.free(C, 3)
        rho = CompletelyPositiveMap.from_dense_images(C, e, [e.projection_flat])
        rho.verify_completely_positive()
        core = minimal_dilation(rho)
        assert core.module.complex_dim == e.complex_dim
        assert core.connector.is_unitary().passed
        assert np.abs(core.connector.flat - np.eye(3)).max() <= 1e-10

    def test_scalarization_soundness(self):
        # zero B-valued self-pairing iff zero trace pairing, both directions, on
        # G_k and C_k: the Grams are I_{n_k} (x) G_k and I_{n_k} (x) C_k
        b = FiniteCStarAlgebra((2,))
        e = HilbertModule.free(b, 1)
        rho = CompletelyPositiveMap.identity_representation(
            FiniteCStarAlgebra((2,)), e
        )
        rho.verify_completely_positive()
        gram = gram_operator(rho)
        (g_k,), (c_k,) = gram.bvalued_blocks, gram.scalar_blocks
        n = c_k.shape[0]
        big_d = e.block_dim
        vals, vecs = np.linalg.eigh(c_k)
        assert (vals <= 1e-9 * vals.max()).sum() > 0  # a genuine quotient

        def bform(v):
            x = np.kron(v.reshape(-1, 1), np.eye(big_d))
            return np.linalg.norm(x.conj().T @ g_k @ x)

        for k in range(n):
            scalar_zero = vals[k] <= 1e-9 * vals.max()
            b_zero = bform(vecs[:, k]) <= 1e-9 * vals.max()
            assert scalar_zero == b_zero
        # random directions agree as well
        gen = np.random.default_rng(2)
        for _ in range(10):
            v = gen.standard_normal(n) + 1j * gen.standard_normal(n)
            v /= np.linalg.norm(v)
            scalar_val = float((v.conj() @ c_k @ v).real)
            assert (scalar_val <= 1e-9) == (bform(v) <= 1e-9)

    def test_nonunital_rejected(self, rng):
        e = HilbertModule.free(C, 2)
        rho = random_cp_map(M2, e, rng)  # not unitalized
        rho.verify_completely_positive()
        with pytest.raises(PreconditionError):
            minimal_dilation(rho)


class TestCovariantDilation:
    def test_trivial_group_residuals_zero(self, rng):
        e = HilbertModule.free(C, 2)
        rho = unitalize(random_cp_map(M2, e, rng))
        act, u = trivial_triple(M2, e)
        d = covariant_dilation(rho, act, u)
        assert d.residuals.passed
        assert verify_dilation(d).passed

    def test_ad_x_identity_map(self):
        e = HilbertModule.free(C, 2)
        rho = CompletelyPositiveMap.identity_representation(M2, e)
        rho.verify_completely_positive()
        g = FiniteGroup.cyclic(2)
        act = GroupAction.by_conjugation(g, M2, [[np.eye(2)], [X]])
        u = UnitaryRepresentation.from_complex_matrices(g, e, [np.eye(2), X])
        d = covariant_dilation(rho, act, u)
        rep = verify_dilation(d)
        assert rep.passed and rep.max_residual <= 1e-10
        assert d.module.complex_dim == 2

    @pytest.mark.parametrize("combo", [
        ("m2", "c", 2, "z2"),
        ("m2+c", "m2", 1, "z3"),
        ("m3", "c", 2, "s3"),
    ])
    def test_generated_instances(self, combo):
        rho, act, rep = dilation_instance(*combo, seed=71)
        d = covariant_dilation(rho, act, rep)
        report = verify_dilation(d)
        assert report.passed, str(report)
        assert report.max_residual <= 1e-9

    def test_noncovariant_rejected(self, rng):
        e = HilbertModule.free(C, 2)
        rho = unitalize(random_cp_map(M2, e, rng))
        g = FiniteGroup.cyclic(2)
        act = GroupAction.by_conjugation(g, M2, [[np.eye(2)], [X]])
        u = UnitaryRepresentation.from_complex_matrices(g, e, [np.eye(2), X])
        core = minimal_dilation(rho)
        with pytest.raises(PreconditionError):
            covariant_extend(core, act, u)


def test_two_dilations_of_one_map_share_its_rho_side(monkeypatch):
    """Two dilations of one (rho, alpha, u), at two order seeds, form rho's
    Gram once, check (rho, alpha, u) covariance once and take u's complex
    matrices once; Phi of each is certified by its matrix-unit pattern."""
    rho, act, rep = dilation_instance("m2+c", "m2", 2, "z2", seed=41)
    grams, covariances = [], []
    gram_blocks, covariance_residual = dilation_layer._gram_blocks, groups_layer._covariance_residual

    def counted_gram(r):
        grams.append(r)
        return gram_blocks(r)

    def counted_covariance(values, unitaries, action):
        covariances.append((values, unitaries))
        return covariance_residual(values, unitaries, action)

    monkeypatch.setattr(dilation_layer, "_gram_blocks", counted_gram)
    monkeypatch.setattr(groups_layer, "_covariance_residual", counted_covariance)
    d1 = covariant_dilation(rho, act, rep)
    u_matrices = rep._complex_matrices
    d2 = covariant_dilation(rho, act, rep, order_seed=5)
    assert grams == [rho]
    assert sum(v is rho.values and w is rep.values for v, w in covariances) == 1
    assert rep._complex_matrices is u_matrices
    for d in (d1, d2):
        check = d.representation.verify_representation().check("multiplicative")
        assert (check.residual, check.detail) == (0.0, "matrix-unit pattern")
        assert d.residuals.passed
    assert uniqueness_unitary(d1, d2)[1].passed


def _faulty_input(fault: str):
    """(rho, alpha, u) on the free rank-2 C-module with one fault of size 1e-6:
    a Choi minimum of -1e-6 (1e-6 of the transpose mixed in), rho(1) = (1 + 1e-6)·1,
    or u_g the swap X turned by 1e-6 rad, a representation that alpha = Ad(X)
    does not quite match."""
    e = HilbertModule.free(C, 2)
    images = [b.dense() for b in M2.basis()]
    act, rep = trivial_triple(M2, e)
    if fault == "not CP":
        images = [(1 - 1e-6) * x + 1e-6 * x.T for x in images]
    elif fault == "not unital":
        images = [(1 + 1e-6) * x for x in images]
    else:
        t = 1e-6
        turn = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        g = FiniteGroup.cyclic(2)
        act = GroupAction.by_conjugation(g, M2, [[np.eye(2)], [X]])
        rep = UnitaryRepresentation.from_complex_matrices(g, e, [np.eye(2), turn @ X @ turn.T])
    return CompletelyPositiveMap.from_dense_images(M2, e, images), act, rep


@pytest.mark.parametrize("fault", ["not CP", "not unital", "not covariant"])
def test_precondition_is_decided_on_every_call_at_its_tol(fault):
    """The cached Gram, unit defect and covariance residual hold no decision:
    a loose tol first, which passes, leaves every stricter call to raise."""
    rho, act, rep = _faulty_input(fault)
    for tol in (1e-3, 1e-9, 1e-3, 1e-12, 1e-7, 1e-9):
        if tol > 1e-5:
            covariant_dilation(rho, act, rep, tol=tol)
        else:
            with pytest.raises(PreconditionError):
                covariant_dilation(rho, act, rep, tol=tol)


def test_padded_phi_is_checked_off_the_pattern():
    """`padded_variant`'s Phi, the pattern with a zero direction added, fails
    the pattern and its representation check fails on the unit as before."""
    d = covariant_dilation(*dilation_instance("m2+c", "m2", 1, "z3", seed=43))
    phi = padded_variant(d).representation
    assert phi._unit_multiplicities is None
    report = phi.verify_representation()
    assert report.check("multiplicative").detail == "matrix-unit bound"
    assert not report.check("unital").passed and report.check("multiplicative").passed


def assert_matches_dilation_reference(report, d) -> None:
    """verify_dilation's report agrees check by check with the per-element loops."""
    scale = pairwise_reference.product_scale(d.group_unitaries.values)
    old = pairwise_reference.dilation_checks_reference(d, 1e-9)
    assert [c.name for c in report.checks] == [c.name for c in old]
    for new, ref in zip(report.checks, old):
        pairwise_reference.assert_agrees(new.residual, ref.residual, scale, new.threshold)


class TestNegativeControls:
    @pytest.fixture
    def dilation(self):
        rho, act, rep = dilation_instance("m2", "c", 2, "z2", seed=5)
        return covariant_dilation(rho, act, rep)

    def test_scaled_connector_breaks_identity(self, dilation):
        bad = scaled_connector_variant(dilation, 0.5)
        rep = verify_dilation(bad)
        assert not rep.passed
        identity_check = rep.check("dilation identity rho = V* Phi V")
        assert not identity_check.passed
        assert identity_check.residual >= 0.3
        assert_matches_dilation_reference(rep, bad)

    def test_replace_checks_the_new_dilation(self, dilation):
        """The residuals of a replaced dilation are its own, not a copied pass."""
        assert dilation.residuals.passed
        bad = replace(dilation, connector=0.5 * dilation.connector)
        assert bad.residuals == verify_dilation(bad, dilation.tol)
        assert not bad.residuals.check("dilation identity rho = V* Phi V").passed
        assert not scaled_connector_variant(dilation).residuals.passed
        assert not padded_variant(dilation).residuals.passed

    def test_rotated_unitary_breaks_group_law(self):
        # e^{i theta} v_1 is still unitary, but v_1 v_2 = v_0 fails on E_rho.
        rho, act, rep = dilation_instance("m2", "c", 2, "z3", seed=5)
        d = covariant_dilation(rho, act, rep)
        unitaries = list(d.group_unitaries.unitaries)
        unitaries[1] = np.exp(0.3j) * unitaries[1]
        bad = replace(
            d, group_unitaries=UnitaryRepresentation(act.group, d.module, tuple(unitaries))
        )
        report = verify_dilation(bad)
        assert not report.check("group law on E_rho").passed
        assert report.check("v_g unitary").passed
        assert_matches_dilation_reference(report, bad)

    def test_noncovariant_unitary_breaks_null_space(self):
        # The identity representation of M2 on C² leaves a 6-dimensional null
        # space in the spanning set a (x) xi; the shuffle a (x) xi -> alpha_g(a) (x) xi
        # of the trivial u is not covariant for the swap action and moves it.
        module = HilbertModule.free(C, 2)
        act = standard_action("z2", M2)
        rho = CompletelyPositiveMap.identity_representation(M2, module)
        d = covariant_dilation(rho, act, standard_representation("z2", module))
        assert d.quotient.null_dim == 6
        assert verify_dilation(d).check("null space preserved").residual == 0.0
        bad = replace(d, rep=UnitaryRepresentation.trivial(act.group, module))
        report = verify_dilation(bad)
        check = report.check("null space preserved")
        assert not check.passed and check.residual >= 0.5
        assert report.check("Phi is a unital *-representation").passed
        assert_matches_dilation_reference(report, bad)

    def test_padded_module_breaks_minimality(self, dilation):
        bad = padded_variant(dilation)
        rep = verify_dilation(bad)
        assert not rep.check("minimality rank = dim E_rho").passed
        # the other defining identities still hold on the padded realization
        assert rep.check("dilation identity rho = V* Phi V").passed
        assert rep.check("covariance of Phi").passed
        assert_matches_dilation_reference(rep, bad)


def test_verify_dilation_reports_at_tol_without_recomputing(monkeypatch):
    """verify_dilation reads the residuals the dilation computed when it was
    built and applies each threshold again at the tol it is asked for."""
    rho, act, rep = dilation_instance("m2", "c", 2, "z3", seed=5)
    d = covariant_dilation(rho, act, rep)

    def refuse(*args, **kwargs):
        raise AssertionError("an identity was computed again")

    monkeypatch.setattr(dilation_layer, "check_covariance", refuse)
    monkeypatch.setattr(dilation_layer, "verify_unitary_representation", refuse)
    built = [(c.name, c.residual, c.detail) for c in d.residuals.checks]
    floors = [1e-9, 0.5, 1e-9, 1e-9, 1e-9, 1e-10, 1e-9, 1e-9]
    for tol, thresholds in ((1e-6, [0.5 if f == 0.5 else 1e-6 for f in floors]), (1e-12, floors)):
        report = verify_dilation(d, tol)
        assert [(c.name, c.residual, c.detail) for c in report.checks] == built
        assert [c.threshold for c in report.checks] == thresholds


def _null_space_dilation():
    """The identity representation of M2 on C², which leaves a null space."""
    module = HilbertModule.free(C, 2)
    act = standard_action("z2", M2)
    rho = CompletelyPositiveMap.identity_representation(M2, module)
    return covariant_dilation(rho, act, standard_representation("z2", module))


HELD_ARRAYS = {
    "operator flat": lambda d: d.connector.flat,
    "module projection": lambda d: d.module.projection_flat,
    "value tensor": lambda d: d.representation.values,
    "unitary tensor": lambda d: d.group_unitaries.values,
    "scalar Gram": lambda d: gram_operator(d.cp_map).scalar_blocks[0],
    "embeddings": lambda d: d.quotient.embeddings[0],
    "retained eigenvalues": lambda d: d.quotient.retained_eigenvalues[0],
    "null vectors": lambda d: d.quotient.null_vectors[0],
    "spanning family": lambda d: d._spanning_family,
}


@pytest.mark.parametrize("name", list(HELD_ARRAYS))
def test_held_arrays_are_read_only(name):
    """A cache over an array is sound only if the array cannot be written."""
    array = HELD_ARRAYS[name](_null_space_dilation())
    assert array.size > 0
    with pytest.raises(ValueError, match="read-only"):
        array[...] = 0.0


def test_held_stack_is_a_read_only_copy_of_a_callers_buffer():
    """A map and a representation each freeze one copy of the stack they are
    given, and leave the caller's buffer writeable."""
    module = HilbertModule.free(C, 2)
    values = np.stack([np.eye(2, dtype=np.complex128)] * M2.linear_dim)
    unitaries = np.stack([np.eye(2, dtype=np.complex128)] * 2)
    rho = CompletelyPositiveMap(M2, module, values)
    rep = UnitaryRepresentation(FiniteGroup.cyclic(2), module, unitaries)
    for held, buffer in ((rho.values, values), (rep.values, unitaries)):
        assert not np.shares_memory(held, buffer)
        buffer[0, 0, 1] = 5.0
        assert held[0, 0, 1] == 0.0 and buffer.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            held[...] = 0.0
    assert all(not op.coords.flags.writeable for op in rho.basis_values + rep.unitaries)


def _two_seed_dilations():
    rho, act, rep = dilation_instance("m2+c", "m2", 2, "z3", seed=15)
    return (covariant_dilation(rho, act, rep, order_seed=seed) for seed in (1, 2))


class TestUniqueness:
    def test_self_gives_identity(self):
        rho, act, rep = dilation_instance("m2", "c", 2, "z2", seed=13)
        d = covariant_dilation(rho, act, rep)
        u, report = uniqueness_unitary(d, d)
        assert report.passed
        assert np.abs(u.flat - d.module.projection_flat).max() <= 1e-12

    def test_permuted_realization(self):
        rho, act, rep = dilation_instance("m2", "c", 2, "z2", seed=14)
        d = covariant_dilation(rho, act, rep)
        r = d.module.rank
        perm = np.random.default_rng(3).permutation(r)
        pmat = np.eye(r)[perm]
        big = np.kron(pmat, np.eye(d.module.block_dim))
        other_module = HilbertModule.from_projection(
            d.module.algebra, r, big @ d.module.projection_flat @ big.conj().T
        )
        phi = CompletelyPositiveMap(
            rho.source,
            other_module,
            tuple(
                AdjointableOperator.from_flat(
                    other_module, other_module, big @ v.flat @ big.conj().T
                )
                for v in d.representation.basis_values
            ),
        )
        vperm = UnitaryRepresentation(
            act.group,
            other_module,
            tuple(
                AdjointableOperator.from_flat(
                    other_module, other_module, big @ v.flat @ big.conj().T
                )
                for v in d.group_unitaries.unitaries
            ),
        )
        w = AdjointableOperator.from_flat(rho.module, other_module, big @ d.connector.flat)
        candidate = replace(
            d, module=other_module, representation=phi, group_unitaries=vperm, connector=w
        )
        u, report = uniqueness_unitary(d, candidate)
        assert report.passed and report.max_residual <= 1e-11
        assert np.abs(u.flat - big @ d.module.projection_flat).max() <= 1e-10

    def test_two_seeds_unitarily_equivalent(self):
        d1, d2 = _two_seed_dilations()
        _, report = uniqueness_unitary(d1, d2)
        assert report.passed
        assert report.max_residual <= 1e-9

    def test_reads_kept_certificates(self, monkeypatch):
        """The candidate's (a), (b), (c) and both spanning families were computed
        when the dilations were built: no rank is taken again."""
        d1, d2 = _two_seed_dilations()
        calls = []
        rank = dilation_layer.linalg.matrix_rank

        def counted(m):
            calls.append(m.shape)
            return rank(m)

        monkeypatch.setattr(dilation_layer.linalg, "matrix_rank", counted)
        _, report = uniqueness_unitary(d1, d2)
        assert report.passed and calls == []

    def test_candidate_of_another_map_or_representation(self):
        d1, _ = _two_seed_dilations()
        other = covariant_dilation(*dilation_instance("m2+c", "m2", 2, "z3", seed=16))
        with pytest.raises(StructuralError, match="another CP map"):
            uniqueness_unitary(d1, other)
        # An equal copy of u is another representation too: (c) was computed against it.
        rho, act, rep = d1.cp_map, d1.action, d1.rep
        other_rep = UnitaryRepresentation(rep.group, rep.module, rep.unitaries)
        with pytest.raises(StructuralError, match="another representation"):
            uniqueness_unitary(d1, covariant_dilation(rho, act, other_rep, order_seed=2))

    def test_scaled_candidate_rejected(self):
        rho, act, rep = dilation_instance("m2", "c", 1, "z2", seed=16)
        d = covariant_dilation(rho, act, rep)
        bad = replace(d, connector=0.5 * d.connector)
        with pytest.raises(PreconditionError, match=r"\(a\)"):
            uniqueness_unitary(d, bad)

    @staticmethod
    def _rejections(d, candidate) -> tuple[str, str]:
        """The library's and the reference's PreconditionError messages."""
        with pytest.raises(PreconditionError) as new:
            uniqueness_unitary(d, candidate)
        with pytest.raises(PreconditionError) as old:
            pairwise_reference.uniqueness_reference(d, candidate, DEFAULT_TOL)
        return str(new.value), str(old.value)

    def test_padded_candidate_rejected_by_minimality(self):
        rho, act, rep = dilation_instance("m2", "c", 2, "z2", seed=16)
        d = covariant_dilation(rho, act, rep)
        new, old = self._rejections(d, padded_variant(d))
        assert "(b)" in new and new == old

    def test_trivial_unitaries_rejected_by_intertwining(self):
        # u_1 swaps the two coordinates of E, so v'_g = 1 breaks v'_g W = W u_g.
        rho, act, rep = dilation_instance("m2", "c", 2, "z2", seed=16)
        d = covariant_dilation(rho, act, rep)
        trivial = UnitaryRepresentation.trivial(act.group, d.module)
        candidate = replace(d, group_unitaries=trivial)
        new, old = self._rejections(d, candidate)
        assert "(c)" in new and new == old


def test_order_seed_determinism():
    rho, act, rep = dilation_instance("m2", "c", 2, "z2", seed=44)
    d1 = covariant_dilation(rho, act, rep, order_seed=9)
    d2 = covariant_dilation(rho, act, rep, order_seed=9)
    assert np.array_equal(d1.connector.flat, d2.connector.flat)
    assert np.array_equal(
        d1.representation.basis_values[0].flat, d2.representation.basis_values[0].flat
    )


def test_report_check_names_are_pinned():
    """The ordered check names (the keys of the JSON and text reports), with their
    thresholds at the default tolerance, of the dilation and group reports."""
    rho, act, rep = dilation_instance("m2", "c", 2, "z2", seed=13)
    d = covariant_dilation(rho, act, rep)
    _, uniqueness = uniqueness_unitary(d, d)
    pinned = {
        "covariant dilation": (
            d.residuals,
            [
                ("dilation identity rho = V* Phi V", 1e-9),
                ("minimality rank = dim E_rho", 0.5),
                ("covariance of Phi", 1e-9),
                ("intertwining v_g V = V u_g", 1e-9),
                ("v_g unitary", 1e-9),
                ("group law on E_rho", 1e-10),
                ("Phi is a unital *-representation", 1e-9),
                ("null space preserved", 1e-9),
            ],
        ),
        "uniqueness unitary": (
            uniqueness,
            [
                ("U unitary", 1e-9),
                ("Phi'(a) U = U Phi(a)", 1e-9),
                ("v'_g U = U v_g", 1e-9),
                ("W = U V", 1e-9),
            ],
        ),
        "unitary representation": (
            verify_unitary_representation(d.group_unitaries),
            [
                ("unit maps to identity", DEFAULT_TOL),
                ("unitarity", DEFAULT_TOL),
                ("multiplicativity", DEFAULT_TOL),
                ("inverse law u_{g^-1} = u_g*", DEFAULT_TOL),
            ],
        ),
        "group action": (
            verify_action(act),
            [
                ("unit acts as identity", DEFAULT_TOL),
                ("cocycle law", DEFAULT_TOL),
                ("*-automorphisms", DEFAULT_TOL),
                ("bijectivity", 0.5),
            ],
        ),
    }
    names = [name for name, _ in pinned["covariant dilation"][1]]
    assert [c.name for c in verify_dilation(d).checks] == names
    for subject, (report, expected) in pinned.items():
        assert report.subject == subject
        assert [(c.name, c.threshold) for c in report.checks] == expected


M2_PLUS_C = FiniteCStarAlgebra((2, 1))


@pytest.mark.parametrize("source", [M2, M2_PLUS_C], ids=["m2", "m2+c"])
@pytest.mark.parametrize("order_seed", [None, 3])
def test_summand_quotient_with_a_null_space(source, order_seed):
    """The identity representation on the defining space leaves a null space
    (6 on M2 over C², 12 on M2⊕C over C³); the quotient taken per summand keeps
    the whole-Gram quotient's, and its Phi is the descended one."""
    module = HilbertModule.free(C, source.total_dim)
    rho = CompletelyPositiveMap.identity_representation(source, module)
    core = minimal_dilation(rho, order_seed=order_seed)
    assert core.quotient.null_dim == source.linear_dim * source.total_dim - source.total_dim
    pairwise_reference.assert_summand_quotient_agrees(core, order_seed)


@pytest.mark.parametrize("order_seed", [None, 3])
def test_null_seminorm_is_read_per_summand(order_seed):
    """The identity representation of M2⊕C on C³ leaves a null space in both
    summands; the trivial u is not covariant for the swap action and moves it.
    The classes of the moved null vectors, read off the quotient solved per
    summand, agree with those read off the whole reference scalar Gram."""
    module = HilbertModule.free(C, 3)
    act = standard_action("z2", M2_PLUS_C)
    rho = CompletelyPositiveMap.identity_representation(M2_PLUS_C, module)
    rep = standard_representation("z2", module)
    d = covariant_dilation(rho, act, rep, order_seed=order_seed)
    assert d.residuals.check("null space preserved").residual == 0.0
    bad = replace(d, rep=UnitaryRepresentation.trivial(act.group, module))
    report = verify_dilation(bad)
    assert not report.check("null space preserved").passed
    assert_matches_dilation_reference(report, bad)


@pytest.mark.parametrize("order_seed", [None, 3])
def test_null_space_preserved_on_m3_identity_representation(order_seed):
    """The identity representation of M3 on C³ leaves a 24-dimensional null
    space, which a correct dilation respects: the classes of the moved null
    vectors vanish to rounding, with the trivial group and with Z2 (the square
    root of the null vectors' quadratic form read about 5e-9 here). The
    trivial u, not covariant for Z2, moves it: the map from the null space to
    the classes of its moves has norm √(8/3), whatever null basis was solved."""
    m3 = FiniteCStarAlgebra((3,))
    module = HilbertModule.free(C, 3)
    rho = CompletelyPositiveMap.identity_representation(m3, module)
    for group in ("trivial", "z2"):
        act = standard_action(group, m3)
        rep = standard_representation(group, module)
        d = covariant_dilation(rho, act, rep, order_seed=order_seed)
        assert d.quotient.null_dim == 24
        check = d.residuals.check("null space preserved")
        assert check.passed and check.residual <= 1e-14
        assert d.residuals.passed
        assert_matches_dilation_reference(verify_dilation(d), d)
    bad = replace(d, rep=UnitaryRepresentation.trivial(act.group, module))
    report = verify_dilation(bad)
    assert report.check("null space preserved").residual == pytest.approx(
        np.sqrt(8.0 / 3.0), rel=1e-12
    )
    assert_matches_dilation_reference(report, bad)


def _null_space_readings(order_seed):
    """"null space preserved" of the dilations of the identity representation
    of M2, M2⊕C and M3 on their defining spaces solved at `order_seed`: of the
    correct dilation with the trivial group and with Z2, and of the Z2 one
    with the trivial u, which is not covariant for it."""
    correct, controls = [], []
    for source in (M2, M2_PLUS_C, FiniteCStarAlgebra((3,))):
        module = HilbertModule.free(C, source.total_dim)
        rho = CompletelyPositiveMap.identity_representation(source, module)
        for group in ("trivial", "z2"):
            act = standard_action(group, source)
            rep = standard_representation(group, module)
            d = covariant_dilation(rho, act, rep, order_seed=order_seed)
            correct.append(d.residuals.check("null space preserved").residual)
        bad = replace(d, rep=UnitaryRepresentation.trivial(act.group, module))
        controls.append(verify_dilation(bad).check("null space preserved").residual)
    return correct, controls


@pytest.mark.parametrize("order_seed", [None, 3, 5, 7, 11])
def test_null_space_reading_does_not_depend_on_the_solve_order(order_seed):
    """Each C_k solved in another label order returns another null basis; the
    norm of the moved null space's classes does not depend on it: every
    non-covariant control reads what it reads in label order, within 1e-12,
    and every correct dilation reads zero to rounding."""
    correct, controls = _null_space_readings(order_seed)
    _, in_label_order = _null_space_readings(None)
    assert max(correct) <= 1e-14
    assert all(c > 1e-9 for c in controls)
    assert np.abs(np.subtract(controls, in_label_order)).max() <= 1e-12


@settings(max_examples=25, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    base=st.sampled_from(["c", "m2"]),
    rank=st.integers(1, 2),
    projective=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_gram_is_one_block_per_summand_row(sizes, base, rank, projective, seed):
    """<E_ab (x) xi, E_cd (x) eta> = δ_ac <xi, rho(E_bd) eta>: for a random Kraus map
    the pairwise reference Gram is exactly zero outside the (summand, row) blocks
    of the spanning set, its n_k row blocks of a summand are equal entry for
    entry, and G_k and C_k are its row-0 blocks within REL, on a free E and on
    a projective one (the range of a rank-one projection of B^(rank+1))."""
    source = FiniteCStarAlgebra(tuple(sizes))
    algebra_b = named_algebra(base)
    gen = np.random.default_rng(seed)
    if projective:
        v = linalg.random_complex(gen, (rank + 1) * algebra_b.total_dim, 1)
        v /= np.linalg.norm(v)
        module = HilbertModule.from_projection(algebra_b, rank + 1, v @ v.conj().T)
        assert not module.is_free
    else:
        module = HilbertModule.free(algebra_b, rank)
    rho = random_cp_map(source, module, gen)
    whole = pairwise_reference.gram_reference(rho)
    gram = gram_operator(rho)
    d_e, big_d = module.complex_dim, module.block_dim
    # E_αβ of summand k, at basis index off_k + α·n_k + β, lies in block off_k + α.
    offsets, blocks = source.coord_offsets, source.block_sizes
    block = np.concatenate([np.repeat(off + np.arange(n), n) for off, n in zip(offsets, blocks)])
    labels = np.repeat(block, d_e)
    outside = labels[:, None] != labels[None, :]
    assert np.all(whole[np.kron(outside, np.ones((big_d, big_d), bool))] == 0.0)
    g4 = whole.reshape(len(labels), big_d, len(labels), big_d)
    for off, n in zip(offsets, blocks):
        rows = [slice((off + a * n) * d_e, (off + a * n + n) * d_e) for a in range(n)]
        for row in rows[1:]:
            assert np.array_equal(g4[row, :, row], g4[rows[0], :, rows[0]])
    reference = pairwise_reference.summand_blocks(rho, whole)
    assert len(gram.bvalued_blocks) == len(gram.scalar_blocks) == len(reference)
    for g_k, c_k, (old_g, old_c) in zip(gram.bvalued_blocks, gram.scalar_blocks, reference):
        assert g_k.shape == old_g.shape and c_k.shape == old_c.shape
        scale = max(1.0, np.linalg.norm(old_g))
        assert np.linalg.norm(g_k - old_g) <= pairwise_reference.REL * scale
        assert np.linalg.norm(c_k - old_c) <= pairwise_reference.REL * scale


def test_null_cut_is_global_over_summands():
    """On C⊕C with rho(e_1) = diag(1, 1 - t) and rho(e_2) = diag(0, t), t = 1e-12,
    C_2's top eigenvalue t lies below the null cut 1e-9 that C_1 sets, so both
    classes of e_2 are null, as in the whole Gram; a cut taken from C_2's own
    top would keep one."""
    t = 1e-12
    module = HilbertModule.free(C, 2)
    images = [np.diag([1.0, 1.0 - t]), np.diag([0.0, t])]
    rho = CompletelyPositiveMap.from_dense_images(FiniteCStarAlgebra((1, 1)), module, images)
    core = minimal_dilation(rho)
    assert core.quotient.threshold == pytest.approx(1e-9, rel=1e-12)
    assert (core.module.complex_dim, core.quotient.null_dim) == (2, 2)
    pairwise_reference.assert_summand_quotient_agrees(core, None)


def _assert_descends_as_reference(core, d, act, rep):
    """Every residual passes, matches the per-element loops, and v_g and V are
    the kron-and-permute ones of `descended_reference`."""
    assert d.residuals.passed
    assert_matches_dilation_reference(verify_dilation(d), d)
    _, v, connector = pairwise_reference.descended_reference(core, act, rep)
    assert np.abs(v - np.stack([u.flat for u in d.group_unitaries.unitaries])).max() <= 1e-12
    assert np.abs(connector - d.connector.flat).max() <= 1e-12
    assert d.residuals.check("null space preserved").residual <= 1e-9


SWAPPED = [FiniteCStarAlgebra((1, 1)), FiniteCStarAlgebra((2, 2))]


@pytest.mark.parametrize("order_seed", [None, 5])
@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("base", ["c", "m2"])
@pytest.mark.parametrize("source", SWAPPED, ids=["c+c", "m2+m2"])
def test_summand_swapping_action_descends(source, base, rank, order_seed):
    """Z2 swapping the two summands moves each class into the other summand, so
    v_g is read off the cross-summand blocks of `class_matrices` only (every
    grid action is inner, and leaves those blocks zero)."""
    module = HilbertModule.free(named_algebra(base), rank)
    act = GroupAction.by_block_permutation(FiniteGroup.cyclic(2), source, [[0, 1], [1, 0]])
    rep = standard_representation("z2", module)
    rho = random_covariant_cp(source, module, act, rep, seed=31 + rank)
    core = minimal_dilation(rho, order_seed=order_seed)
    _assert_descends_as_reference(core, covariant_extend(core, act, rep), act, rep)


@pytest.mark.parametrize("order_seed", [None, 5])
def test_summand_swapping_action_with_a_null_space(order_seed):
    """rho(a ⊕ b) = (a_00 + b_00)/2 into C is covariant for the swap of M2⊕M2
    with the trivial u, and leaves a null space of dimension 4 (one null label
    in each row of each summand), which the swap carries across summands."""
    source = FiniteCStarAlgebra((2, 2))
    module = HilbertModule.free(C, 1)
    corner = [0.5 if i in (0, 4) else 0.0 for i in range(source.linear_dim)]
    rho = CompletelyPositiveMap.from_dense_images(source, module, [[[c]] for c in corner])
    act = GroupAction.by_block_permutation(FiniteGroup.cyclic(2), source, [[0, 1], [1, 0]])
    rep = UnitaryRepresentation.trivial(act.group, module)
    core = minimal_dilation(rho, order_seed=order_seed)
    assert (core.module.complex_dim, core.quotient.null_dim) == (4, 4)
    _assert_descends_as_reference(core, covariant_extend(core, act, rep), act, rep)


def test_support_cut_is_global_over_summands():
    """An eigenvalue of one summand's pushed Gram above SUPPORT_REL times that
    summand's top, but below SUPPORT_REL times the top over all summands, is cut."""
    pushed = [(np.array([2.0]), np.eye(1)), (np.array([1.5e-12, 1.0]), np.eye(2))]
    roots = dilation_layer._support_roots(pushed, 1)
    assert [root.u.shape[1] for root in roots] == [1, 1]
    assert np.array_equal(roots[1].w, np.diag([0.0, 1.0]))
