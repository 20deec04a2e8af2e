from dataclasses import replace

import numpy as np
import pytest

import pairwise_reference

from prostar.algebra import FiniteCStarAlgebra
from prostar.cpmaps import CompletelyPositiveMap
from prostar.dilation import (
    CovariantTriple,
    covariant_dilation,
    covariant_extend,
    gram_operator,
    minimal_dilation,
    padded_variant,
    scaled_connector_variant,
    uniqueness_unitary,
    verify_dilation,
)
from prostar.errors import PreconditionError
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
        gram = gram_operator(rho)
        assert gram.scalar.shape == (1, 1)
        assert gram.scalar[0, 0] == pytest.approx(1.0)

    def test_trace_state_gram_is_half_identity(self):
        e = HilbertModule.free(C, 1)
        rho = CompletelyPositiveMap.trace_state(M2, e)
        rho.verify_completely_positive()
        gram = gram_operator(rho)
        # oracle: S[(i),(j)] = tr(a_i* a_j)/2 over the matrix-unit basis
        basis = list(M2.basis())
        oracle = np.array(
            [[(a.adjoint() * b).trace() / 2.0 for b in basis] for a in basis]
        )
        assert np.allclose(gram.scalar, oracle, atol=1e-13)
        assert np.allclose(gram.scalar, 0.5 * np.eye(4), atol=1e-13)

    def test_zero_map_gram(self):
        e = HilbertModule.free(C, 2)
        rho = CompletelyPositiveMap.zero(M2, e)
        rho.verify_completely_positive()
        gram = gram_operator(rho)
        assert np.abs(gram.bvalued_flat).max() == 0.0

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
        # zero B-valued self-pairing iff zero trace pairing, both directions
        b = FiniteCStarAlgebra((2,))
        e = HilbertModule.free(b, 1)
        rho = CompletelyPositiveMap.identity_representation(
            FiniteCStarAlgebra((2,)), e
        )
        rho.verify_completely_positive()
        gram = gram_operator(rho)
        n = gram.scalar.shape[0]
        big_d = e.block_dim
        vals, vecs = np.linalg.eigh(gram.scalar)
        assert (vals <= 1e-9 * vals.max()).sum() > 0  # a genuine quotient

        def bform(v):
            x = np.kron(v.reshape(-1, 1), np.eye(big_d))
            return np.linalg.norm(x.conj().T @ gram.bvalued_flat @ x)

        for k in range(n):
            scalar_zero = vals[k] <= 1e-9 * vals.max()
            b_zero = bform(vecs[:, k]) <= 1e-9 * vals.max()
            assert scalar_zero == b_zero
        # random directions agree as well
        gen = np.random.default_rng(2)
        for _ in range(10):
            v = gen.standard_normal(n) + 1j * gen.standard_normal(n)
            v /= np.linalg.norm(v)
            scalar_val = float((v.conj() @ gram.scalar @ v).real)
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


def assert_matches_dilation_reference(report, d) -> None:
    """verify_dilation's report agrees check by check with the per-element loops."""
    scale = pairwise_reference.product_scale(d.group_unitaries._unitary_tensor)
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


class TestUniqueness:
    def test_self_gives_identity(self):
        rho, act, rep = dilation_instance("m2", "c", 2, "z2", seed=13)
        d = covariant_dilation(rho, act, rep)
        u, report = uniqueness_unitary(d, d.as_triple())
        assert report.passed
        assert np.abs(u.flat - d.module.projection_flat).max() <= 1e-12

    def test_permuted_realization(self):
        rho, act, rep = dilation_instance("m2", "c", 2, "z2", seed=14)
        d = covariant_dilation(rho, act, rep)
        r = d.module.rank
        perm = np.random.default_rng(3).permutation(r)
        pmat = np.eye(r)[perm]
        big = np.kron(pmat, np.eye(d.module.block_dim))
        other_module = HilbertModule(
            d.module.algebra, r, big @ d.module.projection_flat @ big.conj().T
        )
        phi = CompletelyPositiveMap(
            rho.source,
            other_module,
            tuple(
                AdjointableOperator(other_module, other_module, big @ v.flat @ big.conj().T)
                for v in d.representation.basis_values
            ),
        )
        vperm = UnitaryRepresentation(
            act.group,
            other_module,
            tuple(
                AdjointableOperator(other_module, other_module, big @ v.flat @ big.conj().T)
                for v in d.group_unitaries.unitaries
            ),
        )
        w = AdjointableOperator(rho.module, other_module, big @ d.connector.flat)
        u, report = uniqueness_unitary(d, CovariantTriple(phi, vperm, other_module, w))
        assert report.passed and report.max_residual <= 1e-11
        assert np.abs(u.flat - big @ d.module.projection_flat).max() <= 1e-10

    def test_two_seeds_unitarily_equivalent(self):
        rho, act, rep = dilation_instance("m2+c", "m2", 2, "z3", seed=15)
        d1 = covariant_dilation(rho, act, rep, order_seed=1)
        d2 = covariant_dilation(rho, act, rep, order_seed=2)
        _, report = uniqueness_unitary(d1, d2.as_triple())
        assert report.passed
        assert report.max_residual <= 1e-9

    def test_scaled_candidate_rejected(self):
        rho, act, rep = dilation_instance("m2", "c", 1, "z2", seed=16)
        d = covariant_dilation(rho, act, rep)
        other = d.as_triple()
        bad = CovariantTriple(
            other.representation, other.unitaries, other.module, 0.5 * other.connector
        )
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
        new, old = self._rejections(d, padded_variant(d).as_triple())
        assert "(b)" in new and new == old

    def test_trivial_unitaries_rejected_by_intertwining(self):
        # u_1 swaps the two coordinates of E, so v'_g = 1 breaks v'_g W = W u_g.
        rho, act, rep = dilation_instance("m2", "c", 2, "z2", seed=16)
        d = covariant_dilation(rho, act, rep)
        trivial = UnitaryRepresentation.trivial(act.group, d.module)
        candidate = CovariantTriple(d.representation, trivial, d.module, d.connector)
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
    _, uniqueness = uniqueness_unitary(d, d.as_triple())
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
