import numpy as np
import pytest

import pairwise_reference

from prostar.algebra import FiniteCStarAlgebra, StarHomomorphism
from prostar.cpmaps import CompletelyPositiveMap
from prostar.errors import StructuralError
from prostar.groups import (
    FiniteGroup,
    GroupAction,
    UnitaryRepresentation,
    check_covariance,
    covariant_average,
    verify_action,
    verify_group,
    verify_unitary_representation,
)
from prostar.modules import HilbertModule
from prostar.recipes import random_cp_map, standard_action, standard_representation

M2 = FiniteCStarAlgebra((2,))
C = FiniteCStarAlgebra((1,))
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


class TestGroups:
    def test_z2(self):
        g = FiniteGroup.cyclic(2)
        assert verify_group(g).passed
        assert g.identity == 0 and g.inverse(1) == 1
        assert g.modular_function(1) == 1.0

    def test_s3_exhaustive(self):
        # brute force over all 216 triples
        g = FiniteGroup.symmetric(3)
        assert g.order == 6
        rep = verify_group(g)
        assert rep.passed
        for a in range(6):
            for b in range(6):
                for c in range(6):
                    assert g.multiply(g.multiply(a, b), c) == g.multiply(a, g.multiply(b, c))

    def test_broken_table(self):
        g = FiniteGroup.from_table([[0, 1], [1, 1]])
        rep = verify_group(g)
        assert not rep.passed
        failing = [c for c in rep.checks if not c.passed]
        assert failing and failing[0].detail


class TestActions:
    def test_trivial(self):
        g = FiniteGroup.symmetric(3)
        assert verify_action(GroupAction.trivial(g, M2)).passed

    def test_conjugation_z2(self):
        g = FiniteGroup.cyclic(2)
        act = GroupAction.by_conjugation(g, M2, [[np.eye(2)], [X]])
        assert verify_action(act).passed

    def test_block_swap_outer(self):
        g = FiniteGroup.cyclic(2)
        cc = FiniteCStarAlgebra((1, 1))
        act = GroupAction.by_block_permutation(g, cc, [[0, 1], [1, 0]])
        assert verify_action(act).passed

    def test_non_involutive_fails(self):
        # on C^2, the nonidentity element maps (x, y) -> (y, 2x): not a *-automorphism
        g = FiniteGroup.cyclic(2)
        cc = FiniteCStarAlgebra((1, 1))
        bad = StarHomomorphism(cc, cc, np.array([[0.0, 2.0], [1.0, 0.0]]))
        act = GroupAction(g, cc, (StarHomomorphism.identity(cc), bad))
        rep = verify_action(act)
        assert not rep.passed
        assert not rep.check("cocycle law").passed or not rep.check("*-automorphisms").passed

    def test_automorphisms_are_isometric(self, rng):
        act = standard_action("s3", FiniteCStarAlgebra((3,)))
        for g in act.group.elements():
            for b in act.algebra.basis():
                assert abs(act.apply(g, b).operator_norm() - b.operator_norm()) <= 1e-10


class TestRepresentations:
    def test_trivial(self):
        g = FiniteGroup.symmetric(3)
        e = HilbertModule.free(M2, 2)
        assert verify_unitary_representation(UnitaryRepresentation.trivial(g, e)).passed

    def test_swap_on_c2(self):
        g = FiniteGroup.cyclic(2)
        e = HilbertModule.free(C, 2)
        u = UnitaryRepresentation.from_complex_matrices(g, e, [np.eye(2), X])
        assert verify_unitary_representation(u).passed

    def test_half_identity_fails(self):
        g = FiniteGroup.cyclic(2)
        e = HilbertModule.free(C, 2)
        u = UnitaryRepresentation(
            g, e, (e.identity_operator(), 0.5 * e.identity_operator())
        )
        rep = verify_unitary_representation(u)
        assert not rep.check("unitarity").passed

    def test_rotated_unitary_breaks_multiplicativity(self):
        # e^{i theta} u_1 stays unitary; u_1 u_2 = u_0 and the inverse law fail.
        e = HilbertModule.free(M2, 2)
        u = standard_representation("z3", e)
        unitaries = list(u.unitaries)
        unitaries[1] = np.exp(0.3j) * unitaries[1]
        bad = UnitaryRepresentation(u.group, e, tuple(unitaries))
        report = verify_unitary_representation(bad)
        assert not report.check("multiplicativity").passed
        assert report.check("unitarity").passed
        scale = pairwise_reference.product_scale(bad.values)
        for old in pairwise_reference.unitary_representation_reference(bad, 1e-10):
            new = report.check(old.name)
            pairwise_reference.assert_agrees(new.residual, old.residual, scale, new.threshold)

    def test_inverse_law(self):
        e = HilbertModule.free(M2, 2)
        u = standard_representation("z3", e)
        for g in u.group.elements():
            inv = u.group.inverse(g)
            assert (
                np.abs(u.unitaries[inv].flat - u.unitaries[g].flat.conj().T).max()
                <= 1e-10
            )


class TestCovariance:
    def test_trivial_group_vacuous(self, rng):
        e = HilbertModule.free(C, 2)
        rho = random_cp_map(M2, e, rng)
        g = FiniteGroup.trivial()
        rep = check_covariance(rho, GroupAction.trivial(g, M2), UnitaryRepresentation.trivial(g, e))
        assert rep.passed

    def test_tautological_conjugation(self):
        g = FiniteGroup.cyclic(2)
        e = HilbertModule.free(C, 2)
        rho = CompletelyPositiveMap.identity_representation(M2, e)
        act = GroupAction.by_conjugation(g, M2, [[np.eye(2)], [X]])
        u = UnitaryRepresentation.from_complex_matrices(g, e, [np.eye(2), X])
        rep = check_covariance(rho, act, u)
        assert rep.passed and rep.max_residual == 0.0

    def test_noncovariant_fails(self):
        # rho(a) = diag(a11, a11) is not covariant for the swap action
        g = FiniteGroup.cyclic(2)
        e = HilbertModule.free(C, 2)
        values = []
        for i, b in enumerate(M2.basis()):
            a11 = b.blocks[0][0, 0]
            values.append(np.diag([a11, a11]).astype(complex))
        rho = CompletelyPositiveMap.from_dense_images(M2, e, values)
        act = GroupAction.by_conjugation(g, M2, [[np.eye(2)], [X]])
        u = UnitaryRepresentation.from_complex_matrices(g, e, [np.eye(2), X])
        rep = check_covariance(rho, act, u)
        assert not rep.passed
        assert rep.max_residual >= 0.5

    def test_cached_per_action_and_representation(self):
        """The identity map of M2 is covariant for Ad(X) with u = X, and not for
        Ad(X) with trivial u or for the trivial action with u = X. Each pair is
        decided on its own residual, cached on rho under the pair itself."""
        g = FiniteGroup.cyclic(2)
        e = HilbertModule.free(C, 2)
        rho = CompletelyPositiveMap.identity_representation(M2, e)
        act = GroupAction.by_conjugation(g, M2, [[np.eye(2)], [X]])
        still = GroupAction.trivial(g, M2)
        u = UnitaryRepresentation.from_complex_matrices(g, e, [np.eye(2), X])
        trivial = UnitaryRepresentation.trivial(g, e)
        pairs = ((act, u, True), (act, trivial, False), (still, u, False), (still, trivial, True))
        for _ in range(2):
            for action, rep, covariant in pairs:
                assert check_covariance(rho, action, rep, 1e-12).passed == covariant
        assert list(rho._covariances) == [(a, r) for a, r, _ in pairs]

    @pytest.mark.parametrize("k", range(4))
    def test_witness_names_perturbed_pair(self, k):
        # Z2 acts trivially on M2 and by u = diag(1, -1) on C^2; the diagonal
        # map rho(a) = diag(a11, a22) commutes with u. An off-diagonal
        # perturbation of rho(E_k) breaks covariance at (g=1, basis #k) only.
        g = FiniteGroup.cyclic(2)
        e = HilbertModule.free(C, 2)
        values = [np.diag(np.diag(b.blocks[0])).astype(complex) for b in M2.basis()]
        values[k] = values[k] + 0.25 * X
        rho = CompletelyPositiveMap.from_dense_images(M2, e, values)
        u = UnitaryRepresentation.from_complex_matrices(g, e, [np.eye(2), np.diag([1.0, -1.0])])
        rep = check_covariance(rho, GroupAction.trivial(g, M2), u)
        check = rep.check("rho(alpha_g(a)) = u_g rho(a) u_g*")
        assert not check.passed
        assert check.detail == f"g=1, basis #{k}"
        assert check.residual == pytest.approx(0.5 * np.sqrt(2.0), rel=1e-15)

    def test_structural_mismatch_raises(self, rng):
        e = HilbertModule.free(C, 2)
        rho = random_cp_map(M2, e, rng)
        z2 = FiniteGroup.cyclic(2)
        act = GroupAction.trivial(z2, M2)
        with pytest.raises(StructuralError, match="module"):
            check_covariance(rho, act, UnitaryRepresentation.trivial(z2, HilbertModule.free(C, 3)))
        with pytest.raises(StructuralError, match="groups"):
            check_covariance(rho, act, UnitaryRepresentation.trivial(FiniteGroup.cyclic(3), e))
        with pytest.raises(StructuralError, match="source"):
            check_covariance(rho, GroupAction.trivial(z2, C), UnitaryRepresentation.trivial(z2, e))


class TestCovariantAverage:
    def test_trivial_group_unchanged(self, rng):
        e = HilbertModule.free(C, 2)
        sigma = random_cp_map(M2, e, rng)
        g = FiniteGroup.trivial()
        avg = covariant_average(
            sigma, GroupAction.trivial(g, M2), UnitaryRepresentation.trivial(g, e)
        )
        for a, b in zip(avg.basis_values, sigma.basis_values):
            assert np.array_equal(a.flat, b.flat)

    def test_already_covariant_fixed(self, rng):
        g = FiniteGroup.cyclic(2)
        e = HilbertModule.free(C, 2)
        act = GroupAction.by_conjugation(g, M2, [[np.eye(2)], [X]])
        u = UnitaryRepresentation.from_complex_matrices(g, e, [np.eye(2), X])
        sigma = covariant_average(random_cp_map(M2, e, rng), act, u)
        again = covariant_average(sigma, act, u)
        worst = max(
            np.abs(a.flat - b.flat).max()
            for a, b in zip(again.basis_values, sigma.basis_values)
        )
        assert worst <= 1e-12

    @pytest.mark.parametrize("group_name", ["z2", "z3", "s3"])
    def test_average_is_covariant_and_cp(self, group_name, rng):
        e = HilbertModule.free(M2, 2)
        a3 = FiniteCStarAlgebra((3,))
        act = standard_action(group_name, a3)
        u = standard_representation(group_name, e)
        sigma = random_cp_map(a3, e, rng)
        assert sigma.verify_completely_positive().is_cp
        avg = covariant_average(sigma, act, u)
        assert check_covariance(avg, act, u).max_residual <= 1e-11
        # averaging preserves the CP certificate
        assert avg.verify_completely_positive().is_cp
