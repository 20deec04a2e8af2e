import numpy as np
import pytest

from prostar.algebra import FiniteCStarAlgebra, StarHomomorphism
from prostar.crossed import build_crossed_product
from prostar.dilation import covariant_dilation
from prostar.errors import PreconditionError, StructuralError
from prostar.groups import FiniteGroup, GroupAction
from prostar.modules import AdjointableOperator, HilbertModule
from prostar.recipes import (
    random_covariant_cp,
    standard_action,
    standard_representation,
)
from prostar.tower import (
    AlgebraTower,
    CoherentElement,
    DirectedPoset,
    ModuleTower,
    TowerAction,
    levelwise_integrated_coherence,
    levelwise_dilation_coherence,
)


def two_level_tower():
    bp = FiniteCStarAlgebra((1, 1))
    bq = FiniteCStarAlgebra((1,))
    pi = StarHomomorphism.block_projection(bp, [0])
    return AlgebraTower.from_covers({"q": bq, "p": bp}, [("q", "p")], {("p", "q"): pi})


def three_level_maps():
    b3 = FiniteCStarAlgebra((2, 1, 1))
    b2 = FiniteCStarAlgebra((2, 1))
    return {
        ("q", "r"): StarHomomorphism.block_projection(b2, [0]),
        ("p", "q"): StarHomomorphism.block_projection(b3, [0, 1]),
    }


def three_level_algebras(maps):
    return {
        "r": maps[("q", "r")].target,
        "q": maps[("q", "r")].source,
        "p": maps[("p", "q")].source,
    }


def three_level_tower():
    maps = three_level_maps()
    return AlgebraTower.from_covers(three_level_algebras(maps), [("r", "q"), ("q", "p")], maps)


class TestPoset:
    def test_chain(self):
        poset = DirectedPoset(("a", "b", "c"), frozenset({("a", "b"), ("b", "c"), ("a", "c")}))
        assert poset.verify().passed
        assert poset.greatest() == "c"
        assert poset.leq("a", "c") and not poset.leq("c", "a")

    def test_not_directed(self):
        poset = DirectedPoset(("a", "b"), frozenset())
        rep = poset.verify()
        assert not rep.check("directedness").passed


class TestAlgebraTower:
    def test_single_level_vacuous(self):
        alg = FiniteCStarAlgebra((2,))
        tower = AlgebraTower.from_covers({"p": alg}, [], {})
        assert tower.verify().passed

    def test_two_level_projection(self):
        assert two_level_tower().verify().passed

    def test_three_level_chain(self):
        assert three_level_tower().verify().passed

    def test_broken_square_detected(self):
        b3 = FiniteCStarAlgebra((2, 1, 1))
        b1 = FiniteCStarAlgebra((2,))
        tower = three_level_tower()
        # corrupt the long map p -> r so the composition square breaks
        bad_connecting = dict(tower.connecting)
        bad_connecting[("p", "r")] = StarHomomorphism(
            b3, b1, np.zeros((4, 6), dtype=complex)
        )
        bad = AlgebraTower(tower.poset, tower.algebras, bad_connecting)
        rep = bad.verify()
        assert not rep.passed
        assert "p -> q -> r" in rep.check("composition squares").detail
        # The zero map is no surjection; the intact maps are.
        assert not rep.check("connecting maps surjective").passed
        assert tower.verify().check("connecting maps surjective").passed


class TestCoherentElements:
    def test_from_top_and_arithmetic(self, rng):
        tower = three_level_tower()
        a = tower.algebras["p"].random_element(rng)
        b = tower.algebras["p"].random_element(rng)
        ca, cb = CoherentElement.from_top(tower, "p", a), CoherentElement.from_top(tower, "p", b)
        assert ca.verify().passed
        assert (ca + cb).verify(1e-11).passed
        assert (ca * cb).verify(1e-11).passed
        assert ca.adjoint().verify(1e-11).passed

    def test_unit_seminorms(self):
        tower = three_level_tower()
        unit = CoherentElement.from_top(tower, "p", tower.algebras["p"].unit())
        for level in ("p", "q", "r"):
            assert unit.seminorm(level) == pytest.approx(1.0)

    def test_monotonicity(self, rng):
        tower = three_level_tower()
        for _ in range(5):
            a = CoherentElement.from_top(tower, "p", tower.algebras["p"].random_element(rng))
            assert a.seminorm("p") >= a.seminorm("q") - 1e-10
            assert a.seminorm("q") >= a.seminorm("r") - 1e-10

    def test_directedness_bound(self, rng):
        tower = three_level_tower()
        a = CoherentElement.from_top(tower, "p", tower.algebras["p"].random_element(rng))
        upper = tower.poset.upper_bound("q", "r")
        assert max(a.seminorm("q"), a.seminorm("r")) <= a.seminorm(upper) + 1e-10

    def test_incoherent_detected(self, rng):
        tower = two_level_tower()
        levels = {
            "p": tower.algebras["p"].random_element(rng),
            "q": tower.algebras["q"].unit() * 5.0,
        }
        assert not CoherentElement(tower, levels).verify().passed


class TestFromCovers:
    def test_diamond_fills_the_composite_both_ways(self):
        """r < q1, q2 < p: the one missing map p -> r is filled, and it agrees with
        the composite along each of the two routes."""
        bp, bq, br = (FiniteCStarAlgebra(s) for s in ((1, 1, 1), (1, 1), (1,)))
        maps = {
            ("p", "q1"): StarHomomorphism.block_projection(bp, [0, 1]),
            ("p", "q2"): StarHomomorphism.block_projection(bp, [0, 2]),
            ("q1", "r"): StarHomomorphism.block_projection(bq, [0]),
            ("q2", "r"): StarHomomorphism.block_projection(bq, [0]),
        }
        covers = [("r", "q1"), ("r", "q2"), ("q1", "p"), ("q2", "p")]
        tower = AlgebraTower.from_covers({"r": br, "q1": bq, "q2": bq, "p": bp}, covers, maps)
        assert set(tower.connecting) == set(maps) | {("p", "r")}
        for q in ("q1", "q2"):
            route = maps[(q, "r")].compose(maps[("p", q)])
            assert np.array_equal(tower.map("p", "r").action_matrix, route.action_matrix)
        assert tower.poset.greatest() == "p"
        assert tower.verify().passed

    def test_given_map_for_a_non_cover_pair_is_kept(self):
        maps = three_level_maps()
        given = StarHomomorphism.block_projection(maps[("p", "q")].source, [0])
        maps[("p", "r")] = given
        tower = AlgebraTower.from_covers(
            three_level_algebras(maps), [("r", "q"), ("q", "p")], maps
        )
        assert tower.connecting[("p", "r")] is given
        assert tower.verify().passed

    def test_chain_matches_consecutive_composition_bit_for_bit(self):
        """The composite of a chain is pi_qr ∘ pi_pq, the product the chain builder
        formed: (pi_qr.action_matrix) @ (pi_pq.action_matrix)."""
        maps = three_level_maps()
        tower = three_level_tower()
        assert tower.poset.relations == {("r", "q"), ("q", "p"), ("r", "p")}
        for pair, hom in maps.items():
            assert np.array_equal(tower.connecting[pair].action_matrix, hom.action_matrix)
        expected = maps[("q", "r")].action_matrix @ maps[("p", "q")].action_matrix
        assert np.array_equal(tower.connecting[("p", "r")].action_matrix, expected)

    @pytest.mark.parametrize(
        "covers",
        [[("p", "p")], [("q", "p"), ("p", "q")], [("r", "q"), ("q", "p"), ("p", "r")]],
    )
    def test_cycle_rejected(self, covers):
        alg = FiniteCStarAlgebra((1,))
        ident = StarHomomorphism.identity(alg)
        algebras = {"p": alg, "q": alg, "r": alg}
        maps = {(upper, lower): ident for lower, upper in covers if lower != upper}
        with pytest.raises(StructuralError, match="cycle"):
            AlgebraTower.from_covers(algebras, covers, maps)

    def test_unrelated_map_and_missing_cover_map_rejected(self):
        maps = three_level_maps()
        algebras = three_level_algebras(maps)
        with pytest.raises(StructuralError, match="not related"):
            AlgebraTower.from_covers(algebras, [("r", "q")], maps)
        del maps[("p", "q")]
        with pytest.raises(StructuralError, match="missing connecting map p -> q"):
            AlgebraTower.from_covers(algebras, [("r", "q"), ("q", "p")], maps)


class TestTowerAction:
    def test_compatible_action(self):
        tower = two_level_tower()
        group = FiniteGroup.cyclic(2)
        # trivial at both levels is trivially compatible
        ta = TowerAction(
            group,
            tower,
            {
                "p": GroupAction.trivial(group, tower.algebras["p"]),
                "q": GroupAction.trivial(group, tower.algebras["q"]),
            },
        )
        assert ta.verify().passed

    def test_g_invariant_seminorms(self, rng):
        tower = three_level_tower()
        group = FiniteGroup.cyclic(3)
        actions = {
            lvl: standard_action("z3", alg) for lvl, alg in tower.algebras.items()
        }
        ta = TowerAction(group, tower, actions)
        a = CoherentElement.from_top(tower, "p", tower.algebras["p"].random_element(rng))
        for lvl in tower.poset.elements:
            for g in group.elements():
                moved = actions[lvl].apply(g, a.levels[lvl])
                assert abs(moved.operator_norm() - a.seminorm(lvl)) <= 1e-10


class TestInducedMaps:
    def test_identity_connecting(self):
        tower = two_level_tower()
        mt = ModuleTower.of_free_modules(tower, 2)
        t = mt.modules["p"].identity_operator()
        pushed = mt.induced_operator("p", "p", t)
        assert pushed is t

    def test_block_projection_induces_block(self, rng):
        tower = two_level_tower()
        mt = ModuleTower.of_free_modules(tower, 2)
        bp = tower.algebras["p"]
        t = AdjointableOperator.from_entries(
            mt.modules["p"],
            mt.modules["p"],
            [[bp.random_element(rng) for _ in range(2)] for _ in range(2)],
        )
        pushed = mt.induced_operator("p", "q", t)
        # (pi)_*(T)(sigma(xi)) = sigma(T(xi)) on the complex basis of the level-p module
        basis = mt.modules["p"].basis_tensor
        lhs = pushed.flat @ mt.push("p", "q", basis, 1)
        assert np.abs(lhs - mt.push("p", "q", t.flat @ basis, 1)).max() <= 1e-12
        for i in range(2):
            for j in range(2):
                assert (
                    pushed.entry(i, j).blocks[0][0, 0]
                    == t.entry(i, j).blocks[0][0, 0]
                )

    def test_functoriality(self, rng):
        tower = three_level_tower()
        mt = ModuleTower.of_free_modules(tower, 2)
        bp = tower.algebras["p"]
        t = AdjointableOperator.from_entries(
            mt.modules["p"],
            mt.modules["p"],
            [[bp.random_element(rng) for _ in range(2)] for _ in range(2)],
        )
        via = mt.induced_operator("q", "r", mt.induced_operator("p", "q", t))
        direct = mt.induced_operator("p", "r", t)
        assert np.abs(via.flat - direct.flat).max() <= 1e-10


class TestModuleTower:
    def test_free_tower_verifies(self):
        assert ModuleTower.of_free_modules(three_level_tower(), 2).verify().passed

    def test_pushed_down_tower(self):
        tower = two_level_tower()
        # projective module at the top: range of a projection in M2(B_p)
        bp = tower.algebras["p"]
        proj = np.diag([1.0, 1.0, 1.0, 0.0]).astype(complex)
        top = HilbertModule.from_projection(bp, 2, proj)
        mt = ModuleTower.pushed_down(tower, "p", top)
        assert mt.verify().passed
        assert mt.modules["q"].complex_dim <= top.complex_dim

    @pytest.mark.parametrize("group_name", ["z2", "z3"])
    def test_pushed_down_levels_have_orthonormal_coordinate_bases(self, group_name):
        # The chain and dilation of `tools/dump_checks.py`, at Z2 and Z3 on M2.
        tower = three_level_tower()
        free = ModuleTower.of_free_modules(tower, 1)
        a2 = FiniteCStarAlgebra((2,))
        act = standard_action(group_name, a2)
        u = standard_representation(group_name, free.modules["p"])
        d = covariant_dilation(random_covariant_cp(a2, free.modules["p"], act, u, 1), act, u)
        mt = ModuleTower.pushed_down(tower, "p", d.module)
        for level in ("q", "r"):
            module = mt.modules[level]
            assert not module.is_free
            coords = module.coord_basis.reshape(module.complex_dim, -1).T
            s = np.linalg.svd(coords, compute_uv=False)
            assert s[0] / s[-1] <= 1 + 1e-9, (level, s[0] / s[-1])

    def test_tampered_level_fails_projections(self):
        tower = two_level_tower()
        top = HilbertModule.from_projection(
            tower.algebras["p"], 2, np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)
        )
        assert ModuleTower.pushed_down(tower, "p", top).verify().passed
        free_q = HilbertModule.free(tower.algebras["q"], 2)
        check = ModuleTower(tower, {"p": top, "q": free_q}).verify().check("projections connect")
        assert not check.passed
        assert check.detail == "p -> q"

    def test_scaled_connecting_map_fails_inner_products(self):
        bp, bq = FiniteCStarAlgebra((1, 1)), FiniteCStarAlgebra((1,))
        pi = StarHomomorphism.block_projection(bp, [0])
        doubled = StarHomomorphism(bp, bq, 2.0 * pi.action_matrix)
        tower = AlgebraTower.from_covers({"q": bq, "p": bp}, [("q", "p")], {("p", "q"): doubled})
        mt = ModuleTower.of_free_modules(tower, 1)
        assert not mt.verify().check("inner products connect").passed
        a2 = FiniteCStarAlgebra((2,))
        act = standard_action("z2", a2)
        u = standard_representation("z2", mt.modules["p"])
        rho = random_covariant_cp(a2, mt.modules["p"], act, u, 52)
        with pytest.raises(PreconditionError):
            levelwise_dilation_coherence(rho, act, u, mt)


class TestLevelwiseCoherence:
    def test_single_level_reduces_to_dilation(self):
        alg = FiniteCStarAlgebra((1, 1))
        tower = AlgebraTower.from_covers({"p": alg}, [], {})
        mt = ModuleTower.of_free_modules(tower, 1)
        a2 = FiniteCStarAlgebra((2,))
        act = standard_action("z2", a2)
        u = standard_representation("z2", mt.modules["p"])
        rho = random_covariant_cp(a2, mt.modules["p"], act, u, 51)
        rep = levelwise_dilation_coherence(rho, act, u, mt)
        assert rep.passed

    @pytest.mark.parametrize("group_name", ["trivial", "z2"])
    def test_two_level_dilation_coherence(self, group_name):
        tower = two_level_tower()
        mt = ModuleTower.of_free_modules(tower, 1)
        a2 = FiniteCStarAlgebra((2,))
        act = standard_action(group_name, a2)
        u = standard_representation(group_name, mt.modules["p"])
        rho = random_covariant_cp(a2, mt.modules["p"], act, u, 52)
        rep = levelwise_dilation_coherence(rho, act, u, mt)
        assert rep.passed, str(rep.report)
        assert rep.max_residual <= 1e-9
        assert rep.level_dimensions["p"] >= rep.level_dimensions["q"]

    def test_three_level_dilation_coherence(self):
        tower = three_level_tower()
        mt = ModuleTower.of_free_modules(tower, 1)
        a3 = FiniteCStarAlgebra((3,))
        act = standard_action("z3", a3)
        u = standard_representation("z3", mt.modules["p"])
        rho = random_covariant_cp(a3, mt.modules["p"], act, u, 53)
        rep = levelwise_dilation_coherence(rho, act, u, mt)
        assert rep.passed
        assert rep.max_residual <= 1e-9

    def test_integrated_coherence_two_level(self):
        tower = two_level_tower()
        a2 = FiniteCStarAlgebra((2,))
        act = standard_action("z2", a2)
        ep = HilbertModule.free(tower.algebras["p"], 2)
        u = standard_representation("z2", ep)
        rho = random_covariant_cp(a2, ep, act, u, 54)
        d = covariant_dilation(rho, act, u)
        mt = ModuleTower.pushed_down(tower, "p", d.module)
        xp = build_crossed_product(act)
        rep = levelwise_integrated_coherence(
            d.representation, d.group_unitaries, xp, mt
        )
        assert rep.passed, str(rep.report)
        assert rep.max_residual <= 1e-9

    def test_noncovariant_level_rejected(self):
        tower = two_level_tower()
        mt = ModuleTower.of_free_modules(tower, 1)
        a2 = FiniteCStarAlgebra((2,))
        act = standard_action("z2", a2)
        u = standard_representation("z2", mt.modules["p"])
        rng = np.random.default_rng(55)
        from prostar.recipes import random_cp_map, unitalize

        rho = unitalize(random_cp_map(a2, mt.modules["p"], rng))  # not covariant
        with pytest.raises(PreconditionError, match="is not covariant"):
            levelwise_dilation_coherence(rho, act, u, mt)
