import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairwise_reference
from prostar import linalg
from prostar.algebra import FiniteCStarAlgebra, StarHomomorphism
from prostar.crossed import (
    ConvolutionElement,
    _spanning_residuals,
    build_crossed_product,
    extend_covariant_cp,
    integrated_form,
)
from prostar.dilation import covariant_dilation, scaled_connector_variant
from prostar.errors import NumericalError, PreconditionError, StructuralError
from prostar.groups import FiniteGroup, GroupAction, UnitaryRepresentation, check_covariance
from prostar.modules import AdjointableOperator, HilbertModule
from prostar.recipes import dilation_instance, named_algebra, named_group, standard_action

M2 = FiniteCStarAlgebra((2,))
C = FiniteCStarAlgebra((1,))


def z2_m2_action():
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return GroupAction.by_conjugation(FiniteGroup.cyclic(2), M2, [[np.eye(2)], [x]])


def random_conv(system, rng):
    return ConvolutionElement(
        system, tuple(system.algebra.random_element(rng) for _ in system.group.elements())
    )


class TestConvolution:
    def test_delta_product_trivial_action(self, rng):
        sys_ = GroupAction.trivial(FiniteGroup.cyclic(3), M2)
        a, b = M2.random_element(rng), M2.random_element(rng)
        f = ConvolutionElement.delta(sys_, 0, a)
        h = ConvolutionElement.delta(sys_, 2, b)
        out = f.convolve(h)
        assert (out.values[2] - a * b).frobenius() <= 1e-13
        assert out.values[0].frobenius() == 0.0 and out.values[1].frobenius() == 0.0

    def test_delta_product_twisted(self, rng):
        sys_ = z2_m2_action()
        a, b = M2.random_element(rng), M2.random_element(rng)
        f = ConvolutionElement.delta(sys_, 1, a)
        h = ConvolutionElement.delta(sys_, 1, b)
        out = f.convolve(h)
        # delta_g a x delta_h b = delta_{gh} (a alpha_g(b)); here g = h = 1, gh = e
        assert (out.values[0] - a * sys_.apply(1, b)).frobenius() <= 1e-13

    def test_order_one_group_is_algebra_product(self, rng):
        sys_ = GroupAction.trivial(FiniteGroup.trivial(), M2)
        a, b = M2.random_element(rng), M2.random_element(rng)
        f = ConvolutionElement.delta(sys_, 0, a)
        h = ConvolutionElement.delta(sys_, 0, b)
        assert (f.convolve(h).values[0] - a * b).frobenius() <= 1e-13

    def test_involution(self, rng):
        sys_ = z2_m2_action()
        a = M2.random_element(rng)
        f = ConvolutionElement.delta(sys_, 1, a)
        sharp = f.involution()
        # (delta_g a)# = delta_{g^-1} alpha_{g^-1}(a*); in Z2, 1^-1 = 1
        assert (sharp.values[1] - sys_.apply(1, a.adjoint())).frobenius() <= 1e-13
        assert sharp.values[0].frobenius() == 0.0
        # supported at e: plain adjoint
        fe = ConvolutionElement.delta(sys_, 0, a)
        assert (fe.involution().values[0] - a.adjoint()).frobenius() <= 1e-13

    def test_involution_laws(self, rng):
        sys_ = z2_m2_action()
        f, h = random_conv(sys_, rng), random_conv(sys_, rng)
        anti = f.convolve(h).involution()
        expected = h.involution().convolve(f.involution())
        assert max((x - y).frobenius() for x, y in zip(anti.values, expected.values)) <= 1e-12
        twice = f.involution().involution()
        assert max((x - y).frobenius() for x, y in zip(twice.values, f.values)) <= 1e-13

    def test_associativity(self, rng):
        sys_ = z2_m2_action()
        f, h, k = (random_conv(sys_, rng) for _ in range(3))
        lhs = f.convolve(h).convolve(k)
        rhs = f.convolve(h.convolve(k))
        assert max((x - y).frobenius() for x, y in zip(lhs.values, rhs.values)) <= 1e-10

    def test_l1_seminorm(self, rng):
        sys_ = z2_m2_action()
        one = ConvolutionElement(sys_, (M2.unit(), M2.unit()))
        assert one.l1_seminorm() == pytest.approx(2.0)
        delta = ConvolutionElement.delta(sys_, 1, M2.unit())
        assert delta.l1_seminorm() == pytest.approx(1.0)
        f, h = random_conv(sys_, rng), random_conv(sys_, rng)
        assert f.convolve(h).l1_seminorm() <= f.l1_seminorm() * h.l1_seminorm() + 1e-9

    def test_l1_seminorm_at_lower_level(self, rng):
        from prostar.algebra import StarHomomorphism

        alg = FiniteCStarAlgebra((2, 1))
        g = FiniteGroup.cyclic(2)
        sys_ = GroupAction.trivial(g, alg)
        pi = StarHomomorphism.block_projection(alg, [0])
        f, h = random_conv(sys_, rng), random_conv(sys_, rng)
        # pushing down is contractive and stays submultiplicative
        assert f.l1_seminorm(pi) <= f.l1_seminorm() + 1e-10
        assert (
            f.convolve(h).l1_seminorm(pi)
            <= f.l1_seminorm(pi) * h.l1_seminorm(pi) + 1e-9
        )


class TestCrossedProduct:
    @pytest.mark.parametrize(
        "algebra,group_name,expected",
        [
            ((1,), "z2", (1, 1)),
            ((1, 1), "z2", (2,)),
            ((1,), "s3", (1, 1, 2)),
            ((2,), "trivial", (2,)),
        ],
    )
    def test_golden_block_sizes(self, algebra, group_name, expected):
        alg = FiniteCStarAlgebra(algebra)
        if algebra == (1, 1) and group_name == "z2":
            action = standard_action("z2", alg)  # the block swap
        else:
            action = GroupAction.trivial(named_group(group_name), alg)
        xp = build_crossed_product(action)
        assert xp.standard_algebra.block_sizes == expected
        assert xp.embedding_report.passed

    def test_dimension_identity(self):
        for group_name in ("trivial", "z2", "z3", "s3"):
            action = standard_action(group_name, M2)
            xp = build_crossed_product(action)
            assert (
                xp.standard_algebra.linear_dim
                == action.group.order * M2.linear_dim
            )

    def test_extraction_roundtrip(self, rng):
        sys_ = z2_m2_action()
        xp = build_crossed_product(sys_)
        f = random_conv(sys_, rng)
        back = xp.extract_convolution(xp.embed(f))
        assert max((x - y).frobenius() for x, y in zip(back.values, f.values)) <= 1e-12

    def test_standardize_is_star_isomorphism(self, rng):
        sys_ = z2_m2_action()
        xp = build_crossed_product(sys_)
        f, h = random_conv(sys_, rng), random_conv(sys_, rng)
        lhs = xp.standardize(f.convolve(h))
        rhs = xp.standardize(f) * xp.standardize(h)
        assert (lhs - rhs).frobenius() <= 1e-10
        assert (xp.standardize(f.involution()) - xp.standardize(f).adjoint()).frobenius() <= 1e-10


class TestEmbeddingNegativeControls:
    """Z2 actions on M2 by maps that are not *-automorphisms: the embedding
    report fails on exactly the identity each one breaks."""

    @staticmethod
    def failed_checks(flip: StarHomomorphism) -> dict[str, float]:
        action = GroupAction(FiniteGroup.cyclic(2), M2, (StarHomomorphism.identity(M2), flip))
        with pytest.raises(NumericalError) as err:
            build_crossed_product(action)
        report = err.value.diagnostics["report"]
        assert len(report.checks) == 5
        return {c.name: c.residual for c in report.checks if not c.passed}

    def test_transpose_breaks_convolution(self):
        """a -> a^T reverses products: (delta_1 a)(delta_1 b) embeds as a^T b^T."""
        transpose = StarHomomorphism(M2, M2, np.eye(4)[[0, 2, 1, 3]])
        failed = self.failed_checks(transpose)
        assert list(failed) == ["convolution -> product"]
        assert failed["convolution -> product"] == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_non_unitary_conjugation_breaks_involution(self):
        """a -> s a s with s = s^-1 = [[1, 1], [0, -1]] is multiplicative but not *-preserving."""
        s = M2.from_blocks([np.array([[1.0, 1.0], [0.0, -1.0]])])
        conj = StarHomomorphism.from_images(M2, M2, [s * b * s for b in M2.basis()])
        failed = self.failed_checks(conj)
        assert list(failed) == ["involution -> adjoint"]
        assert failed["involution -> adjoint"] == pytest.approx(np.sqrt(3.0), rel=1e-12)


class TestIntegratedForm:
    @pytest.fixture
    def z2_data(self):
        rho, act, rep = dilation_instance("m2", "c", 2, "z2", seed=23)
        d = covariant_dilation(rho, act, rep)
        xp = build_crossed_product(act)
        return d, xp

    def test_from_dilation_verified(self, z2_data):
        d, xp = z2_data
        form = integrated_form(d.representation, d.group_unitaries, xp)
        assert form.report.passed
        assert form.report.max_residual <= 1e-9

    def test_delta_unit_gives_unitary(self, z2_data):
        d, xp = z2_data
        form = integrated_form(d.representation, d.group_unitaries, xp)
        for g in xp.system.group.elements():
            f = ConvolutionElement.delta(xp.system, g, M2.unit())
            assert (
                np.abs(form.on_convolution(f).flat - d.group_unitaries.unitaries[g].flat).max()
                <= 1e-12
            )

    def test_trivial_group_evaluates_at_identity(self):
        rho, act, rep = dilation_instance("m2", "c", 2, "trivial", seed=24)
        d = covariant_dilation(rho, act, rep)
        xp = build_crossed_product(act)
        form = integrated_form(d.representation, d.group_unitaries, xp)
        f = ConvolutionElement.delta(xp.system, 0, M2.random_element(np.random.default_rng(0)))
        assert (
            np.abs(form.on_convolution(f).flat - d.representation(f.values[0]).flat).max()
            <= 1e-12
        )

    def test_on_standard_matches_convolution_route(self, z2_data, rng):
        d, xp = z2_data
        form = integrated_form(d.representation, d.group_unitaries, xp)
        f = random_conv(xp.system, rng)
        via_standard = form.on_standard(xp.standardize(f))
        direct = form.on_convolution(f)
        assert np.abs(via_standard.flat - direct.flat).max() <= 1e-10

    def test_noncovariant_rejected(self, z2_data, rng):
        d, xp = z2_data
        wrong_u = UnitaryRepresentation.trivial(xp.system.group, d.module)
        with pytest.raises(PreconditionError, match=r"\(Phi, v\) is not covariant"):
            integrated_form(d.representation, wrong_u, xp)

    def test_mismatched_module_rejected(self, z2_data):
        d, xp = z2_data
        other = HilbertModule.free(C, d.module.flat_dim + 1)
        with pytest.raises(StructuralError, match="representation module"):
            integrated_form(
                d.representation, UnitaryRepresentation.trivial(xp.system.group, other), xp
            )

    def test_mismatched_group_rejected(self, z2_data):
        d, xp = z2_data
        z3 = FiniteGroup.cyclic(3)
        with pytest.raises(StructuralError, match="different groups"):
            integrated_form(d.representation, UnitaryRepresentation.trivial(z3, d.module), xp)

    def test_phase_twisted_unitaries_fail_star_only(self, z2_data):
        # g -> i·v_g at g != e keeps every Ad(v_g), so (Phi, v) stays covariant
        # and products of spanning elements still match, but v_g² = -1 breaks
        # the group law, which the involution check detects.
        d, xp = z2_data
        v = d.group_unitaries
        phases = [1.0 if g == v.group.identity else 1j for g in v.group.elements()]
        twisted = UnitaryRepresentation(
            v.group,
            v.module,
            tuple(
                AdjointableOperator(v.module, v.module, c * u.flat)
                for c, u in zip(phases, v.unitaries)
            ),
        )
        report = integrated_form(d.representation, twisted, xp).report
        star = report.check("involution -> adjoint (spanning set)")
        assert not star.passed
        old = pairwise_reference.star_reference(d.representation, twisted, xp.system)
        scale = pairwise_reference.product_scale(d.representation._value_tensor)
        pairwise_reference.assert_agrees(star.residual, old, scale, star.threshold)
        assert report.check("convolution -> composition (spanning pairs)").passed
        assert report.check("unit of C(G,A) -> identity").passed

    def test_small_covariance_defect_fails_composition(self, z2_data):
        # v_1 -> v_1·diag(exp(i·3e-9·k)) leaves a covariance residual of 6e-9,
        # inside the 1e-8 precondition, but the spanning products then miss
        # by as much, above their 1e-9 threshold.
        d, xp = z2_data
        v = d.group_unitaries
        n = v.module.flat_dim
        drift = v.unitaries[1].flat @ np.diag(np.exp(3e-9j * np.arange(n)))
        drifted = UnitaryRepresentation(
            v.group, v.module, (v.unitaries[0], AdjointableOperator(v.module, v.module, drift))
        )
        check = integrated_form(d.representation, drifted, xp).report.check(
            "convolution -> composition (spanning pairs)"
        )
        assert not check.passed
        old = pairwise_reference.twisted_residual(d.representation, drifted, xp.system)
        scale = pairwise_reference.product_scale(d.representation._value_tensor)
        pairwise_reference.assert_agrees(check.residual, old, scale, check.threshold)

    def test_leak_off_the_corner_fails_integrated_form(self):
        """v_g plus mass on the complement of range(P) is not an operator of L_B(E).

        Over B = M2 the values of Phi sit on range(P), so the full flats of
        Phi and of the leaky v_g still satisfy covariance, the twisted
        products and the involution; the corner checks count the off-range
        mass. A large leak fails the covariance precondition, a small one
        the composition and involution checks.
        """
        rho, act, rep = dilation_instance("m2", "m2", 1, "z2", seed=23)
        d = covariant_dilation(rho, act, rep)
        xp = build_crossed_product(act)
        phi, v = d.representation, d.group_unitaries
        module = v.module
        assert module.range_basis is not None
        off = np.eye(module.flat_dim) - module.projection_flat

        def leaky(size):
            flats = (u.flat + size * off for u in v.unitaries)
            ops = tuple(AdjointableOperator(module, module, f) for f in flats)
            return UnitaryRepresentation(v.group, module, ops)

        for size in (0.5, 1e-9):
            w = leaky(size)
            assert check_covariance(phi, act, w).passed
            assert pairwise_reference.covariance_reference(phi, act, w)[0] <= 1e-13
            assert pairwise_reference.twisted_residual(phi, w, act) <= 1e-13
            assert pairwise_reference.star_reference(phi, w, act) <= 1e-13
        with pytest.raises(PreconditionError, match=r"\(Phi, v\) is not covariant"):
            integrated_form(phi, leaky(0.5), xp)
        report = integrated_form(phi, leaky(1e-9), xp).report
        assert not report.check("convolution -> composition (spanning pairs)").passed
        assert not report.check("involution -> adjoint (spanning set)").passed
        assert report.check("unit of C(G,A) -> identity").passed


def test_one_sided_leak_of_v_counts_in_the_involution():
    """Phi = id on C and v_e = P + D, with D = e1 e2* mapping the complement of
    range(P) into it. The corners agree exactly, but the involution's two
    sides P·v_e and (P·v_e)* leak into opposite off-diagonal blocks, so the
    full residual is sqrt(2)·||D||_F; the slack's c_XV term covers it."""
    action = GroupAction.trivial(FiniteGroup.trivial(), C)
    e = np.eye(2, dtype=np.complex128)
    projection = np.outer(e[0], e[0])
    values, unitaries = projection[None], (projection + np.outer(e[0], e[1]))[None]
    full = _spanning_residuals(values, unitaries, action, None)
    got = _spanning_residuals(values, unitaries, action, e[:, :1])
    assert full == pytest.approx((0.0, 0.0, np.sqrt(2.0)))
    for f, c in zip(full, got):
        assert f <= c


SPANNING_SYSTEMS = [("trivial", "m2"), ("z2", "m2"), ("z3", "m2+c"), ("s3", "m2")]


def _spanning_slacks(values, unitaries, action, projection):
    """The three off-range slacks of `_spanning_residuals`, from dense arithmetic
    with P on the full stacks (README, "Conventions")."""

    def bounds(stack):
        inside = projection @ stack @ projection
        c = max(np.linalg.norm(x - y) for x, y in zip(stack, inside))
        return c, max(np.linalg.norm(y, 2) for y in inside) + c

    c_x, f_x = bounds(values)
    c_v, f_v = bounds(unitaries)
    c_vx, f_vx = c_v * f_x + f_v * c_x, f_v * f_x
    c_xv = c_x * f_v + f_x * c_v
    c_conj = c_vx * f_v + f_vx * c_v
    basis = list(action.algebra.basis())
    cov = mult = star = 0.0
    for g in action.group.elements():
        t_a = np.max(np.sum(np.abs(action.automorphisms[g].action_matrix), axis=0))
        t_t = max(
            np.sum(np.abs((a * action.apply(g, b)).coords())) for a in basis for b in basis
        )
        cov = max(cov, c_vx * f_v + f_vx * c_v + t_a * c_x)
        mult = max(mult, c_x * f_vx * f_v + f_x * c_conj + t_t * c_x)
        star = max(star, t_a * c_x * f_v + t_a * f_x * c_v + c_xv)
    return cov, mult, star


@settings(max_examples=60, deadline=None)
@given(
    system=st.sampled_from(SPANNING_SYSTEMS),
    d=st.integers(1, 6),
    rank=st.integers(0, 6),
    leak_phi=st.sampled_from([0.0, 1e-12, 1e-6, 0.3]),
    leak_v=st.sampled_from([0.0, 1e-12, 1e-6, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_corner_spanning_residuals_bracket_full_ones(system, d, rank, leak_phi, leak_v, seed):
    """On the range of a rank-p projection: full <= corner <= full + 2·slack, for
    covariance, multiplicativity and involution.

    Phi's values are random p×p corners, the v_g random unitary corners, and
    each stack gets off-range mass `leak`.
    """
    group_name, algebra_name = system
    action = standard_action(group_name, named_algebra(algebra_name))
    rng = np.random.default_rng(seed)
    p = min(rank, d)
    basis = np.linalg.qr(linalg.random_complex(rng, d, d))[0][:, :p]
    projection = basis @ basis.conj().T

    def stack(corners, leak):
        noise = linalg.random_complex(rng, len(corners) * d, d).reshape(-1, d, d)
        off = noise - projection @ noise @ projection
        return basis @ corners @ basis.conj().T + leak * off / max(np.linalg.norm(off), 1e-300)

    dim, order = action.algebra.linear_dim, action.group.order
    values = stack(linalg.random_complex(rng, dim * p, p).reshape(dim, p, p), leak_phi)
    corners = [np.linalg.qr(linalg.random_complex(rng, p, p))[0] for _ in range(order)]
    unitaries = stack(np.array(corners).reshape(order, p, p), leak_v)

    full = _spanning_residuals(values, unitaries, action, None)
    got = _spanning_residuals(values, unitaries, action, basis)
    slacks = _spanning_slacks(values, unitaries, action, projection)
    scale = pairwise_reference.product_scale(values) * pairwise_reference.product_scale(unitaries)
    rounding = pairwise_reference.REL * scale
    for f, c, s in zip(full, got, slacks):
        assert f <= c + rounding
        assert c <= f + 2.0 * s + rounding


class TestExtension:
    def test_trivial_group_phi_equals_rho(self):
        rho, act, rep = dilation_instance("m2", "c", 2, "trivial", seed=31)
        d = covariant_dilation(rho, act, rep)
        xp = build_crossed_product(act)
        ext = extend_covariant_cp(d, xp)
        assert ext.report.passed
        worst = 0.0
        for i, a in enumerate(rho.source.basis()):
            f = ConvolutionElement.delta(xp.system, 0, a)
            out = ext.standard_map(xp.standardize(f))
            worst = max(worst, np.abs(out.flat - rho.basis_values[i].flat).max())
        assert worst <= 1e-12

    def test_z2_extension_checks(self):
        rho, act, rep = dilation_instance("m2", "c", 2, "z2", seed=32)
        d = covariant_dilation(rho, act, rep)
        xp = build_crossed_product(act)
        ext = extend_covariant_cp(d, xp)
        assert ext.report.passed
        cert = ext.certificate
        assert cert.is_cp and cert.min_eigenvalue >= -1e-9
        # phi(delta_g (x) 1) = u_g
        for g in act.group.elements():
            f = ConvolutionElement.delta(xp.system, g, M2.unit())
            assert (
                np.abs(ext.on_convolution(f).flat - rep.unitaries[g].flat).max() <= 1e-10
            )

    def test_two_routes_agree(self, rng):
        rho, act, rep = dilation_instance("m3", "m2", 1, "z3", seed=33)
        d = covariant_dilation(rho, act, rep)
        xp = build_crossed_product(act)
        ext = extend_covariant_cp(d, xp)
        for _ in range(3):
            f = random_conv(xp.system, rng)
            assert (
                np.abs(ext.on_convolution(f).flat - ext.direct_form(f).flat).max()
                <= 1e-10
            )

    def test_unverified_dilation_rejected(self):
        rho, act, rep = dilation_instance("m2", "c", 1, "z2", seed=34)
        d = covariant_dilation(rho, act, rep)
        xp = build_crossed_product(act)
        bad = scaled_connector_variant(d, 0.5)
        assert not bad.residuals.passed
        with pytest.raises(PreconditionError, match="needs a verified covariant dilation"):
            extend_covariant_cp(bad, xp)
