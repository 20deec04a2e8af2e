import functools
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairwise_reference
import prostar
from prostar import linalg
from prostar.algebra import FiniteCStarAlgebra, StarHomomorphism
from prostar.cpmaps import CompletelyPositiveMap
from prostar.crossed import (
    ConvolutionElement,
    _involution_bound,
    _involution_residual,
    _relation_bound,
    _spanning_pair_bound,
    _spanning_residuals,
    _standard_map_bound,
    _stinespring_bound,
    _twisted_residual,
    build_crossed_product,
    extend_covariant_cp,
    integrated_form,
)
from prostar.dilation import covariant_dilation, scaled_connector_variant
from prostar.errors import NumericalError, PreconditionError, StructuralError
from prostar.groups import FiniteGroup, GroupAction, UnitaryRepresentation, covariant_average
from prostar.modules import AdjointableOperator, HilbertModule, operator_coords
from prostar.recipes import (
    complex_unitary_rep,
    dilation_instance,
    named_algebra,
    named_group,
    standard_action,
)

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
        back = pairwise_reference.extract_reference(xp, xp.embed(f))
        assert max((x - y).frobenius() for x, y in zip(back.values, f.values)) <= 1e-12

    def test_standardize_is_star_isomorphism(self, rng):
        sys_ = z2_m2_action()
        xp = build_crossed_product(sys_)
        f, h = random_conv(sys_, rng), random_conv(sys_, rng)
        lhs = xp.standardize(f.convolve(h))
        rhs = xp.standardize(f) * xp.standardize(h)
        assert (lhs - rhs).frobenius() <= 1e-10
        assert (xp.standardize(f.involution()) - xp.standardize(f).adjoint()).frobenius() <= 1e-10

    def test_trivial_z12_on_m3_builds_in_bounded_memory(self):
        """Z12 acting trivially on M3 has m = 108 spanning elements of size
        N = 36, so all m² products b_i b_j would fill one 242 MB matrix. Built in
        a fresh process, the construction's peak RSS stays below 200 MB.

        The child reads VmHWM, the peak of its own address space. Its
        RUSAGE_SELF ru_maxrss would not do: Linux keeps, across exec, the
        high-water mark of the address space the child was started from, so it
        reads at least the RSS of this test process.
        """
        status = Path("/proc/self/status")
        if not status.exists():
            pytest.skip("needs /proc/self/status")
        code = (
            "from pathlib import Path\n"
            "from prostar.crossed import build_crossed_product\n"
            "from prostar.groups import FiniteGroup, GroupAction\n"
            "from prostar.recipes import named_algebra\n"
            "action = GroupAction.trivial(FiniteGroup.cyclic(12), named_algebra('m3'))\n"
            "xp = build_crossed_product(action)\n"
            "assert xp.standard_algebra.block_sizes == (3,) * 12\n"
            "lines = Path('/proc/self/status').read_text().splitlines()\n"
            "print(next(x for x in lines if x.startswith('VmHWM:')).split()[1])\n"
        )
        src = str(Path(prostar.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            check=True,
        )
        peak_mb = int(out.stdout.split()[-1]) / 1024.0  # VmHWM is in kB
        assert peak_mb < 200.0, peak_mb


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
        via_standard = form.standard_map(xp.standardize(f))
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
        # g -> i·v_g at g != e keeps every Ad(v_g), so (Phi, v) stays covariant,
        # but v_g² = -1 breaks the group law, so products of spanning elements
        # no longer match. The composition check still passes, since it cancels
        # v_g v_h against v_gh; the involution check detects the broken law,
        # and so does the standard-form factorization: its bound reads the
        # group-law residual w of v, which puts it above the threshold, so the
        # standard map's exact check decides.
        d, xp = z2_data
        v = d.group_unitaries
        phases = [1.0 if g == v.group.identity else 1j for g in v.group.elements()]
        twisted = UnitaryRepresentation(
            v.group,
            v.module,
            tuple(
                AdjointableOperator.from_flat(v.module, v.module, c * u.flat)
                for c, u in zip(phases, v.unitaries)
            ),
        )
        twisted_form = integrated_form(d.representation, twisted, xp)
        report = twisted_form.report
        star = report.check("involution -> adjoint (spanning set)")
        assert not star.passed and star.detail == "all spanning elements"
        values = d.representation.values
        assert involution_bound(values, twisted.values, xp.system) > star.threshold
        # replace() builds and checks the form again rather than copying its pass.
        form = integrated_form(d.representation, v, xp)
        assert form.report.passed and replace(form, group_unitaries=twisted).report == report
        old = pairwise_reference.star_reference(d.representation, twisted, xp.system)
        scale = pairwise_reference.product_scale(d.representation.values)
        pairwise_reference.assert_agrees(star.residual, old, scale, star.threshold)
        composition = report.check("convolution -> composition (spanning pairs)")
        assert composition.passed
        assert report.check("unit of C(G,A) -> identity").passed
        std = report.check(STANDARD_CHECK)
        assert not std.passed and std.detail == "all pairs"
        _, u, w, _ = twisted._residuals
        assert w > 1.0
        spanning = _spanning_pair_bound(d.representation.values, composition.residual, u, w)
        bound, _ = _standard_map_bound(xp, twisted_form.spanning_values, spanning)
        assert bound > std.threshold

    @staticmethod
    def drifted(v, size):
        """v with v_1 -> v_1·diag(exp(i·size·k)), which moves covariance in
        proportion to size, by a factor that depends on the order of E_rho's basis."""
        n = v.module.flat_dim
        drift = v.unitaries[1].flat @ np.diag(np.exp(1j * size * np.arange(n)))
        return UnitaryRepresentation(
            v.group,
            v.module,
            (v.unitaries[0], AdjointableOperator.from_flat(v.module, v.module, drift)),
        )

    @classmethod
    def drifted_to(cls, d, xp, covariance):
        """`drifted` at the size that gives a covariance residual `covariance`.
        The residual is linear in the size at these sizes, so the covariance
        of a unit probe, 1e-9, fixes the size whatever the basis of E_rho."""
        probe = 1e-9
        moved = cls.drifted(d.group_unitaries, probe).values
        _, cov = _spanning_residuals(d.representation.values, moved, xp.system)
        return cls.drifted(d.group_unitaries, covariance * probe / cov)

    def test_small_covariance_defect_fails_composition(self, z2_data):
        # A drift with covariance residual 6e-9 is inside the 1e-8
        # precondition, but the spanning products then miss by as much, above
        # their 1e-9 threshold. The relation bound exceeds it too, so the
        # exact residual decides.
        d, xp = z2_data
        drifted = self.drifted_to(d, xp, 6e-9)
        check = integrated_form(d.representation, drifted, xp).report.check(
            "convolution -> composition (spanning pairs)"
        )
        assert not check.passed and check.detail == "all spanning pairs"
        old = pairwise_reference.twisted_residual(d.representation, drifted, xp.system)
        scale = pairwise_reference.product_scale(d.representation.values)
        pairwise_reference.assert_agrees(check.residual, old, scale, check.threshold)

    def test_exact_residual_decides_when_the_bound_exceeds_tol(self, z2_data):
        """A drift with covariance residual 7e-10 puts f·C + a·M above the 1e-9
        threshold, while every spanning pair misses by only about 7e-10: the
        form passes and reports the exact residual over all spanning pairs.
        The drift moves the group law of v too, so the standard map's bound
        exceeds the threshold as well, and its own check passes it."""
        d, xp = z2_data
        phi, drifted = d.representation, self.drifted_to(d, xp, 7e-10)
        values, unitaries = phi.values, drifted.values
        _, cov = _spanning_residuals(values, unitaries, xp.system)
        mult = phi.verify_representation(1e-9).check("multiplicative").residual
        bound, _ = _relation_bound(values, xp.system, cov, mult)
        check = integrated_form(phi, drifted, xp).report.check(
            "convolution -> composition (spanning pairs)"
        )
        assert check.residual < check.threshold < bound
        assert check.passed and check.detail == "all spanning pairs"
        assert check.residual == _twisted_residual(values, unitaries, xp.system)
        std = integrated_form(phi, drifted, xp).report.check(STANDARD_CHECK)
        assert std.passed and std.detail == "all pairs"
        old = pairwise_reference.twisted_residual(phi, drifted, xp.system)
        scale = pairwise_reference.product_scale(values)
        pairwise_reference.assert_agrees(check.residual, old, scale, check.threshold)

    def test_leak_off_the_corner_is_refused_before_integration(self):
        """v_g plus mass on the complement of range(P) is not an operator of L_B(E).

        Over B = M2 the values of Phi sit on range(P), so the flats of Phi and
        of the leaky v_g would still satisfy covariance, the twisted products
        and the involution. The leak is refused where it enters, at both sizes
        the integrated form's checks once caught (0.5 and 1e-9); without it the
        flats enter and give back the coordinates they came from.
        """
        rho, act, rep = dilation_instance("m2", "m2", 1, "z2", seed=23)
        d = covariant_dilation(rho, act, rep)
        v = d.group_unitaries
        module = v.module
        assert module.coord_dim < module.flat_dim
        off = np.eye(module.flat_dim) - module.projection_flat
        for u in v.unitaries:
            for size in (0.5, 1e-9):
                with pytest.raises(StructuralError, match="off the module range"):
                    AdjointableOperator.from_flat(module, module, u.flat + size * off)
            back = AdjointableOperator.from_flat(module, module, u.flat)
            assert np.abs(back.coords - u.coords).max() <= 1e-13


def test_one_sided_leak_of_v_counts_in_the_involution():
    """Phi = id on C and v_e = P + D, with D = e1 e2* mapping the complement of
    range(P) into it. The corners of P and P + D agree exactly, while on the
    flats the involution's two sides P·v_e and (P·v_e)* differ by sqrt(2)·||D||_F,
    which counts in the involution residual of the flats: v_e is refused at
    construction, and P enters as the identity. On the flats the involution
    bound reads the unitarity and inverse-law residuals of P + D, both
    sqrt(2), so it lies above the threshold and the exact residual decides."""
    e = np.eye(2, dtype=np.complex128)
    projection = np.outer(e[0], e[0])
    module = HilbertModule.from_projection(C, 2, projection)
    action = GroupAction.trivial(FiniteGroup.trivial(), C)
    values, unitaries = projection[None], (projection + np.outer(e[0], e[1]))[None]
    _, cov = _spanning_residuals(values, unitaries, action)
    star = _involution_residual(values, unitaries, action)
    assert (cov, _twisted_residual(values, unitaries, action), star) == pytest.approx(
        (0.0, 0.0, np.sqrt(2.0))
    )
    bound = involution_bound(values, unitaries, action)
    assert bound > 1e-9 and star <= bound
    with pytest.raises(StructuralError, match="off the module range"):
        AdjointableOperator.from_flat(module, module, unitaries[0])
    assert AdjointableOperator.from_flat(module, module, projection).is_unitary().passed


SPANNING_SYSTEMS = [("trivial", "m2"), ("z2", "m2"), ("z3", "m2+c"), ("s3", "m2")]


@settings(max_examples=60, deadline=None)
@given(
    system=st.sampled_from(SPANNING_SYSTEMS),
    d=st.integers(1, 6),
    rank=st.integers(1, 6),
    leak_phi=st.sampled_from([0.0, 1e-6, 0.3]),
    leak_v=st.sampled_from([0.0, 1e-6, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_corner_spanning_residuals_bracket_full_ones(system, d, rank, leak_phi, leak_v, seed):
    """On the range of a rank-p projection P = UU*: covariance, multiplicativity
    and involution on the coordinates U*XU bracket those on the flats with no
    slack left, so the two agree to rounding; a stack with off-range mass is
    refused where it enters.

    Phi's values are random p×p corners and the v_g random unitary corners.
    """
    group_name, algebra_name = system
    action = standard_action(group_name, named_algebra(algebra_name))
    rng = np.random.default_rng(seed)
    p = min(rank, d)
    basis = np.linalg.qr(linalg.random_complex(rng, d, d))[0][:, :p]
    projection = basis @ basis.conj().T
    module = HilbertModule(C, d, basis)

    def stack(corners, leak):
        flats = basis @ corners @ basis.conj().T
        if leak and p < d:
            noise = linalg.random_complex(rng, len(corners) * d, d).reshape(-1, d, d)
            off = noise - projection @ noise @ projection
            with pytest.raises(StructuralError, match="off the module range"):
                operator_coords(module, module, flats + leak * off / np.linalg.norm(off))
        return flats

    dim, order = action.algebra.linear_dim, action.group.order
    values = stack(linalg.random_complex(rng, dim * p, p).reshape(dim, p, p), leak_phi)
    corners = [np.linalg.qr(linalg.random_complex(rng, p, p))[0] for _ in range(order)]
    unitaries = stack(np.array(corners).reshape(order, p, p), leak_v)

    def residuals(values, unitaries):
        _, cov = _spanning_residuals(values, unitaries, action)
        star = _involution_residual(values, unitaries, action)
        return cov, _twisted_residual(values, unitaries, action), star

    full = residuals(values, unitaries)
    got = residuals(
        operator_coords(module, module, values), operator_coords(module, module, unitaries)
    )
    scale = pairwise_reference.product_scale(values) * pairwise_reference.product_scale(unitaries)
    rounding = pairwise_reference.REL * scale
    for f, c in zip(full, got):
        assert abs(f - c) <= rounding


def involution_terms(values: np.ndarray, unitaries: np.ndarray, action: GroupAction):
    """(C, u, w⁻, s) for Phi's `values` and v's `unitaries` on the free module
    C^p, read as the integrated form reads them."""
    module = HilbertModule.free(C, values.shape[-1])
    _, cov = _spanning_residuals(values, unitaries, action)
    _, u, _, inverse = UnitaryRepresentation(action.group, module, unitaries)._residuals
    star = CompletelyPositiveMap(action.algebra, module, values)._star_residual
    return cov, u, inverse, star


def involution_bound(values: np.ndarray, unitaries: np.ndarray, action: GroupAction) -> float:
    """`_involution_bound` of `involution_terms`."""
    bound, detail = _involution_bound(values, *involution_terms(values, unitaries, action))
    assert detail.startswith("involution bound √(1+u)·(C + f·u + s) + f·w⁻: ")
    return bound


def covariant_pair(group_name, action, module, homomorphic, rng):
    """(Phi, [v_g]) on the free module C^p in a random orthonormal basis W.

    v_g is a unitary representation of G and Phi one of two kinds: the
    covariant average of random values, or, when `homomorphic` and p is at
    least the defining dimension n of A, a ↦ W(a ⊕ 0)W* with
    v_g = W(w_g ⊕ 1)W* for the unitaries w_g implementing the action.
    """
    alg, group, p = action.algebra, action.group, module.rank
    basis = np.linalg.qr(linalg.random_complex(rng, p, p))[0]
    n = alg.total_dim
    if homomorphic and p >= n:
        def corner(x):
            return basis[:, :n] @ x @ basis[:, :n].conj().T

        rest = np.eye(p) - corner(np.eye(n))
        phi = CompletelyPositiveMap.from_dense_images(
            alg, module, [corner(b.dense()) for b in alg.basis()]
        )
        blocks = [complex_unitary_rep(group_name, m) for m in alg.block_sizes]
        mats = [
            corner(linalg.block_diag([rep[g] for rep in blocks])) + rest
            for g in group.elements()
        ]
    else:
        mats = [basis @ u @ basis.conj().T for u in complex_unitary_rep(group_name, p)]
        values = linalg.random_complex(rng, alg.linear_dim * p, p).reshape(-1, p, p)
        sigma = CompletelyPositiveMap.from_dense_images(alg, module, values)
        rep = UnitaryRepresentation.from_complex_matrices(group, module, mats)
        phi = covariant_average(sigma, action, rep)
    return phi, mats


@settings(max_examples=60, deadline=None)
@given(
    system=st.sampled_from(SPANNING_SYSTEMS),
    p=st.integers(1, 6),
    homomorphic=st.booleans(),
    drift=st.sampled_from([0.0, 1e-12, 1e-9]),
    seed=st.integers(0, 2**32 - 1),
)
def test_relation_bound_covers_the_twisted_residual(system, p, homomorphic, drift, seed):
    """f·C + a·M is at least every spanning pair's twisted residual.

    Phi and v come from `covariant_pair`: the covariant average (C at
    rounding, M of order one) or, when `homomorphic` and p is at least the
    defining dimension of A, a *-representation (C and M both at rounding).
    Then v_g at g ≠ e is drifted by diag(exp(i·drift·k)).
    C is the library's covariance residual and M Phi's exact all-pairs
    residual, the smallest M the bound admits; the twisted residual is the
    element-wise reference on every spanning pair.
    """
    group_name, algebra_name = system
    action = standard_action(group_name, named_algebra(algebra_name))
    group = action.group
    rng = np.random.default_rng(seed)
    module = HilbertModule.free(C, p)
    phi, mats = covariant_pair(group_name, action, module, homomorphic, rng)
    phases = np.diag(np.exp(1j * drift * np.arange(1, p + 1)))
    mats = [m if g == group.identity else m @ phases for g, m in enumerate(mats)]
    v = UnitaryRepresentation.from_complex_matrices(group, module, mats)

    values, unitaries = phi.values, v.values
    _, cov = _spanning_residuals(values, unitaries, action)
    bound, detail = _relation_bound(values, action, cov, phi._exact_multiplicative)
    old = pairwise_reference.twisted_residual(phi, v, action)
    # Rounding of products of this size, far below REL, which would hide the 1e-12 drift.
    assert old <= bound + 64 * np.finfo(float).eps * pairwise_reference.product_scale(values)
    assert detail.startswith("relation bound f·C + a·M: ")


def test_relation_bound_reads_column_norms_of_the_action():
    """a = max_{g,j} sum_l |A_g[l, j]|, the coefficients of alpha_g(a_j) that
    the proof sums, not the rows of A_g.

    For a group action the two maxima agree (A_{g^-1} = A_g* on the
    trace-orthonormal matrix units), but the proof reads each A_g alone. So
    M3 carries Ad(w) at the one non-identity element of Z2, for a random
    unitary w with w² ≠ 1, whose action matrix has a largest column 1-norm
    above its largest row 1-norm.
    """
    rng = np.random.default_rng(7)
    m3 = FiniteCStarAlgebra((3,))
    w = np.linalg.qr(linalg.random_complex(rng, 3, 3))[0]
    action = GroupAction.by_conjugation(FiniteGroup.cyclic(2), m3, [[np.eye(3)], [w]])
    moved = np.abs([[action.apply(g, a).coords() for a in m3.basis()] for g in (0, 1)])
    columns, rows = moved.sum(axis=2).max(), moved.sum(axis=1).max()
    assert columns > 1.01 * rows
    bound, _ = _relation_bound(np.zeros((m3.linear_dim, 1, 1)), action, 0.0, 1.0)
    assert bound == pytest.approx(columns, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    system=st.sampled_from(SPANNING_SYSTEMS),
    p=st.integers(1, 5),
    kind=st.sampled_from(
        ["exact", "drifted", "non-unitary", "sign-flipped", "phase-twisted", "star-defective"]
    ),
    size=st.sampled_from([1e-12, 1e-9, 1e-6, 1e-2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_involution_bound_covers_the_exact_residual(system, p, kind, size, seed):
    """√(1+u)·(C + f·u + s) + f·w⁻ is at least the involution residual of every
    spanning element, and the exact residual agrees with the element-wise
    reference.

    Phi and v come from `covariant_pair` (a *-representation and a unitary
    representation implementing the action when p is at least the defining
    dimension of A, a covariant average otherwise). Then one is spoiled: v_g
    at g ≠ e drifted by diag(exp(i·size·k)), multiplied by 1 + size·H for a
    random Hermitian H (not unitary) or by i (each Ad(v_g) is kept, the
    inverse law fails); v_g at the last g alone negated
    (the inverse law fails unless g is an involution); or Phi's values moved
    by size times noise (not *-preserving).
    """
    group_name, _ = system
    action = named_action(*system)
    group = action.group
    rng = np.random.default_rng(seed)
    module = HilbertModule.free(C, p)
    phi, mats = covariant_pair(group_name, action, module, True, rng)
    values = phi.values
    if kind == "star-defective":
        noise = linalg.random_complex(rng, values.size // p, p).reshape(values.shape)
        values = values + size * noise
    spoil = {
        "drifted": np.diag(np.exp(1j * size * np.arange(1, p + 1))),
        "non-unitary": np.eye(p) + size * linalg.random_hermitian(rng, p),
        "phase-twisted": 1j * np.eye(p),
    }.get(kind, np.eye(p))
    unitaries = np.array([m if g == group.identity else m @ spoil for g, m in enumerate(mats)])
    if kind == "sign-flipped" and group.order > 1:
        unitaries[-1] = -unitaries[-1]
    bound = involution_bound(values, unitaries, action)
    exact = _involution_residual(values, unitaries, action)
    v = UnitaryRepresentation(group, module, unitaries)
    old = pairwise_reference.star_reference(
        CompletelyPositiveMap(action.algebra, module, values), v, action
    )
    scale = pairwise_reference.product_scale(values) * pairwise_reference.product_scale(unitaries)
    pairwise_reference.assert_agrees(exact, old, scale, 1e-9)
    # Rounding of products of these sizes, far below the 1e-12 spoils.
    assert old <= bound + 64 * np.finfo(float).eps * scale


def _scalar_pair(value: complex, unitaries) -> tuple[np.ndarray, np.ndarray]:
    """Phi(1) = value on C^1 and v_g = unitaries[g], as stacks."""
    return np.array([[[value]]]), np.array(unitaries, dtype=complex).reshape(-1, 1, 1)


C_TRIVIAL = GroupAction.trivial(FiniteGroup.trivial(), C)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

INVOLUTION_TERMS = {
    # Z2 acting trivially on C ⊕ C, Phi(e_1) = E_11, Phi(e_2) = E_22 and
    # v_1 = σ_x, unitary and its own inverse (u = w⁻ = 0, s = 0): only the
    # covariance defect σ_x E_11 σ_x - E_11 bounds E_11 σ_x - σ_x E_11.
    "covariance C": lambda: (
        GroupAction.trivial(FiniteGroup.cyclic(2), FiniteCStarAlgebra((1, 1))),
        np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex),
        np.array([np.eye(2), SIGMA_X]),
    ),
    # Phi(1) = σ_x and v_e = diag(2, 1/2): V σ_x V* = σ_x (C = 0), V = V*
    # (w⁻ = 0) and s = 0, but σ_x V - V σ_x ≠ 0, which only f·u bounds.
    "unitarity f·u": lambda: (
        C_TRIVIAL,
        SIGMA_X[None],
        np.diag([2.0, 0.5]).astype(complex)[None],
    ),
    # Phi(1) = i, not self-adjoint, and v = 1: only s = 2 bounds i - (-i).
    "star s": lambda: (C_TRIVIAL, *_scalar_pair(1j, [1.0])),
    # v = (1, i) on Z2 keeps Ad(v_g) (C = 0, u = 0) but v_1 ≠ v_1*: only
    # f·w⁻ = 2 bounds v_1 - v_1* = 2i.
    "inverse law f·w⁻": lambda: (
        GroupAction.trivial(FiniteGroup.cyclic(2), C),
        *_scalar_pair(1.0, [1.0, 1j]),
    ),
}


@pytest.mark.parametrize("term", list(INVOLUTION_TERMS))
def test_involution_bound_needs_each_term(term):
    """Instances where the involution bound without one of its terms, C, f·u,
    s or f·w⁻, would lie below the exact residual; the whole bound is at least
    it."""
    action, values, unitaries = INVOLUTION_TERMS[term]()
    module = HilbertModule.free(C, values.shape[-1])
    old = pairwise_reference.star_reference(
        CompletelyPositiveMap(action.algebra, module, values),
        UnitaryRepresentation(action.group, module, unitaries),
        action,
    )
    cov, u, inverse, star = involution_terms(values, unitaries, action)
    f, root = linalg.max_frobenius(values), np.sqrt(1.0 + u)
    without = {
        "covariance C": root * (f * u + star) + f * inverse,
        "unitarity f·u": root * (cov + star) + f * inverse,
        "star s": root * (cov + f * u) + f * inverse,
        "inverse law f·w⁻": root * (cov + f * u + star),
    }[term]
    assert without < old / 2 and old > 1e-3 and old <= involution_bound(values, unitaries, action)
    assert _involution_residual(values, unitaries, action) == pytest.approx(old, rel=1e-12)


STANDARD_SYSTEMS = [("trivial", "m2"), ("z2", "m2"), ("z3", "m2+c"), ("s3", "m2")]
STANDARD_CHECK = "standard-form factorization is a unital *-homomorphism"


@functools.lru_cache(maxsize=None)
def crossed_with_structure(action: GroupAction):
    """The crossed product of `action` and its spanning structure constants Γ,
    by the pairwise reference (built once per action)."""
    xp = build_crossed_product(action)
    return xp, pairwise_reference.spanning_structure_reference(action)


@functools.lru_cache(maxsize=None)
def named_action(group_name: str, algebra_name: str) -> GroupAction:
    return standard_action(group_name, named_algebra(algebra_name))


C_Z2 = GroupAction.trivial(FiniteGroup.cyclic(2), C)


def standard_values(xp, k: np.ndarray) -> np.ndarray:
    """pi(s_m) = Σ_c t_m[c] K_c, as the integrated form forms them."""
    p = k.shape[-1]
    return (xp._conv_from_std.T @ k.reshape(-1, p * p)).reshape(-1, p, p)


def standard_bound(xp, values: np.ndarray, unitaries: np.ndarray):
    """(c²·B + ||K||·ε_T, B, K, pi) for Phi's `values` and v's `unitaries`, with
    the exact twisted residual as `mult`, the smallest the bound admits."""
    module = HilbertModule.free(C, values.shape[-1])
    v = UnitaryRepresentation(xp.system.group, module, unitaries)
    k, _ = _spanning_residuals(values, v.values, xp.system)
    _, u, w, _ = v._residuals
    spanning = _spanning_pair_bound(values, _twisted_residual(values, v.values, xp.system), u, w)
    bound, detail = _standard_map_bound(xp, k, spanning)
    assert detail.startswith("standard-map bound c²·B + ‖K‖·ε_T: ")
    pi = CompletelyPositiveMap(xp.standard_algebra, module, standard_values(xp, k))
    return bound, spanning, k, pi


@pytest.mark.parametrize("system", [("z2", "m2"), ("z3", "m2+c"), ("trivial", "m3")])
def test_change_of_basis_matches_convolution_reference(system):
    """c and ε_T, streamed one standard basis element at a time, equal the
    pairwise reference that convolves every pair; both are kept."""
    xp, structure = crossed_with_structure(named_action(*system))
    c, eps = xp._change_of_basis
    ref_c, ref_eps = pairwise_reference.change_of_basis_reference(xp, structure)
    assert c == pytest.approx(ref_c, rel=1e-12)
    assert abs(eps - ref_eps) <= 1e-14 and eps <= 1e-13
    assert xp._change_of_basis is xp._change_of_basis


@settings(max_examples=40, deadline=None)
@given(
    system=st.sampled_from(STANDARD_SYSTEMS),
    p=st.integers(1, 5),
    kind=st.sampled_from(["exact", "drifted", "phase-twisted", "non-unitary", "perturbed"]),
    size=st.sampled_from([1e-12, 1e-9, 1e-6, 1e-2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_standard_map_bound_covers_the_exact_residual(system, p, kind, size, seed):
    """B is at least every spanning pair's residual and c²·B + ||K||·ε_T at
    least the standard map's exact all-pairs residual.

    Phi and v come from `covariant_pair` (a *-representation and a unitary
    representation implementing the action when p is at least the defining
    dimension of A, a covariant average otherwise). Then one is spoiled:
    v_g at g ≠ e drifted by diag(exp(i·size·k)), multiplied by i (each
    Ad(v_g) is kept, the group law fails), or by 1 + size·H for a random
    Hermitian H (not unitary); or Phi's values moved by size times noise.
    """
    group_name, _ = system
    xp, structure = crossed_with_structure(named_action(*system))
    group = xp.system.group
    rng = np.random.default_rng(seed)
    module = HilbertModule.free(C, p)
    phi, mats = covariant_pair(group_name, xp.system, module, True, rng)
    values = phi.values
    if kind == "perturbed":
        noise = linalg.random_complex(rng, values.size // p, p).reshape(values.shape)
        values = values + size * noise
    spoil = {
        "drifted": np.diag(np.exp(1j * size * np.arange(1, p + 1))),
        "phase-twisted": 1j * np.eye(p),
        "non-unitary": np.eye(p) + size * linalg.random_hermitian(rng, p),
    }.get(kind, np.eye(p))
    unitaries = np.array([m if g == group.identity else m @ spoil for g, m in enumerate(mats)])
    bound, spanning, k, pi = standard_bound(xp, values, unitaries)
    old = pairwise_reference.representation_residual(pi)
    # Rounding of products of these sizes, far below the 1e-12 spoils.
    eps = 64 * np.finfo(float).eps
    k_scale = pairwise_reference.product_scale(k.reshape(-1, p, p))
    assert pairwise_reference.spanning_pair_reference(structure, k) <= spanning + eps * k_scale
    assert old <= bound + eps * pairwise_reference.product_scale(pi.values)


def _e11_with_skew_involution(t: float):
    """Phi(1) = E_11 on C² (not unital) and v = (1, V), V = [[1, t], [0, -1]]."""
    projection = np.diag([1.0, 0.0]).astype(complex)
    skew = np.array([[1.0, t], [0.0, -1.0]], dtype=complex)
    return projection[None], np.array([np.eye(2), skew])


def _perturbed_change_of_basis(size: float):
    """C⋊Z2 with T moved by size·noise: a copy whose `_conv_from_std` is
    replaced before c and ε_T are read from it."""
    xp = replace(crossed_with_structure(C_Z2)[0])
    noise = linalg.random_complex(np.random.default_rng(3), 2, 2)
    xp.__dict__["_conv_from_std"] = xp._conv_from_std + size * noise
    return xp


TERM_CASES = {
    # V² = 1 (w = 0), and E_11 V E_11 V* = E_11 (mult = 0), but V is not
    # unitary: K_1 K_1 - K_0 = E_11 V - E_11 = t·E_12. Only u bounds it.
    "unitarity u": lambda: (crossed_with_structure(C_Z2)[0], *_e11_with_skew_involution(0.5)),
    # v = (1, i) keeps Ad(v_g), so mult = 0 and u = 0, but v_1² = -1 ≠ v_0:
    # only w = 2 bounds K_1 K_1 - K_0 = -2.
    "group law w": lambda: (
        crossed_with_structure(C_Z2)[0],
        np.ones((1, 1, 1), dtype=complex),
        np.array([[[1.0]], [[1j]]]),
    ),
    # Phi = 1 and v = 1 make every spanning residual exactly 0 (B = 0); with
    # T moved by 1e-3, pi(s_m) pi(s_n) - pi(s_m s_n) is the convolution
    # defect of T alone, which only ||K||·ε_T bounds.
    "change of basis ε_T": lambda: (
        _perturbed_change_of_basis(1e-3),
        np.ones((1, 1, 1), dtype=complex),
        np.ones((2, 1, 1), dtype=complex),
    ),
}


@pytest.mark.parametrize("term", list(TERM_CASES))
def test_standard_map_bound_needs_each_term(term):
    """Instances where the bound without one of its terms, u, w or ||K||·ε_T,
    would lie below the standard map's exact residual; the whole bound is at
    least it."""
    xp, values, unitaries = TERM_CASES[term]()
    bound, spanning, k, pi = standard_bound(xp, values, unitaries)
    old = pairwise_reference.representation_residual(pi)
    c, eps = xp._change_of_basis
    mult = _twisted_residual(values, unitaries, xp.system)
    _, u, w, _ = UnitaryRepresentation(xp.system.group, pi.module, unitaries)._residuals
    f2, tail = linalg.max_frobenius(values) ** 2, linalg.max_frobenius(k) * eps
    without = {
        "unitarity u": c * c * (mult + f2 * w) + tail,
        "group law w": c * c * (mult * (1 + u) + f2 * (1 + u) * u) + tail,
        "change of basis ε_T": c * c * spanning,
    }[term]
    assert without < old / 2 and old > 1e-3 and old <= bound


def test_standard_map_bound_needs_c_squared():
    """On M3 with the trivial group (c ≈ 3) and scalar spanning values
    K_e = 100·conj(t_m[e])/|t_m[e]| aligned with the column t_m of largest
    1-norm, pi(s_m) = 100·c and the residual at (s_m, s_m) is about c²·B:
    c·B would lie below it. B is the exact spanning-pair residual."""
    xp, structure = crossed_with_structure(named_action("trivial", "m3"))
    t = xp._conv_from_std
    column = t[:, np.argmax(np.sum(np.abs(t), axis=0))]
    k = (100.0 * np.conj(column) / np.maximum(np.abs(column), 1e-300))[:, None, None]
    spanning = pairwise_reference.spanning_pair_reference(structure, k)
    bound, _ = _standard_map_bound(xp, k, spanning)
    module = HilbertModule.free(C, 1)
    pi = CompletelyPositiveMap(xp.standard_algebra, module, standard_values(xp, k))
    old = pairwise_reference.representation_residual(pi)
    c, _ = xp._change_of_basis
    assert c > 2.5 and c * spanning < old <= bound


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
                np.abs(
                    ext.on_convolution(f).flat - pairwise_reference.direct_form(ext, f).flat
                ).max()
                <= 1e-10
            )

    def test_grid_extension_builds_few_operator_objects(self, monkeypatch):
        """The dilation and its extension hold their families as stacks: only the
        connector, rho(1) of the unitality check, Phi(1) of each representation
        check and phi(1) of the extension are built as operator objects (5; 76
        when every family was a tuple of operators)."""
        rho, act, rep = dilation_instance("m2+c", "m2", 2, "s3", seed=7)
        xp = build_crossed_product(act)
        built = []
        init = AdjointableOperator.__post_init__

        def counted(op):
            built.append(op)
            init(op)

        monkeypatch.setattr(AdjointableOperator, "__post_init__", counted)
        ext = extend_covariant_cp(covariant_dilation(rho, act, rep), xp)
        assert ext.report.passed and len(built) <= 8

    def test_unverified_dilation_rejected(self):
        rho, act, rep = dilation_instance("m2", "c", 1, "z2", seed=34)
        d = covariant_dilation(rho, act, rep)
        xp = build_crossed_product(act)
        bad = scaled_connector_variant(d, 0.5)
        assert not bad.residuals.passed
        with pytest.raises(PreconditionError, match="needs a verified covariant dilation"):
            extend_covariant_cp(bad, xp)

    def test_replaced_standard_map_is_certified_again(self):
        """phi composed with the blockwise transpose is unital but not CP; its
        extension's certificate and report are its own, not the copied pass."""
        rho, act, rep = dilation_instance("m2", "c", 2, "z3", seed=5)
        ext = extend_covariant_cp(covariant_dilation(rho, act, rep), build_crossed_product(act))
        assert ext.certificate.is_cp and ext.report.passed
        phi = ext.standard_map
        order, off = [], 0
        for n in phi.source.block_sizes:
            order += [off + c * n + r for r in range(n) for c in range(n)]
            off += n * n
        values = tuple(phi.basis_values[i] for i in order)
        bad = replace(ext, standard_map=CompletelyPositiveMap(phi.source, phi.module, values))
        assert bad.certificate.min_eigenvalue < -0.1
        assert not bad.certificate.is_cp
        assert not bad.report.passed
        choi = bad.report.check("phi completely positive (Choi on standard form)")
        assert not choi.passed
        assert choi.detail.startswith("exact Choi eigenvalues")
        assert bad.report.check("phi(1) = id_E").passed


CHOI_CHECK = "phi completely positive (Choi on standard form)"


def choi_lows(source, values: np.ndarray) -> list[float]:
    """eigvalsh's least eigenvalue of the Hermitian part of each Choi block."""
    q = values.shape[1]
    lows = []
    for off, n in zip(source.coord_offsets, source.block_sizes):
        block = values[off : off + n * n].reshape(n, n, q, q).transpose(0, 2, 1, 3)
        choi = block.reshape(n * q, n * q)
        lows.append(float(np.linalg.eigvalsh((choi + choi.conj().T) / 2.0)[0]))
    return lows


def assert_bound_holds(pi, connector: np.ndarray, values: np.ndarray) -> list[float]:
    """-b_k <= the least eigenvalue of each Choi block, with M and s pi's exact
    multiplicative and star residuals, up to eigvalsh's rounding; returns the b_k."""
    mult = pairwise_reference.representation_residual(pi)
    star = pairwise_reference.hermiticity_reference(pi)
    bounds, _ = _stinespring_bound(pi, mult, star, connector, values)
    slack = 1e-12 * max(1.0, float(np.linalg.norm(values)))
    for b, low in zip(bounds, choi_lows(pi.source, values), strict=True):
        assert b >= 0.0 and -b <= low + slack, (b, low)
    return list(bounds)


@settings(max_examples=50, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    multiplicity=st.integers(1, 2),
    extra=st.integers(0, 2),
    additive=st.sampled_from([0.0, 1e-6, 1e-3, 0.1]),
    similarity=st.sampled_from([0.0, 1e-6, 1e-3, 0.1]),
    width=st.integers(1, 4),
    rank=st.integers(1, 4),
    norm=st.sampled_from([0.3, 1.0, 3.0]),
    delta=st.sampled_from([0.0, 1e-6, 1e-3]),
    seed=st.integers(0, 2**16),
)
def test_stinespring_bound_is_below_the_least_choi_eigenvalue(
    sizes, multiplicity, extra, additive, similarity, width, rank, norm, delta, seed
):
    """pi is a *-representation of a random standard form (U (a (x) 1) U* ⊕ 0),
    perturbed non-Hermitianly (a similarity S·S⁻¹, still multiplicative) and
    non-multiplicatively (an additive term). V is random of rank at most `rank`
    (rank-deficient when that is below its width) and norm `norm`; the map is
    V* pi(.) V plus an optional Δ. -b_k is at most each Choi block's least
    eigenvalue."""
    source = FiniteCStarAlgebra(tuple(sizes))
    gen = np.random.default_rng(seed)
    dim = source.linear_dim
    p = source.total_dim * multiplicity + extra
    units = np.kron(source.dense_stack(np.eye(dim)), np.eye(multiplicity))
    units = np.pad(units, ((0, 0), (0, extra), (0, extra)))
    u = np.linalg.qr(linalg.random_complex(gen, p, p))[0]
    s_mat = np.eye(p) + similarity * linalg.random_complex(gen, p, p)
    noise = np.stack([linalg.random_complex(gen, p, p) for _ in range(dim)])
    pi_values = s_mat @ u @ units @ u.conj().T @ np.linalg.inv(s_mat) + additive * noise
    pi = CompletelyPositiveMap(source, HilbertModule.free(C, p), pi_values)
    r = min(rank, p, width)
    v = linalg.random_complex(gen, p, r) @ linalg.random_complex(gen, r, width)
    v *= norm / np.linalg.norm(v, 2)
    phi_values = v.conj().T @ pi_values @ v
    phi_values += delta * np.stack([linalg.random_complex(gen, width, width) for _ in range(dim)])
    assert_bound_holds(pi, v, phi_values)


M3 = FiniteCStarAlgebra((3,))
M3_UNITS = M3.dense_stack(np.eye(9))
# Y = u u* with u = (e_0 - e_1)/√2: J (x) Y is orthogonal to the range of the Choi
# matrix Σ E_ij (x) E_ij of the identity representation of M3.
_U = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
M3_Y = np.outer(_U, _U)
S3 = np.diag([3.0, 1.0, 1.0])
TERM_INSTANCES = {
    # P_ij = E_ij - εY: λ_min = -3ε, while M = 0.0021 < 3ε.
    "block size n": (M3_UNITS - 1e-3 * M3_Y, np.eye(3), None),
    # The same pi with V = 2: λ_min = -12ε, while n·M = 0.0064.
    "connector norm": (M3_UNITS - 1e-3 * M3_Y, 2.0 * np.eye(3), None),
    # S E_ij S⁻¹ is multiplicative (M = 0) but not *-preserving: λ_min = -0.91.
    "star residual": (S3 @ M3_UNITS @ np.linalg.inv(S3), np.eye(3), None),
    # An exact pi and Δ_ij = -εY: λ_min = -3ε = -||Δ||_F.
    "map distance": (M3_UNITS.astype(complex), np.eye(3), -1e-3 * M3_Y),
}


@pytest.mark.parametrize("term", list(TERM_INSTANCES))
def test_stinespring_bound_needs_each_term(term):
    """On M3 on C³, instances where the bound without one of its terms, n, ||V||²,
    f·s or ||Δ_k||_F, would lie above the least Choi eigenvalue; the whole bound
    is below it."""
    pi_values, v, delta = TERM_INSTANCES[term]
    pi = CompletelyPositiveMap(M3, HilbertModule.free(C, 3), pi_values)
    values = v.conj().T @ pi_values @ v + (0.0 if delta is None else delta[None])
    (low,) = choi_lows(M3, values)
    (bound,) = assert_bound_holds(pi, v, values)
    assert low < -1e-3 and bound <= 30.0 * -low


class TestStinespringCertificate:
    def test_conjugated_pi_takes_the_exact_path_and_passes(self):
        """pi conjugated by a unitary within 1e-6 of 1 is still a covariant
        *-representation, so its integrated form passes, but phi = V* pi(.) V is
        1e-6 from V* pi'(.) V: the bound exceeds the threshold, and the exact Choi
        test decides, as it would without the bound."""
        rho, act, rep = dilation_instance("m2", "c", 2, "z3", seed=5)
        d = covariant_dilation(rho, act, rep)
        xp = build_crossed_product(act)
        ext = extend_covariant_cp(d, xp)
        assert ext.report.check(CHOI_CHECK).detail.startswith("Stinespring bound")
        gen = np.random.default_rng(11)
        vals, vecs = np.linalg.eigh(linalg.random_hermitian(gen, d.module.coord_dim))
        w = (vecs * np.exp(1e-6j * vals)) @ vecs.conj().T

        def conj(stack):
            return w @ stack @ w.conj().T

        phi = CompletelyPositiveMap(d.cp_map.source, d.module, conj(d.representation.values))
        v = UnitaryRepresentation(act.group, d.module, conj(d.group_unitaries.values))
        moved = replace(ext, integrated=integrated_form(phi, v, xp))
        assert moved.integrated.report.passed
        check = moved.report.check(CHOI_CHECK)
        assert check.detail.startswith("exact Choi eigenvalues")
        assert check.passed and moved.report.passed
        exact = ext.standard_map.verify_completely_positive(moved.certificate.tol)
        assert moved.certificate == exact
