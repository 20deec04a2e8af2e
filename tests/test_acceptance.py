"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line per
criterion. Instance grids are seeded and deterministic; every tolerance is
pinned in the assertions below.
"""

from itertools import product

import numpy as np
import pytest

import pairwise_reference
from prostar import crossed as crossed_layer
from prostar import dilation as dilation_layer
from prostar import linalg
from prostar.algebra import FiniteCStarAlgebra, StarHomomorphism, verify_star_homomorphism
from prostar.cpmaps import CompletelyPositiveMap
from prostar.crossed import (
    ConvolutionElement,
    _involution_residual,
    _spanning_residuals,
    _twisted_residual,
    build_crossed_product,
    extend_covariant_cp,
)
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
from prostar.errors import PreconditionError
from prostar.groups import (
    GroupAction,
    check_covariance,
    verify_action,
    verify_unitary_representation,
)
from prostar.linalg import hermitian_eigendecomposition, random_hermitian
from prostar.modules import HilbertModule
from prostar.recipes import (
    dilation_instance,
    named_algebra,
    named_group,
    random_cp_map,
    random_covariant_cp,
    standard_action,
    standard_representation,
    unitalize,
)
from prostar.tower import (
    AlgebraTower,
    CoherentElement,
    ModuleTower,
    levelwise_integrated_coherence,
    levelwise_dilation_coherence,
)

ALGEBRAS = ("m2", "m3", "m2+c")
BASES = ("c", "m2")
RANKS = (1, 2)
GROUPS = ("trivial", "z2", "z3", "s3")
GRID = list(product(ALGEBRAS, BASES, RANKS, GROUPS))  # 48 combos
BASE_SEED = 7000


def _emit(line: str) -> None:
    print(f"\n{line}")


@pytest.fixture(scope="module")
def grid_dilations():
    out = {}
    for k, combo in enumerate(GRID):
        rho, act, rep = dilation_instance(*combo, seed=BASE_SEED + k)
        out[combo] = covariant_dilation(rho, act, rep)
    return out


@pytest.fixture(scope="module")
def crossed_products():
    out = {}
    for algebra_name in ALGEBRAS:
        for group_name in GROUPS:
            action = standard_action(group_name, named_algebra(algebra_name))
            out[(algebra_name, group_name)] = build_crossed_product(action)
    return out


@pytest.fixture(scope="module")
def grid_extensions(grid_dilations, crossed_products):
    out = {}
    for combo, d in grid_dilations.items():
        algebra_name, _, _, group_name = combo
        xp = crossed_products[(algebra_name, group_name)]
        out[combo] = extend_covariant_cp(d, xp)
    return out


def test_criterion_1_dilation_suite(grid_dilations):
    """>=100 seeded instances: every dilation residual <= 1e-9."""
    named = {
        "dilation identity rho = V* Phi V": 0.0,
        "covariance of Phi": 0.0,
        "intertwining v_g V = V u_g": 0.0,
    }
    count, failures, rank_exact = 0, [], True
    reports = []
    for combo, d in grid_dilations.items():
        reports.append((combo, verify_dilation(d, 1e-9)))
    extra = 0
    while len(reports) < 100:
        combo = GRID[extra % len(GRID)]
        rho, act, rep = dilation_instance(*combo, seed=BASE_SEED + 500 + extra)
        d = covariant_dilation(rho, act, rep)
        reports.append((combo, verify_dilation(d, 1e-9)))
        extra += 1
    for combo, report in reports:
        count += 1
        for name in named:
            named[name] = max(named[name], report.check(name).residual)
        if report.check("minimality rank = dim E_rho").residual != 0.0:
            rank_exact = False
        if not report.passed:
            failures.append(combo)
    ok = not failures and rank_exact and all(v <= 1e-9 for v in named.values())
    _emit(
        f"[criterion 1] {'PASS' if ok else 'FAIL'}: {count} instances; "
        f"worst identity {named['dilation identity rho = V* Phi V']:.2e}, "
        f"covariance {named['covariance of Phi']:.2e}, "
        f"intertwining {named['intertwining v_g V = V u_g']:.2e}, "
        f"minimality exact {rank_exact}"
    )
    assert count >= 100
    assert ok, f"failing combos: {failures}"


def test_criterion_2_uniqueness_suite():
    """>=25 pairs of independently built dilations joined by a verified unitary."""
    worst, count, failures = 0.0, 0, []
    for k in range(25):
        combo = GRID[(k * 7) % len(GRID)]
        rho, act, rep = dilation_instance(*combo, seed=BASE_SEED + 900 + k)
        d1 = covariant_dilation(rho, act, rep, order_seed=2 * k)
        d2 = covariant_dilation(rho, act, rep, order_seed=2 * k + 1)
        _, report = uniqueness_unitary(d1, d2, 1e-9)
        worst = max(worst, report.max_residual)
        count += 1
        if not report.passed:
            failures.append(combo)
    ok = not failures and worst <= 1e-9
    _emit(f"[criterion 2] {'PASS' if ok else 'FAIL'}: {count} pairs; worst residual {worst:.2e}")
    assert count >= 25
    assert ok, f"failing combos: {failures}"


def test_criterion_3_crossed_product_suite(crossed_products, rng):
    """Dimension identity, golden decompositions, convolution laws <= 1e-10."""
    dims_exact = all(
        xp.standard_algebra.linear_dim
        == xp.system.group.order * xp.system.algebra.linear_dim
        for xp in crossed_products.values()
    )
    goldens = {
        ("c", "z2", False): (1, 1),
        ("c+c", "z2", True): (2,),
        ("c", "s3", False): (1, 1, 2),
    }
    golden_ok = True
    for (alg_name, grp_name, swap), expected in goldens.items():
        alg = named_algebra(alg_name)
        action = (
            standard_action(grp_name, alg)
            if swap
            else GroupAction.trivial(named_group(grp_name), alg)
        )
        xp = build_crossed_product(action)
        golden_ok = golden_ok and xp.standard_algebra.block_sizes == expected

    law_worst = 0.0
    for alg_name, grp_name in (("m2", "z2"), ("m2+c", "z3"), ("m3", "s3")):
        system = standard_action(grp_name, named_algebra(alg_name))
        fs = [
            ConvolutionElement(
                system,
                tuple(system.algebra.random_element(rng) for _ in system.group.elements()),
            )
            for _ in range(3)
        ]
        f, h, k = fs
        assoc = f.convolve(h).convolve(k) - f.convolve(h.convolve(k))
        law_worst = max(law_worst, max(v.frobenius() for v in assoc.values))
        anti = f.convolve(h).involution() - h.involution().convolve(f.involution())
        law_worst = max(law_worst, max(v.frobenius() for v in anti.values))
        twice = f.involution().involution() - f
        law_worst = max(law_worst, max(v.frobenius() for v in twice.values))
    ok = dims_exact and golden_ok and law_worst <= 1e-10
    _emit(
        f"[criterion 3] {'PASS' if ok else 'FAIL'}: dims exact {dims_exact}, "
        f"goldens {golden_ok}, law residual {law_worst:.2e}"
    )
    assert ok


def test_criterion_4_integrated_form_suite(grid_extensions):
    """(Phi x v) is a verified unital *-homomorphism; trivial group evaluates at e."""
    worst, failures = 0.0, []
    trivial_worst = 0.0
    for combo, ext in grid_extensions.items():
        report = ext.integrated.report
        worst = max(worst, report.max_residual)
        if not report.passed:
            failures.append(combo)
        if combo[3] == "trivial":
            form = ext.integrated
            d = ext.dilation
            gen = np.random.default_rng(1)
            f = ConvolutionElement.delta(
                ext.crossed.system, 0, d.cp_map.source.random_element(gen)
            )
            delta = np.abs(
                form.on_convolution(f).flat - d.representation(f.values[0]).flat
            ).max()
            trivial_worst = max(trivial_worst, delta)
    ok = not failures and worst <= 1e-9 and trivial_worst <= 1e-12
    _emit(
        f"[criterion 4] {'PASS' if ok else 'FAIL'}: {len(grid_extensions)} integrated forms; "
        f"worst residual {worst:.2e}; trivial-group evaluation {trivial_worst:.2e}"
    )
    assert ok, f"failing combos: {failures}"


def test_criterion_5_extension_suite(grid_extensions):
    """phi = V*(Phi x v)V: spanning formula, unitality, Choi CP, |G|=1 reduction."""
    span_worst = unit_worst = 0.0
    choi_min = 0.0
    rho_worst = 0.0
    failures = []
    for combo, ext in grid_extensions.items():
        rep = ext.report
        span_worst = max(
            span_worst, rep.check("phi(delta_g a) = rho(a) u_g (spanning set)").residual
        )
        unit_worst = max(unit_worst, rep.check("phi(1) = id_E").residual)
        choi_min = min(choi_min, ext.certificate.min_eigenvalue)
        if not rep.passed:
            failures.append(combo)
        if combo[3] == "trivial":
            rho = ext.dilation.cp_map
            for i, a in enumerate(rho.source.basis()):
                f = ConvolutionElement.delta(ext.crossed.system, 0, a)
                out = ext.standard_map(ext.crossed.standardize(f))
                rho_worst = max(
                    rho_worst, np.abs(out.flat - rho.basis_values[i].flat).max()
                )
    ok = (
        not failures
        and span_worst <= 1e-10
        and unit_worst <= 1e-10
        and choi_min >= -1e-9
        and rho_worst <= 1e-12
    )
    _emit(
        f"[criterion 5] {'PASS' if ok else 'FAIL'}: spanning {span_worst:.2e}, "
        f"unitality {unit_worst:.2e}, Choi min {choi_min:.2e}, |G|=1 reduction {rho_worst:.2e}"
    )
    assert ok, f"failing combos: {failures}"


def _tower_two_level():
    bp = FiniteCStarAlgebra((1, 1))
    bq = FiniteCStarAlgebra((1,))
    return AlgebraTower.from_covers(
        {"q": bq, "p": bp}, [("q", "p")], {("p", "q"): StarHomomorphism.block_projection(bp, [0])}
    )


def _tower_three_level():
    b3 = FiniteCStarAlgebra((2, 1, 1))
    b2 = FiniteCStarAlgebra((2, 1))
    b1 = FiniteCStarAlgebra((2,))
    return AlgebraTower.from_covers(
        {"r": b1, "q": b2, "p": b3},
        [("r", "q"), ("q", "p")],
        {
            ("q", "r"): StarHomomorphism.block_projection(b2, [0]),
            ("p", "q"): StarHomomorphism.block_projection(b3, [0, 1]),
        },
    )


def test_grid_certificates_match_pairwise_reference(grid_extensions):
    """Criteria 4-5 certificates equal the exhaustive pairwise loops on all 48 combos.

    The composition residual is the relation bound on every combo: at least
    the exhaustive residual and within REL of it."""
    for combo, ext in grid_extensions.items():
        d = ext.dilation
        for rho in (d.representation, ext.integrated.standard_map):
            new = rho.verify_representation(1e-9).check("multiplicative").residual
            scale = pairwise_reference.product_scale(rho.values)
            old = pairwise_reference.representation_residual(rho)
            pairwise_reference.assert_agrees(new, old, scale, 1e-9)

        check = ext.integrated.report.check("convolution -> composition (spanning pairs)")
        old = pairwise_reference.twisted_residual(d.representation, d.group_unitaries, d.action)
        scale = pairwise_reference.product_scale(d.representation.values)
        pairwise_reference.assert_agrees(check.residual, old, scale, check.threshold)
        assert old <= check.residual and check.detail.startswith("relation bound"), combo


def test_grid_spanning_checks_match_elementwise_reference(grid_extensions):
    """Covariance, star, spanning and restriction certificates equal the element-wise loops.

    Covariance is checked for both pairs the extension relies on, (rho, u) and
    (Phi, v); the library forms each (g, i) pair's two sides with the
    reference's products, so the witnesses name the same pair.
    """
    covariance = "rho(alpha_g(a)) = u_g rho(a) u_g*"
    for combo, ext in grid_extensions.items():
        d = ext.dilation
        for rho, unitaries in ((d.cp_map, d.rep), (d.representation, d.group_unitaries)):
            check = check_covariance(rho, d.action, unitaries, 1e-8).check(covariance)
            old, witness = pairwise_reference.covariance_reference(rho, d.action, unitaries)
            scale = pairwise_reference.product_scale(rho.values)
            pairwise_reference.assert_agrees(check.residual, old, scale, check.threshold)
            assert check.detail == witness, (combo, check.detail, witness)

        check = ext.integrated.report.check("involution -> adjoint (spanning set)")
        old = pairwise_reference.star_reference(d.representation, d.group_unitaries, d.action)
        scale = pairwise_reference.product_scale(d.representation.values)
        pairwise_reference.assert_agrees(check.residual, old, scale, check.threshold)

        agree, restriction = pairwise_reference.spanning_reference(d)
        scale = pairwise_reference.product_scale(d.cp_map.values)
        for label, old in (
            ("phi(delta_g a) = rho(a) u_g (spanning set)", agree),
            ("restriction to delta_e (x) A equals rho", restriction),
        ):
            check = ext.report.check(label)
            pairwise_reference.assert_agrees(check.residual, old, scale, check.threshold)


def test_integrated_form_corner_residuals_bound_the_references(grid_extensions):
    """On the 24 non-free grid instances the integrated form's residuals, taken on
    the range coordinates (the corners U*XU), agree within REL with the
    element-wise references on the flats: no slack is left to add, since every
    operator entered through the checked conversion. The exact twisted and
    involution residuals are at most the reported ones, which are the
    relation and involution bounds."""
    non_free = 0
    for combo, ext in grid_extensions.items():
        d = ext.dilation
        phi, v = d.representation, d.group_unitaries
        if d.module.coord_dim == d.module.flat_dim:
            continue
        non_free += 1
        _, cov = _spanning_residuals(phi.values, v.values, d.action)
        mult = _twisted_residual(phi.values, v.values, d.action)
        star = _involution_residual(phi.values, v.values, d.action)
        report = ext.integrated.report
        assert mult <= report.check("convolution -> composition (spanning pairs)").residual
        assert star <= report.check("involution -> adjoint (spanning set)").residual
        scale = pairwise_reference.product_scale(pairwise_reference.value_flats(phi))
        for new, old in (
            (cov, pairwise_reference.covariance_reference(phi, d.action, v)[0]),
            (mult, pairwise_reference.twisted_residual(phi, v, d.action)),
            (star, pairwise_reference.star_reference(phi, v, d.action)),
        ):
            pairwise_reference.assert_agrees(new, old, scale, 1e-9)
    assert non_free == 24


def test_crossed_certificates_match_pairwise_reference(crossed_products):
    """Criterion 3 embedding and Wedderburn certificates equal the pairwise loops."""
    for xp in crossed_products.values():
        basis = pairwise_reference.conv_basis_reference(xp.system)
        emb = np.stack([pairwise_reference.embed_reference(xp, f) for f in basis])
        assert np.array_equal(xp.spanning_stack, emb)
        scale = pairwise_reference.product_scale(emb)
        old = pairwise_reference.embedding_residuals_reference(xp)
        assert [c.name for c in xp.embedding_report.checks] == list(old)
        for check in xp.embedding_report.checks:
            pairwise_reference.assert_agrees(check.residual, old[check.name], scale, check.threshold)

        phi = xp.wedderburn.embedding
        new = verify_star_homomorphism(phi, 1e-8)
        images = np.stack([phi.target.from_coords(c).dense() for c in phi.action_matrix.T])
        for name, reference in (
            ("multiplicative", pairwise_reference.star_homomorphism_residual),
            ("star", pairwise_reference.star_map_reference),
        ):
            pairwise_reference.assert_agrees(
                new.check(name).residual,
                reference(phi),
                pairwise_reference.product_scale(images),
                1e-8,
            )


def test_standardization_matches_per_unit_reference(crossed_products):
    """The stacked change of basis equals the per-matrix-unit loops on the 12 crossed products."""
    for xp in crossed_products.values():
        w = xp.wedderburn
        old = pairwise_reference.std_from_conv_reference(xp)
        assert np.max(np.abs(xp._std_from_conv - old)) <= 1e-12
        a = w.standard_form.from_coords(np.arange(w.standard_form.linear_dim) + 1j)
        back = pairwise_reference.from_standard_reference(w, a)
        assert np.max(np.abs(np.tensordot(a.coords(), w.matrix_units, axes=1) - back)) <= 1e-12
        again = pairwise_reference.to_standard_reference(w, back).coords()
        assert np.max(np.abs(w.to_standard(back) - again)) <= 1e-12


def test_standard_unit_is_standardized_convolution_unit(crossed_products):
    """The unit of each standard form A⋊G equals the standardized unit of C(G, A)."""
    for xp in crossed_products.values():
        old = xp.standardize(ConvolutionElement.unit(xp.system))
        assert (xp.standard_algebra.unit() - old).frobenius() <= 1e-12


def test_stinespring_bound_decides_every_grid_extension(grid_extensions):
    """On all 48 grid extensions the Stinespring bound decides the Choi check,
    with no fallback: each block's entry is minus its bound, at most the least
    eigenvalue the exact Choi test finds, and the decision is the exact test's."""
    worst = 0.0
    for combo, ext in grid_extensions.items():
        check = ext.report.check("phi completely positive (Choi on standard form)")
        assert check.detail.startswith("Stinespring bound"), combo
        cert = ext.certificate
        exact = ext.standard_map.verify_completely_positive(cert.tol)
        assert cert.is_cp and exact.is_cp, combo
        assert check.residual == -cert.min_eigenvalue
        for bound, low in zip(cert.choi_min_eigenvalues, exact.choi_min_eigenvalues, strict=True):
            assert bound <= 0.0 and bound <= low, combo
        worst = max(worst, check.residual)
    assert worst <= 1e-10
    _emit(f"[Stinespring] largest bound {worst:.2e} over {len(grid_extensions)} extensions")


def test_standard_map_bound_decides_every_grid_extension(grid_extensions):
    """On all 48 grid extensions the standard-map bound c²·B + ||K||·ε_T decides
    the standard-form factorization, with no fallback, and is at least the
    standard map's exact all-pairs residual; the Stinespring bound, which
    reads it as M, still decides every Choi check."""
    worst = 0.0
    for combo, ext in grid_extensions.items():
        check = ext.integrated.report.check(
            "standard-form factorization is a unital *-homomorphism"
        )
        assert check.passed and check.detail.startswith("standard-map bound"), combo
        mult, star, unital = ext.integrated.standard_residuals
        pi = ext.integrated.standard_map
        assert pairwise_reference.representation_residual(pi) <= mult, combo
        assert star == pi._star_residual and unital == pi._unital_residual
        choi = ext.report.check("phi completely positive (Choi on standard form)")
        assert choi.detail.startswith("Stinespring bound"), combo
        worst = max(worst, mult)
    assert worst <= 1e-10
    _emit(f"[standard map] largest bound {worst:.2e} over {len(grid_extensions)} extensions")


def test_warm_extension_runs_no_matrix_unit_bound(grid_extensions, monkeypatch):
    """Extending a grid dilation again over its crossed product certifies the new
    standard map through the change of basis: no `linalg.matrix_unit_bound`
    call (one per extension when the standard map ran its own
    representation check)."""
    calls = []
    original = linalg.matrix_unit_bound

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(linalg, "matrix_unit_bound", counted)
    for ext in grid_extensions.values():
        again = extend_covariant_cp(ext.dilation, ext.crossed)
        assert again.integrated.report.passed and again.report.passed
    assert calls == []


def test_warm_extension_runs_no_exact_involution(grid_extensions, monkeypatch):
    """Extending a grid dilation again certifies the involution on the spanning
    set by the involution bound: no `_involution_residual` call, and the
    check's detail names the bound."""
    calls = []
    original = crossed_layer._involution_residual

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(crossed_layer, "_involution_residual", counted)
    worst = 0.0
    for ext in grid_extensions.values():
        again = extend_covariant_cp(ext.dilation, ext.crossed)
        star = again.integrated.report.check("involution -> adjoint (spanning set)")
        assert star.passed and star.detail.startswith("involution bound")
        worst = max(worst, star.residual)
    assert calls == []
    _emit(f"[involution] largest bound {worst:.2e} over {len(grid_extensions)} extensions")


def test_gram_and_hermiticity_match_pairwise_reference(grid_dilations):
    """The per-summand Gram blocks G_k and C_k and the adjoint lookups equal the
    pairwise loops on all 48 combos: G_k and C_k are the row-0 blocks of the
    whole Gram formed one pair at a time."""
    for d in grid_dilations.values():
        # rho is on a free module and its flats are its coordinates; Phi is held
        # in range coordinates, so its residual agrees within REL of its size.
        rho, phi = d.cp_map, d.representation
        assert rho.verify_completely_positive().hermitian_residual == pytest.approx(
            pairwise_reference.hermiticity_reference(rho), rel=pairwise_reference.REL, abs=0.0
        )
        pairwise_reference.assert_agrees(
            phi.verify_completely_positive().hermitian_residual,
            pairwise_reference.hermiticity_reference(phi),
            pairwise_reference.product_scale(pairwise_reference.value_flats(phi)),
            1e-10,
        )
        gram = gram_operator(d.cp_map)
        old = pairwise_reference.gram_reference(d.cp_map)
        scale = pairwise_reference.REL * max(1.0, np.linalg.norm(old))
        blocks = pairwise_reference.summand_blocks(d.cp_map, old)
        assert len(blocks) == len(gram.bvalued_blocks) == len(gram.scalar_blocks)
        for g_k, c_k, (old_g, old_c) in zip(gram.bvalued_blocks, gram.scalar_blocks, blocks):
            assert np.linalg.norm(g_k - old_g) <= scale
            assert np.linalg.norm(c_k - old_c) <= scale


def _assert_checks_match(report, old_checks, scale: float) -> None:
    """Same names in the same order, same thresholds, pass/fail and details; residuals
    within REL."""
    assert [c.threshold for c in report.checks] == [c.threshold for c in old_checks]
    _assert_matches_reference(report, {c.name: (c.residual, c.detail) for c in old_checks}, scale)


def test_dilation_checks_match_elementwise_reference():
    """The descended flats, verify_dilation, covariant_extend's residuals, the group
    checks and the uniqueness unitary equal the per-element loops on all 48 combos,
    for the default spanning order and for a permuted one."""
    for k, combo in enumerate(GRID):
        rho, act, rep = dilation_instance(*combo, seed=BASE_SEED + k)
        pair = []
        for order_seed in (None, BASE_SEED + k + 1):
            core = minimal_dilation(rho, order_seed=order_seed)
            d = covariant_extend(core, act, rep)
            phi, v, connector = pairwise_reference.descended_reference(core, act, rep)
            unitaries = np.stack([u.flat for u in d.group_unitaries.unitaries])
            assert np.abs(phi - pairwise_reference.value_flats(d.representation)).max() <= 1e-12
            assert np.abs(v - unitaries).max() <= 1e-12
            assert np.abs(connector - d.connector.flat).max() <= 1e-12

            scale = pairwise_reference.product_scale(d.representation.values)
            for report, tol in ((verify_dilation(d, 1e-9), 1e-9), (d.residuals, 1e-10)):
                old = pairwise_reference.dilation_checks_reference(d, tol)
                _assert_checks_match(report, old, scale)
            _assert_checks_match(
                verify_unitary_representation(d.group_unitaries, 1e-10),
                pairwise_reference.unitary_representation_reference(d.group_unitaries, 1e-10),
                pairwise_reference.product_scale(d.group_unitaries.values),
            )
            pair.append(d)
        _assert_checks_match(
            verify_action(act, 1e-10),
            pairwise_reference.action_reference(act, 1e-10),
            pairwise_reference.product_scale(act._action_tensor),
        )
        first, second = pair
        u, report = uniqueness_unitary(first, second, 1e-9)
        u_old, old = pairwise_reference.uniqueness_reference(first, second, 1e-9)
        assert np.abs(u.flat - u_old).max() <= 1e-12
        scale = pairwise_reference.product_scale(first.representation.values)
        _assert_checks_match(report, old, scale)


def _criterion_6_towers():
    """The criterion-6 towers: (rho, alpha, u, module tower) for the 2-level Z2 and
    3-level Z3 dilation towers, and (Phi, v, A⋊G, module tower) for the
    integrated form over a pushed-down dilation tower, |G| = 2."""
    tower2 = _tower_two_level()
    mt2 = ModuleTower.of_free_modules(tower2, 1)
    a2 = named_algebra("m2")
    act2 = standard_action("z2", a2)
    u2 = standard_representation("z2", mt2.modules["p"])
    rho2 = random_covariant_cp(a2, mt2.modules["p"], act2, u2, BASE_SEED + 1)

    tower3 = _tower_three_level()
    mt3 = ModuleTower.of_free_modules(tower3, 1)
    a3 = named_algebra("m3")
    act3 = standard_action("z3", a3)
    u3 = standard_representation("z3", mt3.modules["p"])
    rho3 = random_covariant_cp(a3, mt3.modules["p"], act3, u3, BASE_SEED + 2)

    ep = HilbertModule.free(tower2.algebras["p"], 2)
    u_top = standard_representation("z2", ep)
    rho_top = random_covariant_cp(a2, ep, act2, u_top, BASE_SEED + 3)
    d_top = covariant_dilation(rho_top, act2, u_top)
    mt_push = ModuleTower.pushed_down(tower2, "p", d_top.module)
    integrated = (d_top.representation, d_top.group_unitaries, build_crossed_product(act2), mt_push)
    return [(rho2, act2, u2, mt2), (rho3, act3, u3, mt3)], integrated


def test_criterion_6_tower_suite(rng):
    """Levelwise coherence on 2- and 3-level towers; seminorm laws <= 1e-10."""
    (dil2, dil3), integrated = _criterion_6_towers()
    co2 = levelwise_dilation_coherence(*dil2)
    co3 = levelwise_dilation_coherence(*dil3)
    co4 = levelwise_integrated_coherence(*integrated)
    worst = max(co2.max_residual, co3.max_residual, co4.max_residual)
    tower3 = dil3[3].base

    # coherent-element seminorm monotonicity and G-invariance
    law_worst = 0.0
    acts3 = {lvl: standard_action("z3", alg) for lvl, alg in tower3.algebras.items()}
    for _ in range(10):
        a = CoherentElement.from_top(tower3, "p", tower3.algebras["p"].random_element(rng))
        assert a.verify(1e-11).passed
        law_worst = max(law_worst, a.seminorm("q") - a.seminorm("p"))
        law_worst = max(law_worst, a.seminorm("r") - a.seminorm("q"))
        for lvl in tower3.poset.elements:
            for g in range(3):
                moved = acts3[lvl].apply(g, a.levels[lvl])
                law_worst = max(
                    law_worst, abs(moved.operator_norm() - a.seminorm(lvl))
                )
    ok = (
        co2.passed and co3.passed and co4.passed
        and worst <= 1e-9 and law_worst <= 1e-10
    )
    _emit(
        f"[criterion 6] {'PASS' if ok else 'FAIL'}: coherence residual {worst:.2e}, "
        f"seminorm laws {law_worst:.2e}, dims 2-level {co2.level_dimensions}, "
        f"3-level {co3.level_dimensions}"
    )
    assert ok


def _assert_matches_reference(report, old: dict, scale: float) -> None:
    assert [c.name for c in report.checks] == list(old)
    for check in report.checks:
        residual, witness = old[check.name]
        pairwise_reference.assert_agrees(check.residual, residual, scale, check.threshold)
        assert check.detail == witness, (check.name, check.detail, witness)


def test_tower_checks_match_elementwise_reference():
    """Every tower check on the criterion-6 towers equals the per-entry loops:
    same pass/fail, residuals within REL, same witnesses."""
    tol = 1e-10
    dilations, (phi, v, xp, mt_push) = _criterion_6_towers()
    for mt in [d[3] for d in dilations] + [mt_push]:
        top = mt.modules[mt.base.poset.greatest()]
        scale = pairwise_reference.product_scale(top.basis_tensor)
        old = pairwise_reference.module_tower_reference(mt)
        _assert_matches_reference(mt.verify(tol), old, scale)
    for rho, act, u, mt in dilations:
        _assert_matches_reference(
            levelwise_dilation_coherence(rho, act, u, mt, tol=tol).report,
            pairwise_reference.dilation_coherence_reference(rho, act, u, mt, tol),
            pairwise_reference.product_scale(rho.values),
        )
    _assert_matches_reference(
        levelwise_integrated_coherence(phi, v, xp, mt_push, tol=tol).report,
        pairwise_reference.integrated_coherence_reference(phi, v, xp, mt_push, tol),
        pairwise_reference.product_scale(phi.values),
    )


def test_criterion_7_numerical_kernel_suite(rng):
    """Eigendecomposition round-trips to 64x64, C*-identity, transpose Choi -1."""
    roundtrip_ok = True
    worst_rt = 0.0
    for solve in (hermitian_eigendecomposition, pairwise_reference.jacobi_eigh):
        for n in (8, 32, 64):
            h = random_hermitian(rng, n)
            vals, vecs = solve(h)
            scale = np.linalg.norm(h)
            resid = np.linalg.norm((vecs * vals) @ vecs.conj().T - h) / scale
            ortho = np.linalg.norm(vecs.conj().T @ vecs - np.eye(n))
            worst_rt = max(worst_rt, resid, ortho)
            roundtrip_ok = roundtrip_ok and resid <= 1e-10 and ortho <= 1e-10

    cstar_worst = 0.0
    for blocks in ((8,), (2, 3), (64,)):
        alg = FiniteCStarAlgebra(blocks)
        a = alg.random_element(rng)
        na = a.operator_norm()
        cstar_worst = max(
            cstar_worst, abs((a.adjoint() * a).operator_norm() - na * na) / max(na * na, 1.0)
        )

    e = HilbertModule.free(named_algebra("c"), 2)
    transpose = CompletelyPositiveMap.from_dense_images(
        named_algebra("m2"), e, [b.dense().T for b in named_algebra("m2").basis()]
    )
    cert = transpose.verify_completely_positive()
    choi_ok = abs(cert.min_eigenvalue + 1.0) <= 1e-10

    ok = roundtrip_ok and cstar_worst <= 1e-9 and choi_ok
    _emit(
        f"[criterion 7] {'PASS' if ok else 'FAIL'}: round-trip {worst_rt:.2e}, "
        f"C*-identity {cstar_worst:.2e}, transpose Choi {cert.min_eigenvalue:.12f}"
    )
    assert ok


def test_criterion_8_negative_controls():
    """Scaled connector, padded module, non-covariant map: named failures, no silent pass."""
    rho, act, rep = dilation_instance("m2", "c", 2, "z2", seed=BASE_SEED + 4)
    d = covariant_dilation(rho, act, rep)

    scaled = verify_dilation(scaled_connector_variant(d, 0.5))
    scaled_named = not scaled.check("dilation identity rho = V* Phi V").passed

    padded = verify_dilation(padded_variant(d))
    padded_named = (
        not padded.check("minimality rank = dim E_rho").passed
        and padded.check("dilation identity rho = V* Phi V").passed
    )

    noncov = unitalize(random_cp_map(rho.source, rho.module, np.random.default_rng(0)))
    noncov.verify_completely_positive()
    raised = False
    try:
        covariant_extend(minimal_dilation(noncov), act, rep)
    except PreconditionError:
        raised = True

    ok = scaled_named and padded_named and raised
    _emit(
        f"[criterion 8] {'PASS' if ok else 'FAIL'}: scaled connector fails identity "
        f"{scaled_named}, padded module fails minimality {padded_named}, "
        f"non-covariant map rejected {raised}"
    )
    assert ok


def test_order_seed_changes_the_construction():
    """A second `order_seed` gives another, unitarily equivalent dilation. At the
    seeds of the benchmark's `dilate-grid` at seed 1 (instance 1000 + k, order
    seed 1001 + k), V moves by more than 1e-6 on at least one of the 48
    instances, and the uniqueness unitary carries one onto the other on all."""
    moved = []
    for k, combo in enumerate(GRID):
        rho, act, rep = dilation_instance(*combo, seed=1000 + k)
        d1 = covariant_dilation(rho, act, rep)
        d2 = covariant_dilation(rho, act, rep, order_seed=1001 + k)
        if np.abs(d1.connector.coords - d2.connector.coords).max() > 1e-6:
            moved.append(combo)
        _, report = uniqueness_unitary(d1, d2)
        assert report.passed, combo
    _emit(f"order_seed moved V on {len(moved)} of {len(GRID)} grid instances")
    assert moved


def test_summand_quotient_matches_whole_gram_reference():
    """The quotient taken one matrix-unit summand at a time agrees with the
    whole-Gram quotient on all 48 combos, for the default spanning order and
    for a permuted one, and its Phi is the one the shuffles descend to."""
    for k, combo in enumerate(GRID):
        rho, _, _ = dilation_instance(*combo, seed=BASE_SEED + k)
        for order_seed in (None, BASE_SEED + k + 1):
            core = minimal_dilation(rho, order_seed=order_seed)
            pairwise_reference.assert_summand_quotient_agrees(core, order_seed)


def test_one_eigensolve_per_summand_for_each_gram(monkeypatch):
    """Each grid dilation solves one C_k and one pushed h_k per summand M_{n_k}.
    The largest is h_k of M3 on the rank-2 free M2-module: C_k has 3·8 = 24
    labels, all retained, and h_k is 24·2 = 48 square."""
    sizes = []
    solve = dilation_layer.linalg.hermitian_eigendecomposition

    def counted(h):
        sizes.append(len(h))
        return solve(h)

    largest = 0
    for k, combo in enumerate(GRID):
        rho, _, _ = dilation_instance(*combo, seed=BASE_SEED + k)
        gram_operator(rho)  # the CP certificate's eigensolves are not the quotient's
        sizes.clear()
        with monkeypatch.context() as patch:
            patch.setattr(dilation_layer.linalg, "hermitian_eigendecomposition", counted)
            minimal_dilation(rho)
        assert len(sizes) == 2 * len(rho.source.block_sizes), (combo, sizes)
        largest = max(largest, *sizes)
    assert largest == 48
