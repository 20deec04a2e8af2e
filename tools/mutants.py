"""Run the recorded mutants of prostar, each against the tests that should kill it.

    python tools/mutants.py [--root ROOT] [ID ...]

Each mutant is (id, file, exact old text, new text, tests). For each one the
checkout at ROOT (default: the one holding this file) is copied to a
temporary directory, the old text is replaced by the new, and pytest runs
only the listed tests there, with that copy's `src/` first on the path. The
tool prints one line per mutant:

- `killed`: a listed test fails (pytest exit 1, or 2 when the mutant breaks
  collection);
- `survived`: every listed test passes;
- `stale`: the old text does not occur exactly once in the file;
- `error`: pytest could not run the tests as listed (another exit status).

It exits 0 only when every mutant is killed. Tier-1 does not collect this
file (`testpaths` is `tests`). On two CPUs the whole list takes about two
minutes; one mutant takes a few seconds, one that runs
`tests/test_acceptance.py` about twenty.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    id: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


KERNEL = "tests/test_pairwise_kernel.py"
CROSSED = "tests/test_crossed.py"
DILATION = "tests/test_dilation.py"
GROUPS = "tests/test_groups.py"
MODULES = "tests/test_modules.py"
ACCEPTANCE = "tests/test_acceptance.py"
ALGEBRA = "tests/test_algebra.py"
STACK_ENTRY = f"{MODULES}::test_endomorphism_stack_refuses_for_the_reason_it_names"
GRAM_BLOCKS = f"{DILATION}::test_gram_is_one_block_per_summand_row"
GRAM_GRID = f"{ACCEPTANCE}::test_gram_and_hermiticity_match_pairwise_reference"
NULL_PER_SUMMAND = f"{DILATION}::test_null_seminorm_is_read_per_summand"
NULL_M3 = f"{DILATION}::test_null_space_preserved_on_m3_identity_representation"
NULL_ORDER = f"{DILATION}::test_null_space_reading_does_not_depend_on_the_solve_order"
SWAPPED = (
    f"{DILATION}::test_summand_swapping_action_descends",
    f"{DILATION}::test_summand_swapping_action_with_a_null_space",
)
ORDER_SEED = f"{ACCEPTANCE}::test_order_seed_changes_the_construction"
BOUND_TERMS = f"{CROSSED}::test_stinespring_bound_needs_each_term"
BOUND_GRID = f"{ACCEPTANCE}::test_stinespring_bound_decides_every_grid_extension"
BOUND_PARTS = f"{ALGEBRA}::test_bound_or_exact_decides_on_every_part"
STANDARD_TERMS = f"{CROSSED}::test_standard_map_bound_needs_each_term"
STANDARD_C2 = f"{CROSSED}::test_standard_map_bound_needs_c_squared"
STANDARD_GRID = f"{ACCEPTANCE}::test_standard_map_bound_decides_every_grid_extension"
WARM_EXTENSION = f"{ACCEPTANCE}::test_warm_extension_runs_no_matrix_unit_bound"
WARM_INVOLUTION = f"{ACCEPTANCE}::test_warm_extension_runs_no_exact_involution"
INVOLUTION_TERMS = f"{CROSSED}::test_involution_bound_needs_each_term"
PHASE_TWISTED = f"{CROSSED}::TestIntegratedForm::test_phase_twisted_unitaries_fail_star_only"
DRIFT_EXACT = f"{CROSSED}::TestIntegratedForm::test_exact_residual_decides_when_the_bound_exceeds_tol"
PATTERN_VARIANTS = "tests/test_cpmaps.py::test_unit_pattern_is_exact_and_every_variant_is_checked_densely"
PATTERN_OWN = "tests/test_cpmaps.py::test_recognizer_forms_no_pattern_but_the_maps_own"
COVARIANCE_CACHE = f"{GROUPS}::TestCovariance::test_cached_per_action_and_representation"
PRECONDITION_TOL = f"{DILATION}::test_precondition_is_decided_on_every_call_at_its_tol"
SWEEP = (
    f"{KERNEL}::test_structure_sweep_matches_whole_matrix_reference",
    f"{KERNEL}::test_structure_sweep_refuses_a_defect_in_any_chunk",
)

MUTANTS = (
    # The streamed pairwise kernel.
    Mutant(
        "kernel-last-row-dropped", "src/prostar/linalg.py",
        "rows = slice(start, min(start + chunk, m))",
        "rows = slice(start, min(start + chunk, m - 1))", (KERNEL,),
    ),
    Mutant(
        "kernel-zeros-not-gathered", "src/prostar/linalg.py",
        "            expected[idx < 0] = 0.0\n", "", (KERNEL,),
    ),
    Mutant(
        "kernel-table-transposed", "src/prostar/linalg.py",
        "idx = coeffs[rows]", "idx = coeffs.T[rows]", (KERNEL,),
    ),
    # Wedderburn's closure and centre sweep.
    Mutant(
        "sweep-last-chunk-dropped", "src/prostar/algebra.py",
        "for start in range(0, dim, chunk):", "for start in range(0, dim - chunk, chunk):", SWEEP,
    ),
    Mutant(
        "sweep-closure-sum-overwritten", "src/prostar/algebra.py",
        "sq += float(", "sq = float(", SWEEP,
    ),
    Mutant(
        "sweep-r-restarted-each-chunk", "src/prostar/algebra.py",
        "np.linalg.qr(np.vstack([r, rows.reshape(c * dim, dim)]), mode=\"r\")",
        "np.linalg.qr(rows.reshape(c * dim, dim), mode=\"r\")", SWEEP,
    ),
    Mutant(
        "sweep-commutator-products-swapped", "src/prostar/algebra.py",
        "linalg.pair_products(basis, part)", "linalg.pair_products(part, basis)", SWEEP,
    ),
    Mutant(
        "pair-products-untransposed", "src/prostar/linalg.py",
        ".reshape(k, d, count, d).transpose(0, 2, 1, 3)", ".reshape(k, count, d, d)",
        (KERNEL,) + SWEEP,
    ),
    # The matrix-unit bound and its fallback.
    Mutant(
        "bound-r2-dropped", "src/prostar/linalg.py",
        "(1.0 + f) ** 2 * r1 + f * f * r2", "(1.0 + f) ** 2 * r1", (KERNEL,),
    ),
    Mutant(
        "bound-r1-weakened", "src/prostar/linalg.py",
        "(1.0 + f) ** 2 * r1 + f * f * r2", "(1.0 + f) * r1 + f * f * r2", (KERNEL,),
    ),
    Mutant(
        "bound-index-arrays-swapped", "src/prostar/linalg.py",
        "r1 = max_frobenius(stack[left] @ stack[right] - stack)",
        "r1 = max_frobenius(stack[right] @ stack[left] - stack)", (KERNEL,),
    ),
    Mutant(
        "fallback-never", "src/prostar/cpmaps.py",
        "mult, certificate, tol,", 'mult, certificate, float("inf"),', (KERNEL,),
    ),
    Mutant(
        "fallback-always", "src/prostar/cpmaps.py",
        "mult, certificate, tol,", 'mult, certificate, float("-inf"),', (KERNEL,),
    ),
    Mutant(
        "fallback-at-twice-tol", "src/prostar/cpmaps.py",
        "mult, certificate, tol,", "mult, certificate, 2 * tol,",
        (f"{KERNEL}::test_fallback_decides_when_the_bound_exceeds_tol",),
    ),
    Mutant(
        "certificate-names-swapped", "src/prostar/cpmaps.py",
        'certificate, tol, lambda: (self._exact_multiplicative, "all pairs")',
        '"all pairs", tol, lambda: (self._exact_multiplicative, certificate)',
        (f"{KERNEL}::test_star_homomorphism_names_the_certificate_that_decided",),
    ),
    # The matrix-unit pattern that certifies Phi exactly.
    Mutant(
        "pattern-any-zero-one-stack", "src/prostar/cpmaps.py",
        "np.array_equal(vals.view(np.float64), pattern)", "np.all((vals == 0) | (vals == 1))",
        (PATTERN_VARIANTS,),
    ),
    Mutant(
        "pattern-sizes-unsummed", "src/prostar/cpmaps.py",
        "        if np.dot(source.block_sizes, pks) != self.module.coord_dim:\n            return None\n",
        "", (PATTERN_OWN,),
    ),
    Mutant(
        "bound-or-exact-reads-one-part", "src/prostar/algebra.py",
        "max(bound) if isinstance(bound, tuple)", "min(bound) if isinstance(bound, tuple)", (BOUND_PARTS,),
    ),
    # A *-homomorphism checked as the representation it is on B.
    Mutant(
        "hom-view-of-transposed-images", "src/prostar/algebra.py",
        "dense = self.target.dense_stack(self.action_matrix.T)",
        "dense = self.target.dense_stack(self.action_matrix.T).transpose(0, 2, 1)",
        (ALGEBRA,),
    ),
    Mutant(
        "surjective-against-source", "src/prostar/algebra.py",
        "return self._rank == self.target.linear_dim",
        "return self._rank == self.source.linear_dim", (ALGEBRA,),
    ),
    # Eigenvector phases.
    Mutant(
        "phases-abs-for-hypot", "src/prostar/linalg.py",
        "np.conj(lead / np.hypot(lead.real, lead.imag))", "np.conj(lead / np.abs(lead))",
        ("tests/test_linalg.py",),
    ),
    Mutant(
        "phases-1d-row", "src/prostar/linalg.py",
        "np.hypot(lead.real, lead.imag))[None, :]", "np.hypot(lead.real, lead.imag))",
        ("tests/test_linalg.py",),
    ),
    # The crossed product and the integrated form.
    Mutant(
        "crossed-product-order-reversed", "src/prostar/crossed.py",
        "by_group[group.multiply(g, h)]", "by_group[group.multiply(h, g)]", (CROSSED,),
    ),
    Mutant(
        "involution-adjoint-gather-dropped", "src/prostar/crossed.py",
        "moved[:, action.algebra.adjoint_index]", "moved", (CROSSED,),
    ),
    Mutant(
        "involution-against-k-g", "src/prostar/crossed.py",
        "_spanning_values(values, unitaries)[inv]", "_spanning_values(values, unitaries)",
        (CROSSED, ACCEPTANCE),
    ),
    # The involution bound √(1+u)·(C + f·u + s) + f·w⁻ and its exact fallback.
    Mutant(
        "involution-bound-c-dropped", "src/prostar/crossed.py",
        "(cov + f * unitarity + star) + f * inverse_law",
        "(f * unitarity + star) + f * inverse_law", (INVOLUTION_TERMS,),
    ),
    Mutant(
        "involution-bound-fu-dropped", "src/prostar/crossed.py",
        "(cov + f * unitarity + star) + f * inverse_law",
        "(cov + star) + f * inverse_law", (INVOLUTION_TERMS,),
    ),
    Mutant(
        "involution-bound-s-dropped", "src/prostar/crossed.py",
        "(cov + f * unitarity + star) + f * inverse_law",
        "(cov + f * unitarity) + f * inverse_law", (INVOLUTION_TERMS,),
    ),
    Mutant(
        "involution-bound-fw-dropped", "src/prostar/crossed.py",
        "(cov + f * unitarity + star) + f * inverse_law",
        "(cov + f * unitarity + star)", (INVOLUTION_TERMS, PHASE_TWISTED),
    ),
    Mutant(
        "involution-threshold-skipped", "src/prostar/crossed.py",
        "            star_certificate,\n            threshold,\n",
        "            star_certificate,\n            float(\"inf\"),\n", (PHASE_TWISTED,),
    ),
    Mutant(
        "involution-bound-never-decides", "src/prostar/crossed.py",
        "            star_certificate,\n            threshold,\n",
        "            star_certificate,\n            float(\"-inf\"),\n", (WARM_INVOLUTION,),
    ),
    # The integrated form's relation bound f·C + a·M and its all-pairs fallback.
    Mutant(
        "twisted-products-dropped", "src/prostar/crossed.py",
        "        worst = max(\n            worst,\n            linalg.max_product_residual(",
        "        worst = 0.0 * max(\n            worst,\n            linalg.max_product_residual(",
        (CROSSED,),
    ),
    Mutant(
        "relation-bound-fc-dropped", "src/prostar/crossed.py",
        "bound = f * cov + a * mult", "bound = a * mult", (CROSSED,),
    ),
    Mutant(
        "relation-bound-am-dropped", "src/prostar/crossed.py",
        "bound = f * cov + a * mult", "bound = f * cov", (CROSSED,),
    ),
    Mutant(
        "relation-bound-a-over-rows", "src/prostar/crossed.py",
        "np.sum(np.abs(action._action_tensor), axis=1)",
        "np.sum(np.abs(action._action_tensor), axis=2)", (CROSSED,),
    ),
    Mutant(
        "relation-fallback-never", "src/prostar/crossed.py",
        "            threshold,\n            lambda: (_twisted_residual(",
        "            float(\"inf\"),\n            lambda: (_twisted_residual(", (CROSSED,),
    ),
    Mutant(
        "covariance-not-enforced", "src/prostar/crossed.py",
        "if not cov <= max(tol, 1e-8):", "if False:", (CROSSED,),
    ),
    Mutant(
        "unit-at-wrong-element", "src/prostar/crossed.py",
        "unit_value @ v.values[action.group.identity]", "unit_value @ v.values[-1]", (CROSSED,),
    ),
    Mutant(
        "extension-u-reversed", "src/prostar/crossed.py",
        "d.rep.values[:, None]", "d.rep.values[::-1, None]", (CROSSED,),
    ),
    # The extension's Stinespring bound and its exact Choi fallback.
    Mutant(
        "stinespring-n-dropped", "src/prostar/crossed.py",
        "v_sq * n * (f * star + mult) + d_k", "v_sq * (f * star + mult) + d_k",
        (BOUND_TERMS,),
    ),
    Mutant(
        "stinespring-v-norm-dropped", "src/prostar/crossed.py",
        "v_sq * n * (f * star + mult) + d_k", "n * (f * star + mult) + d_k",
        (BOUND_TERMS,),
    ),
    Mutant(
        "stinespring-fs-dropped", "src/prostar/crossed.py",
        "v_sq * n * (f * star + mult) + d_k", "v_sq * n * mult + d_k",
        (BOUND_TERMS,),
    ),
    Mutant(
        "stinespring-delta-dropped", "src/prostar/crossed.py",
        "v_sq * n * (f * star + mult) + d_k", "v_sq * n * (f * star + mult)",
        (BOUND_TERMS, f"{CROSSED}::TestExtension::test_replaced_standard_map_is_certified_again"),
    ),
    Mutant(
        "stinespring-threshold-skipped", "src/prostar/crossed.py",
        "            detail,\n            threshold,\n",
        "            detail,\n            float(\"inf\"),\n",
        (f"{CROSSED}::TestStinespringCertificate", f"{CROSSED}::TestExtension"),
    ),
    Mutant(
        "stinespring-never-decides", "src/prostar/crossed.py",
        "            detail,\n            threshold,\n",
        "            detail,\n            float(\"-inf\"),\n",
        (BOUND_GRID,),
    ),
    # The standard map certified through the change of basis, c²·B + ||K||·ε_T
    # with B = mult·(1 + u) + f²·(1 + u)·(u + w), and its exact fallback.
    Mutant(
        "standard-c-not-squared", "src/prostar/crossed.py",
        "bound = c * c * spanning + k_max * eps", "bound = c * spanning + k_max * eps",
        (STANDARD_C2,),
    ),
    Mutant(
        "standard-eps-dropped", "src/prostar/crossed.py",
        "bound = c * c * spanning + k_max * eps", "bound = c * c * spanning",
        (STANDARD_TERMS,),
    ),
    Mutant(
        "spanning-w-dropped", "src/prostar/crossed.py",
        "(unitarity + group_law)", "unitarity", (STANDARD_TERMS, PHASE_TWISTED),
    ),
    Mutant(
        "spanning-u-dropped", "src/prostar/crossed.py",
        "mult * (1.0 + unitarity) + f2 * (1.0 + unitarity) * (unitarity + group_law)",
        "mult + f2 * group_law", (STANDARD_TERMS,),
    ),
    Mutant(
        "standard-threshold-skipped", "src/prostar/crossed.py",
        "std_bound, std_certificate, threshold,", 'std_bound, std_certificate, float("inf"),',
        (PHASE_TWISTED, DRIFT_EXACT),
    ),
    Mutant(
        "standard-bound-never-decides", "src/prostar/crossed.py",
        "std_bound, std_certificate, threshold,", 'std_bound, std_certificate, float("-inf"),',
        (STANDARD_GRID, WARM_EXTENSION),
    ),

    Mutant(
        "choi-lows-ignored", "src/prostar/cpmaps.py",
        "enumerate(zip(blocks, lows))", "enumerate(zip(blocks, [0.0] * len(blocks)))",
        ("tests/test_cpmaps.py",),
    ),
    # Groups, covariance and the covariant average.
    Mutant(
        "witness-ties-by-exact-max", "src/prostar/groups.py",
        "resid >= worst - band", "resid >= worst", (ACCEPTANCE,),
    ),
    Mutant(
        "covariance-action-untransposed", "src/prostar/groups.py",
        "action._action_tensor.transpose(0, 2, 1).reshape(", "action._action_tensor.reshape(",
        (GROUPS,),
    ),
    Mutant(
        "covariance-conjugated-on-the-left", "src/prostar/groups.py",
        "np.matmul(left.reshape(order, p * dim, p), unitaries.conj().transpose(0, 2, 1))",
        "np.matmul(left.reshape(order, p * dim, p), unitaries)", (GROUPS,),
    ),
    Mutant(
        "average-conjugation-reversed", "src/prostar/groups.py",
        "u.conj().swapaxes(-1, -2) @ moved @ u", "u @ moved @ u.conj().swapaxes(-1, -2)",
        ("tests/test_cpmaps.py", GROUPS),
    ),
    Mutant(
        "covariance-key-drops-u", "src/prostar/groups.py",
        "key = (action, rep)", "key = (action,)", (COVARIANCE_CACHE,),
    ),
    Mutant(
        "covariance-key-drops-alpha", "src/prostar/groups.py",
        "key = (action, rep)", "key = (rep,)", (COVARIANCE_CACHE,),
    ),
    Mutant(
        "covariance-cached-at-first-tol", "src/prostar/groups.py",
        "rho._covariances[key] = _covariance_residual(rho.values, rep.values, action)",
        "rho._covariances[key] = (lambda w, s: (w if w > tol else 0.0, s))("
        "*_covariance_residual(rho.values, rep.values, action))",
        (PRECONDITION_TOL,),
    ),
    Mutant(
        "inverse-law-gather-dropped", "src/prostar/groups.py",
        "u[list(group.inverses)]", "u[list(range(group.order))]", (GROUPS,),
    ),
    # The dilation and the uniqueness unitary.
    Mutant(
        "null-space-covariant-moves-dropped", "src/prostar/dilation.py",
        "\n        (d.action._action_tensor, rep._complex_matrices),",
        "", (DILATION, ACCEPTANCE),
    ),
    # The Gram as rho's Choi blocks G_k and C_k, one per summand.
    Mutant(
        "gram-summand-offset-dropped", "src/prostar/dilation.py",
        "sandwiched[off : off + nk * nk]", "sandwiched[: nk * nk]", (GRAM_BLOCKS, GRAM_GRID),
    ),
    Mutant(
        "gram-choi-reshape-transposed", "src/prostar/dilation.py",
        "reshape(nk, nk, m, m).transpose(0, 2, 1, 3)", "reshape(nk, nk, m, m).transpose(1, 2, 0, 3)",
        (GRAM_BLOCKS, GRAM_GRID),
    ),
    Mutant(
        "row0-order-not-undone", "src/prostar/dilation.py",
        "spectra.append((vals, vecs[np.argsort(order)]))", "spectra.append((vals, vecs))",
        (DILATION,),
    ),
    Mutant(
        "order-seed-ignored", "src/prostar/dilation.py",
        "order = np.arange(len(c)) if rng is None else rng.permutation(len(c))",
        "order = np.arange(len(c))", (ORDER_SEED,),
    ),
    Mutant(
        "null-norm-column-max", "src/prostar/dilation.py",
        "np.max(linalg.spectral_norm(classes))", "np.max(np.linalg.norm(classes, axis=1))",
        (NULL_M3, NULL_ORDER),
    ),
    Mutant(
        "null-classes-of-unmoved-vectors", "src/prostar/dilation.py",
        "for t, y in moves:",
        "for t, y in [(np.eye(source.linear_dim)[None], np.eye(rep.module.complex_dim)[None])]:",
        (NULL_PER_SUMMAND, NULL_M3),
    ),
    Mutant(
        "null-class-eigenvalues-unrooted", "src/prostar/dilation.py",
        "maps.append(np.sqrt(lam)[:, None] * c_k.conj().T)",
        "maps.append(lam[:, None] * c_k.conj().T)",
        (NULL_PER_SUMMAND,),
    ),
    # The class kernel: one pair of summands at a time.
    Mutant(
        "class-cross-summand-blocks-skipped", "src/prostar/dilation.py",
        "tb = t[:, t_row : t_row + nq * nq, t_col : t_col + nk * nk]",
        "tb = t[:, t_row : t_row + nq * nq, t_col : t_col + nk * nk]"
        " * (t_row == t_col or len(embeds) == 1)",
        SWAPPED,
    ),
    Mutant(
        "class-u-replaced-by-identity", "src/prostar/dilation.py",
        "u_cm = rep._complex_matrices",
        "u_cm = np.eye(rep.module.complex_dim)[None]", (DILATION,),
    ),
    Mutant(
        "class-t-block-transposed", "src/prostar/dilation.py",
        "tb.reshape(-1, nq, nq, nk, nk).transpose(0, 1, 3, 2, 4)",
        "tb.reshape(-1, nq, nq, nk, nk).transpose(0, 2, 4, 1, 3)", (DILATION,),
    ),
    Mutant(
        "tower-class-y-transposed", "src/prostar/tower.py",
        "class_matrices(eye, y[None],", "class_matrices(eye, y.T[None],",
        ("tests/test_tower.py",),
    ),
    # The quotient one matrix-unit summand at a time.
    Mutant(
        "null-cut-per-summand", "src/prostar/dilation.py",
        "keeps = [vals > threshold for vals, _ in spectra]",
        "keeps = [vals > max(NULL_SPACE_REL * vals[-1], NULL_SPACE_FLOOR) for vals, _ in spectra]",
        (f"{DILATION}::test_null_cut_is_global_over_summands",),
    ),
    Mutant(
        "only-row-0-filled", "src/prostar/dilation.py",
        "[b for b, c in zip(blocks, copies) for _ in range(c)]",
        "[b if j == 0 else 0 * b for b, c in zip(blocks, copies) for j in range(c)]", (DILATION,),
    ),
    Mutant(
        "phi-block-at-b-a", "src/prostar/algebra.py",
        "stack[off + a * n + b, start + a * pk + t, start + b * pk + t] = 1.0",
        "stack[off + a * n + b, start + b * pk + t, start + a * pk + t] = 1.0",
        (DILATION, PATTERN_VARIANTS),
    ),
    Mutant(
        "support-cut-per-summand", "src/prostar/dilation.py",
        "keep_h = hvals > sup_cut",
        "keep_h = hvals > max(SUPPORT_REL * hvals[-1], NULL_SPACE_FLOOR)",
        (f"{DILATION}::test_support_cut_is_global_over_summands",),
    ),
    Mutant(
        "minimality-never-fails", "src/prostar/dilation.py",
        "float(abs(rank - dim))", "0.0", (DILATION,),
    ),
    Mutant(
        "uniqueness-intertwining-unread", "src/prostar/dilation.py",
        "if kept[_INTERTWINING] > pre_tol:", "if False:", (DILATION,),
    ),
    # Range coordinates, the one conversion of flats and the one entry of stacks.
    Mutant(
        "off-range-mass-accepted", "src/prostar/modules.py",
        "if not np.all(defect <= OFF_RANGE_REL * scale):", "if False:", (KERNEL, CROSSED),
    ),
    Mutant(
        "off-range-threshold-loosened", "src/prostar/modules.py",
        "OFF_RANGE_REL = 1e-12  #", "OFF_RANGE_REL = 1e-8  #", (CROSSED,),
    ),
    Mutant(
        "mass-outside-b-accepted", "src/prostar/modules.py",
        "if not np.all(leak <= B_MASS_REL * scale):", "if False:",
        ("tests/test_scenario_cli.py",),
    ),
    Mutant(
        "stack-domain-unchecked", "src/prostar/modules.py",
        "if not isinstance(op, AdjointableOperator) or op.domain != module or op.codomain != module:",
        "if not isinstance(op, AdjointableOperator):", (STACK_ENTRY,),
    ),
    Mutant(
        "stack-finiteness-unchecked", "src/prostar/modules.py",
        "if not np.all(np.isfinite(stack)):", "if False:", (STACK_ENTRY,),
    ),
    Mutant(
        "compose-order-reversed", "src/prostar/modules.py",
        "self.coords @ inner_op.coords", "inner_op.coords @ self.coords", (MODULES,),
    ),
    Mutant(
        "unitary-against-zero", "src/prostar/modules.py",
        "left = linalg.frobenius(y.conj().T @ y - np.eye(y.shape[1]))",
        "left = linalg.frobenius(y.conj().T @ y)", (MODULES,),
    ),
    Mutant(
        "tower-projections-unchecked", "src/prostar/tower.py",
        "res = linalg.frobenius(mapped_proj - self.modules[q].projection_flat)", "res = 0.0",
        ("tests/test_tower.py",),
    ),
    # Report output.
    Mutant(
        "report-renders-json-for-text", "src/prostar/cli.py",
        "    text = report.to_text(color=False)\n",
        "    report.to_json()\n    text = report.to_text(color=False)\n",
        ("tests/test_scenario_cli.py",),
    ),
)


def run(mutant: Mutant, root: Path) -> str:
    """The outcome of one mutant on a fresh copy of `root`."""
    source = (root / mutant.file).read_text(encoding="utf-8")
    if source.count(mutant.old) != 1:
        return "stale"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(
            root,
            copy,
            ignore=shutil.ignore_patterns(".git", "results", "__pycache__", ".hypothesis"),
        )
        target = copy / mutant.file
        target.write_text(source.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        status = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        ).returncode
    return {0: "survived", 1: "killed", 2: "killed"}.get(status, "error")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout to mutate")
    parser.add_argument("ids", nargs="*", help="run only these mutants")
    args = parser.parse_args()
    chosen = [m for m in MUTANTS if not args.ids or m.id in args.ids]
    outcomes = []
    for mutant in chosen:
        outcome = run(mutant, args.root.resolve())
        outcomes.append(outcome)
        print(f"{outcome:9s} {mutant.id}", flush=True)
    return 0 if all(o == "killed" for o in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
