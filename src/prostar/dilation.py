"""Minimal covariant dilation of a completely positive map.

Given a certified CP map rho: A -> L_B(E), the dilation module is the
quotient of A (x) E by the null space of the semi-inner product
<a(x)xi, b(x)eta> = <xi, rho(a*b) eta>. The quotient is computed through one
Hermitian eigenproblem of the scalarized (trace) Gram matrix; the retained
eigenbasis realizes the quotient concretely as a projective submodule P·B^r,
carrying the left representation of A, the connecting operator from E, and,
for covariant input data, a unitary representation of the group.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import linalg
from .algebra import Check, VerificationReport
from .cpmaps import CompletelyPositiveMap, require_certified_cp
from .errors import PreconditionError
from .groups import (
    GroupAction,
    UnitaryRepresentation,
    check_covariance,
    covariance_terms,
)
from .linalg import DEFAULT_TOL
from .modules import AdjointableOperator, HilbertModule

NULL_SPACE_REL = 1e-9
NULL_SPACE_FLOOR = 1e-14
SUPPORT_REL = 1e-12


@dataclass
class GramData:
    """The semi-inner product of the spanning set {a_i (x) xi_s}."""

    spanning_labels: tuple[tuple[int, int], ...]  # (A-basis index, E-basis index)
    bvalued_flat: np.ndarray  # (N*D, N*D), PSD over M_N(B)
    scalar: np.ndarray  # (N, N), trace of each B-valued entry


@dataclass
class QuotientData:
    spanning_labels: tuple[tuple[int, int], ...]
    scalar_gram: np.ndarray
    bvalued_flat: np.ndarray
    retained_vectors: np.ndarray  # orthonormal eigenvectors, columns
    retained_eigenvalues: np.ndarray
    null_vectors: np.ndarray
    null_dim: int
    threshold: float
    warnings: tuple[str, ...]


@dataclass
class DilationCore:
    """(E_rho, Phi_rho, V_rho) plus the quotient bookkeeping."""

    cp_map: CompletelyPositiveMap
    module: HilbertModule
    representation: CompletelyPositiveMap
    connector: AdjointableOperator
    quotient: QuotientData
    # Pushforward data reused by the covariant extension:
    _coord_map: np.ndarray  # (r, N): spanning coordinates -> class coordinates
    _class_embed: np.ndarray  # (N, r): normalized retained basis
    _sqrt_flat: np.ndarray  # W = sqrt of pushed-forward B-valued Gram
    _coord_extract: np.ndarray  # (r, r): trace extraction of W blocks
    _span_perm: np.ndarray  # permutation applied to the spanning order


@dataclass
class CovariantTriple:
    """A candidate covariant dilation (Phi, v, F) with connector W: E -> F."""

    representation: CompletelyPositiveMap
    unitaries: UnitaryRepresentation
    module: HilbertModule
    connector: AdjointableOperator


@dataclass
class CovariantDilation:
    """Verified covariant dilation of (rho, alpha, u)."""

    cp_map: CompletelyPositiveMap
    action: GroupAction
    rep: UnitaryRepresentation
    module: HilbertModule
    representation: CompletelyPositiveMap
    group_unitaries: UnitaryRepresentation
    connector: AdjointableOperator
    quotient: QuotientData
    residuals: VerificationReport

    def as_triple(self) -> CovariantTriple:
        return CovariantTriple(
            self.representation, self.group_unitaries, self.module, self.connector
        )


def gram_operator(rho: CompletelyPositiveMap, tol: float = DEFAULT_TOL) -> GramData:
    """B-valued and scalarized Gram of the spanning set {a_i (x) xi_s}."""
    require_certified_cp(rho, tol)
    source, module = rho.source, rho.module
    dim_a = source.linear_dim
    basis_e = module.complex_basis
    d_e = len(basis_e)
    big_d = module.block_dim
    x = np.hstack(module.basis_tensor)  # (fd, d_e*D)

    labels = tuple((i, s) for i in range(dim_a) for s in range(d_e))
    n = dim_a * d_e
    # Block (i, j) is x* rho(a_i* a_j) x, and a_i* a_j is the basis element
    # product_table[adjoint_index[i], j] (or zero): a gather of the values.
    sandwiched = x.conj().T @ rho._value_tensor @ x  # (dim_a, d_e*D, d_e*D)
    idx = source.product_table[source.adjoint_index]
    blocks = sandwiched[np.maximum(idx, 0)]
    blocks[idx < 0] = 0.0
    gram = blocks.transpose(0, 2, 1, 3).reshape(n * big_d, n * big_d)
    gram = (gram + gram.conj().T) / 2.0
    g4 = gram.reshape(n, big_d, n, big_d)
    scalar = np.einsum("kala->kl", g4)
    scalar = (scalar + scalar.conj().T) / 2.0
    return GramData(labels, gram, scalar)


def minimal_dilation(
    rho: CompletelyPositiveMap,
    *,
    tol: float = DEFAULT_TOL,
    order_seed: int | None = None,
    null_rel: float = NULL_SPACE_REL,
    support_rel: float = SUPPORT_REL,
) -> DilationCore:
    """Construct (E_rho, Phi_rho, V_rho) for a certified, unital CP map.

    `order_seed` permutes the spanning set before the quotient is taken; the
    construction is deterministic for a fixed seed and yields unitarily
    equivalent results across seeds.
    """
    require_certified_cp(rho, tol)
    nd = rho.verify_nondegenerate(max(tol, 1e-8))
    if not nd.passed:
        raise PreconditionError(
            f"dilation needs a unital (non-degenerate) map; residual {nd.max_residual:.3e}"
        )

    source, module = rho.source, rho.module
    algebra_b = module.algebra
    big_d = module.block_dim
    d_e = module.complex_dim
    dim_a = source.linear_dim
    n = dim_a * d_e

    gram = gram_operator(rho, tol)
    if order_seed is None:
        perm = np.arange(n)
    else:
        perm = np.random.default_rng(order_seed).permutation(n)
    labels = tuple(gram.spanning_labels[k] for k in perm)
    scalar = gram.scalar[np.ix_(perm, perm)]
    flat_idx = (perm[:, None] * big_d + np.arange(big_d)[None, :]).ravel()
    bflat = gram.bvalued_flat[np.ix_(flat_idx, flat_idx)]

    vals, vecs = linalg.hermitian_eigendecomposition(scalar)
    lam_max = max(float(vals[-1]), 0.0)
    threshold = max(null_rel * lam_max, NULL_SPACE_FLOOR)
    keep = vals > threshold
    warnings = []
    ambiguous = np.logical_and(vals > threshold / 10.0, vals < threshold * 10.0)
    if np.any(ambiguous):
        warnings.append(
            "quotient is ill-conditioned: scalar Gram eigenvalues within 10x of the null threshold"
        )
    r = int(np.count_nonzero(keep))
    if r == 0:
        raise PreconditionError("the semi-inner product vanishes identically")
    c_plain = vecs[:, keep]
    lam = vals[keep]
    null_vecs = vecs[:, ~keep]
    c_norm = c_plain / np.sqrt(lam)[None, :]
    coord_map = np.sqrt(lam)[:, None] * c_plain.conj().T  # (r, N)

    # Push the B-valued Gram onto the normalized retained basis.
    g4 = bflat.reshape(n, big_d, n, big_d)
    h4 = np.einsum("kA,kalb,lB->AaBb", c_norm.conj(), g4, c_norm, optimize=True)
    h_flat = h4.reshape(r * big_d, r * big_d)
    h_flat = (h_flat + h_flat.conj().T) / 2.0

    hvals, hvecs = linalg.hermitian_eigendecomposition(h_flat)
    h_top = max(float(hvals[-1]), 0.0)
    sup_cut = max(support_rel * h_top, NULL_SPACE_FLOOR)
    keep_h = hvals > sup_cut
    w = (hvecs[:, keep_h] * np.sqrt(hvals[keep_h])) @ hvecs[:, keep_h].conj().T
    proj = hvecs[:, keep_h] @ hvecs[:, keep_h].conj().T
    w4 = w.reshape(r, big_d, r, big_d)
    coord_extract = np.einsum("iaja->ij", w4)

    class_flats = tuple(w[:, a * big_d : (a + 1) * big_d].copy() for a in range(r))
    dilation_module = HilbertModule(algebra_b, r, proj, basis_flats=class_flats)
    # Internal consistency: the identity class map must reproduce P.
    ident_defect = linalg.frobenius(
        w @ np.kron(coord_extract, np.eye(big_d)) - proj
    )
    if ident_defect > 1e-8 * max(1.0, linalg.frobenius(proj)):
        warnings.append(f"quotient embedding defect {ident_defect:.3e}")

    def concrete(abstract: np.ndarray) -> np.ndarray:
        return w @ np.kron(abstract @ coord_extract, np.eye(big_d))

    # Left representation of A on the quotient.
    lten = source.structure_constants().transpose(0, 2, 1)  # lten[i][:, j] = coords of E_i E_j
    eye_e = np.eye(d_e)
    phi_values = []
    for i in range(dim_a):
        shuffle = np.kron(lten[i], eye_e)[np.ix_(perm, perm)]
        abstract = coord_map @ shuffle @ c_norm
        phi_values.append(
            AdjointableOperator(dilation_module, dilation_module, concrete(abstract))
        )
    representation = CompletelyPositiveMap(source, dilation_module, tuple(phi_values))

    # Connector V: xi -> class of 1 (x) xi.
    unit_coords = source.unit().coords()
    x_map = np.kron(unit_coords[:, None], eye_e)[perm, :]  # (N, d_e)
    v_abstract = coord_map @ x_map
    y = np.stack(
        [
            module.coords_of(
                module.element_from_flat(
                    module.projection_flat[:, j * big_d : (j + 1) * big_d]
                )
            )
            for j in range(module.rank)
        ],
        axis=1,
    )  # (d_e, rank_E)
    v_flat = w @ np.kron(v_abstract @ y, np.eye(big_d))
    connector = AdjointableOperator(module, dilation_module, v_flat)

    quotient = QuotientData(
        spanning_labels=labels,
        scalar_gram=scalar,
        bvalued_flat=bflat,
        retained_vectors=c_plain,
        retained_eigenvalues=lam,
        null_vectors=null_vecs,
        null_dim=int(null_vecs.shape[1]),
        threshold=threshold,
        warnings=tuple(warnings),
    )
    return DilationCore(
        cp_map=rho,
        module=dilation_module,
        representation=representation,
        connector=connector,
        quotient=quotient,
        _coord_map=coord_map,
        _class_embed=c_norm,
        _sqrt_flat=w,
        _coord_extract=coord_extract,
        _span_perm=perm,
    )


def _null_preservation_residual(quotient: QuotientData, shuffle: np.ndarray) -> float:
    """Semi-norm of shuffled null vectors; zero when the null space is respected."""
    nulls = quotient.null_vectors
    if nulls.shape[1] == 0:
        return 0.0
    moved = shuffle @ nulls
    quad = np.einsum("ki,kl,li->i", moved.conj(), quotient.scalar_gram, moved)
    return float(np.sqrt(max(np.max(quad.real), 0.0)))


def _label_shuffle(
    labels: Sequence[tuple[int, int]], a_matrix: np.ndarray, e_matrix: np.ndarray
) -> np.ndarray:
    """Matrix of (a-index, e-index) -> (A-side map, E-side map) in label order.

    Equals kron(a_matrix, e_matrix) transported through the spanning
    permutation encoded in `labels`.
    """
    i_idx = np.array([i for (i, _) in labels])
    s_idx = np.array([s for (_, s) in labels])
    return a_matrix[np.ix_(i_idx, i_idx)] * e_matrix[np.ix_(s_idx, s_idx)]


def covariant_extend(
    core: DilationCore,
    action: GroupAction,
    rep: UnitaryRepresentation,
    tol: float = DEFAULT_TOL,
) -> CovariantDilation:
    """Carry a covariant pair (alpha, u) onto the dilation module.

    Each v_g acts on spanning vectors by a (x) xi -> alpha_g(a) (x) u_g(xi)
    and descends to the quotient; covariance of the input is a precondition,
    otherwise the descended map is ill-defined.
    """
    rho = core.cp_map
    cov = check_covariance(rho, action, rep, max(tol, 1e-8))
    if not cov.passed:
        raise PreconditionError(
            f"(rho, alpha, u) is not covariant; residual {cov.max_residual:.3e}"
        )

    module = rho.module
    d_e = module.complex_dim
    perm = core._span_perm
    group = action.group

    unitaries = []
    for g in group.elements():
        u_cm = rep.unitaries[g].complex_matrix()
        shuffle = np.kron(action.automorphisms[g].action_matrix, u_cm)[np.ix_(perm, perm)]
        abstract = core._coord_map @ shuffle @ core._class_embed
        flat = core._sqrt_flat @ np.kron(
            abstract @ core._coord_extract, np.eye(module.block_dim)
        )
        unitaries.append(AdjointableOperator(core.module, core.module, flat))
    group_unitaries = UnitaryRepresentation(group, core.module, tuple(unitaries))

    dilation = CovariantDilation(
        cp_map=rho,
        action=action,
        rep=rep,
        module=core.module,
        representation=core.representation,
        group_unitaries=group_unitaries,
        connector=core.connector,
        quotient=core.quotient,
        residuals=None,
    )
    dilation.residuals = VerificationReport(
        "covariant dilation", tuple(_dilation_checks(dilation, tol))
    )
    return dilation


def covariant_dilation(
    rho: CompletelyPositiveMap,
    action: GroupAction,
    rep: UnitaryRepresentation,
    *,
    tol: float = DEFAULT_TOL,
    order_seed: int | None = None,
) -> CovariantDilation:
    """Construct and covariantly extend in one step."""
    core = minimal_dilation(rho, tol=tol, order_seed=order_seed)
    return covariant_extend(core, action, rep, tol)


def _dilation_checks(d: CovariantDilation, tol: float):
    rho = d.cp_map
    source = rho.source
    v_flat = d.connector.flat
    group = d.action.group

    # (a) rho(a) = V* Phi(a) V, relative to 1 + ||rho(a)||.
    worst = 0.0
    for i, a in enumerate(source.basis()):
        lhs = rho.basis_values[i].flat
        rhs = v_flat.conj().T @ d.representation.basis_values[i].flat @ v_flat
        scale = 1.0 + linalg.spectral_norm(lhs)
        worst = max(worst, linalg.frobenius(lhs - rhs) / scale)
    yield Check("dilation identity rho = V* Phi V", float(worst), max(tol, 1e-9))

    # (b) minimality: span{Phi(a_i) V xi_s} has full complex dimension.
    x = np.hstack(rho.module.basis_tensor)
    span_vecs = []
    for op in d.representation.basis_values:
        span_vecs.append((op.flat @ v_flat @ x).reshape(-1))
    d_e, big_d = rho.module.complex_dim, rho.module.block_dim
    stacked = np.stack(span_vecs, axis=0).reshape(
        source.linear_dim, d.module.flat_dim, d_e, big_d
    )
    flat_cols = stacked.transpose(0, 2, 1, 3).reshape(source.linear_dim * d_e, -1)
    rank = linalg.matrix_rank(flat_cols, rel_threshold=1e-9)
    yield Check(
        "minimality rank = dim E_rho",
        float(abs(rank - d.module.complex_dim)),
        0.5,
        f"rank {rank} vs dim {d.module.complex_dim}",
    )

    # covariance of Phi and (c) the intertwining of V.
    cov_worst = max(
        linalg.max_frobenius(moved - conj)
        for _, moved, conj in covariance_terms(d.representation, d.action, d.group_unitaries)
    )
    yield Check("covariance of Phi", float(cov_worst), max(tol, 1e-9))

    inter = 0.0
    for g in group.elements():
        lhs = d.group_unitaries.unitaries[g].flat @ v_flat
        rhs = v_flat @ d.rep.unitaries[g].flat
        inter = max(inter, linalg.frobenius(lhs - rhs))
    yield Check("intertwining v_g V = V u_g", float(inter), max(tol, 1e-9))

    # group structure on E_rho
    unit_res = 0.0
    for g in group.elements():
        unit_res = max(unit_res, d.group_unitaries.unitaries[g].is_unitary(tol).max_residual)
    yield Check("v_g unitary", float(unit_res), max(tol, 1e-9))
    u_tensor = d.group_unitaries._unitary_tensor
    cayley = np.asarray(d.action.group.cayley)
    products = np.matmul(u_tensor[:, None, :, :], u_tensor[None, :, :, :])
    law = float(
        np.sqrt(np.max(np.sum(np.abs(products - u_tensor[cayley]) ** 2, axis=(2, 3))))
    )
    yield Check("group law on E_rho", float(law), max(tol, 1e-10))

    # representation identities on E_rho
    yield Check(
        "Phi is a unital *-representation",
        d.representation.verify_representation(max(tol, 1e-9)).max_residual,
        max(tol, 1e-9),
    )

    # well-definedness: the null space is respected by left multiplication and
    # by the covariant shuffles a(x)xi -> alpha_g(a)(x)u_g(xi)
    labels = d.quotient.spanning_labels
    lten = source.structure_constants().transpose(0, 2, 1)  # lten[i][:, j] = coords of E_i E_j
    eye_e = np.eye(rho.module.complex_dim)
    null_res = 0.0
    for i in range(source.linear_dim):
        shuffle = _label_shuffle(labels, lten[i], eye_e)
        null_res = max(null_res, _null_preservation_residual(d.quotient, shuffle))
    for g in group.elements():
        shuffle = _label_shuffle(
            labels,
            d.action.automorphisms[g].action_matrix,
            d.rep.unitaries[g].complex_matrix(),
        )
        null_res = max(null_res, _null_preservation_residual(d.quotient, shuffle))
    yield Check("null space preserved", float(null_res), max(tol, 1e-9))


def verify_dilation(d: CovariantDilation, tol: float = 1e-9) -> VerificationReport:
    """Recompute every defining identity of the dilation and report residuals."""
    return VerificationReport("covariant dilation", tuple(_dilation_checks(d, tol)))


def _spanning_family(
    representation: CompletelyPositiveMap,
    connector: AdjointableOperator,
    source_module: HilbertModule,
) -> np.ndarray:
    """Stack of the flats of Phi(a_i) W xi_s, as one wide matrix."""
    x = np.hstack(source_module.basis_tensor)
    cols = [op.flat @ connector.flat @ x for op in representation.basis_values]
    return np.hstack(cols)


def uniqueness_unitary(
    d: CovariantDilation,
    other: CovariantTriple,
    tol: float = DEFAULT_TOL,
) -> tuple[AdjointableOperator, VerificationReport]:
    """The unitary carrying d onto another covariant dilation of the same map.

    The candidate must satisfy the three dilation properties itself
    (checked first; failures raise PreconditionError naming the condition).
    U is defined on the spanning family by Phi(a) V xi -> Phi'(a) W xi and
    extended linearly.
    """
    rho = d.cp_map
    pre_tol = max(tol, 1e-8)

    w_flat = other.connector.flat
    worst = 0.0
    for i in range(rho.source.linear_dim):
        lhs = rho.basis_values[i].flat
        rhs = w_flat.conj().T @ other.representation.basis_values[i].flat @ w_flat
        worst = max(worst, linalg.frobenius(lhs - rhs) / (1.0 + linalg.spectral_norm(lhs)))
    if worst > pre_tol:
        raise PreconditionError(
            f"candidate fails the dilation identity (a): residual {worst:.3e}"
        )

    z_cols = _spanning_family(other.representation, other.connector, rho.module)
    d_e, big_d = rho.module.complex_dim, rho.module.block_dim
    k = rho.source.linear_dim * d_e
    z_vec = z_cols.reshape(other.module.flat_dim, k, big_d).transpose(1, 0, 2).reshape(k, -1)
    if linalg.matrix_rank(z_vec, rel_threshold=1e-9) != other.module.complex_dim:
        raise PreconditionError("candidate fails minimality (b): spanning family is not dense")

    inter = 0.0
    for g in d.action.group.elements():
        lhs = other.unitaries.unitaries[g].flat @ w_flat
        rhs = w_flat @ d.rep.unitaries[g].flat
        inter = max(inter, linalg.frobenius(lhs - rhs))
    if inter > pre_tol:
        raise PreconditionError(
            f"candidate fails the intertwining (c): residual {inter:.3e}"
        )

    y_cols = _spanning_family(d.representation, d.connector, rho.module)
    u_flat = z_cols @ np.linalg.pinv(y_cols, rcond=1e-10)
    u_flat = other.module.projection_flat @ u_flat @ d.module.projection_flat
    u = AdjointableOperator(d.module, other.module, u_flat)

    checks = [
        Check("U unitary", u.is_unitary(tol).max_residual, max(tol, 1e-9)),
        Check(
            "Phi'(a) U = U Phi(a)",
            max(
                linalg.frobenius(
                    other.representation.basis_values[i].flat @ u_flat
                    - u_flat @ d.representation.basis_values[i].flat
                )
                for i in range(rho.source.linear_dim)
            ),
            max(tol, 1e-9),
        ),
        Check(
            "v'_g U = U v_g",
            max(
                linalg.frobenius(
                    other.unitaries.unitaries[g].flat @ u_flat
                    - u_flat @ d.group_unitaries.unitaries[g].flat
                )
                for g in d.action.group.elements()
            ),
            max(tol, 1e-9),
        ),
        Check(
            "W = U V",
            linalg.frobenius(w_flat - u_flat @ d.connector.flat),
            max(tol, 1e-9),
        ),
    ]
    return u, VerificationReport("uniqueness unitary", tuple(checks))


def scaled_connector_variant(d: CovariantDilation, factor: complex = 0.5) -> CovariantDilation:
    """Negative control: same dilation with the connector rescaled."""
    return replace(d, connector=factor * d.connector)


def padded_variant(d: CovariantDilation) -> CovariantDilation:
    """Negative control: dilation module padded with an orthogonal free direction."""
    b = d.module.algebra
    big_d = d.module.block_dim
    old = d.module.flat_dim
    proj = linalg.block_diag([d.module.projection_flat, np.eye(big_d, dtype=np.complex128)])
    padded = HilbertModule(b, d.module.rank + 1, proj)

    def pad_endo(flat: np.ndarray, corner: np.ndarray) -> np.ndarray:
        out = np.zeros((old + big_d, old + big_d), dtype=np.complex128)
        out[:old, :old] = flat
        out[old:, old:] = corner
        return out

    zero = np.zeros((big_d, big_d))
    eye = np.eye(big_d)
    rep_values = tuple(
        AdjointableOperator(padded, padded, pad_endo(v.flat, zero))
        for v in d.representation.basis_values
    )
    unitaries = tuple(
        AdjointableOperator(padded, padded, pad_endo(u.flat, eye))
        for u in d.group_unitaries.unitaries
    )
    connector_flat = np.vstack(
        [d.connector.flat, np.zeros((big_d, d.connector.flat.shape[1]))]
    )
    return replace(
        d,
        module=padded,
        representation=CompletelyPositiveMap(d.cp_map.source, padded, rep_values),
        group_unitaries=UnitaryRepresentation(d.action.group, padded, unitaries),
        connector=AdjointableOperator(d.cp_map.module, padded, connector_flat),
    )
