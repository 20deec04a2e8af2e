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

from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence

import numpy as np

from . import linalg
from .algebra import Check, VerificationReport
from .cpmaps import CompletelyPositiveMap, require_certified_cp
from .errors import PreconditionError
from .groups import (
    GroupAction,
    UnitaryRepresentation,
    check_covariance,
    verify_unitary_representation,
)
from .linalg import DEFAULT_TOL
from .modules import AdjointableOperator, HilbertModule, complex_matrices

NULL_SPACE_REL = 1e-9
NULL_SPACE_FLOOR = 1e-14
SUPPORT_REL = 1e-12


@dataclass(frozen=True, eq=False)
class GramData:
    """The semi-inner product of the spanning set {a_i (x) xi_s}; its arrays are read-only."""

    spanning_labels: tuple[tuple[int, int], ...]  # (A-basis index, E-basis index)
    bvalued_flat: np.ndarray  # (N*D, N*D), PSD over M_N(B)
    scalar: np.ndarray  # (N, N), trace of each B-valued entry

    def __post_init__(self):
        for name in ("bvalued_flat", "scalar"):
            object.__setattr__(self, name, linalg.read_only(getattr(self, name)))


@dataclass(frozen=True)
class QuotientData:
    """The quotient of the spanning set by the null space; every array is read-only."""

    spanning_labels: tuple[tuple[int, int], ...]
    scalar_gram: np.ndarray
    bvalued_flat: np.ndarray
    retained_vectors: np.ndarray  # orthonormal eigenvectors, columns
    retained_eigenvalues: np.ndarray
    null_vectors: np.ndarray
    null_dim: int
    threshold: float
    warnings: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class DilationCore:
    """(E_rho, Phi_rho, V_rho) plus the quotient bookkeeping; its arrays are read-only."""

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

    def __post_init__(self):
        for name in ("_coord_map", "_class_embed", "_sqrt_flat", "_coord_extract"):
            object.__setattr__(self, name, linalg.read_only(getattr(self, name)))


@dataclass
class CovariantTriple:
    """A candidate covariant dilation (Phi, v, F) with connector W: E -> F."""

    representation: CompletelyPositiveMap
    unitaries: UnitaryRepresentation
    module: HilbertModule
    connector: AdjointableOperator


class _Identity(NamedTuple):
    """A defining identity's residual, free of tol. At tol its threshold is
    max(tol, floor), or `floor` itself for a count (`scaled` False)."""

    name: str
    residual: float
    floor: float
    detail: str = ""
    scaled: bool = True


def _report_at(identities: Sequence[_Identity], tol: float) -> VerificationReport:
    checks = tuple(
        Check(i.name, i.residual, max(tol, i.floor) if i.scaled else i.floor, i.detail)
        for i in identities
    )
    return VerificationReport("covariant dilation", checks)


@dataclass(frozen=True)
class CovariantDilation:
    """Covariant dilation of (rho, alpha, u). The residuals of its identities are
    computed from the other fields when it is built, so `replace` checks it again."""

    cp_map: CompletelyPositiveMap
    action: GroupAction
    rep: UnitaryRepresentation
    module: HilbertModule
    representation: CompletelyPositiveMap
    group_unitaries: UnitaryRepresentation
    connector: AdjointableOperator
    quotient: QuotientData
    tol: float
    residuals: VerificationReport = field(init=False)  # the report at tol
    _identities: tuple[_Identity, ...] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_identities", tuple(_dilation_identities(self)))
        object.__setattr__(self, "residuals", _report_at(self._identities, self.tol))

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
    for array in (gram, scalar):
        array.setflags(write=False)
    return GramData(labels, gram, scalar)


def minimal_dilation(
    rho: CompletelyPositiveMap,
    *,
    tol: float = DEFAULT_TOL,
    order_seed: int | None = None,
) -> DilationCore:
    """Construct (E_rho, Phi_rho, V_rho) for a certified, unital CP map.

    `order_seed` permutes the spanning set before the quotient is taken; the
    construction is deterministic for a fixed seed and yields unitarily
    equivalent results across seeds.
    """
    gram = gram_operator(rho, tol)  # certifies rho first
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
    threshold = max(NULL_SPACE_REL * lam_max, NULL_SPACE_FLOOR)
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
    sup_cut = max(SUPPORT_REL * h_top, NULL_SPACE_FLOOR)
    keep_h = hvals > sup_cut
    w = (hvecs[:, keep_h] * np.sqrt(hvals[keep_h])) @ hvecs[:, keep_h].conj().T
    proj = hvecs[:, keep_h] @ hvecs[:, keep_h].conj().T
    w4 = w.reshape(r, big_d, r, big_d)
    coord_extract = np.einsum("iaja->ij", w4)

    class_flats = tuple(linalg.read_only(w[:, a * big_d : (a + 1) * big_d]) for a in range(r))
    dilation_module = HilbertModule(algebra_b, r, proj, basis_flats=class_flats)
    # Internal consistency: the identity shuffle must descend to P.
    right = c_norm @ coord_extract
    ident_defect = linalg.frobenius(_descend(w, coord_map, np.eye(n)[None], right)[0] - proj)
    if ident_defect > 1e-8 * max(1.0, linalg.frobenius(proj)):
        warnings.append(f"quotient embedding defect {ident_defect:.3e}")

    # Left representation of A on the quotient, and the connector
    # V: xi -> class of 1 (x) xi, both descended from shuffles of the spanning set.
    phi_flats = _descend(w, coord_map, _multiplication_shuffles(source, labels, d_e), right)
    representation = CompletelyPositiveMap(
        source, dilation_module, dilation_module.operators(phi_flats)
    )
    e_labels = tuple((0, s) for s in range(d_e))
    unit_coords = source.unit().coords()[None, :, None]
    inclusion = label_shuffles(labels, e_labels, unit_coords, np.eye(d_e)[None])
    # y: the coordinates of the generators e_j·1 of E = P·B^n in its complex basis.
    gens = module.projection_flat.reshape(module.flat_dim, module.rank, big_d)
    y = module._basis_pinv @ gens.transpose(1, 0, 2).reshape(module.rank, -1).T
    v_flat = _descend(w, coord_map, inclusion, y)[0]
    connector = AdjointableOperator(module, dilation_module, v_flat)

    for array in (scalar, bflat, c_plain, lam, null_vecs, coord_map, c_norm, w, coord_extract):
        array.setflags(write=False)
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
    )


def label_shuffles(
    rows: Sequence[tuple[int, int]],
    cols: Sequence[tuple[int, int]],
    a_stack: np.ndarray,
    e_stack: np.ndarray,
) -> np.ndarray:
    """kron(A_k, E_k) for each k of two stacks, gathered in the spanning orders `rows`, `cols`.

    `rows` and `cols` are (A-index, E-index) label lists, as in
    `QuotientData.spanning_labels`: entry ((i, s), (j, t)) is A_k[i, j]·E_k[s, t].
    A stack of length 1 is shared by every k of the other.
    """
    ri, rs = np.asarray(rows).T
    ci, cs = np.asarray(cols).T
    return a_stack[:, ri[:, None], ci[None, :]] * e_stack[:, rs[:, None], cs[None, :]]


def _multiplication_shuffles(source, labels, d_e: int) -> np.ndarray:
    """a (x) xi -> a_i a (x) xi for every basis element a_i, in label order."""
    lten = source.structure_constants().transpose(0, 2, 1)  # lten[i][:, j] = coords of E_i E_j
    return label_shuffles(labels, labels, lten, np.eye(d_e)[None])


def _covariant_shuffles(action: GroupAction, rep: UnitaryRepresentation, labels) -> np.ndarray:
    """a (x) xi -> alpha_g(a) (x) u_g(xi) for every g, in label order."""
    u_cm = complex_matrices(rep.module, rep.module, rep._unitary_tensor)
    return label_shuffles(labels, labels, action._action_tensor, u_cm)


def _descend(
    w: np.ndarray, coord_map: np.ndarray, shuffles: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """Flats W·kron(coord_map·S_k·right, I_D) on E_rho for a stack of shuffles S_k.

    With right = class_embed·coord_extract a shuffle of the spanning set
    descends to an endomorphism of the quotient; with the inclusion
    xi -> 1 (x) xi and right = y it gives the connector.
    """
    coords = coord_map @ shuffles @ right  # (K, r, c)
    k, r, c = coords.shape
    big_d = w.shape[0] // r
    # Column (b, y) of W·kron(C, I_D) is sum_a C[a, b] W[:, (a, y)]; no Kronecker
    # product is formed.
    flats = np.einsum("pay,kab->kpby", w.reshape(-1, r, big_d), coords, optimize=True)
    return np.ascontiguousarray(flats.reshape(k, w.shape[0], c * big_d))


def _null_preservation_residual(quotient: QuotientData, shuffles: np.ndarray) -> float:
    """Semi-norm of shuffled null vectors over a stack of shuffles; zero when the
    null space is respected."""
    nulls = quotient.null_vectors
    if nulls.shape[1] == 0:
        return 0.0
    moved = shuffles @ nulls
    quad = np.einsum("bki,kl,bli->bi", moved.conj(), quotient.scalar_gram, moved)
    return float(np.sqrt(max(np.max(quad.real), 0.0)))


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

    shuffles = _covariant_shuffles(action, rep, core.quotient.spanning_labels)
    flats = _descend(
        core._sqrt_flat, core._coord_map, shuffles, core._class_embed @ core._coord_extract
    )
    group_unitaries = UnitaryRepresentation(action.group, core.module, core.module.operators(flats))

    return CovariantDilation(
        cp_map=rho,
        action=action,
        rep=rep,
        module=core.module,
        representation=core.representation,
        group_unitaries=group_unitaries,
        connector=core.connector,
        quotient=core.quotient,
        tol=tol,
    )


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


def _identity_residual(rho: CompletelyPositiveMap, t: CovariantTriple) -> float:
    """(a): max_i ||rho(a_i) - W* Phi(a_i) W||_F / (1 + ||rho(a_i)||)."""
    lhs = rho._value_tensor
    w = t.connector.flat
    rhs = w.conj().T @ t.representation._value_tensor @ w
    return float(np.max(linalg.frobenius_each(lhs - rhs) / (1.0 + linalg.spectral_norm(lhs))))


def _spanning_family(t: CovariantTriple, source_module: HilbertModule) -> np.ndarray:
    """(b): the flats of Phi(a_i) W xi_s, shape (dim A·dim E, fd, D), i major."""
    phi_w = t.representation._value_tensor @ t.connector.flat  # (dim A, fd, fd_E)
    family = phi_w[:, None] @ source_module.basis_tensor  # (dim A, dim E, fd, D)
    return family.reshape(-1, *family.shape[2:])


def _minimal_rank(family: np.ndarray) -> int:
    """Complex rank of a spanning family; minimality is rank = dim of the module."""
    return linalg.matrix_rank(family.reshape(len(family), -1))


def _intertwining_residual(t: CovariantTriple, rep: UnitaryRepresentation) -> float:
    """(c): max_g ||v_g W - W u_g||_F."""
    w = t.connector.flat
    return linalg.max_frobenius(t.unitaries._unitary_tensor @ w - w @ rep._unitary_tensor)


def _dilation_identities(d: CovariantDilation):
    rho = d.cp_map
    t = d.as_triple()

    # (a) rho(a) = V* Phi(a) V, relative to 1 + ||rho(a)||.
    yield _Identity("dilation identity rho = V* Phi V", _identity_residual(rho, t), 1e-9)

    # (b) minimality: span{Phi(a_i) V xi_s} has full complex dimension.
    rank = _minimal_rank(_spanning_family(t, rho.module))
    yield _Identity(
        "minimality rank = dim E_rho",
        float(abs(rank - d.module.complex_dim)),
        0.5,
        f"rank {rank} vs dim {d.module.complex_dim}",
        scaled=False,
    )

    # covariance of Phi and (c) the intertwining of V.
    cov = check_covariance(d.representation, d.action, d.group_unitaries)
    yield _Identity("covariance of Phi", cov.max_residual, 1e-9)
    yield _Identity("intertwining v_g V = V u_g", _intertwining_residual(t, d.rep), 1e-9)

    # group structure on E_rho
    group_report = verify_unitary_representation(d.group_unitaries)
    yield _Identity("v_g unitary", group_report.check("unitarity").residual, 1e-9)
    yield _Identity("group law on E_rho", group_report.check("multiplicativity").residual, 1e-10)

    # representation identities on E_rho
    rep_residual = d.representation.verify_representation().max_residual
    yield _Identity("Phi is a unital *-representation", rep_residual, 1e-9)

    # well-definedness: the null space is respected by left multiplication and
    # by the covariant shuffles a(x)xi -> alpha_g(a)(x)u_g(xi)
    labels = d.quotient.spanning_labels
    shuffles = np.concatenate(
        [
            _multiplication_shuffles(rho.source, labels, rho.module.complex_dim),
            _covariant_shuffles(d.action, d.rep, labels),
        ]
    )
    null_res = _null_preservation_residual(d.quotient, shuffles)
    yield _Identity("null space preserved", float(null_res), 1e-9)


def verify_dilation(d: CovariantDilation, tol: float = 1e-9) -> VerificationReport:
    """Report every defining identity of the dilation at `tol`, from the residuals
    `d` computed from its fields when it was built (`d.residuals` is the report
    at `d.tol`): only the thresholds are applied again, nothing is recomputed."""
    return _report_at(d._identities, tol)


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

    worst = _identity_residual(rho, other)
    if worst > pre_tol:
        raise PreconditionError(
            f"candidate fails the dilation identity (a): residual {worst:.3e}"
        )
    z_family = _spanning_family(other, rho.module)
    if _minimal_rank(z_family) != other.module.complex_dim:
        raise PreconditionError("candidate fails minimality (b): spanning family is not dense")
    inter = _intertwining_residual(other, d.rep)
    if inter > pre_tol:
        raise PreconditionError(
            f"candidate fails the intertwining (c): residual {inter:.3e}"
        )

    def wide(family: np.ndarray) -> np.ndarray:
        return family.transpose(1, 0, 2).reshape(family.shape[1], -1)

    y_family = _spanning_family(d.as_triple(), rho.module)
    u_flat = wide(z_family) @ np.linalg.pinv(wide(y_family), rcond=1e-10)
    u_flat = other.module.projection_flat @ u_flat @ d.module.projection_flat
    u = AdjointableOperator(d.module, other.module, u_flat)

    phi, phi_other = d.representation._value_tensor, other.representation._value_tensor
    v, v_other = d.group_unitaries._unitary_tensor, other.unitaries._unitary_tensor
    checks = [
        Check("U unitary", u.is_unitary(tol).max_residual, max(tol, 1e-9)),
        Check(
            "Phi'(a) U = U Phi(a)",
            linalg.max_frobenius(phi_other @ u_flat - u_flat @ phi),
            max(tol, 1e-9),
        ),
        Check(
            "v'_g U = U v_g",
            linalg.max_frobenius(v_other @ u_flat - u_flat @ v),
            max(tol, 1e-9),
        ),
        Check(
            "W = U V",
            linalg.frobenius(other.connector.flat - u_flat @ d.connector.flat),
            max(tol, 1e-9),
        ),
    ]
    return u, VerificationReport("uniqueness unitary", tuple(checks))


def scaled_connector_variant(d: CovariantDilation, factor: complex = 0.5) -> CovariantDilation:
    """Negative control: same dilation with the connector rescaled."""
    return replace(d, connector=factor * d.connector)


def padded_variant(d: CovariantDilation) -> CovariantDilation:
    """Negative control: dilation module padded with an orthogonal free direction."""
    big_d = d.module.block_dim
    zero, eye = np.zeros((big_d, big_d)), np.eye(big_d)
    proj = linalg.block_diag([d.module.projection_flat, eye])
    padded = HilbertModule(d.module.algebra, d.module.rank + 1, proj)
    values = [linalg.block_diag([x, zero]) for x in d.representation._value_tensor]
    unitaries = [linalg.block_diag([u, eye]) for u in d.group_unitaries._unitary_tensor]
    connector_flat = np.vstack([d.connector.flat, np.zeros((big_d, d.connector.flat.shape[1]))])
    return replace(
        d,
        module=padded,
        representation=CompletelyPositiveMap(d.cp_map.source, padded, padded.operators(values)),
        group_unitaries=UnitaryRepresentation(d.action.group, padded, padded.operators(unitaries)),
        connector=AdjointableOperator(d.cp_map.module, padded, connector_flat),
    )
