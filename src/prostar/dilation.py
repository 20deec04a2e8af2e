"""Minimal covariant dilation of a completely positive map.

Given a certified CP map rho: A -> L_B(E), the dilation module is the
quotient of A (x) E by the null space of the semi-inner product
<a(x)xi, b(x)eta> = <xi, rho(a*b) eta>. A = (+)_k M_{n_k} is spanned by its
matrix units, and <E_ab (x) xi, E_cd (x) eta> = δ_ac <xi, rho(E_bd) eta>, so on
summand k the B-valued Gram is I_{n_k} (x) G_k, with G_k rho's Choi block
sandwiched by the complex basis of E, and the scalarized (trace) one
I_{n_k} (x) C_k; summands are orthogonal, and only the G_k and C_k are formed.
One Hermitian eigenproblem of C_k per summand gives its retained eigenpairs
(λ_k, c_k), and the class of E_ab (x) xi_s is e_a (x) m_k[:, (b, s)] with
m_k = diag(√λ_k)·c_k*; the classes realize the quotient as a projective
submodule P·B^r, and one eigenproblem of the pushed Gram c_k* G_k c_k per
summand has the square root that gives P. On that basis Phi(E_ab) = E_ab (x) 1
exactly; the group unitaries v_g, the connector V and the checks of the null
space descend through `class_matrices`, one pair of summands at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence

import numpy as np

from . import linalg
from .algebra import Check, VerificationReport
from .cpmaps import CompletelyPositiveMap, require_certified_cp
from .errors import PreconditionError, StructuralError
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
    """The Gram of the spanning set {E_αβ (x) xi_s} of each summand M_{n_k} of A,
    I_{n_k} (x) G_k over M(B) and I_{n_k} (x) C_k scalarized; labels (β, s)
    are β·dim E + s. Its arrays are read-only."""

    bvalued_blocks: tuple[np.ndarray, ...]  # G_k, (n_k·dim E·D)², block (β, δ) = x* rho(E_βδ) x
    scalar_blocks: tuple[np.ndarray, ...]  # C_k, (n_k·dim E)², trace of each D×D block of G_k

    def __post_init__(self):
        for name in ("bvalued_blocks", "scalar_blocks"):
            object.__setattr__(self, name, tuple(map(linalg.read_only, getattr(self, name))))


@dataclass(frozen=True, eq=False)
class QuotientData:
    """The quotient of the spanning set by the null space, one summand M_{n_k}
    of A at a time: the class of E_αβ (x) xi_s is e_α (x) m_k[:, (β, s)], and
    e_k's columns are spanning vectors of row 0 with the classes (k, 0, ·).
    Labels (β, s) are β·dim E + s, classes (k, α, j) are in that order; every
    array is read-only."""

    class_maps: tuple[np.ndarray, ...]  # m_k = diag(√λ_k)·c_k*, (r_k, n_k·dim E)
    embeddings: tuple[np.ndarray, ...]  # e_k = c_k / √λ_k, (n_k·dim E, r_k)
    retained_eigenvalues: tuple[np.ndarray, ...]  # λ_k, the eigenvalues of C_k kept
    null_vectors: tuple[np.ndarray, ...]  # orthonormal null eigenvectors of C_k
    null_dim: int
    threshold: float
    warnings: tuple[str, ...]

    def __post_init__(self):
        for name in ("class_maps", "embeddings", "retained_eigenvalues", "null_vectors"):
            object.__setattr__(self, name, tuple(map(linalg.read_only, getattr(self, name))))


@dataclass(frozen=True, eq=False)
class DilationCore:
    """(E_rho, Phi_rho, V_rho) plus the quotient bookkeeping; its arrays are read-only."""

    cp_map: CompletelyPositiveMap
    module: HilbertModule
    representation: CompletelyPositiveMap
    connector: AdjointableOperator
    quotient: QuotientData
    # Pushforward data reused by the covariant extension:
    _sqrt_flat: np.ndarray  # W = sqrt of pushed-forward B-valued Gram
    _coord_extract: np.ndarray  # (r, r): trace extraction of W blocks

    def __post_init__(self):
        for name in ("_sqrt_flat", "_coord_extract"):
            object.__setattr__(self, name, linalg.read_only(getattr(self, name)))


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


@dataclass(frozen=True, eq=False)
class CovariantDilation:
    """Covariant dilation (Phi, v, F, V) of (rho, alpha, u). The residuals of its
    identities, and the spanning family {Phi(a_i) V xi_s} that (b) and
    `uniqueness_unitary` read, are computed from the other fields when it is
    built, so `replace` checks it again: a hand-built uniqueness candidate is
    `replace(d, module=…, representation=…, group_unitaries=…, connector=…)`."""

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
    # Phi(a_i) V xi_s in coordinates, shape (dim A·dim E, rank P, D), i major; read-only.
    _spanning_family: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        family, identities = _dilation_identities(self)
        object.__setattr__(self, "_spanning_family", family)
        object.__setattr__(self, "_identities", identities)
        object.__setattr__(self, "residuals", _report_at(identities, self.tol))

    def as_triple(self) -> CovariantDilation:
        """The dilation itself. A uniqueness candidate was once a separate
        (Phi, v, F, W) type; `d.as_triple()` is kept so that callers written
        for it, such as the benchmark's workloads, still run."""
        return self


def gram_operator(rho: CompletelyPositiveMap, tol: float = DEFAULT_TOL) -> GramData:
    """G_k and its blockwise trace C_k for each summand M_{n_k} of A: block (β, δ)
    of G_k is x* rho(E_βδ) x, with x the complex basis of E in range coordinates,
    i.e. rho's Choi block Σ E_βδ (x) rho(E_βδ) with x applied on both sides."""
    require_certified_cp(rho, tol)
    source, module = rho.source, rho.module
    big_d = module.block_dim
    x = np.hstack(module.coord_basis)  # (rank P, d_e*D)
    sandwiched = x.conj().T @ rho.values @ x  # (dim_a, d_e*D, d_e*D)
    m = sandwiched.shape[1]
    bvalued, scalar = [], []
    for off, nk in zip(source.coord_offsets, source.block_sizes):
        g = sandwiched[off : off + nk * nk].reshape(nk, nk, m, m).transpose(0, 2, 1, 3)
        g = g.reshape(nk * m, nk * m)
        g = (g + g.conj().T) / 2.0
        c = np.einsum("kala->kl", g.reshape(-1, big_d, len(g) // big_d, big_d))
        bvalued.append(g)
        scalar.append((c + c.conj().T) / 2.0)
    return GramData(tuple(bvalued), tuple(scalar))


def minimal_dilation(
    rho: CompletelyPositiveMap,
    *,
    tol: float = DEFAULT_TOL,
    order_seed: int | None = None,
) -> DilationCore:
    """Construct (E_rho, Phi_rho, V_rho) for a certified, unital CP map.

    `order_seed` seeds one generator, from which each C_k in turn draws a
    permutation of its n_k·dim E labels (β, s) and is solved in that order;
    the construction is deterministic for a fixed seed and yields unitarily
    equivalent results across seeds.
    """
    gram = gram_operator(rho, tol)  # certifies rho first
    nd = rho.verify_nondegenerate(max(tol, 1e-8))
    if not nd.passed:
        raise PreconditionError(
            f"dilation needs a unital (non-degenerate) map; residual {nd.max_residual:.3e}"
        )

    source, module = rho.source, rho.module
    big_d = module.block_dim
    d_e = module.complex_dim
    dim_a = source.linear_dim
    sizes = source.block_sizes

    # The scalar Gram is I_{n_k} (x) C_k on summand k: one eigenproblem per C_k,
    # with the null cut taken from the largest eigenvalue over all summands.
    rng = None if order_seed is None else np.random.default_rng(order_seed)
    spectra = []
    for c in gram.scalar_blocks:
        order = np.arange(len(c)) if rng is None else rng.permutation(len(c))
        vals, vecs = linalg.hermitian_eigendecomposition(c[np.ix_(order, order)])
        spectra.append((vals, vecs[np.argsort(order)]))  # rows back in label order
    lam_max = max(max(float(vals[-1]) for vals, _ in spectra), 0.0)
    threshold = max(NULL_SPACE_REL * lam_max, NULL_SPACE_FLOOR)
    keeps = [vals > threshold for vals, _ in spectra]
    warnings = []
    every = np.concatenate([vals for vals, _ in spectra])
    ambiguous = np.logical_and(every > threshold / 10.0, every < threshold * 10.0)
    if np.any(ambiguous):
        warnings.append(
            "quotient is ill-conditioned: scalar Gram eigenvalues within 10x of the null threshold"
        )
    r = sum(nk * int(np.count_nonzero(keep)) for nk, keep in zip(sizes, keeps))
    if r == 0:
        raise PreconditionError("the semi-inner product vanishes identically")
    lams, maps, embeds, nulls = [], [], [], []
    for (vals, vecs), keep in zip(spectra, keeps):
        lam, c_k = vals[keep], vecs[:, keep]
        lams.append(lam)
        maps.append(np.sqrt(lam)[:, None] * c_k.conj().T)
        embeds.append(c_k / np.sqrt(lam)[None, :])
        nulls.append(vecs[:, ~keep])
    for array in (*lams, *maps, *embeds, *nulls):
        array.setflags(write=False)

    # Push the B-valued Gram, I_{n_k} (x) G_k as well, onto each summand's
    # normalized retained basis e_k: h_k = e_k* G_k e_k, one eigenproblem each.
    pushed = []
    for g_k, e_k in zip(gram.bvalued_blocks, embeds):
        m, r_k = e_k.shape
        if not r_k:
            pushed.append(None)
            continue
        # h[(A, a), (B, b)] = sum_kl conj(e_k[k, A]) G_k[(k, a), (l, b)] e_k[l, B], as two products.
        half = e_k.conj().T @ g_k.reshape(m, -1)
        h = (half.reshape(r_k * big_d, m, big_d).transpose(0, 2, 1) @ e_k).transpose(0, 2, 1)
        h = h.reshape(r_k * big_d, r_k * big_d)
        pushed.append(linalg.hermitian_eigendecomposition((h + h.conj().T) / 2.0))
    roots = _support_roots(pushed, big_d)
    w = _repeated_diag([root.w for root in roots], sizes)
    coord_extract = _repeated_diag([root.x for root in roots], sizes)
    # E_rho = P·B^r with P the support projection of h, held by U, block-diagonal
    # in (k, α); when h is invertible P = 1 and E_rho is free.
    ranges = [root.u for root in roots]
    free = all(u.shape[0] == u.shape[1] for u in ranges)
    isometry = None if free else _repeated_diag(ranges, sizes)

    # The class flats w[:, (a, ·)], one per retained class a, as one stack.
    class_flats = np.ascontiguousarray(w.reshape(r * big_d, r, big_d).transpose(1, 0, 2))
    class_flats.setflags(write=False)
    dilation_module = HilbertModule(module.algebra, r, isometry, basis_flats=class_flats)
    # W = U·(U*W): the descended operators are formed from the rows U*W only.
    w_rows = dilation_module.to_range(w)
    # Internal consistency: the identity a (x) xi -> a (x) xi must descend to the identity.
    ident = class_matrices(np.eye(dim_a)[None], np.eye(d_e)[None], maps, sizes, embeds, sizes)
    ident = _concrete(w_rows, ident @ coord_extract, isometry)[0]
    ident_defect = linalg.frobenius(ident - np.eye(len(ident)))
    if ident_defect > 1e-8 * max(1.0, np.sqrt(len(ident))):
        warnings.append(f"quotient embedding defect {ident_defect:.3e}")

    # Left representation of A on the quotient: on summand k's coordinates
    # Phi(E_ab) = E_ab (x) 1, since a (x) xi -> E_ab a (x) xi carries row b of the
    # spanning set onto row a and U, W and coord_extract repeat one block per row.
    p = dilation_module.coord_dim
    phi = np.zeros((dim_a, p, p), dtype=np.complex128)
    start = 0
    for nk, off, root in zip(sizes, source.coord_offsets, roots):
        pk = root.u.shape[1]
        a, b, t = np.ix_(np.arange(nk), np.arange(nk), np.arange(pk))
        phi[off + a * nk + b, start + a * pk + t, start + b * pk + t] = 1.0
        start += nk * pk
    representation = CompletelyPositiveMap(source, dilation_module, phi)
    # The connector V: xi -> class of 1 (x) xi, which is sum_{k,α} e_α (x) m_k[:, (α, ·)]:
    # the map a (x) xi -> a·1 (x) xi out of the quotient C (x) E = E, whose T is 1's coordinates.
    unit = source.unit().coords()[None, :, None]
    inclusion = class_matrices(unit, np.eye(d_e)[None], maps, sizes, (np.eye(d_e),), (1,))
    # y: the coordinates of the generators e_j·1 of E = P·B^n in its complex basis.
    gens = module.to_range(module.projection_flat).reshape(module.coord_dim, module.rank, big_d)
    y = module._basis_pinv @ gens.transpose(1, 0, 2).reshape(module.rank, -1).T
    connector = AdjointableOperator(
        module, dilation_module, _concrete(w_rows, inclusion @ y, module.isometry)[0]
    )

    for array in (w, coord_extract):
        array.setflags(write=False)
    quotient = QuotientData(
        class_maps=tuple(maps),
        embeddings=tuple(embeds),
        retained_eigenvalues=tuple(lams),
        null_vectors=tuple(nulls),
        null_dim=sum(nk * z.shape[1] for nk, z in zip(sizes, nulls)),
        threshold=threshold,
        warnings=tuple(warnings),
    )
    return DilationCore(
        cp_map=rho,
        module=dilation_module,
        representation=representation,
        connector=connector,
        quotient=quotient,
        _sqrt_flat=w,
        _coord_extract=coord_extract,
    )


class _Root(NamedTuple):
    """The square root w_k of a summand's pushed Gram h_k on its support, the
    range U_k of that support, and the traces x_k of the D×D blocks of w_k."""

    w: np.ndarray
    u: np.ndarray
    x: np.ndarray


def _support_roots(pushed: Sequence, big_d: int) -> list[_Root]:
    """The `_Root` of each summand's pushed Gram from its eigendecomposition
    (values, vectors), empty for a summand with no retained class (None).
    The support cut is SUPPORT_REL times the largest eigenvalue over all
    summands, the largest eigenvalue of the whole pushed Gram."""
    h_top = max(max(float(vals[-1]) for vals, _ in filter(None, pushed)), 0.0)
    sup_cut = max(SUPPORT_REL * h_top, NULL_SPACE_FLOOR)
    roots = []
    for eig in pushed:
        if eig is None:
            empty = np.zeros((0, 0), dtype=np.complex128)
            roots.append(_Root(empty, empty, empty))
            continue
        hvals, hvecs = eig
        keep_h = hvals > sup_cut
        u = hvecs[:, keep_h]
        w = (u * np.sqrt(hvals[keep_h])) @ u.conj().T
        r_k = len(w) // big_d
        roots.append(_Root(w, u, np.einsum("iaja->ij", w.reshape(r_k, big_d, r_k, big_d))))
    return roots


def _repeated_diag(blocks: Sequence[np.ndarray], copies: Sequence[int]) -> np.ndarray:
    """The block-diagonal matrix with blocks[k] repeated copies[k] times."""
    return linalg.block_diag([b for b, c in zip(blocks, copies) for _ in range(c)])


def class_matrices(
    t: np.ndarray,
    y: np.ndarray,
    maps: Sequence[np.ndarray],
    sizes: Sequence[int],
    embeds: Sequence[np.ndarray],
    embed_sizes: Sequence[int],
) -> np.ndarray:
    """Class coordinates of a (x) xi -> T(a) (x) Y xi between two quotients, for
    each pair (T_K, Y_K) of two stacks (a stack of length 1 is shared).

    T_K acts on algebra coordinates (column i holds T(a_i)) and Y_K on complex
    coordinates of E. `maps` are the target's m_k' with block sizes `sizes`;
    `embeds` are vectors of the source's summands in (β, s) labels, its e_k
    or any others (null vectors), with block sizes `embed_sizes`. Column
    (k, α, j) is e_α (x) embeds[k][:, j], and block ((k', γ), (k, α)) of the
    result is sum_{δ,β} T[(k'γδ), (kαβ)]·m_k'[:, (δ, ·)]·Y·e_k[(β, ·), :]: only
    T's (n_k'², n_k²) blocks are read, one pair of summands at a time.
    """
    count = max(len(t), len(y))
    rows = [m.shape[0] * nq for m, nq in zip(maps, sizes)]
    cols = [e.shape[1] * nk for e, nk in zip(embeds, embed_sizes)]
    out = np.zeros((count, sum(rows), sum(cols)), dtype=np.complex128)
    row, t_row = 0, 0
    for m, nq, height in zip(maps, sizes, rows):
        r_q = m.shape[0]
        my = m.reshape(r_q * nq, m.shape[1] // nq) @ y  # (K, (j, δ), t): m[j, (δ, ·)]·Y
        col, t_col = 0, 0
        for e, nk, width in zip(embeds, embed_sizes, cols):
            r_k, d_in = e.shape[1], len(e) // nk
            wide = e.reshape(nk, d_in, r_k).transpose(1, 0, 2).reshape(d_in, nk * r_k)
            # prod[(δ, β), (j, q)] = m[j, (δ, ·)]·Y·e[(β, ·), q]
            prod = (my @ wide).reshape(len(my), r_q, nq, nk, r_k).transpose(0, 2, 3, 1, 4)
            tb = t[:, t_row : t_row + nq * nq, t_col : t_col + nk * nk]
            tb = tb.reshape(-1, nq, nq, nk, nk).transpose(0, 1, 3, 2, 4)  # (γ, α), (δ, β)
            block = tb.reshape(-1, nq * nk, nq * nk) @ prod.reshape(len(my), nq * nk, r_q * r_k)
            block = block.reshape(count, nq, nk, r_q, r_k).transpose(0, 1, 3, 2, 4)
            out[:, row : row + height, col : col + width] = block.reshape(count, height, width)
            col, t_col = col + width, t_col + nk * nk
        row, t_row = row + height, t_row + nq * nq
    return out


def _concrete(w_rows: np.ndarray, coords: np.ndarray, domain_basis: np.ndarray | None):
    """Range coordinates U*·W·kron(C_K, I_D)·U_dom of a stack of class-coordinate
    matrices C_K, from the rows U*W of W.

    With C_K = (class matrix)·coord_extract it gives an endomorphism of the
    quotient (U_dom = U); with the classes of the inclusion xi -> 1 (x) xi
    times y it gives the connector (U_dom the isometry of E, or None when E
    is free).
    """
    k, r, c = coords.shape
    big_d = w_rows.shape[1] // r
    # Column (b, y) of U*W·kron(C, I_D) is sum_a C[a, b] (U*W)[:, (a, y)]; no
    # Kronecker product is formed, only one batched product of each Cᵀ with
    # the rows regrouped by a.
    by_a = w_rows.reshape(-1, r, big_d).transpose(1, 0, 2).reshape(r, -1)
    rows = np.matmul(coords.transpose(0, 2, 1), by_a).reshape(k, c, -1, big_d)
    rows = rows.transpose(0, 2, 1, 3).reshape(k, w_rows.shape[0], c * big_d)
    return np.ascontiguousarray(rows if domain_basis is None else rows @ domain_basis)


def _null_preservation_residual(d: CovariantDilation) -> float:
    """The largest norm, over the moves a (x) xi -> a_i a (x) xi and
    a (x) xi -> alpha_g(a) (x) u_g(xi), of the map that takes a null vector to
    the class of its move in E_rho, for a non-empty null space; zero when the
    null space is respected. The class of a spanning vector x of summand k's
    row α has coordinates m_k·x there, of the norm the class has in E_rho, so
    a move's norm is the largest singular value of its class matrix over the
    orthonormal null vectors, whichever null basis the eigensolver returned."""
    source, quotient, rep = d.cp_map.source, d.quotient, d.rep
    sizes = source.block_sizes
    moves = (
        (source.structure_constants().transpose(0, 2, 1), np.eye(rep.module.complex_dim)[None]),
        (d.action._action_tensor, complex_matrices(rep.module, rep.module, rep.values)),
    )
    worst = 0.0
    for t, y in moves:
        classes = class_matrices(t, y, quotient.class_maps, sizes, quotient.null_vectors, sizes)
        worst = max(worst, float(np.max(linalg.spectral_norm(classes))))
    return worst


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

    quotient, sizes = core.quotient, rho.source.block_sizes
    u_cm = complex_matrices(rep.module, rep.module, rep.values)
    classes = class_matrices(
        action._action_tensor, u_cm, quotient.class_maps, sizes, quotient.embeddings, sizes
    )
    coords = _concrete(
        core.module.to_range(core._sqrt_flat), classes @ core._coord_extract, core.module.isometry
    )
    group_unitaries = UnitaryRepresentation(action.group, core.module, coords)

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


_IDENTITY = "dilation identity rho = V* Phi V"
_MINIMALITY = "minimality rank = dim E_rho"
_INTERTWINING = "intertwining v_g V = V u_g"


def _dilation_identities(d: CovariantDilation) -> tuple[np.ndarray, tuple[_Identity, ...]]:
    """The spanning family of `d` (read-only) and the residuals of its identities."""
    rho = d.cp_map
    w = d.connector.coords
    phi_v = d.representation.values @ w  # Phi(a_i) V, formed once
    identities = []

    # (a) rho(a) = V* Phi(a) V: max_i ||rho(a_i) - V* Phi(a_i) V||_F / (1 + ||rho(a_i)||).
    lhs = rho.values
    scale = 1.0 + linalg.spectral_norm(lhs)
    worst = float(np.max(linalg.frobenius_each(lhs - w.conj().T @ phi_v) / scale))
    identities.append(_Identity(_IDENTITY, worst, 1e-9))

    # (b) minimality: span{Phi(a_i) V xi_s} has full complex dimension.
    family = phi_v[:, None] @ rho.module.coord_basis  # (dim A, dim E, rank P, D)
    family = family.reshape(-1, *family.shape[2:])
    family.setflags(write=False)
    rank = linalg.matrix_rank(family.reshape(len(family), -1))
    dim = d.module.complex_dim
    detail = f"rank {rank} vs dim {dim}"
    identities.append(_Identity(_MINIMALITY, float(abs(rank - dim)), 0.5, detail, scaled=False))

    # covariance of Phi and (c) the intertwining max_g ||v_g V - V u_g||_F.
    cov = check_covariance(d.representation, d.action, d.group_unitaries)
    identities.append(_Identity("covariance of Phi", cov.max_residual, 1e-9))
    inter = linalg.max_frobenius(d.group_unitaries.values @ w - w @ d.rep.values)
    identities.append(_Identity(_INTERTWINING, inter, 1e-9))

    # group structure on E_rho
    group_report = verify_unitary_representation(d.group_unitaries)
    identities.append(_Identity("v_g unitary", group_report.check("unitarity").residual, 1e-9))
    identities.append(
        _Identity("group law on E_rho", group_report.check("multiplicativity").residual, 1e-10)
    )

    # representation identities on E_rho
    rep_residual = d.representation.verify_representation().max_residual
    identities.append(_Identity("Phi is a unital *-representation", rep_residual, 1e-9))

    # well-definedness: the null space is respected by left multiplication and
    # by a(x)xi -> alpha_g(a)(x)u_g(xi); an empty null space is, and then no
    # class is formed.
    null_res = _null_preservation_residual(d) if d.quotient.null_dim else 0.0
    identities.append(_Identity("null space preserved", null_res, 1e-9))
    return family, tuple(identities)


def verify_dilation(d: CovariantDilation, tol: float = 1e-9) -> VerificationReport:
    """Report every defining identity of the dilation at `tol`, from the residuals
    `d` computed from its fields when it was built (`d.residuals` is the report
    at `d.tol`): only the thresholds are applied again, nothing is recomputed."""
    return _report_at(d._identities, tol)


def uniqueness_unitary(
    d: CovariantDilation,
    other: CovariantDilation,
    tol: float = DEFAULT_TOL,
) -> tuple[AdjointableOperator, VerificationReport]:
    """The unitary carrying d onto another covariant dilation of the same (rho, u).

    `other` must dilate the same map and representation (StructuralError
    otherwise) and satisfy the three dilation properties itself: they were
    computed when it was built and are read at max(tol, 1e-8) here, and a
    failure raises PreconditionError naming the condition. U is defined on
    the spanning families both dilations keep, Phi(a) V xi -> Phi'(a) W xi,
    and extended linearly.
    """
    for what, mine, theirs in (
        ("CP map rho", d.cp_map, other.cp_map),
        ("representation u", d.rep, other.rep),
    ):
        if theirs is not mine:
            raise StructuralError(f"candidate dilates another {what}")
    pre_tol = max(tol, 1e-8)
    kept = {i.name: i.residual for i in other._identities}
    if kept[_IDENTITY] > pre_tol:
        raise PreconditionError(
            f"candidate fails the dilation identity (a): residual {kept[_IDENTITY]:.3e}"
        )
    if kept[_MINIMALITY] != 0.0:
        raise PreconditionError("candidate fails minimality (b): spanning family is not dense")
    if kept[_INTERTWINING] > pre_tol:
        raise PreconditionError(
            f"candidate fails the intertwining (c): residual {kept[_INTERTWINING]:.3e}"
        )

    def wide(family: np.ndarray) -> np.ndarray:
        return family.transpose(1, 0, 2).reshape(family.shape[1], -1)

    # Both families are in range coordinates, so this is U's coordinate matrix:
    # with U_F the isometry of F, pinv(U_F·A) = pinv(A)·U_F*.
    u_coords = wide(other._spanning_family) @ np.linalg.pinv(wide(d._spanning_family), rcond=1e-10)
    u = AdjointableOperator(d.module, other.module, u_coords)

    phi, phi_other = d.representation.values, other.representation.values
    v, v_other = d.group_unitaries.values, other.group_unitaries.values
    checks = [
        Check("U unitary", u.is_unitary(tol).max_residual, max(tol, 1e-9)),
        Check(
            "Phi'(a) U = U Phi(a)",
            linalg.max_frobenius(phi_other @ u_coords - u_coords @ phi),
            max(tol, 1e-9),
        ),
        Check(
            "v'_g U = U v_g",
            linalg.max_frobenius(v_other @ u_coords - u_coords @ v),
            max(tol, 1e-9),
        ),
        Check(
            "W = U V",
            linalg.frobenius(other.connector.coords - u_coords @ d.connector.coords),
            max(tol, 1e-9),
        ),
    ]
    return u, VerificationReport("uniqueness unitary", tuple(checks))


def scaled_connector_variant(d: CovariantDilation, factor: complex = 0.5) -> CovariantDilation:
    """Negative control: same dilation with the connector rescaled."""
    return replace(d, connector=factor * d.connector)


def padded_variant(d: CovariantDilation) -> CovariantDilation:
    """Negative control: dilation module padded with an orthogonal free direction.
    Its isometry is U ⊕ 1, so an operator X ⊕ c on it has coordinates Y ⊕ c."""
    module, big_d = d.module, d.module.block_dim
    basis = np.eye(module.flat_dim) if module.isometry is None else module.isometry
    padded = HilbertModule(module.algebra, module.rank + 1, linalg.block_diag([basis, np.eye(big_d)]))

    def pad(coords, block):
        out = np.pad(coords, ((0, 0), (0, big_d), (0, big_d)))
        out[:, -big_d:, -big_d:] = block
        return out

    return replace(
        d,
        module=padded,
        representation=CompletelyPositiveMap(
            d.cp_map.source, padded, pad(d.representation.values, 0.0)
        ),
        group_unitaries=UnitaryRepresentation(
            d.action.group, padded, pad(d.group_unitaries.values, np.eye(big_d))
        ),
        connector=AdjointableOperator(
            d.cp_map.module, padded, np.pad(d.connector.coords, ((0, big_d), (0, 0)))
        ),
    )
