"""Exhaustive pairwise reference for the certificates that check all basis pairs.

This is how the library computed them before the streamed kernel
`linalg.max_product_residual`: one `AlgebraElement` product (or convolution)
per pair of basis elements, then dense products compared entrywise on the
full flats of the module. The only change is that the dense products are
formed one left factor at a time, so the largest grid instance fits in
memory; each pair's arithmetic is the same. `gram_reference` forms the
whole KSGNS Gram [x* rho(a_i* a_j) x] of the spanning set one pair at a time,
as `dilation.gram_operator` did before it formed only the per-summand blocks
G_k and C_k; it is the only whole Gram left, and `summand_blocks` slices
those blocks out of it.

The element-wise references keep the loops that the one pass over the
group replaced: `covariance_reference` (one (g, i) pair at a time, with
its witness), `star_reference` (the integrated form summed over the whole
group for each spanning element's involution) and `spanning_reference`
(the extension's agreement and restriction, one product chain per pair).

The tower references keep the per-entry loops that one batched transfer
replaced: each connecting map is applied with `hom.apply` to one D×D entry
at a time, never through the transfer matrix. `module_tower_reference`
checks every pair of basis elements; `dilation_coherence_reference` and
`integrated_coherence_reference` push each basis value and unitary on its
own and compare the squares one operator, one group element and one (g, i)
pair at a time.

The crossed-product references keep the per-element construction that one
stack E replaced (and the per-pair convolutions that the integrated form's
standard-map bound streams: `spanning_structure_reference` convolves every
pair of spanning elements, `spanning_pair_reference` compares every pair of
spanning values and `change_of_basis_reference` every pair of standard
basis elements): `embed_reference` fills each block with
`GroupAction.apply`, over a double loop on G, for the spanning set of
`conv_basis_reference` (one `ConvolutionElement.delta` each);
`embedding_residuals_reference` checks the involution and the extraction
one spanning element at a time; `to_standard_reference` and
`from_standard_reference` pair with one matrix unit at a time; and
`star_map_reference` applies a *-homomorphism to each adjoint.

The dilation references keep the loops that the stacked (a)/(b)/(c)
helpers replaced: `dilation_checks_reference` and `uniqueness_reference`
check one basis element and one g at a time, with the scale of (a) taken
as sqrt(max eigvalsh(X*X)) instead of `linalg.spectral_norm`, the null
space through one kron shuffle per element, and the group law one pair
(g, h) at a time (as do `unitary_representation_reference` and
`action_reference`). `descended_reference` builds Φ(a_i), v_g and V by
kron-and-permute through the whole spanning set's (r, N) coordinate map and
(N, r) class embedding, N = dim A·dim E, as `minimal_dilation` and
`covariant_extend` did before they descended one pair of summands at a
time (`dilation.class_matrices`); `spanning_classes` assembles the two
from the quotient's per-summand m_k and e_k.
`whole_gram_quotient` takes the quotient of `gram_reference`'s Gram as
`minimal_dilation` did before it took it one matrix-unit summand at a time:
one eigenproblem of the whole scalar Gram and one of the whole pushed
B-valued Gram. The null-space check of `dilation_checks_reference` reads the
seminorm off the same whole scalar Gram, with one kron shuffle per element.

The last references were once library code that only the tests called:
`jacobi_eigh` is a cyclic complex Jacobi eigensolver, independent of LAPACK;
`amplify` is a CP map applied entrywise on M_n(A), for positivity at level
n; `adjointability_residual` checks <Tξ, η> = <ξ, T*η> over all pairs of
complex basis elements; and `direct_form` sums ρ(f(g))u_g over the group,
without the dilation.

`wedderburn_structure_reference` forms every product of an orthonormal
basis at once, as `algebra.wedderburn_decompose` did before it swept them in
chunks: the closure residual of the whole N²×m² product matrix and the
singular values of the whole m²×m commutator matrix.

`relation_residuals` takes the matrix-unit relations of
`linalg.matrix_unit_bound` one basis element and one pair at a time, through
`basis_index`, and `fix_phases_reference` rotates one eigenvector column at
a time, as `linalg._fix_phases` did before it rotated them all at once.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from prostar.dilation import NULL_SPACE_FLOOR, NULL_SPACE_REL, SUPPORT_REL

# Residuals are sums of rounding errors taken in another order, so the two
# paths agree relative to the size of the products, not bit for bit.
REL = 1e-12


def product_scale(stack: np.ndarray) -> float:
    """Frobenius size of the largest pairwise product of a stack of matrices."""
    return max(1.0, float(np.max(np.linalg.norm(stack, axis=(1, 2)))) ** 2)


def assert_agrees(new: float, old: float, scale: float, threshold: float) -> None:
    """Same pass/fail at `threshold`, residuals within REL of the product size."""
    assert abs(new - old) <= REL * max(scale, old), (new, old)
    assert (new <= threshold) == (old <= threshold), (new, old, threshold)


def structure_constants(algebra) -> np.ndarray:
    """T[i, j] = coordinates of basis_i * basis_j."""
    basis = list(algebra.basis())
    dim = algebra.linear_dim
    out = np.zeros((dim, dim, dim), dtype=np.complex128)
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            out[i, j] = (a * b).coords()
    return out


def wedderburn_structure_reference(onb: np.ndarray) -> tuple[float, np.ndarray]:
    """(||P − BB*P||_F, singular values of the commutator matrix) of an
    orthonormal basis B (N²×m), with all m² products P and the whole m²×m
    commutator matrix formed at once."""
    dim = onb.shape[1]
    n = int(round(np.sqrt(onb.shape[0])))
    basis = onb.T.reshape(dim, n, n)
    wide = basis.transpose(1, 0, 2).reshape(n, dim * n)
    products = (basis.reshape(dim * n, n) @ wide).reshape(dim, n, dim, n)
    products = products.transpose(0, 2, 1, 3).reshape(dim * dim, n * n).T
    coeffs = onb.conj().T @ products
    residual = float(np.linalg.norm(products - onb @ coeffs))
    t = coeffs.T.reshape(dim, dim, dim)
    comm = (t - t.transpose(1, 0, 2)).transpose(1, 2, 0).reshape(dim * dim, dim)
    return residual, np.linalg.svd(comm, compute_uv=False)


def _max_residual(left, right, values, coeffs) -> float:
    worst = 0.0
    for a in range(left.shape[0]):
        products = np.matmul(left[a][None], right)
        expected = np.tensordot(coeffs[a], values, axes=([1], [0]))
        worst = max(worst, float(np.max(np.sum(np.abs(products - expected) ** 2, axis=(1, 2)))))
    return float(np.sqrt(worst))


def value_flats(rho) -> np.ndarray:
    """The basis values of a map as matrices on the flats, (dim A, fd, fd)."""
    return np.stack([op.flat for op in rho.basis_values])


def representation_residual(rho) -> float:
    """max ||rho(a_i) rho(a_j) - rho(a_i a_j)||_F over basis pairs, on the flats."""
    vals = value_flats(rho)
    return _max_residual(vals, vals, vals, structure_constants(rho.source))


def relation_residuals(stack: np.ndarray, algebra) -> tuple[float, float, float]:
    """(r1, r2 within blocks, r2 across blocks) of a stack of values X_a on the
    basis of `algebra`: r1 = max ||X_ij - X_i1 X_1j||_F and r2 the largest
    ||X^b_1j X^c_k1 - δ_bc δ_jk X^b_11||_F, one relation at a time."""
    r1 = within = across = 0.0
    sizes = algebra.block_sizes
    x = algebra.basis_index
    for b, n in enumerate(sizes):
        for i in range(n):
            for j in range(n):
                defect = stack[x(b, i, j)] - stack[x(b, i, 0)] @ stack[x(b, 0, j)]
                r1 = max(r1, float(np.linalg.norm(defect)))
    for b, n in enumerate(sizes):
        for c, m in enumerate(sizes):
            for j in range(n):
                for k in range(m):
                    prod = stack[x(b, 0, j)] @ stack[x(c, k, 0)]
                    if b != c:
                        across = max(across, float(np.linalg.norm(prod)))
                    else:
                        unit = stack[x(b, 0, 0)] if j == k else 0.0
                        within = max(within, float(np.linalg.norm(prod - unit)))
    return r1, within, across


def twisted_residual(phi, v, action) -> float:
    """max over g, i, j of ||Phi(a_i) v_g Phi(a_j) v_g* - Phi(a_i alpha_g(a_j))||_F."""
    phi_tensor = value_flats(phi)
    basis = list(action.algebra.basis())
    dim = len(basis)
    worst = 0.0
    for g in action.group.elements():
        ug = v.unitaries[g].flat
        conj = np.matmul(ug[None], np.matmul(phi_tensor, ug.conj().T[None]))
        twisted = np.empty((dim, dim, dim), dtype=np.complex128)
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                twisted[i, j] = (a * action.apply(g, b)).coords()
        worst = max(worst, _max_residual(phi_tensor, conj, phi_tensor, twisted))
    return worst


def conv_basis_reference(system) -> list:
    """The spanning set delta_g (x) a_i of C(G, A), g-major, one delta at a time."""
    from prostar.crossed import ConvolutionElement

    return [
        ConvolutionElement.delta(system, g, b)
        for g in system.group.elements()
        for b in system.algebra.basis()
    ]


def embed_reference(xp, f) -> np.ndarray:
    """Concrete matrix of f, block by block: block (t, t') is alpha_{t^-1}(f(t t'^-1))."""
    group, alg = xp.system.group, xp.system.algebra
    d = alg.total_dim
    out = np.zeros((xp.ambient_dim, xp.ambient_dim), dtype=np.complex128)
    for t in group.elements():
        inv_t = group.inverse(t)
        for tp in group.elements():
            g = group.multiply(t, group.inverse(tp))
            block = xp.system.apply(inv_t, f.values[g]).dense()
            out[t * d : (t + 1) * d, tp * d : (tp + 1) * d] = block
    return out


def extract_reference(xp, matrix):
    """Inverse of the embedding on its image, one identity-row block at a time."""
    from prostar.crossed import ConvolutionElement

    group, alg = xp.system.group, xp.system.algebra
    d, e = alg.total_dim, group.identity
    values = []
    for g in group.elements():
        tp = group.inverse(g)
        values.append(alg.from_dense(matrix[e * d : (e + 1) * d, tp * d : (tp + 1) * d], check=False))
    return ConvolutionElement(xp.system, tuple(values))


def convolution_residual(xp) -> float:
    """max ||embed(f) embed(h) - embed(f x h)||_F over the spanning pairs."""
    basis = conv_basis_reference(xp.system)
    emb = np.stack([embed_reference(xp, f) for f in basis])
    m = len(basis)
    conv_coords = np.zeros((m, m, m), dtype=np.complex128)
    for i, f in enumerate(basis):
        for j, h in enumerate(basis):
            conv_coords[i, j] = f.convolve(h).coords()
    return _max_residual(emb, emb, emb, conv_coords)


def spanning_structure_reference(system) -> np.ndarray:
    """Γ[c, d] = convolution coordinates of s_c x s_d for the spanning set s_c =
    delta_g (x) a_i, g-major, one `ConvolutionElement.convolve` per pair."""
    basis = conv_basis_reference(system)
    return np.array([[f.convolve(h).coords() for h in basis] for f in basis])


def spanning_pair_reference(structure: np.ndarray, k: np.ndarray) -> float:
    """max ||K_c K_d - sum_e Γ[c, d, e] K_e||_F over every spanning pair, one pair
    at a time, for values K (one per spanning element) and Γ from
    `spanning_structure_reference`."""
    k = k.reshape(structure.shape[0], *k.shape[-2:])
    worst = 0.0
    for c in range(len(k)):
        for d in range(len(k)):
            expected = np.tensordot(structure[c, d], k, axes=1)
            worst = max(worst, float(np.linalg.norm(k[c] @ k[d] - expected)))
    return worst


def change_of_basis_reference(xp, structure: np.ndarray) -> tuple[float, float]:
    """(c, ε_T) of T = xp._conv_from_std, one pair of standard basis elements at a
    time: c the largest column 1-norm, ε_T the largest
    ||T s_m x T s_n - T(s_m s_n)||_1, the product by Γ."""
    t = xp._conv_from_std
    table = xp.standard_algebra.product_table
    size = t.shape[1]
    worst = 0.0
    for m in range(size):
        for n in range(size):
            product = np.einsum("c,d,cde->e", t[:, m], t[:, n], structure)
            expected = t[:, table[m, n]] if table[m, n] >= 0 else 0.0
            worst = max(worst, float(np.sum(np.abs(product - expected))))
    return float(max(np.sum(np.abs(t[:, m])) for m in range(size))), worst


def embedding_residuals_reference(xp) -> dict[str, float]:
    """The five embedding checks of build_crossed_product, one spanning element at a time."""
    from prostar.crossed import ConvolutionElement
    from prostar.linalg import matrix_rank

    basis = conv_basis_reference(xp.system)
    emb = [embed_reference(xp, f) for f in basis]
    star = max(
        float(np.linalg.norm(embed_reference(xp, f.involution()) - x.conj().T))
        for f, x in zip(basis, emb)
    )
    unit = embed_reference(xp, ConvolutionElement.unit(xp.system))
    rank = matrix_rank(np.stack([x.ravel() for x in emb], axis=1))
    round_trip = 0.0
    for f, x in zip(basis, emb):
        back = extract_reference(xp, x)
        round_trip = max(
            round_trip, max((a - b).frobenius() for a, b in zip(back.values, f.values))
        )
    return {
        "convolution -> product": convolution_residual(xp),
        "involution -> adjoint": star,
        "unit -> identity": float(np.linalg.norm(unit - np.eye(xp.ambient_dim))),
        "embedding injective": float(len(basis) - rank),
        "extraction round trip": round_trip,
    }


def _block_units(w, k: int) -> np.ndarray:
    """The matrix units of block k of a Wedderburn decomposition, row-major."""
    off, n = w.standard_form.coord_offsets[k], w.standard_form.block_sizes[k]
    return w.matrix_units[off : off + n * n]


def to_standard_reference(w, x):
    """Standard-form element of x, one trace pairing per matrix unit:
    the coefficient of E_ij is tr(f_ji x) / multiplicity."""
    blocks = []
    for k, n in enumerate(w.standard_form.block_sizes):
        units, mult = _block_units(w, k), w.multiplicities[k]
        block = np.empty((n, n), dtype=np.complex128)
        for i in range(n):
            for j in range(n):
                block[i, j] = np.trace(units[j * n + i] @ x) / mult
        blocks.append(block)
    return w.standard_form.from_blocks(blocks)


def from_standard_reference(w, a) -> np.ndarray:
    """The matrix in M_N of a standard-form element, summed one matrix unit at a time."""
    out = np.zeros((w.ambient_dim, w.ambient_dim), dtype=np.complex128)
    for k, (n, block) in enumerate(zip(w.standard_form.block_sizes, a.blocks)):
        units = _block_units(w, k)
        for i in range(n):
            for j in range(n):
                out += block[i, j] * units[i * n + j]
    return out


def std_from_conv_reference(xp) -> np.ndarray:
    """Convolution -> standard-form coordinates, one spanning element at a time."""
    cols = [
        to_standard_reference(xp.wedderburn, embed_reference(xp, f)).coords()
        for f in conv_basis_reference(xp.system)
    ]
    return np.stack(cols, axis=1)


def star_map_reference(phi) -> float:
    """max ||phi(a*) - phi(a)*|| over basis elements, one adjoint at a time."""
    return max(
        (phi.apply(a.adjoint()) - phi.apply(a).adjoint()).frobenius() for a in phi.source.basis()
    )


def star_homomorphism_residual(phi) -> float:
    """max ||phi(a b) - phi(a) phi(b)|| over basis pairs, blockwise Frobenius."""
    basis = list(phi.source.basis())
    images = [phi.apply(b) for b in basis]
    worst = 0.0
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            worst = max(worst, (phi.apply(a * b) - images[i] * images[j]).frobenius())
    return worst


def gram_reference(rho) -> np.ndarray:
    """B-valued Gram [x* rho(a_i* a_j) x] of the spanning set, one pair at a time."""
    x = np.hstack([b.flat for b in rho.module.complex_basis])
    basis = list(rho.source.basis())
    rows = []
    for a in basis:
        rows.append([x.conj().T @ rho(a.adjoint() * b).flat @ x for b in basis])
    gram = np.block(rows)
    return (gram + gram.conj().T) / 2.0


def scalar_gram_reference(gram: np.ndarray, big_d: int) -> np.ndarray:
    """The scalarized Gram: the trace of each D×D block of a B-valued one."""
    n = len(gram) // big_d
    scalar = np.einsum("kala->kl", gram.reshape(n, big_d, n, big_d))
    return (scalar + scalar.conj().T) / 2.0


def summand_blocks(rho, gram: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(G_k, C_k) of each summand k, sliced out of the whole Gram `gram` of
    `gram_reference` and its trace: the rows and columns of the labels
    (E_0β, s) of row 0 of the summand, at positions (off_k + β)·dim E + s."""
    source, d_e, big_d = rho.source, rho.module.complex_dim, rho.module.block_dim
    scalar = scalar_gram_reference(gram, big_d)
    blocks = []
    for off, n in zip(source.coord_offsets, source.block_sizes):
        rows = np.arange(off * d_e, (off + n) * d_e)
        flat = (rows[:, None] * big_d + np.arange(big_d)[None, :]).ravel()
        blocks.append((gram[np.ix_(flat, flat)], scalar[np.ix_(rows, rows)]))
    return blocks


def hermiticity_reference(rho) -> float:
    """max ||rho(a_i*) - rho(a_i)*||_F, evaluating rho on each adjoint."""
    return max(
        float(np.linalg.norm(rho(a.adjoint()).flat - rho(a).flat.conj().T))
        for a in rho.source.basis()
    )


def covariance_reference(rho, action, rep) -> tuple[float, str]:
    """max ||rho(alpha_g(a_i)) - u_g rho(a_i) u_g*||_F and its (g, i), pair by pair on
    the flats; the witness is the first pair within 1e-12·max(1, max_i ||rho(a_i)||_F)
    of the largest residual (the tie rule of `check_covariance`)."""
    residuals = []
    for g in action.group.elements():
        ug = rep.unitaries[g].flat
        for i, a in enumerate(rho.source.basis()):
            lhs = rho(action.apply(g, a)).flat
            rhs = ug @ rho.basis_values[i].flat @ ug.conj().T
            residuals.append((float(np.linalg.norm(lhs - rhs)), f"g={g}, basis #{i}"))
    worst = max(r for r, _ in residuals)
    if worst == 0.0:
        return worst, ""
    band = 1e-12 * max([1.0] + [float(np.linalg.norm(op.flat)) for op in rho.basis_values])
    return worst, next(name for r, name in residuals if r >= worst - band)


def _sum_form(f, phi, v) -> np.ndarray:
    """(Phi x v)(f) = sum_t Phi(f(t)) v_t over the whole group."""
    acc = np.zeros((phi.module.flat_dim, phi.module.flat_dim), dtype=np.complex128)
    for t in f.system.group.elements():
        acc += phi(f.values[t]).flat @ v.unitaries[t].flat
    return acc


def star_reference(phi, v, action) -> float:
    """max ||(Phi x v)(f#) - (Phi x v)(f)*||_F over the spanning set f = delta_g a_i."""
    from prostar.crossed import ConvolutionElement

    worst = 0.0
    for g in action.group.elements():
        for i, a in enumerate(action.algebra.basis()):
            f = ConvolutionElement.delta(action, g, a)
            lhs = _sum_form(f.involution(), phi, v)
            rhs = (phi.basis_values[i].flat @ v.unitaries[g].flat).conj().T
            worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


def spanning_reference(d) -> tuple[float, float]:
    """Extension checks pair by pair: max ||V* Phi(a_i) v_g V - rho(a_i) u_g||_F
    over (g, i), and max ||V* Phi(a_i) v_e V - rho(a_i)||_F over i."""
    v_flat = d.connector.flat
    rho, rep = d.cp_map, d.rep
    e = d.action.group.identity
    agree = restriction = 0.0
    for g in d.action.group.elements():
        for i in range(rho.source.linear_dim):
            lhs = (
                v_flat.conj().T
                @ d.representation.basis_values[i].flat
                @ d.group_unitaries.unitaries[g].flat
                @ v_flat
            )
            agree = max(
                agree,
                float(np.linalg.norm(lhs - rho.basis_values[i].flat @ rep.unitaries[g].flat)),
            )
            if g == e:
                restriction = max(
                    restriction, float(np.linalg.norm(lhs - rho.basis_values[i].flat))
                )
    return agree, restriction


def _push_reference(hom, flat: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """hom applied to each D_p×D_p entry of a flat, one `hom.apply` per entry."""
    dp, dq = hom.source.total_dim, hom.target.total_dim
    out = np.zeros((rows * dq, cols * dq), dtype=np.complex128)
    for r in range(rows):
        for c in range(cols):
            block = flat[r * dp : (r + 1) * dp, c * dp : (c + 1) * dp]
            entry = hom.source.from_dense(block, check=False)
            out[r * dq : (r + 1) * dq, c * dq : (c + 1) * dq] = hom.apply(entry).dense()
    return out


def _lower_pairs(mt):
    """(p, q, r) with p > q > r, the composable pairs of connecting maps."""
    poset = mt.base.poset
    for (p, q) in poset.comparable_pairs():
        for r in poset.elements:
            if r not in (p, q) and poset.leq(r, q):
                yield p, q, r


def module_tower_reference(mt) -> dict[str, tuple[float, str]]:
    """ModuleTower.verify's checks (residual, witness), entry by entry and pair by pair."""
    proj, witness, inner, comp = 0.0, "", 0.0, 0.0
    for (p, q) in mt.base.poset.comparable_pairs():
        hom, ep = mt.base.map(p, q), mt.modules[p]
        pushed = _push_reference(hom, ep.projection_flat, ep.rank, ep.rank)
        r = float(np.linalg.norm(pushed - mt.modules[q].projection_flat))
        if r > proj:
            proj, witness = r, f"{p} -> {q}"
        basis = ep.complex_basis
        mapped = [_push_reference(hom, b.flat, ep.rank, 1) for b in basis]
        for i, bi in enumerate(basis):
            for j, bj in enumerate(basis):
                lhs = mapped[i].conj().T @ mapped[j]
                rhs = _push_reference(hom, bi.flat.conj().T @ bj.flat, 1, 1)
                inner = max(inner, float(np.linalg.norm(lhs - rhs)))
    for p, q, r in _lower_pairs(mt):
        ep = mt.modules[p]
        probe = ep.projection_flat[:, : ep.block_dim]
        mid = _push_reference(mt.base.map(p, q), probe, ep.rank, 1)
        via = _push_reference(mt.base.map(q, r), mid, ep.rank, 1)
        direct = _push_reference(mt.base.map(p, r), probe, ep.rank, 1)
        comp = max(comp, float(np.linalg.norm(via - direct)))
    return {
        "projections connect": (proj, witness),
        "inner products connect": (inner, ""),
        "sigma composition": (comp, ""),
    }


def _pushed_reference(mt, top, q, rho, u):
    """rho and u carried from the top level to level q, one value at a time."""
    from prostar.cpmaps import CompletelyPositiveMap
    from prostar.groups import UnitaryRepresentation
    from prostar.modules import AdjointableOperator

    if q == top:
        return rho, u
    hom, eq = mt.base.map(top, q), mt.modules[q]

    def push(op):
        pushed = _push_reference(hom, op.flat, eq.rank, eq.rank)
        return AdjointableOperator.from_flat(eq, eq, pushed)

    return (
        CompletelyPositiveMap(rho.source, eq, tuple(push(op) for op in rho.basis_values)),
        UnitaryRepresentation(u.group, eq, tuple(push(op) for op in u.unitaries)),
    )


def _element_from_coords(module, coords) -> np.ndarray:
    """The flat of the module element with the given complex-basis coordinates."""
    flat = module.basis_tensor.reshape(module.complex_dim, -1).T @ coords
    return flat.reshape(module.flat_dim, module.block_dim)


def _complex_matrix_reference(op) -> np.ndarray:
    """Matrix of an operator in the complex bases, one basis element at a time."""
    cols = [op.codomain.coords_of(op(b)) for b in op.domain.complex_basis]
    return np.stack(cols, axis=1)


def dilation_coherence_reference(rho_top, action, rep_top, mt, tol: float) -> dict[str, tuple]:
    """The residuals of levelwise_dilation_coherence, one operator and one g at a time."""
    from prostar.dilation import covariant_extend, minimal_dilation
    from prostar.linalg import matrix_rank

    top = mt.base.poset.greatest()
    levels = mt.base.poset.elements
    cores, dils = {}, {}
    for q in levels:
        rho_q, u_q = _pushed_reference(mt, top, q, rho_top, rep_top)
        cores[q] = minimal_dilation(rho_q, tol=tol)
        dils[q] = covariant_extend(cores[q], action, u_q, tol)
    dim_a = rho_top.source.linear_dim
    class_maps = {}
    rep_sq = conn_sq = v_sq = gram_sq = surj = func = 0.0
    for (p, q) in mt.base.poset.comparable_pairs():
        hom, ep, eq = mt.base.map(p, q), mt.modules[p], mt.modules[q]
        y = np.stack(
            [
                eq.coords_of(eq.element_from_flat(_push_reference(hom, b.flat, ep.rank, 1)))
                for b in ep.complex_basis
            ],
            axis=1,
        )
        below, above = spanning_classes(cores[q])[0], spanning_classes(cores[p])[1]
        m = below @ np.kron(np.eye(dim_a), y) @ above
        class_maps[(p, q)] = m
        for a, b in zip(dils[p].representation.basis_values, dils[q].representation.basis_values):
            diff = m @ _complex_matrix_reference(a) - _complex_matrix_reference(b) @ m
            rep_sq = max(rep_sq, float(np.linalg.norm(diff)))
        diff = m @ _complex_matrix_reference(dils[p].connector) - _complex_matrix_reference(
            dils[q].connector
        ) @ y
        conn_sq = max(conn_sq, float(np.linalg.norm(diff)))
        for g in action.group.elements():
            a = _complex_matrix_reference(dils[p].group_unitaries.unitaries[g])
            b = _complex_matrix_reference(dils[q].group_unitaries.unitaries[g])
            v_sq = max(v_sq, float(np.linalg.norm(m @ a - b @ m)))
        fp, fq = dils[p].module, dils[q].module
        mapped = np.hstack([_element_from_coords(fq, m[:, k]) for k in range(m.shape[1])])
        h_p = cores[p]._sqrt_flat @ cores[p]._sqrt_flat
        rhs = _push_reference(hom, h_p, fp.rank, fp.rank)
        gram_sq = max(gram_sq, float(np.linalg.norm(mapped.conj().T @ mapped - rhs)))
        surj = max(surj, float(fq.complex_dim - matrix_rank(m)))
    for p, q, r in _lower_pairs(mt):
        diff = class_maps[(q, r)] @ class_maps[(p, q)] - class_maps[(p, r)]
        func = max(func, float(np.linalg.norm(diff)))
    residuals = {
        "levelwise dilations verified": max(dils[q].residuals.max_residual for q in levels),
        "squares: representations": rep_sq,
        "squares: connectors": conn_sq,
        "squares: group unitaries": v_sq,
        "squares: inner products": gram_sq,
        "level dilation modules match": surj,
        "functoriality of connecting maps": func,
    }
    return {name: (r, "") for name, r in residuals.items()}


def integrated_coherence_reference(phi_top, v_top, xp, mt, tol: float) -> dict[str, tuple]:
    """The residuals of levelwise_integrated_coherence, one (g, i) pair at a time."""
    from prostar.crossed import integrated_form

    top = mt.base.poset.greatest()
    pushed = {q: _pushed_reference(mt, top, q, phi_top, v_top) for q in mt.base.poset.elements}
    level = max(integrated_form(phi, v, xp, tol).report.max_residual for phi, v in pushed.values())
    conn = 0.0
    for (p, q) in mt.base.poset.comparable_pairs():
        (phi_p, v_p), (phi_q, v_q) = pushed[p], pushed[q]
        rank = mt.modules[p].rank
        for g in xp.system.group.elements():
            for i in range(xp.system.algebra.linear_dim):
                k_p = phi_p.basis_values[i].flat @ v_p.unitaries[g].flat
                k_q = phi_q.basis_values[i].flat @ v_q.unitaries[g].flat
                moved = _push_reference(mt.base.map(p, q), k_p, rank, rank)
                conn = max(conn, float(np.linalg.norm(moved - k_q)))
    return {
        "levelwise integrated forms verified": (level, ""),
        "connecting identity on the spanning set": (conn, ""),
    }


def _reference_spectral_norm(m: np.ndarray) -> float:
    """Largest singular value as sqrt(max eigvalsh(X*X)), independent of linalg.spectral_norm."""
    return float(np.sqrt(max(np.linalg.eigvalsh(m.conj().T @ m)[-1], 0.0)))


def _null_reference(
    vals: np.ndarray, vecs: np.ndarray, nulls: np.ndarray, shuffle: np.ndarray
) -> float:
    """Norm of the map taking a null vector to the class of its shuffle in
    E_rho: the largest singular value of √λ·u*·(shuffle @ nulls), the class
    coordinates on the retained eigenpairs (λ, u) of the whole scalar Gram."""
    classes = np.sqrt(vals)[:, None] * (vecs.conj().T @ (shuffle @ nulls))
    return _reference_spectral_norm(classes)


def dilation_checks_reference(d, tol: float) -> list:
    """verify_dilation's checks, one basis element, one g and one (g, h) pair at a time."""
    from prostar.algebra import Check
    from prostar.linalg import matrix_rank

    rho = d.cp_map
    source = rho.source
    v_flat = d.connector.flat
    group = d.action.group
    checks = []

    worst = 0.0
    for i in range(source.linear_dim):
        lhs = rho.basis_values[i].flat
        rhs = v_flat.conj().T @ d.representation.basis_values[i].flat @ v_flat
        scale = 1.0 + _reference_spectral_norm(lhs)
        worst = max(worst, float(np.linalg.norm(lhs - rhs)) / scale)
    checks.append(Check("dilation identity rho = V* Phi V", float(worst), max(tol, 1e-9)))

    x = np.hstack(rho.module.basis_tensor)
    span_vecs = [(op.flat @ v_flat @ x).reshape(-1) for op in d.representation.basis_values]
    d_e, big_d = rho.module.complex_dim, rho.module.block_dim
    stacked = np.stack(span_vecs, axis=0).reshape(
        source.linear_dim, d.module.flat_dim, d_e, big_d
    )
    flat_cols = stacked.transpose(0, 2, 1, 3).reshape(source.linear_dim * d_e, -1)
    rank = matrix_rank(flat_cols)
    checks.append(
        Check(
            "minimality rank = dim E_rho",
            float(abs(rank - d.module.complex_dim)),
            0.5,
            f"rank {rank} vs dim {d.module.complex_dim}",
        )
    )

    cov_worst, _ = covariance_reference(d.representation, d.action, d.group_unitaries)
    checks.append(Check("covariance of Phi", cov_worst, max(tol, 1e-9)))

    inter = 0.0
    for g in group.elements():
        lhs = d.group_unitaries.unitaries[g].flat @ v_flat
        rhs = v_flat @ d.rep.unitaries[g].flat
        inter = max(inter, float(np.linalg.norm(lhs - rhs)))
    checks.append(Check("intertwining v_g V = V u_g", inter, max(tol, 1e-9)))

    unit_res = 0.0
    for g in group.elements():
        unit_res = max(unit_res, d.group_unitaries.unitaries[g].is_unitary(tol).max_residual)
    checks.append(Check("v_g unitary", float(unit_res), max(tol, 1e-9)))
    law = unitary_group_law_reference(d.group_unitaries)
    checks.append(Check("group law on E_rho", law, max(tol, 1e-10)))

    checks.append(
        Check(
            "Phi is a unital *-representation",
            d.representation.verify_representation(max(tol, 1e-9)).max_residual,
            max(tol, 1e-9),
        )
    )

    null_res = 0.0
    if d.quotient.null_dim:
        nulls = _repeated_blocks(d.quotient.null_vectors, source.block_sizes)
        vals, vecs = np.linalg.eigh(scalar_gram_reference(gram_reference(rho), big_d))
        keep = vals > d.quotient.threshold
        vals, vecs = vals[keep], vecs[:, keep]
        lten = structure_constants(source).transpose(0, 2, 1)
        eye_e = np.eye(d_e)
        for i in range(source.linear_dim):
            shuffle = np.kron(lten[i], eye_e)
            null_res = max(null_res, _null_reference(vals, vecs, nulls, shuffle))
        for g in group.elements():
            shuffle = np.kron(
                d.action.automorphisms[g].action_matrix, d.rep.unitaries[g].complex_matrix()
            )
            null_res = max(null_res, _null_reference(vals, vecs, nulls, shuffle))
    checks.append(Check("null space preserved", float(null_res), max(tol, 1e-9)))
    return checks


def uniqueness_reference(d, other, tol: float):
    """uniqueness_unitary one basis element and one g at a time: (U flat, checks).

    Raises PreconditionError with the library's messages when the candidate
    fails (a), (b) or (c)."""
    from prostar.algebra import Check
    from prostar.errors import PreconditionError
    from prostar.linalg import matrix_rank

    rho = d.cp_map
    pre_tol = max(tol, 1e-8)
    w_flat = other.connector.flat
    worst = 0.0
    for i in range(rho.source.linear_dim):
        lhs = rho.basis_values[i].flat
        rhs = w_flat.conj().T @ other.representation.basis_values[i].flat @ w_flat
        scale = 1.0 + _reference_spectral_norm(lhs)
        worst = max(worst, float(np.linalg.norm(lhs - rhs)) / scale)
    if worst > pre_tol:
        raise PreconditionError(
            f"candidate fails the dilation identity (a): residual {worst:.3e}"
        )

    def spanning(representation, connector):
        x = np.hstack(rho.module.basis_tensor)
        return np.hstack([op.flat @ connector.flat @ x for op in representation.basis_values])

    z_cols = spanning(other.representation, other.connector)
    d_e, big_d = rho.module.complex_dim, rho.module.block_dim
    k = rho.source.linear_dim * d_e
    z_vec = z_cols.reshape(other.module.flat_dim, k, big_d).transpose(1, 0, 2).reshape(k, -1)
    if matrix_rank(z_vec) != other.module.complex_dim:
        raise PreconditionError("candidate fails minimality (b): spanning family is not dense")

    inter = 0.0
    for g in d.action.group.elements():
        lhs = other.group_unitaries.unitaries[g].flat @ w_flat
        rhs = w_flat @ d.rep.unitaries[g].flat
        inter = max(inter, float(np.linalg.norm(lhs - rhs)))
    if inter > pre_tol:
        raise PreconditionError(
            f"candidate fails the intertwining (c): residual {inter:.3e}"
        )

    y_cols = spanning(d.representation, d.connector)
    u_flat = z_cols @ np.linalg.pinv(y_cols, rcond=1e-10)
    u_flat = other.module.projection_flat @ u_flat @ d.module.projection_flat
    u_res = max(
        float(np.linalg.norm(u_flat.conj().T @ u_flat - d.module.projection_flat)),
        float(np.linalg.norm(u_flat @ u_flat.conj().T - other.module.projection_flat)),
    )
    phi_res = max(
        float(
            np.linalg.norm(
                other.representation.basis_values[i].flat @ u_flat
                - u_flat @ d.representation.basis_values[i].flat
            )
        )
        for i in range(rho.source.linear_dim)
    )
    v_res = max(
        float(
            np.linalg.norm(
                other.group_unitaries.unitaries[g].flat @ u_flat
                - u_flat @ d.group_unitaries.unitaries[g].flat
            )
        )
        for g in d.action.group.elements()
    )
    w_res = float(np.linalg.norm(w_flat - u_flat @ d.connector.flat))
    threshold = max(tol, 1e-9)
    return u_flat, [
        Check("U unitary", u_res, threshold),
        Check("Phi'(a) U = U Phi(a)", phi_res, threshold),
        Check("v'_g U = U v_g", v_res, threshold),
        Check("W = U V", w_res, threshold),
    ]


def unitary_group_law_reference(rep) -> float:
    """max ||u_g u_h - u_gh||_F, one pair (g, h) at a time."""
    group = rep.group
    mult = 0.0
    for g in group.elements():
        for h in group.elements():
            ugh = rep.unitaries[group.multiply(g, h)].flat
            diff = rep.unitaries[g].flat @ rep.unitaries[h].flat - ugh
            mult = max(mult, float(np.linalg.norm(diff)))
    return mult


def unitary_representation_reference(rep, tol: float) -> list:
    """verify_unitary_representation's checks, one g and one (g, h) pair at a time."""
    from prostar.algebra import Check

    group = rep.group
    e = group.identity
    id_resid = (
        float(np.linalg.norm(rep.unitaries[e].flat - rep.module.projection_flat))
        if e is not None
        else np.inf
    )
    unitary = 0.0
    for u in rep.unitaries:
        unitary = max(unitary, u.is_unitary(tol).max_residual)
    inverse = 0.0
    for g in group.elements():
        inv = group.inverses[g]
        if inv is None:
            inverse = np.inf
            break
        diff = rep.unitaries[inv].flat - rep.unitaries[g].flat.conj().T
        inverse = max(inverse, float(np.linalg.norm(diff)))
    return [
        Check("unit maps to identity", float(id_resid), tol),
        Check("unitarity", float(unitary), tol),
        Check("multiplicativity", unitary_group_law_reference(rep), tol),
        Check("inverse law u_{g^-1} = u_g*", float(inverse), tol),
    ]


def action_reference(action, tol: float) -> list:
    """verify_action's checks, one g and one (g, h) pair at a time."""
    from prostar.algebra import Check, verify_star_homomorphism

    group, alg = action.group, action.algebra
    e = group.identity
    id_resid = (
        float(np.linalg.norm(action.automorphisms[e].action_matrix - np.eye(alg.linear_dim)))
        if e is not None
        else np.inf
    )
    cocycle = 0.0
    for g in group.elements():
        mg = action.automorphisms[g].action_matrix
        for h in group.elements():
            mh = action.automorphisms[h].action_matrix
            mgh = action.automorphisms[group.multiply(g, h)].action_matrix
            cocycle = max(cocycle, float(np.linalg.norm(mg @ mh - mgh)))
    star_hom = 0.0
    bijective = True
    for g in group.elements():
        report = verify_star_homomorphism(action.automorphisms[g], tol)
        star_hom = max(star_hom, report.max_residual)
        bijective = bijective and action.automorphisms[g].is_bijective()
    return [
        Check("unit acts as identity", float(id_resid), tol),
        Check("cocycle law", float(cocycle), tol),
        Check("*-automorphisms", float(star_hom), tol),
        Check("bijectivity", 0.0 if bijective else 1.0, 0.5),
    ]


def _repeated_blocks(blocks, copies) -> np.ndarray:
    """The block-diagonal matrix with blocks[k] repeated copies[k] times; a block
    may have no columns or no rows."""
    parts = [b for b, c in zip(blocks, copies) for _ in range(c)]
    out = np.zeros((sum(b.shape[0] for b in parts), sum(b.shape[1] for b in parts)), complex)
    r = c = 0
    for b in parts:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def spanning_classes(core) -> tuple[np.ndarray, np.ndarray]:
    """The (r, N) coordinate map and the (N, r) class embedding of the whole
    spanning set, N = dim A·dim E, assembled from the quotient's per-summand m_k
    and e_k. Label (E_αβ, s) of summand k is (off_k + α·n_k + β)·dim E + s, so
    row α's labels are one contiguous run in (β, s) order and both matrices are
    block-diagonal, with m_k and e_k repeated once per row α."""
    sizes, quotient = core.cp_map.source.block_sizes, core.quotient
    return (
        _repeated_blocks(quotient.class_maps, sizes),
        _repeated_blocks(quotient.embeddings, sizes),
    )


def descend_reference(core, coords: np.ndarray) -> np.ndarray:
    """The flat W·kron(C·coord_extract, I_D) of a class-coordinate matrix C, with
    the Kronecker product formed."""
    big_d = core.module.block_dim
    return core._sqrt_flat @ np.kron(coords @ core._coord_extract, np.eye(big_d))


def descended_reference(core, action, rep) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The flats of Phi(a_i), v_g and V built by kron-and-permute, one i, one g and
    one generator of E at a time, through the whole spanning set's coordinate
    map and class embedding (`spanning_classes`)."""
    source, module = core.cp_map.source, core.cp_map.module
    d_e, big_d = module.complex_dim, module.block_dim
    coord_map, class_embed = spanning_classes(core)
    eye_e = np.eye(d_e)

    def concrete(shuffle):
        return descend_reference(core, coord_map @ shuffle @ class_embed)

    lten = structure_constants(source).transpose(0, 2, 1)
    phi = np.stack([concrete(np.kron(lten[i], eye_e)) for i in range(source.linear_dim)])
    v = np.stack(
        [
            concrete(
                np.kron(action.automorphisms[g].action_matrix, rep.unitaries[g].complex_matrix())
            )
            for g in action.group.elements()
        ]
    )
    x_map = np.kron(source.unit().coords()[:, None], eye_e)
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
    )
    connector = core._sqrt_flat @ np.kron(coord_map @ x_map @ y, np.eye(big_d))
    return phi, v, connector


class WholeGramQuotient(NamedTuple):
    threshold: float
    retained_eigenvalues: np.ndarray  # ascending
    null_dim: int
    support_rank: int  # rank P of E_rho = P·B^r
    warnings: tuple[str, ...]


def whole_gram_quotient(rho, order_seed: int | None = None) -> WholeGramQuotient:
    """The quotient of `gram_reference`'s whole Gram of `rho`: the N×N scalar
    Gram, its labels in an order drawn from `order_seed` (the quantities that
    `assert_summand_quotient_agrees` compares do not depend on it), in one
    eigenproblem, the B-valued Gram pushed onto all r retained classes and
    that r·D×r·D matrix in one more, with the identity shuffle descended
    through the whole square root for the embedding defect."""
    gram, big_d = gram_reference(rho), rho.module.block_dim
    n = len(gram) // big_d
    perm = np.arange(n) if order_seed is None else np.random.default_rng(order_seed).permutation(n)
    flat = (perm[:, None] * big_d + np.arange(big_d)[None, :]).ravel()
    bflat = gram[np.ix_(flat, flat)]
    vals, vecs = np.linalg.eigh(scalar_gram_reference(gram, big_d)[np.ix_(perm, perm)])
    threshold = max(NULL_SPACE_REL * max(float(vals[-1]), 0.0), NULL_SPACE_FLOOR)
    keep = vals > threshold
    warnings = []
    if np.any((vals > threshold / 10.0) & (vals < threshold * 10.0)):
        warnings.append(
            "quotient is ill-conditioned: scalar Gram eigenvalues within 10x of the null threshold"
        )
    lam = vals[keep]
    r = len(lam)
    c_norm = vecs[:, keep] / np.sqrt(lam)[None, :]
    coord_map = np.sqrt(lam)[:, None] * vecs[:, keep].conj().T
    g4 = bflat.reshape(n, big_d, n, big_d)
    h = np.einsum("kA,kalb,lB->AaBb", c_norm.conj(), g4, c_norm).reshape(r * big_d, r * big_d)
    hvals, hvecs = np.linalg.eigh((h + h.conj().T) / 2.0)
    keep_h = hvals > max(SUPPORT_REL * max(float(hvals[-1]), 0.0), NULL_SPACE_FLOOR)
    u = hvecs[:, keep_h]
    w = (u * np.sqrt(hvals[keep_h])) @ u.conj().T
    extract = np.einsum("iaja->ij", w.reshape(r, big_d, r, big_d))
    ident = w @ np.kron(coord_map @ c_norm @ extract, np.eye(big_d))
    if not np.all(keep_h):
        ident = u.conj().T @ ident @ u
    defect = np.linalg.norm(ident - np.eye(len(ident)))
    if defect > 1e-8 * max(1.0, np.sqrt(len(ident))):
        warnings.append(f"quotient embedding defect {defect:.3e}")
    return WholeGramQuotient(threshold, lam, n - r, u.shape[1], tuple(warnings))


def assert_summand_quotient_agrees(core, order_seed: int | None) -> None:
    """`core`, a `minimal_dilation` at `order_seed`, keeps the whole-Gram
    quotient's rank, null dimension, support rank and warnings, its threshold
    and retained spectrum (as a multiset) within REL; and its Phi, written as
    E_ab ⊗ 1, is the Phi that the multiplication shuffles a ⊗ ξ ↦ a_i a ⊗ ξ
    descend to through the whole spanning set (`spanning_classes`)."""
    rho, quotient = core.cp_map, core.quotient
    sizes = rho.source.block_sizes
    ref = whole_gram_quotient(rho, order_seed)
    spectrum = np.sort(
        np.concatenate([np.tile(lam, n) for lam, n in zip(quotient.retained_eigenvalues, sizes)])
    )
    assert len(spectrum) == len(ref.retained_eigenvalues) == core.module.rank
    assert quotient.null_dim == ref.null_dim
    assert core.module.coord_dim == ref.support_rank
    assert quotient.warnings == ref.warnings
    assert abs(quotient.threshold - ref.threshold) <= REL * ref.threshold
    top = max(1.0, float(ref.retained_eigenvalues[-1]))
    assert np.abs(spectrum - ref.retained_eigenvalues).max() <= REL * top

    coord_map, class_embed = spanning_classes(core)
    lten = structure_constants(rho.source).transpose(0, 2, 1)
    eye_e = np.eye(rho.module.complex_dim)
    for i, phi in enumerate(core.representation.basis_values):
        descended = descend_reference(core, coord_map @ np.kron(lten[i], eye_e) @ class_embed)
        assert np.abs(descended - phi.flat).max() <= 1e-12


# -- former library code, kept as independent references ----------------------

# Convergence target of the Jacobi sweeps: off-diagonal Frobenius mass
# relative to the input's Frobenius norm.
JACOBI_OFFDIAG_TARGET = 1e-13
JACOBI_MAX_SWEEPS = 100


def _jacobi_rotate(h: np.ndarray, v: np.ndarray, p: int, q: int) -> None:
    """One complex Jacobi rotation zeroing h[p, q], accumulated into v."""
    apq = h[p, q]
    mod = abs(apq)
    if mod == 0.0:
        return
    phi = apq / mod
    tau = (h[q, q].real - h[p, p].real) / (2.0 * mod)
    if tau >= 0.0:
        t = -1.0 / (tau + np.sqrt(1.0 + tau * tau))
    else:
        t = 1.0 / (-tau + np.sqrt(1.0 + tau * tau))
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c

    # Unitary J = I except J[[p,q],[p,q]] = [[c, -s*phi], [s*conj(phi), c]].
    col_p = h[:, p].copy()
    col_q = h[:, q].copy()
    h[:, p] = c * col_p + s * np.conj(phi) * col_q
    h[:, q] = -s * phi * col_p + c * col_q
    row_p = h[p, :].copy()
    row_q = h[q, :].copy()
    h[p, :] = c * row_p + s * phi * row_q
    h[q, :] = -s * np.conj(phi) * row_p + c * row_q
    h[p, q] = 0.0
    h[q, p] = 0.0
    h[p, p] = h[p, p].real
    h[q, q] = h[q, q].real

    vol_p = v[:, p].copy()
    vol_q = v[:, q].copy()
    v[:, p] = c * vol_p + s * np.conj(phi) * vol_q
    v[:, q] = -s * phi * vol_p + c * vol_q


def _offdiag_frobenius(h: np.ndarray) -> float:
    return float(np.linalg.norm(h - np.diag(np.diag(h))))


def fix_phases_reference(vectors: np.ndarray) -> np.ndarray:
    """`linalg._fix_phases` one column at a time: each nonzero column is rotated
    so its first entry within 1e-8 of the column's max modulus is positive real."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        mags = np.abs(col)
        top = mags.max()
        if top == 0.0:
            continue
        pivot = int(np.argmax(mags > (1.0 - 1e-8) * top))
        phase = col[pivot] / abs(col[pivot])
        out[:, j] = col * np.conj(phase)
    return out


def jacobi_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic complex Jacobi diagonalization of a Hermitian matrix.

    Sweeps all (p, q) pivots, skipping entries already below the per-sweep
    threshold; converged when the off-diagonal Frobenius mass drops below
    1e-13 times the input Frobenius norm. Raises NumericalError after 100
    sweeps without convergence. Eigenvalues ascend and the eigenvector
    phases follow the library's rule (`linalg._fix_phases`).
    """
    from prostar.errors import NumericalError
    from prostar.linalg import _fix_phases, require_hermitian

    h = require_hermitian(h)
    n = h.shape[0]
    scale = max(float(np.linalg.norm(h)), 1.0)
    work = h.copy()
    v = np.eye(n, dtype=np.complex128)
    if n == 1:
        return work.real.reshape(1), v
    target = JACOBI_OFFDIAG_TARGET * scale
    for sweep in range(JACOBI_MAX_SWEEPS):
        off = _offdiag_frobenius(work)
        if off <= target:
            break
        # Rotating pivots already far below the remaining mass is wasted work.
        threshold = min(off / n, off)
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(work[p, q]) > threshold * 1e-3:
                    _jacobi_rotate(work, v, p, q)
    else:
        raise NumericalError(
            "Jacobi sweep limit reached without convergence",
            offdiag=_offdiag_frobenius(work),
            target=target,
            sweeps=JACOBI_MAX_SWEEPS,
        )
    vals = np.diag(work).real
    order = np.argsort(vals, kind="stable")
    return vals[order], _fix_phases(v[:, order])


def amplify(rho, n: int):
    """Entrywise application on n×n matrices over A, as a map M_n(A) -> L_B(E^n)."""
    from prostar.algebra import FiniteCStarAlgebra
    from prostar.cpmaps import CompletelyPositiveMap
    from prostar.modules import AdjointableOperator, HilbertModule

    big_source = FiniteCStarAlgebra(tuple(n * m for m in rho.source.block_sizes))
    big_module = HilbertModule.from_projection(
        rho.module.algebra,
        n * rho.module.rank,
        np.kron(np.eye(n, dtype=np.complex128), rho.module.projection_flat),
    )
    fd = rho.module.flat_dim
    values = []
    for k, m in enumerate(rho.source.block_sizes):
        for big_row in range(n * m):
            for big_col in range(n * m):
                i, u = divmod(big_row, m)
                j, v = divmod(big_col, m)
                flat = np.zeros((n * fd, n * fd), dtype=np.complex128)
                inner = rho.basis_values[rho.source.basis_index(k, u, v)].flat
                flat[i * fd : (i + 1) * fd, j * fd : (j + 1) * fd] = inner
                values.append(AdjointableOperator.from_flat(big_module, big_module, flat))
    return CompletelyPositiveMap(big_source, big_module, tuple(values))


def adjointability_residual(t) -> float:
    """Max over basis pairs of ||<T xi, eta> - <xi, T* eta>||."""
    tstar = t.adjoint()
    worst = 0.0
    for xi in t.domain.complex_basis:
        txi = t(xi)
        for eta in t.codomain.complex_basis:
            lhs = txi.inner(eta)
            rhs = xi.inner(tstar(eta))
            worst = max(worst, (lhs - rhs).operator_norm())
    return worst


def direct_form(ext, f):
    """The defining formula sum_g rho(f(g)) u_g of an extension, computed without
    the dilation."""
    from prostar.modules import AdjointableOperator

    rho, rep = ext.dilation.cp_map, ext.dilation.rep
    module = rho.module
    acc = np.zeros((module.flat_dim, module.flat_dim), dtype=np.complex128)
    for g in f.system.group.elements():
        acc += rho(f.values[g]).flat @ rep.unitaries[g].flat
    return AdjointableOperator.from_flat(module, module, acc)
