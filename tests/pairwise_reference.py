"""Exhaustive pairwise reference for the certificates that check all basis pairs.

This is how the library computed them before the streamed kernel
`linalg.max_product_residual`: one `AlgebraElement` product (or convolution)
per pair of basis elements, then dense products compared entrywise on the
full flats of the module. The only change is that the dense products are
formed one left factor at a time, so the largest grid instance fits in
memory; each pair's arithmetic is the same. `gram_reference` keeps the
pairwise loop of `dilation.gram_operator` in the same way.

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
"""

from __future__ import annotations

import numpy as np

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


def _max_residual(left, right, values, coeffs) -> float:
    worst = 0.0
    for a in range(left.shape[0]):
        products = np.matmul(left[a][None], right)
        expected = np.tensordot(coeffs[a], values, axes=([1], [0]))
        worst = max(worst, float(np.max(np.sum(np.abs(products - expected) ** 2, axis=(1, 2)))))
    return float(np.sqrt(worst))


def representation_residual(rho) -> float:
    """max ||rho(a_i) rho(a_j) - rho(a_i a_j)||_F over basis pairs."""
    vals = rho._value_tensor
    return _max_residual(vals, vals, vals, structure_constants(rho.source))


def twisted_residual(phi, v, action) -> float:
    """max over g, i, j of ||Phi(a_i) v_g Phi(a_j) v_g* - Phi(a_i alpha_g(a_j))||_F."""
    phi_tensor = phi._value_tensor
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


def convolution_residual(xp) -> float:
    """max ||embed(f) embed(h) - embed(f x h)||_F over the spanning pairs."""
    basis = xp.conv_basis()
    emb = np.stack([xp.embed(f) for f in basis])
    m = len(basis)
    conv_coords = np.zeros((m, m, m), dtype=np.complex128)
    for i, f in enumerate(basis):
        for j, h in enumerate(basis):
            conv_coords[i, j] = f.convolve(h).coords()
    return _max_residual(emb, emb, emb, conv_coords)


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


def hermiticity_reference(rho) -> float:
    """max ||rho(a_i*) - rho(a_i)*||_F, evaluating rho on each adjoint."""
    return max(
        float(np.linalg.norm(rho(a.adjoint()).flat - rho(a).flat.conj().T))
        for a in rho.source.basis()
    )


def covariance_reference(rho, action, rep) -> tuple[float, str]:
    """max ||rho(alpha_g(a_i)) - u_g rho(a_i) u_g*||_F and its (g, i), pair by pair."""
    worst, witness = 0.0, ""
    for g in action.group.elements():
        ug = rep.unitaries[g].flat
        for i, a in enumerate(rho.source.basis()):
            lhs = rho(action.apply(g, a)).flat
            rhs = ug @ rho.basis_values[i].flat @ ug.conj().T
            r = float(np.linalg.norm(lhs - rhs))
            if r > worst:
                worst, witness = r, f"g={g}, basis #{i}"
    return worst, witness


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
        return AdjointableOperator(eq, eq, _push_reference(hom, op.flat, eq.rank, eq.rank))

    return (
        CompletelyPositiveMap(rho.source, eq, tuple(push(op) for op in rho.basis_values)),
        UnitaryRepresentation(u.group, eq, tuple(push(op) for op in u.unitaries)),
    )


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
        m = cores[q]._coord_map @ np.kron(np.eye(dim_a), y) @ cores[p]._class_embed
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
        mapped = np.hstack([fq.element_from_coords(m[:, k]).flat for k in range(m.shape[1])])
        h_p = cores[p]._sqrt_flat @ cores[p]._sqrt_flat
        rhs = _push_reference(hom, h_p, fp.rank, fp.rank)
        gram_sq = max(gram_sq, float(np.linalg.norm(mapped.conj().T @ mapped - rhs)))
        surj = max(surj, float(fq.complex_dim - matrix_rank(m, rel_threshold=1e-9)))
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
