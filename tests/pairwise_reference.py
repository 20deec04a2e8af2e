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
