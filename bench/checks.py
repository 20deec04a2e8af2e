"""Output checks made with the benchmark's own numpy arithmetic.

Every check recomputes a defining identity from dense matrices (products of
algebra elements are formed from their blocks here, not by prostar) or
compares against a property the construction must have. Each returns a list
of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import json
import re

import numpy as np

from prostar.crossed import ConvolutionElement

REL_TOL = 1e-8  # relative Frobenius residual allowed for an identity
RANK_REL = 1e-9  # Gram eigenvalues below this share of the largest are null
CHOI_TOL = 1e-9  # smallest Choi eigenvalue allowed, as prostar certifies

# Degrees of the irreducible representations (Serre, section 2.6).
CHARACTER_DEGREES = {"trivial": (1,), "z2": (1, 1), "z3": (1, 1, 1), "s3": (1, 1, 2)}


def character_degrees(group_name: str) -> tuple[int, ...]:
    """Irreducible degrees of a named group; `zN` is cyclic of order N."""
    if group_name in CHARACTER_DEGREES:
        return CHARACTER_DEGREES[group_name]
    return (1,) * int(group_name[1:])


# -- dense helpers ------------------------------------------------------------


def random_blocks(rng: np.random.Generator, sizes) -> list[np.ndarray]:
    return [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in sizes]


def coords(blocks) -> np.ndarray:
    return np.concatenate([np.asarray(b).ravel() for b in blocks])


def blocks_of(vec: np.ndarray, sizes) -> list[np.ndarray]:
    out, off = [], 0
    for n in sizes:
        out.append(np.asarray(vec[off : off + n * n]).reshape(n, n))
        off += n * n
    return out


def multiply(x, y) -> list[np.ndarray]:
    return [a @ b for a, b in zip(x, y)]


def adjoint(x) -> list[np.ndarray]:
    return [a.conj().T for a in x]


def matrix_units(sizes) -> list[list[np.ndarray]]:
    """Block lists of the matrix units, in prostar's coordinate order."""
    units = []
    for k, n in enumerate(sizes):
        for r in range(n):
            for c in range(n):
                unit = [np.zeros((m, m), dtype=np.complex128) for m in sizes]
                unit[k][r, c] = 1.0
                units.append(unit)
    return units


def evaluate(values: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """A linear map given by its basis values, at coordinates `vec`."""
    return np.tensordot(vec, values, axes=(0, 0))


def value_tensor(cp_map) -> np.ndarray:
    return np.stack([op.flat for op in cp_map.basis_values], axis=0)


def residual(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want) / (1.0 + np.linalg.norm(want)))


def _expect(failures: list, name: str, value: float, tol: float = REL_TOL) -> None:
    if not value <= tol:
        failures.append(f"{name}: residual {value:.3e} > {tol:.1e}")


def group_inverses(table: np.ndarray) -> np.ndarray:
    n = table.shape[0]
    e = next(g for g in range(n) if np.array_equal(table[g], np.arange(n)))
    return np.array([int(np.nonzero(table[g] == e)[0][0]) for g in range(n)])


# -- dilate-grid --------------------------------------------------------------


def check_dilation_identity(rho, d, a) -> list[str]:
    """V* Phi(a) V = rho(a)."""
    x = coords(a)
    v = d.connector.flat
    lhs = v.conj().T @ evaluate(value_tensor(d.representation), x) @ v
    failures: list[str] = []
    _expect(failures, "V* Phi(a) V = rho(a)", residual(lhs, evaluate(value_tensor(rho), x)))
    return failures


def check_representation(d, a, b) -> list[str]:
    """Phi(ab) = Phi(a) Phi(b), with ab formed from dense blocks, and Phi(a*) = Phi(a)*."""
    phi = value_tensor(d.representation)
    pa, pb = evaluate(phi, coords(a)), evaluate(phi, coords(b))
    failures: list[str] = []
    _expect(failures, "Phi(ab) = Phi(a)Phi(b)", residual(evaluate(phi, coords(multiply(a, b))), pa @ pb))
    _expect(failures, "Phi(a*) = Phi(a)*", residual(evaluate(phi, coords(adjoint(a))), pa.conj().T))
    return failures


def check_group_unitaries(d, action, rep) -> list[str]:
    """v_g v_h = v_gh and v_g V = V u_g for all g, h."""
    table = np.asarray(action.group.cayley)
    vs = [u.flat for u in d.group_unitaries.unitaries]
    us = [u.flat for u in rep.unitaries]
    v = d.connector.flat
    law = max(residual(vs[g] @ vs[h], vs[table[g, h]]) for g in range(len(vs)) for h in range(len(vs)))
    inter = max(residual(vs[g] @ v, v @ us[g]) for g in range(len(vs)))
    failures: list[str] = []
    _expect(failures, "v_g v_h = v_gh", law)
    _expect(failures, "v_g V = V u_g", inter)
    return failures


def module_spanning_set(module) -> np.ndarray:
    """P (e_i . u) over coordinates i and matrix units u of B, as (count, flat_dim, D)."""
    sizes = module.algebra.block_sizes
    big_d = module.algebra.total_dim
    out = []
    for i in range(module.rank):
        for unit in matrix_units(sizes):
            flat = np.zeros((module.flat_dim, big_d), dtype=np.complex128)
            off = 0
            for blk in unit:
                n = blk.shape[0]
                flat[i * big_d + off : i * big_d + off + n, off : off + n] = blk
                off += n
            out.append(module.projection_flat @ flat)
    return np.stack(out, axis=0)


def gram_rank(rho) -> int:
    """numpy rank of the scalar Gram [tr <xi_s, rho(a_i* a_j) xi_t>]."""
    sizes = rho.source.block_sizes
    units = matrix_units(sizes)
    prods = np.stack([[coords(multiply(adjoint(ai), aj)) for aj in units] for ai in units])
    values = np.tensordot(prods, value_tensor(rho), axes=(2, 0))  # (i, j, fd, fd)
    xi = module_spanning_set(rho.module)
    gram = np.einsum("spa,ijpq,tqa->isjt", xi.conj(), values, xi, optimize=True)
    n = len(units) * xi.shape[0]
    gram = gram.reshape(n, n)
    eig = np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)
    return int(np.count_nonzero(eig > RANK_REL * max(eig[-1], 0.0)))


def check_minimality(rho, d) -> list[str]:
    """dim E_rho equals the numpy rank of the Gram matrix."""
    rank, dim = gram_rank(rho), d.module.complex_dim
    return [] if rank == dim else [f"minimality: Gram rank {rank} != dim E_rho {dim}"]


def check_uniqueness(d1, d2, u) -> list[str]:
    """U is unitary between the two dilation modules and W = U V."""
    uf = u.flat
    failures: list[str] = []
    _expect(failures, "U*U = 1", residual(uf.conj().T @ uf, d1.module.projection_flat))
    _expect(failures, "UU* = 1", residual(uf @ uf.conj().T, d2.module.projection_flat))
    _expect(failures, "W = UV", residual(uf @ d1.connector.flat, d2.connector.flat))
    return failures


# -- crossed products (inputs of extend-grid) -------------------------------


def predicted_blocks(algebra_sizes, group_name: str) -> tuple[int, ...]:
    """A⋊G ≅ A⊗C*(G) for an inner action: blocks n_i·d_pi."""
    return tuple(sorted(n * deg for n in algebra_sizes for deg in character_degrees(group_name)))


def check_dimension(xp, action) -> list[str]:
    """dim A⋊G = |G|·dim A."""
    got = xp.standard_algebra.linear_dim
    want = action.group.order * sum(n * n for n in action.algebra.block_sizes)
    return [] if got == want else [f"dimension {got} != |G|·dim A = {want}"]


def check_blocks(xp, action, group_name: str) -> list[str]:
    """Standard-form blocks match the A⊗C*(G) prediction."""
    got = tuple(xp.standard_algebra.block_sizes)
    want = predicted_blocks(action.algebra.block_sizes, group_name)
    return [] if got == want else [f"blocks {got} != predicted {want}"]


def convolve(action, f, h) -> list[list[np.ndarray]]:
    """(f*h)(s) = sum_t f(t) alpha_t(h(t^-1 s)), from dense blocks and action matrices."""
    sizes = action.algebra.block_sizes
    table = np.asarray(action.group.cayley)
    inv = group_inverses(table)
    mats = [auto.action_matrix for auto in action.automorphisms]
    out = []
    for s in range(len(f)):
        acc = [np.zeros((n, n), dtype=np.complex128) for n in sizes]
        for t in range(len(f)):
            moved = blocks_of(mats[t] @ coords(h[table[inv[t], s]]), sizes)
            acc = [x + y for x, y in zip(acc, multiply(f[t], moved))]
        out.append(acc)
    return out


def check_convolution(xp, action, f, h) -> list[str]:
    """embedding(f)·embedding(h) = embedding(f*h), and the same in standard form."""
    alg = xp.system.algebra

    def element(values):
        return ConvolutionElement(xp.system, tuple(alg.from_blocks(v) for v in values))

    fh = convolve(action, f, h)
    ef, eh, efh = (xp.embed(element(v)) for v in (f, h, fh))
    failures: list[str] = []
    _expect(failures, "embedding(f)embedding(h) = embedding(f*h)", residual(ef @ eh, efh))
    sf, sh, sfh = (xp.standardize(element(v)).blocks for v in (f, h, fh))
    _expect(failures, "standard form multiplicative", residual(coords(multiply(sf, sh)), coords(sfh)))
    return failures


# -- extend-grid --------------------------------------------------------------


def check_spanning(ext, xp, rho, rep, a) -> list[str]:
    """phi(delta_g a) = rho(a) u_g for every g."""
    phi = value_tensor(ext.standard_map)
    rho_a = evaluate(value_tensor(rho), coords(a))
    elem = xp.system.algebra.from_blocks(a)
    worst = 0.0
    for g, u in enumerate(rep.unitaries):
        y = xp.standardize(ConvolutionElement.delta(xp.system, g, elem)).coords()
        worst = max(worst, residual(evaluate(phi, y), rho_a @ u.flat))
    failures: list[str] = []
    _expect(failures, "phi(delta_g a) = rho(a) u_g", worst)
    return failures


def check_unital(ext, xp) -> list[str]:
    """phi(1) = id_E."""
    y = xp.standardize(ConvolutionElement.unit(xp.system)).coords()
    got = evaluate(value_tensor(ext.standard_map), y)
    failures: list[str] = []
    _expect(failures, "phi(1) = id_E", residual(got, ext.standard_map.module.projection_flat))
    return failures


def check_choi(ext) -> list[str]:
    """eigvalsh of each Choi block of phi on the standard form is at least -tol."""
    vals = value_tensor(ext.standard_map)
    fd = vals.shape[1]
    failures: list[str] = []
    off = 0
    for k, n in enumerate(ext.standard_map.source.block_sizes):
        choi = vals[off : off + n * n].reshape(n, n, fd, fd).transpose(0, 2, 1, 3).reshape(n * fd, n * fd)
        off += n * n
        _expect(failures, f"Choi block {k} Hermitian", residual(choi, choi.conj().T))
        low = float(np.linalg.eigvalsh((choi + choi.conj().T) / 2.0)[0])
        if low < -CHOI_TOL:
            failures.append(f"Choi block {k}: smallest eigenvalue {low:.3e} < -{CHOI_TOL:.0e}")
    return failures


# -- scenario-recipes ---------------------------------------------------------

EXPECTED_BLOCKS = {"z2-swap-crossed": [2], "s3-group-algebra": [1, 1, 2]}
_TEXT_TIMING = re.compile(r"\(\d+\.\d+s\)")


def check_report(recipe: str, status: int, report: dict) -> list[str]:
    """Exit status 0, every residual at or below its threshold, known blocks."""
    failures = [] if status == 0 else [f"exit status {status}"]
    for task in report["tasks"]:
        for r in task["residuals"]:
            if not (r["passed"] and r["value"] <= r["threshold"]):
                failures.append(f"{task['name']}: {r['name']} {r['value']!r} > {r['threshold']!r}")
    if recipe in EXPECTED_BLOCKS:
        blocks = [t["dimensions"].get("crossed_product_blocks") for t in report["tasks"]]
        if EXPECTED_BLOCKS[recipe] not in blocks:
            failures.append(f"blocks {blocks} lack {EXPECTED_BLOCKS[recipe]}")
    return failures


def without_timing(json_text: str, text: str) -> str:
    """The JSON and text reports with their timing fields removed."""
    doc = json.loads(json_text)
    for task in doc["tasks"]:
        task.pop("timing_s", None)
    return json.dumps(doc, sort_keys=True) + "\n" + _TEXT_TIMING.sub("", text)
