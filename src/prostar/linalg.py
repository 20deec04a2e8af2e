"""Dense complex-matrix kernels: one Hermitian eigensolver and positive-matrix helpers.

Everything downstream (norms, positivity tests, square roots, Wedderburn
standardization, quotient constructions) funnels through
`hermitian_eigendecomposition`, LAPACK's `eigh` with its contract checked:
ascending eigenvalues, deterministic eigenvector phases, and a verified
reconstruction residual.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NumericalError, PreconditionError

DEFAULT_TOL = 1e-10

EIGH_CHECK_REL = 1e-10  # residual contract of `hermitian_eigendecomposition`
RANK_REL = 1e-9  # singular values at or below this times the largest count as zero

# Bytes of pairwise products formed at once by `max_product_residual`; peak
# memory stays near a small multiple of this whatever the number of pairs.
PRODUCT_CHUNK_BYTES = 64 * 2**20


def as_complex_matrix(data) -> np.ndarray:
    """Coerce to a finite 2-d complex128 array."""
    m = np.asarray(data, dtype=np.complex128)
    if m.ndim != 2:
        raise PreconditionError(f"expected a matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise PreconditionError("matrix contains NaN or Inf entries")
    return m


def read_only(array: np.ndarray) -> np.ndarray:
    """`array` if neither it nor the buffer it views can be written, else a
    read-only copy of the same layout: a caller's own buffer is never frozen."""
    base = array.base if isinstance(array.base, np.ndarray) else array
    if array.flags.writeable or base.flags.writeable:
        array = array.copy(order="K")
        array.setflags(write=False)
    return array


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def hermitian_defect(m: np.ndarray) -> float:
    """Frobenius distance to the Hermitian part."""
    return frobenius(m - m.conj().T) / 2.0


def require_hermitian(m: np.ndarray, rel_tol: float = 1e-12) -> np.ndarray:
    m = as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise PreconditionError(f"matrix is {m.shape}, not square")
    scale = max(frobenius(m), 1.0)
    defect = hermitian_defect(m)
    if defect > rel_tol * scale:
        raise PreconditionError(
            f"matrix is not Hermitian: defect {defect:.3e} > {rel_tol:.1e}*{scale:.3e}"
        )
    return (m + m.conj().T) / 2.0


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its first significant entry is positive real.

    Makes eigenbases reproducible across runs and BLAS builds; the pivot is
    the first entry within 1e-8 of the column's max modulus. Zero columns are
    left as they are. All columns are rotated at once, bit for bit as one
    column at a time: the pivot's modulus is taken by `np.hypot`, which rounds
    as the scalar `abs` of one entry does, and the phases multiply as a (1, k)
    row, because NumPy multiplies a (1, 1) array by a (1,) one without the
    fused multiply-add it uses for a column times a scalar.
    """
    out = vectors.copy()
    mags = np.abs(vectors)
    top = mags.max(axis=0, initial=0.0)
    cols = np.flatnonzero(top > 0.0)
    pivot = np.argmax(mags[:, cols] > (1.0 - 1e-8) * top[cols], axis=0)
    lead = vectors[pivot, cols]
    out[:, cols] = vectors[:, cols] * np.conj(lead / np.hypot(lead.real, lead.imag))[None, :]
    return out


def hermitian_eigendecomposition(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a Hermitian matrix by LAPACK; returns (ascending values,
    unitary columns with `_fix_phases` phases).

    Verifies the reconstruction residual ||U diag(w) U* - h||_F <= EIGH_CHECK_REL*||h||_F
    and ||U*U - I||_F <= EIGH_CHECK_REL before returning.
    """
    h = require_hermitian(h)
    vals, vecs = np.linalg.eigh(h)
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    vecs = _fix_phases(vecs[:, order])

    scale = max(frobenius(h), 1.0)
    recon = frobenius((vecs * vals) @ vecs.conj().T - h)
    ortho = frobenius(vecs.conj().T @ vecs - np.eye(h.shape[0]))
    if recon > EIGH_CHECK_REL * scale or ortho > EIGH_CHECK_REL:
        raise NumericalError(
            "eigendecomposition failed its residual contract",
            reconstruction=recon,
            orthogonality=ortho,
            scale=scale,
        )
    return vals, vecs


def spectral_norm(m: np.ndarray) -> float | np.ndarray:
    """Largest singular value of a matrix, or of each matrix of a stack (..., r, c),
    by one batched SVD. A 2-d input returns a float."""
    m = np.asarray(m, dtype=np.complex128)
    if not np.all(np.isfinite(m)):
        raise PreconditionError("matrix contains NaN or Inf entries")
    if m.size == 0:
        top = np.zeros(m.shape[:-2])
    else:
        top = np.linalg.svd(m, compute_uv=False)[..., 0]
    return float(top) if m.ndim == 2 else top


def min_eigenvalue(h) -> float:
    vals, _ = hermitian_eigendecomposition(h)
    return float(vals[0])


def psd_sqrt_matrix(h) -> np.ndarray:
    """Square root of a (near-)PSD Hermitian matrix; negative eigenvalues count as zero."""
    return psd_root(*hermitian_eigendecomposition(h))


def psd_root(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """The square root U·sqrt(max(Λ, 0))·U* from an eigendecomposition (Λ, U)."""
    return (vecs * np.sqrt(np.where(vals > 0.0, vals, 0.0))) @ vecs.conj().T


def matrix_rank(m) -> int:
    """Rank by singular values above RANK_REL times the largest one."""
    m = as_complex_matrix(m)
    if m.size == 0:
        return 0
    svals = np.linalg.svd(m, compute_uv=False)
    top = float(svals[0]) if svals.size else 0.0
    if top == 0.0:
        return 0
    return int(np.count_nonzero(svals > RANK_REL * top))


def max_product_residual(
    left: np.ndarray,
    right: np.ndarray,
    values: np.ndarray,
    coeffs: np.ndarray,
    basis: np.ndarray | None = None,
) -> float:
    """max over all pairs (a, b) of ||left[a] right[b] - sum_k T[a, b, k] values[k]||_F.

    `left` is (m, d, d), `right` (n, d, d) and `values` (K, d, d), all
    complex. `coeffs` gives T either densely, shape (m, n, K), or as an
    integer table of shape (m, n) naming the one k with T[a, b, k] = 1, with
    -1 where T[a, b] = 0 (the form of matrix-unit structure constants).

    Rows a are taken a few at a time, so memory stays near chunk·n·d²
    entries instead of m·n·d²: each chunk is one product
    (chunk·d × d) @ (d × n·d), and the expected side is gathered or
    contracted from the chunk's rows of T only.

    With `basis`, a (d, p) isometry U whose range holds the stacks (the
    range of a module projection P = UU*), the pairs are multiplied as the
    p×p corners (`corner_product_residual`), and the result is an upper
    bound of the full residual.
    """
    if basis is None:
        return _streamed_residual(left, right, values, coeffs)
    lc = corner(left, basis)
    rc = lc if right is left else corner(right, basis)
    wc = lc if values is left else corner(values, basis)
    return corner_product_residual(lc, rc, wc, coeffs)


class Corner(NamedTuple):
    """A stack X on the range of P = UU*: its corners Y = U*XU, a bound c of
    max ||X - UYU*||_F (the corner defect) and a bound f of max ||X||_op
    (`corner` takes max ||X||_F, which is one)."""

    y: np.ndarray
    c: float
    f: float


def corner(stack: np.ndarray, basis: np.ndarray | None) -> Corner:
    """The corners U*XU of each X of a stack (m, d, d), with c and f taken
    exactly. Without a basis (P = 1) the corners are the stack itself and c = 0."""
    if basis is None:
        return Corner(stack, 0.0, max_frobenius(stack))
    m, d, _ = stack.shape
    p = basis.shape[1]
    basis_h = basis.conj().T
    y = basis_h @ (stack.reshape(m * d, d) @ basis).reshape(m, d, p)
    # Taken directly: ||X||² - ||Y||² would cancel to about sqrt(eps)·||X||.
    defect = stack - (basis @ y) @ basis_h
    return Corner(y, max_frobenius(defect), max_frobenius(stack))


def product_slack(
    c_l: float, f_l: float, c_r: float, f_r: float, t: float = 0.0, c_w: float = 0.0
) -> float:
    """c_L·f_R + f_L·c_R + t·c_W: how far ||L R - sum_k t_k W_k||_F can move when
    every factor is replaced by its corner P·X·P.

    Write X' = P·X·P, so ||X - X'||_F <= c_X and ||X'||_op <= ||X||_op <= f_X
    (a compression does not grow the norm). Then

        LR - L'R' = (L - L')R + L'(R - R'),

    and ||AB||_F <= ||A||_F·||B||_op and ||AB||_F <= ||A||_op·||B||_F, so
    ||LR - L'R'||_F <= c_L·f_R + f_L·c_R; the linear side moves by at most
    t·c_W with t = sum_k |t_k|. By the triangle inequality the full and the
    corner residuals differ by at most this sum, in either direction. A
    product is itself a factor with c = product_slack(c_L, f_L, c_R, f_R)
    and f = f_L·f_R, which is how the slack of a longer product is built.
    """
    return c_l * f_r + f_l * c_r + t * c_w


def corner_product_residual(left: Corner, right: Corner, values: Corner, coeffs) -> float:
    """`max_product_residual` of the stacks behind three corners: the pairs are
    multiplied as p×p corners and `product_slack` is added, with t the
    largest coefficient sum max_{a,b} sum_k |T[a, b, k]|. The result bounds
    the full residual from above and exceeds it by at most twice the slack."""
    if np.issubdtype(coeffs.dtype, np.integer):
        t = float(np.any(coeffs >= 0))
    else:
        t = float(np.max(np.sum(np.abs(coeffs), axis=2)))
    inner = _streamed_residual(left.y, right.y, values.y, coeffs)
    return inner + product_slack(left.c, left.f, right.c, right.f, t, values.c)


def matrix_unit_bound(stack: np.ndarray, relations, basis: np.ndarray | None = None) -> float:
    """An upper bound of `max_product_residual(stack, stack, stack, product_table,
    basis)` for a stack X of values on the matrix units of a standard-form
    source, from dim + (Σn)² products instead of dim².

    `relations` is the source's `matrix_unit_relations` (left, right, row,
    col, table). Write X_ij = X(E^b_ij) for the units of one block b and put

        r1 = max_ij ||X_ij - X_i1 X_1j||_F            (every basis element),
        r2 = max ||X^b_1j X^c_k1 - δ_bc δ_jk X^b_11||_F (first row × first column),

    the first a batched product through the index arrays `left` and `right`,
    the second `_streamed_residual` with the integer table `table`. With
    f >= max ||X||_op, every pair of basis elements has

        ||X_ij X_kl - δ_jk X_il||_F <= (1 + f)²·r1 + f²·r2.

    Proof: write e_ij = X_ij - X_i1 X_1j and e'_jk = X_1j X_k1 - δ_jk X_11.
    Then X_ij X_kl = e_ij X_kl + X_i1 X_1j e_kl + X_i1 X_1j X_k1 X_1l, and
    X_i1 X_1j X_k1 X_1l = X_i1 e'_jk X_1l + δ_jk X_i1 X_11 X_1l. Since
    e_i1 = X_i1 - X_i1 X_11 (E_i1 = E_i1 E_11), X_i1 X_11 X_1l =
    X_i1 X_1l - e_i1 X_1l = X_il - e_il - e_i1 X_1l. So

        X_ij X_kl - δ_jk X_il
            = e_ij X_kl + X_i1 X_1j e_kl + X_i1 e'_jk X_1l - δ_jk (e_il + e_i1 X_1l),

    and ||AB||_F <= ||A||_op ||B||_F <= ||A||_F ||B||_F bounds the terms by
    f·r1, f²·r1, f²·r2 and r1 + f·r1. Across blocks b ≠ c the product
    should vanish; the same expansion with δ = 0 gives f²·r2 + (f² + f)·r1,
    which is smaller.

    On a non-free module (`basis` given) the relations are taken on the
    corners Y = U*XU, whose norms are at most those of X, and
    `product_slack(c, f, c, f, 1, c)` is added exactly as
    `corner_product_residual` adds it, so the result also bounds the corner
    residual that `max_product_residual` reports. f is max ||X||_F, which
    `corner` returns.
    """
    y, c, f = corner(stack, basis)
    left, right, row, col, table = relations
    r1 = max_frobenius(y[left] @ y[right] - y)
    r2 = _streamed_residual(y[row], y[col], y, table)
    return (1.0 + f) ** 2 * r1 + f * f * r2 + product_slack(c, f, c, f, 1.0, c)


def frobenius_each(stack: np.ndarray) -> np.ndarray:
    """||X||_F of each matrix X (the last two axes) of a stack, shape stack.shape[:-2]."""
    parts = np.ascontiguousarray(stack, dtype=np.complex128).view(np.float64)
    parts = parts.reshape(*stack.shape[:-2], -1)
    return np.sqrt(np.einsum("...j,...j->...", parts, parts))


def max_frobenius(stack: np.ndarray) -> float:
    """max ||X||_F over a stack of matrices, of any number of stacking axes."""
    return float(np.max(frobenius_each(stack)))


def _streamed_residual(left, right, values, coeffs) -> float:
    # A gather keeps the memory layout of `values`; the squared norms below
    # read each difference as contiguous float pairs.
    values = np.ascontiguousarray(values)
    m, d, _ = left.shape
    n = right.shape[0]
    wide = right.transpose(1, 0, 2).reshape(d, n * d)
    chunk = max(1, PRODUCT_CHUNK_BYTES // max(1, n * d * d * 16))
    gather = np.issubdtype(coeffs.dtype, np.integer)
    worst = 0.0
    for start in range(0, m, chunk):
        rows = slice(start, min(start + chunk, m))
        c = rows.stop - start
        prod = (left[rows].reshape(c * d, d) @ wide).reshape(c, d, n, d).transpose(0, 2, 1, 3)
        if gather:
            idx = coeffs[rows]
            expected = values[np.maximum(idx, 0)]
            expected[idx < 0] = 0.0
        else:
            expected = np.tensordot(coeffs[rows], values, axes=([2], [0]))
        diff = np.subtract(prod, expected, out=expected)
        parts = diff.view(np.float64).reshape(c * n, 2 * d * d)
        worst = max(worst, float(np.max(np.einsum("ij,ij->i", parts, parts))))
    return float(np.sqrt(worst))


def block_diag(blocks: list[np.ndarray]) -> np.ndarray:
    """Dense block-diagonal assembly."""
    sizes_r = [b.shape[0] for b in blocks]
    sizes_c = [b.shape[1] for b in blocks]
    out = np.zeros((sum(sizes_r), sum(sizes_c)), dtype=np.complex128)
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def random_complex(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    m = random_complex(rng, n, n)
    return (m + m.conj().T) / 2.0
