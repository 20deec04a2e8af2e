"""Dense complex-matrix kernels: Hermitian eigensolvers and positive-matrix helpers.

Everything downstream (norms, positivity tests, square roots, Wedderburn
standardization, quotient constructions) funnels through
`hermitian_eigendecomposition`, so its contract is the load-bearing one:
ascending eigenvalues, deterministic eigenvector phases, and a verified
reconstruction residual.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NumericalError, PreconditionError

DEFAULT_TOL = 1e-10

# Convergence target for the Jacobi sweep loop: off-diagonal Frobenius mass
# relative to the input's Frobenius norm.
JACOBI_OFFDIAG_TARGET = 1e-13
JACOBI_MAX_SWEEPS = 100

EIGH_CHECK_REL = 1e-10  # residual contract of `hermitian_eigendecomposition`

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
    the first entry within 1e-8 of the column's max modulus.
    """
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
    return frobenius(h - np.diag(np.diag(h)))


def jacobi_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic complex Jacobi diagonalization of a Hermitian matrix.

    Sweeps all (p, q) pivots, skipping entries already below the per-sweep
    threshold; converged when the off-diagonal Frobenius mass drops below
    1e-13 times the input Frobenius norm. Raises NumericalError after 100
    sweeps without convergence.
    """
    h = require_hermitian(h)
    n = h.shape[0]
    scale = max(frobenius(h), 1.0)
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


def hermitian_eigendecomposition(h, *, engine: str = "lapack") -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a Hermitian matrix; returns (ascending values, unitary columns).

    Verifies the reconstruction residual ||U diag(w) U* - h||_F <= EIGH_CHECK_REL*||h||_F
    and ||U*U - I||_F <= EIGH_CHECK_REL before returning.
    """
    h = require_hermitian(h)
    if engine == "jacobi":
        vals, vecs = jacobi_eigh(h)
    elif engine == "lapack":
        vals, vecs = np.linalg.eigh(h)
        order = np.argsort(vals, kind="stable")
        vals = vals[order]
        vecs = _fix_phases(vecs[:, order])
    else:
        raise PreconditionError(f"unknown eigensolver engine {engine!r}")

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


def psd_function(h, fn, *, floor: float = 0.0) -> np.ndarray:
    """Apply a scalar function to the spectrum of a (near-)PSD Hermitian matrix.

    Eigenvalues below `floor` are clamped to zero before `fn` is applied.
    """
    vals, vecs = hermitian_eigendecomposition(h)
    clipped = np.where(vals > floor, vals, 0.0)
    return (vecs * fn(clipped)) @ vecs.conj().T


def psd_sqrt_matrix(h, *, floor: float = 0.0) -> np.ndarray:
    return psd_function(h, np.sqrt, floor=floor)


def support_projection(h, *, rel_threshold: float = 1e-12) -> tuple[np.ndarray, int]:
    """Orthogonal projection onto the significant eigenspace of a PSD matrix.

    Returns (projection, rank); eigenvalues <= rel_threshold * max eigenvalue
    (with an absolute floor of 1e-14) count as zero.
    """
    vals, vecs = hermitian_eigendecomposition(h)
    top = max(float(vals[-1]), 0.0) if vals.size else 0.0
    cut = max(rel_threshold * top, 1e-14)
    keep = vals > cut
    rank = int(np.count_nonzero(keep))
    basis = vecs[:, keep]
    return basis @ basis.conj().T, rank


def matrix_rank(m, *, rel_threshold: float = 1e-9) -> int:
    """Rank by singular values relative to the largest one."""
    m = as_complex_matrix(m)
    if m.size == 0:
        return 0
    svals = np.linalg.svd(m, compute_uv=False)
    top = float(svals[0]) if svals.size else 0.0
    if top == 0.0:
        return 0
    return int(np.count_nonzero(svals > rel_threshold * top))


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
