"""Standard-form finite-dimensional C*-algebras and their *-homomorphisms.

An algebra is a direct sum of full matrix blocks; elements carry one dense
complex block per summand. Arbitrary *-closed matrix algebras enter only
through `wedderburn_decompose`, which rewrites them in standard form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import linalg
from .errors import NumericalError, PreconditionError, StructuralError
from .linalg import DEFAULT_TOL


@dataclass(frozen=True)
class Check:
    """One verified identity: a residual against its threshold."""

    name: str
    residual: float
    threshold: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.residual <= self.threshold

    def __str__(self) -> str:
        mark = "ok" if self.passed else "FAIL"
        extra = f" [{self.detail}]" if self.detail else ""
        return (
            f"[{mark}] {self.name}: residual {self.residual:.3e}"
            f" (threshold {self.threshold:.3e}){extra}"
        )


@dataclass(frozen=True)
class VerificationReport:
    """A bundle of checks; passes iff every check passes."""

    subject: str
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        return max((c.residual for c in self.checks), default=0.0)

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def __str__(self) -> str:
        head = f"{self.subject}: {'PASS' if self.passed else 'FAIL'}"
        return "\n".join([head] + [f"  {c}" for c in self.checks])


class MatrixUnitRelations(NamedTuple):
    """Basis indices for the matrix-unit relations of a standard-form algebra.

    For each basis element E_a = E_ij, E_a = E_left[a] E_right[a] with
    E_left[a] = E_i1 and E_right[a] = E_1j. `row` and `col` list E^b_1j and
    E^b_j1, block by block, and table[s, t] is the index of E_row[s] E_col[t]:
    E^b_11 on the diagonal, -1 (zero) elsewhere.
    """

    left: np.ndarray
    right: np.ndarray
    row: np.ndarray
    col: np.ndarray
    table: np.ndarray


@dataclass(frozen=True)
class FiniteCStarAlgebra:
    """Direct sum of full matrix algebras, given by its block sizes."""

    block_sizes: tuple[int, ...]

    def __post_init__(self):
        if not self.block_sizes:
            raise StructuralError("an algebra needs at least one block")
        if any(int(n) != n or n < 1 for n in self.block_sizes):
            raise StructuralError(f"invalid block sizes {self.block_sizes}")
        object.__setattr__(self, "block_sizes", tuple(int(n) for n in self.block_sizes))

    @property
    def total_dim(self) -> int:
        """Side length of the block-diagonal embedding."""
        return sum(self.block_sizes)

    @property
    def linear_dim(self) -> int:
        return sum(n * n for n in self.block_sizes)

    @cached_property
    def block_offsets(self) -> tuple[int, ...]:
        """Row offsets of each block inside the dense embedding."""
        offs, acc = [], 0
        for n in self.block_sizes:
            offs.append(acc)
            acc += n
        return tuple(offs)

    @cached_property
    def coord_offsets(self) -> tuple[int, ...]:
        offs, acc = [], 0
        for n in self.block_sizes:
            offs.append(acc)
            acc += n * n
        return tuple(offs)

    @cached_property
    def product_table(self) -> np.ndarray:
        """idx[a, b] = basis index of E_a·E_b, or -1 when the product is zero.

        Within a block E_ij E_kl = δ_jk E_il; products across blocks vanish.
        """
        idx = np.full((self.linear_dim, self.linear_dim), -1, dtype=np.intp)
        for off, n in zip(self.coord_offsets, self.block_sizes):
            r = np.arange(n)
            i, j, l = r[:, None, None], r[None, :, None], r[None, None, :]
            idx[off + i * n + j, off + j * n + l] = off + i * n + l
        idx.setflags(write=False)
        return idx

    @cached_property
    def matrix_unit_relations(self) -> MatrixUnitRelations:
        """Index arrays of the relations E_ij = E_i1 E_1j and E^b_1j E^c_k1 = δ_bc δ_jk E^b_11,
        which present the algebra by its matrix units (read by `linalg.matrix_unit_bound`)."""
        left, right, row, col, unit = [], [], [], [], []
        for off, n in zip(self.coord_offsets, self.block_sizes):
            r = np.arange(n)
            left.append(np.repeat(off + r * n, n))
            right.append(np.tile(off + r, n))
            row.append(off + r)
            col.append(off + r * n)
            unit.append(np.full(n, off))
        unit = np.concatenate(unit)
        table = np.full((len(unit), len(unit)), -1, dtype=np.intp)
        np.fill_diagonal(table, unit)
        arrays = [np.concatenate(a).astype(np.intp) for a in (left, right, row, col)] + [table]
        for a in arrays:
            a.setflags(write=False)
        return MatrixUnitRelations(*arrays)

    @cached_property
    def adjoint_index(self) -> np.ndarray:
        """adj[a] = basis index of E_a*: E_ij* = E_ji within each block."""
        adj = np.empty(self.linear_dim, dtype=np.intp)
        for off, n in zip(self.coord_offsets, self.block_sizes):
            r = np.arange(n)
            adj[off + r[:, None] * n + r[None, :]] = off + r[None, :] * n + r[:, None]
        adj.setflags(write=False)
        return adj

    def structure_constants(self) -> np.ndarray:
        """Dense T[a, b, k]: the coefficient of E_k in E_a·E_b."""
        dim = self.linear_dim
        a, b = np.nonzero(self.product_table >= 0)
        out = np.zeros((dim, dim, dim), dtype=np.complex128)
        out[a, b, self.product_table[a, b]] = 1.0
        return out

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, tuple(np.zeros((n, n), dtype=np.complex128) for n in self.block_sizes))

    def unit(self) -> "AlgebraElement":
        return AlgebraElement(self, tuple(np.eye(n, dtype=np.complex128) for n in self.block_sizes))

    def basis_index(self, block: int, row: int, col: int) -> int:
        n = self.block_sizes[block]
        return self.coord_offsets[block] + row * n + col

    def basis_element(self, index: int) -> "AlgebraElement":
        coords = np.zeros(self.linear_dim, dtype=np.complex128)
        coords[index] = 1.0
        return self.from_coords(coords)

    def basis(self) -> Iterator["AlgebraElement"]:
        for i in range(self.linear_dim):
            yield self.basis_element(i)

    def from_blocks(self, blocks: Sequence) -> "AlgebraElement":
        if len(blocks) != len(self.block_sizes):
            raise StructuralError(
                f"expected {len(self.block_sizes)} blocks, got {len(blocks)}"
            )
        mats = []
        for n, b in zip(self.block_sizes, blocks):
            m = linalg.as_complex_matrix(b)
            if m.shape != (n, n):
                raise StructuralError(f"block shape {m.shape} does not match size {n}")
            mats.append(m)
        return AlgebraElement(self, tuple(mats))

    def from_coords(self, coords) -> "AlgebraElement":
        v = np.asarray(coords, dtype=np.complex128).reshape(-1)
        if v.shape[0] != self.linear_dim:
            raise StructuralError(f"coordinate length {v.shape[0]} != {self.linear_dim}")
        blocks = []
        for k, n in enumerate(self.block_sizes):
            off = self.coord_offsets[k]
            blocks.append(v[off : off + n * n].reshape(n, n).copy())
        return AlgebraElement(self, tuple(blocks))

    def from_dense(self, dense, *, check: bool = True, tol: float = DEFAULT_TOL) -> "AlgebraElement":
        """Slice an element out of the block-diagonal dense embedding."""
        m = linalg.as_complex_matrix(dense)
        if m.shape != (self.total_dim, self.total_dim):
            raise StructuralError(f"dense shape {m.shape} != {(self.total_dim,) * 2}")
        blocks, mask = [], np.zeros_like(m)
        for off, n in zip(self.block_offsets, self.block_sizes):
            blocks.append(m[off : off + n, off : off + n].copy())
            mask[off : off + n, off : off + n] = m[off : off + n, off : off + n]
        if check:
            leak = linalg.frobenius(m - mask)
            if leak > tol * max(1.0, linalg.frobenius(m)):
                raise StructuralError(f"dense matrix has off-block mass {leak:.3e}")
        return AlgebraElement(self, tuple(blocks))

    def random_element(self, rng: np.random.Generator) -> "AlgebraElement":
        return AlgebraElement(
            self, tuple(linalg.random_complex(rng, n, n) for n in self.block_sizes)
        )

    def dense_support_mask(self) -> np.ndarray:
        """0/1 mask of the block-diagonal support inside the dense embedding."""
        mask = np.zeros((self.total_dim, self.total_dim))
        for off, n in zip(self.block_offsets, self.block_sizes):
            mask[off : off + n, off : off + n] = 1.0
        return mask

    @cached_property
    def dense_support(self) -> np.ndarray:
        """Flat positions of the support inside the dense embedding, in coordinate
        order: row-major over a block-diagonal matrix is block by block, row-major."""
        support = np.flatnonzero(self.dense_support_mask())
        support.setflags(write=False)
        return support

    def dense_stack(self, coords: np.ndarray) -> np.ndarray:
        """Dense embeddings (..., D, D) of a stack of coordinates (..., linear_dim),
        by one scatter onto `dense_support`."""
        d = self.total_dim
        out = np.zeros(coords.shape[:-1] + (d * d,), dtype=np.complex128)
        out[..., self.dense_support] = coords
        return out.reshape(coords.shape[:-1] + (d, d))

    def coords_stack(self, dense: np.ndarray) -> np.ndarray:
        """Coordinates (..., linear_dim) of the block-diagonal parts of a stack
        (..., D, D), by one gather from `dense_support`."""
        return dense.reshape(dense.shape[:-2] + (-1,))[..., self.dense_support]

    def __str__(self) -> str:
        return "⊕".join(f"M{n}" for n in self.block_sizes)


@dataclass(frozen=True)
class AlgebraElement:
    """One element: a tuple of square complex blocks matching the algebra."""

    algebra: FiniteCStarAlgebra
    blocks: tuple[np.ndarray, ...]

    def _require_same(self, other: "AlgebraElement") -> None:
        if self.algebra != other.algebra:
            raise StructuralError(
                f"algebra mismatch: {self.algebra} vs {other.algebra}"
            )

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_same(other)
        return AlgebraElement(self.algebra, tuple(a + b for a, b in zip(self.blocks, other.blocks)))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_same(other)
        return AlgebraElement(self.algebra, tuple(a - b for a, b in zip(self.blocks, other.blocks)))

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, tuple(-a for a in self.blocks))

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._require_same(other)
            return AlgebraElement(
                self.algebra, tuple(a @ b for a, b in zip(self.blocks, other.blocks))
            )
        return AlgebraElement(self.algebra, tuple(a * complex(other) for a in self.blocks))

    def __rmul__(self, scalar) -> "AlgebraElement":
        return AlgebraElement(self.algebra, tuple(complex(scalar) * a for a in self.blocks))

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, tuple(a.conj().T for a in self.blocks))

    def coords(self) -> np.ndarray:
        return np.concatenate([b.ravel() for b in self.blocks])

    def dense(self) -> np.ndarray:
        return linalg.block_diag(list(self.blocks))

    def trace(self) -> complex:
        """Sum of all block traces; faithful on positives."""
        return complex(sum(np.trace(b) for b in self.blocks))

    def operator_norm(self) -> float:
        """Max over blocks of the largest singular value (top eigenvalue of a*a)."""
        return max(linalg.spectral_norm(b) for b in self.blocks)

    def frobenius(self) -> float:
        return float(np.sqrt(sum(linalg.frobenius(b) ** 2 for b in self.blocks)))

    def is_positive(self, tol: float = DEFAULT_TOL) -> "PositivityWitness":
        """Positivity with a witness: Hermitian within tol and spectrum >= -tol*(1+||a||)."""
        return self._positivity(tol)[0]

    def _positivity(self, tol: float) -> tuple["PositivityWitness", list]:
        """`is_positive`, with the eigendecomposition of each block's Hermitian
        part that it reads (`psd_sqrt` roots the same one)."""
        spectra = [
            linalg.hermitian_eigendecomposition((b + b.conj().T) / 2.0) for b in self.blocks
        ]
        scale = max(1.0, self.frobenius())
        defect = max(linalg.hermitian_defect(b) for b in self.blocks)
        herm = defect <= tol * scale
        min_eig = min(float(vals[0]) for vals, _ in spectra)
        floor = -tol * (1.0 + self.operator_norm())
        witness = PositivityWitness(herm and min_eig >= floor, float(min_eig), float(defect))
        return witness, spectra

    def psd_sqrt(self, tol: float = DEFAULT_TOL) -> "AlgebraElement":
        """Positive square root s with ||s*s - a|| <= 1e-9*(1+||a||); each block is
        eigendecomposed once, for the positivity witness and the root."""
        witness, spectra = self._positivity(tol)
        if not witness:
            raise PreconditionError(
                f"psd_sqrt needs a positive element; witness min eigenvalue {witness.min_eigenvalue:.3e}"
            )
        roots = tuple(linalg.psd_root(vals, vecs) for vals, vecs in spectra)
        s = AlgebraElement(self.algebra, roots)
        resid = (s * s - self).operator_norm()
        bound = 1e-9 * (1.0 + self.operator_norm())
        if resid > bound:
            raise NumericalError("psd_sqrt residual too large", residual=resid, bound=bound)
        return s

    def __str__(self) -> str:
        return f"element of {self.algebra}"


@dataclass(frozen=True)
class PositivityWitness:
    positive: bool
    min_eigenvalue: float
    hermitian_defect: float

    def __bool__(self) -> bool:
        return self.positive


@dataclass(frozen=True, eq=False)
class StarHomomorphism:
    """Linear map between standard-form algebras, in matrix-unit coordinates.

    `action_matrix` has shape (target.linear_dim, source.linear_dim) and is
    read-only. The tolerance-free data of its checks are computed once and
    cached on it; `verify_star_homomorphism` reports them at any `tol` and
    leaves the object unchanged.
    """

    source: FiniteCStarAlgebra
    target: FiniteCStarAlgebra
    action_matrix: np.ndarray

    def __post_init__(self):
        m = linalg.as_complex_matrix(self.action_matrix)
        if m.shape != (self.target.linear_dim, self.source.linear_dim):
            raise StructuralError(
                f"action matrix shape {m.shape} != "
                f"({self.target.linear_dim}, {self.source.linear_dim})"
            )
        object.__setattr__(self, "action_matrix", linalg.read_only(m))

    @classmethod
    def identity(cls, algebra: FiniteCStarAlgebra) -> "StarHomomorphism":
        return cls(algebra, algebra, np.eye(algebra.linear_dim, dtype=np.complex128))

    @classmethod
    def from_images(
        cls,
        source: FiniteCStarAlgebra,
        target: FiniteCStarAlgebra,
        images: Sequence[AlgebraElement],
    ) -> "StarHomomorphism":
        if len(images) != source.linear_dim:
            raise StructuralError("need one image per source basis element")
        cols = np.stack([im.coords() for im in images], axis=1)
        return cls(source, target, cols)

    @classmethod
    def conjugation_by(cls, algebra: FiniteCStarAlgebra, unitary_blocks: Sequence) -> "StarHomomorphism":
        """Inner automorphism a -> u a u* for a blockwise unitary u."""
        u = algebra.from_blocks(unitary_blocks)
        images = [u * b * u.adjoint() for b in algebra.basis()]
        return cls.from_images(algebra, algebra, images)

    @classmethod
    def block_projection(cls, source: FiniteCStarAlgebra, keep: Sequence[int]) -> "StarHomomorphism":
        """Project onto a sub-sum of blocks (a surjective *-homomorphism)."""
        keep = list(keep)
        target = FiniteCStarAlgebra(tuple(source.block_sizes[k] for k in keep))
        images = []
        for b in source.basis():
            images.append(target.from_blocks([b.blocks[k] for k in keep]))
        return cls.from_images(source, target, images)

    @classmethod
    def block_permutation(cls, algebra: FiniteCStarAlgebra, perm: Sequence[int]) -> "StarHomomorphism":
        """Permute equal-sized blocks: block i of the image is block perm[i] of the input."""
        perm = list(perm)
        sizes = algebra.block_sizes
        if sorted(perm) != list(range(len(sizes))) or any(
            sizes[i] != sizes[perm[i]] for i in range(len(sizes))
        ):
            raise StructuralError(f"invalid block permutation {perm} for {algebra}")
        images = [
            algebra.from_blocks([b.blocks[perm[i]] for i in range(len(sizes))])
            for b in algebra.basis()
        ]
        return cls.from_images(algebra, algebra, images)

    def apply(self, a: AlgebraElement) -> AlgebraElement:
        if a.algebra != self.source:
            raise StructuralError("element does not belong to the source algebra")
        return self.target.from_coords(self.action_matrix @ a.coords())

    def __call__(self, a: AlgebraElement) -> AlgebraElement:
        return self.apply(a)

    def compose(self, inner: "StarHomomorphism") -> "StarHomomorphism":
        """self ∘ inner."""
        if inner.target != self.source:
            raise StructuralError("composition shape mismatch")
        return StarHomomorphism(inner.source, self.target, self.action_matrix @ inner.action_matrix)

    @cached_property
    def _dense(self) -> np.ndarray:
        """The images of the source basis in the dense embedding of the target,
        shape (source.linear_dim, D, D): the action matrix's columns scattered
        there at once."""
        dense = self.target.dense_stack(self.action_matrix.T)
        dense.setflags(write=False)
        return dense

    @cached_property
    def _homomorphism_data(self) -> tuple[float, float, float]:
        """`verify_star_homomorphism`'s tolerance-free part: the matrix-unit
        bound of the multiplicative residual, and the star and unital residuals."""
        src, dense = self.source, self._dense
        mult = linalg.matrix_unit_bound(dense, src.matrix_unit_relations)
        star = linalg.max_frobenius(dense[src.adjoint_index] - dense.conj().transpose(0, 2, 1))
        unit_image = self.action_matrix @ src.unit().coords()
        unital = linalg.frobenius(unit_image - self.target.unit().coords())
        return mult, star, unital

    @cached_property
    def _exact_multiplicative(self) -> float:
        """The all-pairs multiplicative residual, formed when the bound says nothing."""
        dense = self._dense
        return linalg.max_product_residual(dense, dense, dense, self.source.product_table)

    @cached_property
    def _rank(self) -> int:
        """Rank of the action matrix (`linalg.matrix_rank`), shared by the
        surjectivity check and `is_bijective`."""
        return linalg.matrix_rank(self.action_matrix)

    @cached_property
    def _transfer_matrix(self) -> np.ndarray:
        """The map vec(dense block) -> vec(dense block) that the homomorphism induces.

        Matrix-unit coordinates sit in the dense embedding at the support
        positions in row-major order, so the transfer is the action matrix
        scattered onto those positions. It is read-only, and formed once.
        """
        transfer = np.zeros(
            (self.target.total_dim ** 2, self.source.total_dim ** 2), dtype=np.complex128
        )
        transfer[np.ix_(self.target.dense_support, self.source.dense_support)] = self.action_matrix
        transfer.setflags(write=False)
        return transfer

    def is_bijective(self) -> bool:
        if self.source.linear_dim != self.target.linear_dim:
            return False
        return self._rank == self.source.linear_dim

    def inverse(self) -> "StarHomomorphism":
        if not self.is_bijective():
            raise PreconditionError("homomorphism is not bijective")
        return StarHomomorphism(self.target, self.source, np.linalg.inv(self.action_matrix))


def verify_star_homomorphism(
    phi: StarHomomorphism, tol: float = DEFAULT_TOL, *, check_surjective: bool = True
) -> VerificationReport:
    """Check multiplicativity / star / unitality on the matrix-unit basis, surjectivity by rank.

    Images are compared in the dense block-diagonal embedding of the target,
    whose Frobenius norm is the blockwise one; all of them are scattered
    there at once from the columns of the action matrix. The multiplicative
    residual is the matrix-unit bound of every basis pair's
    ||phi(a)phi(b) - phi(ab)||_F (`linalg.matrix_unit_bound`) when that is
    at most `tol`; otherwise it is the all-pairs maximum itself
    (`linalg.max_product_residual`), so the decision is the all-pairs one at
    every `tol`. Since a_i* is the basis element `adjoint_index[i]`, the star
    check compares the image of that index with the adjoint of the image of
    i, for every i in one gather. Every residual and the rank are computed
    once and cached on `phi`; this only applies `tol` to them.
    """
    mult, star, unital = phi._homomorphism_data
    if not mult <= tol:
        mult = phi._exact_multiplicative
    checks = [
        Check("multiplicative", mult, tol),
        Check("star", star, tol),
        Check("unital", unital, tol),
    ]
    if check_surjective:
        checks.append(Check("surjective", float(phi.target.linear_dim - phi._rank), 0.5))
    return VerificationReport(f"*-homomorphism {phi.source} -> {phi.target}", tuple(checks))


# ---------------------------------------------------------------------------
# Wedderburn standardization of *-closed unital matrix algebras
# ---------------------------------------------------------------------------

SPLIT_GAP_TOL = 1e-6  # eigenvalue gaps, relative to the spread, that separate projections
SPLIT_RETRIES = 5  # random draws per spectral split or link before giving up


@dataclass(frozen=True, eq=False)
class WedderburnDecomposition:
    """A concrete *-closed span rewritten as a direct sum of matrix blocks.

    `matrix_units` stacks the images in M_N of the standard basis, in the
    standard form's coordinate order (block by block, E_ij row-major), so
    each direction of the change of basis is one product over the stack.
    `embedding` is the same map as a *-homomorphism into M_N; it realizes
    the inverse of `to_standard` on the span. `matrix_units` is read-only.
    """

    ambient_dim: int
    standard_form: FiniteCStarAlgebra
    matrix_units: np.ndarray  # (dim, N, N): the image of each standard basis element
    multiplicities: tuple[int, ...]
    embedding: StarHomomorphism
    report: VerificationReport

    def __post_init__(self):
        object.__setattr__(self, "matrix_units", linalg.read_only(self.matrix_units))

    def to_standard(self, x) -> np.ndarray:
        """Standard-form coordinates (..., dim) of a stack (..., N, N) in the span.

        The coefficient of E_ij is the pairing tr(f_ji x) / multiplicity with
        the unit f_ji, the image of E_ij* (`adjoint_index`).
        """
        return _to_standard(self.standard_form, self.matrix_units, self.multiplicities, x)


def _to_standard(standard, units, multiplicities, x) -> np.ndarray:
    """`WedderburnDecomposition.to_standard` from its parts."""
    n = units.shape[-1]
    pairing = units[standard.adjoint_index].reshape(-1, n * n)
    mult = np.repeat(multiplicities, np.square(standard.block_sizes))
    flat = np.swapaxes(x, -1, -2).reshape(x.shape[:-2] + (n * n,))
    return (flat @ pairing.T) / mult


def _orthonormal_span(stack: np.ndarray) -> np.ndarray:
    """Orthonormal (HS) basis of the span of a stack (k, N, N), as vec columns
    (singular values above `linalg.RANK_REL` times the largest)."""
    u, s, _ = np.linalg.svd(stack.reshape(len(stack), -1).T, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        raise PreconditionError("spanning set is zero")
    return u[:, s > linalg.RANK_REL * s[0]]


def _span_residuals(onb: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """||x - proj(x)||_F for each matrix x of a stack, proj the HS projection on the span."""
    v = stack.reshape(len(stack), -1).T
    return np.linalg.norm(v - onb @ (onb.conj().T @ v), axis=0)


def _cluster_by_gap(values: np.ndarray, gap: float) -> list[np.ndarray]:
    """Split ascending values into clusters at gaps larger than `gap`."""
    cuts = np.flatnonzero(np.diff(values) > gap) + 1
    return np.split(np.arange(len(values)), cuts)


def _spectral_split(span: np.ndarray, n_amb: int, count: int, rng) -> np.ndarray:
    """A stack of `count` eigenprojections of a random self-adjoint element of a span.

    `span` holds an orthonormal basis of vec'd N×N matrices as columns. Each
    try draws a complex Gaussian combination, takes its Hermitian part and
    clusters the eigenvalues at gaps above `SPLIT_GAP_TOL` times their spread.
    Clusters within that distance of 0 are dropped: a corner's ambient
    kernel shows up as one. A try succeeds when `count` clusters remain and
    each projection lies in the span (residual <= 1e-7); after `SPLIT_RETRIES`
    failed tries this raises NumericalError.
    """
    for _ in range(SPLIT_RETRIES):
        coeff = rng.standard_normal(span.shape[1]) + 1j * rng.standard_normal(span.shape[1])
        y = (span @ coeff).reshape(n_amb, n_amb)
        y = (y + y.conj().T) / 2.0
        y /= max(linalg.frobenius(y), 1e-30)
        vals, vecs = linalg.hermitian_eigendecomposition(y)
        floor = SPLIT_GAP_TOL * max(float(vals[-1] - vals[0]), 1.0)
        clusters = [
            idx for idx in _cluster_by_gap(vals, floor) if np.max(np.abs(vals[idx])) > floor
        ]
        if len(clusters) != count:
            continue
        projs = np.stack([vecs[:, idx] @ vecs[:, idx].conj().T for idx in clusters])
        if np.max(_span_residuals(span, projs)) <= 1e-7:
            return projs
    raise NumericalError(
        f"spectral split into {count} projections failed after {SPLIT_RETRIES} tries"
    )


def wedderburn_decompose(
    spanning_set: Sequence,
    *,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> WedderburnDecomposition:
    """Standardize a *-closed unital matrix algebra into block form.

    `spanning_set` is a sequence or a stack (k, N, N) of matrices. The span
    gets an orthonormal (HS) basis b_1..b_m, and the products b_i b_j are
    formed once, as one stack.

    Closure: with B the N²×m basis matrix and P the N²×m² products, the
    test is ||P − BB*P||_F <= min(tol, 1e-9). This never passes a span that
    the rank test rank[B | P] = m (singular values above 1e-9 of the
    largest) rejects. Put R = P − BB*P. [B | BB*P] has rank at most m, so
    by Eckart–Young σ_{m+1}[B | P] <= ||[0 | R]||_2 <= ||R||_F <= 1e-9,
    while σ_1[B | P] >= σ_1(B) = 1: the (m+1)-th singular value is not
    above 1e-9 of the largest. The first m are at least σ_m(B) = 1, which
    is above 1e-9·(m + 1) >= 1e-9·||[B | P]||_F for m < 10⁹ (each
    ||b_i b_j||_F <= 1), so exactly m count.

    Centre: with T[i, j, :] = B*(b_i b_j), the span coordinates of b_i b_j,
    z = sum_c x_c b_c commutes with every b_j iff
    sum_c x_c (T[c, j, :] − T[j, c, :]) = 0, so the centre is the kernel of
    that m²×m matrix (singular values up to 1e-9 of the largest, or of 1).

    Minimal central projections come from a seeded random self-adjoint
    central element, then each simple corner is split into minimal
    projections and linked into matrix units (`_spectral_split` for both,
    retried with fresh randomness when eigenvalue gaps fall under
    `SPLIT_GAP_TOL`).
    """
    try:
        mats = np.asarray(spanning_set, dtype=np.complex128)
    except ValueError as err:
        raise PreconditionError("spanning matrices must all be square of equal size") from err
    if mats.size == 0:
        raise PreconditionError("empty spanning set")
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise PreconditionError("spanning matrices must all be square of equal size")
    if not np.all(np.isfinite(mats)):
        raise PreconditionError("matrix contains NaN or Inf entries")
    n_amb = mats.shape[1]

    onb = _orthonormal_span(mats)
    dim = onb.shape[1]
    basis = onb.T.reshape(dim, n_amb, n_amb)
    scale = max(1.0, linalg.max_frobenius(mats))

    if np.max(_span_residuals(onb, mats.conj().transpose(0, 2, 1))) > tol * scale:
        raise PreconditionError("spanning set is not closed under adjoints")
    if _span_residuals(onb, np.eye(n_amb, dtype=np.complex128)[None])[0] > tol:
        raise PreconditionError("span does not contain the ambient identity")
    wide = basis.transpose(1, 0, 2).reshape(n_amb, dim * n_amb)
    products = (basis.reshape(dim * n_amb, n_amb) @ wide).reshape(dim, n_amb, dim, n_amb)
    products = products.transpose(0, 2, 1, 3).reshape(dim * dim, n_amb * n_amb).T
    coeffs = onb.conj().T @ products
    if linalg.frobenius(products - onb @ coeffs) > min(tol, 1e-9):
        raise PreconditionError("spanning set is not closed under multiplication")

    t = coeffs.T.reshape(dim, dim, dim)
    comm = (t - t.transpose(1, 0, 2)).transpose(1, 2, 0).reshape(dim * dim, dim)
    _, s, vh = np.linalg.svd(comm, full_matrices=False)
    null_dim = int(np.count_nonzero(s <= max(s[0], 1.0) * 1e-9))
    center = onb @ vh.conj().T[:, dim - null_dim :]

    rng = np.random.default_rng(seed)
    blocks = []
    for z in _spectral_split(center, n_amb, null_dim, rng):
        corner = _orthonormal_span(z @ basis @ z)
        m = math.isqrt(corner.shape[1])
        if m * m != corner.shape[1]:
            raise NumericalError("corner dimension is not a perfect square", dim=corner.shape[1])
        diag = _spectral_split(corner, n_amb, m, rng)
        blocks.append(_matrix_units(diag, corner, n_amb, rng))

    # Ascending block sizes, deterministic under the seed.
    blocks.sort(key=lambda b: b[0])
    standard = FiniteCStarAlgebra(tuple(b[0] for b in blocks))
    units = np.concatenate([b[2] for b in blocks])
    units.setflags(write=False)
    multiplicities = tuple(b[1] for b in blocks)
    embedding = StarHomomorphism(
        standard, FiniteCStarAlgebra((n_amb,)), units.reshape(len(units), -1).T
    )
    hom_report = verify_star_homomorphism(embedding, max(tol, 1e-8), check_surjective=False)
    injective = standard.linear_dim - embedding._rank
    back = np.tensordot(_to_standard(standard, units, multiplicities, basis), units, axes=1)
    checks = list(hom_report.checks) + [
        Check("dimension conservation", float(abs(standard.linear_dim - dim)), 0.5),
        Check("embedding injective", float(injective), 0.5),
        Check("span round trip", linalg.max_frobenius(back - basis), max(tol, 1e-8)),
    ]
    report = VerificationReport(f"Wedderburn -> {standard}", tuple(checks))
    if not report.passed:
        raise NumericalError(f"Wedderburn verification failed:\n{report}")
    return WedderburnDecomposition(n_amb, standard, units, multiplicities, embedding, report)


def _matrix_units(diag, corner, n_amb, rng) -> tuple[int, int, np.ndarray]:
    """(m, multiplicity, units) of one simple corner from its minimal projections.

    Partial isometries f_1i = diag[0]·c·diag[i], scaled, link the first
    projection to the others through generic corner elements c; the units
    f_1i*·f_1j come out as one (m², N, N) stack in row-major (i, j) order.
    """
    m = len(diag)
    mult = float(np.trace(diag[0]).real)
    if abs(mult - round(mult)) > 1e-6 or round(mult) < 1:
        raise NumericalError("non-integer block multiplicity", trace=mult)
    mult = int(round(mult))
    links = [diag[0]]
    for i in range(1, m):
        for _ in range(SPLIT_RETRIES):
            coeff = rng.standard_normal(corner.shape[1]) + 1j * rng.standard_normal(corner.shape[1])
            w = diag[0] @ (corner @ coeff).reshape(n_amb, n_amb) @ diag[i]
            if linalg.frobenius(w) > 1e-6:
                break
        else:
            raise NumericalError("could not link diagonal projections")
        f = w / np.sqrt(np.trace(w.conj().T @ w).real / mult)
        if linalg.frobenius(f.conj().T @ f - diag[i]) > 1e-7:
            raise NumericalError("partial isometry residual too large")
        links.append(f)
    row = np.stack(links)
    units = np.matmul(row.conj().transpose(0, 2, 1)[:, None], row[None])
    return m, mult, units.reshape(m * m, n_amb, n_amb)
