"""Standard-form finite-dimensional C*-algebras and their *-homomorphisms.

An algebra is a direct sum of full matrix blocks; elements carry one dense
complex block per summand. Arbitrary *-closed matrix algebras enter only
through `wedderburn_decompose`, which rewrites them in standard form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

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
        scale = max(1.0, self.frobenius())
        defect = max(linalg.hermitian_defect(b) for b in self.blocks)
        herm = defect <= tol * scale
        min_eig = np.inf
        for b in self.blocks:
            sym = (b + b.conj().T) / 2.0
            vals, _ = linalg.hermitian_eigendecomposition(sym)
            min_eig = min(min_eig, float(vals[0]))
        floor = -tol * (1.0 + self.operator_norm())
        return PositivityWitness(herm and min_eig >= floor, float(min_eig), float(defect))

    def psd_sqrt(self, tol: float = DEFAULT_TOL) -> "AlgebraElement":
        """Positive square root s with ||s*s - a|| <= 1e-9*(1+||a||)."""
        witness = self.is_positive(tol)
        if not witness:
            raise PreconditionError(
                f"psd_sqrt needs a positive element; witness min eigenvalue {witness.min_eigenvalue:.3e}"
            )
        roots = []
        for b in self.blocks:
            sym = (b + b.conj().T) / 2.0
            roots.append(linalg.psd_sqrt_matrix(sym))
        s = AlgebraElement(self.algebra, tuple(roots))
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


@dataclass
class StarHomomorphism:
    """Linear map between standard-form algebras, in matrix-unit coordinates.

    `action_matrix` has shape (target.linear_dim, source.linear_dim); the
    homomorphism identities are checked by `verify`, which returns its
    report and leaves the object unchanged.
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
        self.action_matrix = m

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

    def is_bijective(self, tol: float = 1e-9) -> bool:
        if self.source.linear_dim != self.target.linear_dim:
            return False
        return linalg.matrix_rank(self.action_matrix, rel_threshold=tol) == self.source.linear_dim

    def inverse(self) -> "StarHomomorphism":
        if not self.is_bijective():
            raise PreconditionError("homomorphism is not bijective")
        return StarHomomorphism(self.target, self.source, np.linalg.inv(self.action_matrix))

    def verify(self, tol: float = DEFAULT_TOL, *, check_surjective: bool = True) -> VerificationReport:
        return verify_star_homomorphism(self, tol, check_surjective=check_surjective)


def verify_star_homomorphism(
    phi: StarHomomorphism, tol: float = DEFAULT_TOL, *, check_surjective: bool = True
) -> VerificationReport:
    """Check multiplicativity / star / unitality on all basis pairs, surjectivity by rank.

    Images are compared in the dense block-diagonal embedding of the target,
    whose Frobenius norm is the blockwise one.
    """
    src = phi.source
    basis = list(src.basis())
    images = [phi.apply(b) for b in basis]
    dense = np.stack([im.dense() for im in images])
    mult = linalg.max_product_residual(dense, dense, dense, src.product_table)

    star = max(
        (phi.apply(a.adjoint()) - im.adjoint()).frobenius()
        for a, im in zip(basis, images)
    )
    unital = (phi.apply(src.unit()) - phi.target.unit()).frobenius()

    checks = [
        Check("multiplicative", mult, tol),
        Check("star", star, tol),
        Check("unital", unital, tol),
    ]
    if check_surjective:
        rank = linalg.matrix_rank(phi.action_matrix)
        checks.append(
            Check("surjective", float(phi.target.linear_dim - rank), 0.5)
        )
    return VerificationReport(f"*-homomorphism {src} -> {phi.target}", tuple(checks))


# ---------------------------------------------------------------------------
# Wedderburn standardization of *-closed unital matrix algebras
# ---------------------------------------------------------------------------


@dataclass
class WedderburnDecomposition:
    """A concrete *-closed span rewritten as a direct sum of matrix blocks.

    `embedding` maps the standard form into the ambient matrix algebra M_N and
    realizes the inverse of `to_standard` on the span.
    """

    ambient_dim: int
    standard_form: FiniteCStarAlgebra
    matrix_units: list[list[np.ndarray]]  # per block: row-major E_ij images in M_N
    multiplicities: tuple[int, ...]
    embedding: StarHomomorphism
    report: VerificationReport

    def from_standard(self, a: AlgebraElement) -> np.ndarray:
        if a.algebra != self.standard_form:
            raise StructuralError("element is not in the standard form algebra")
        out = np.zeros((self.ambient_dim, self.ambient_dim), dtype=np.complex128)
        for k, (units, block) in enumerate(zip(self.matrix_units, a.blocks)):
            n = self.standard_form.block_sizes[k]
            for i in range(n):
                for j in range(n):
                    if block[i, j] != 0.0:
                        out += block[i, j] * units[i * n + j]
        return out

    def to_standard(self, x) -> AlgebraElement:
        x = linalg.as_complex_matrix(x)
        blocks = []
        for k, units in enumerate(self.matrix_units):
            n = self.standard_form.block_sizes[k]
            mult = self.multiplicities[k]
            block = np.empty((n, n), dtype=np.complex128)
            for i in range(n):
                for j in range(n):
                    # coefficient of E_ij: HS pairing against the unit f_ij
                    block[i, j] = np.trace(units[j * n + i] @ x) / mult
            blocks.append(block)
        return self.standard_form.from_blocks(blocks)


def _vec(m: np.ndarray) -> np.ndarray:
    return m.ravel()


def _orthonormal_span(mats: Sequence[np.ndarray], rel: float = 1e-9) -> np.ndarray:
    """Orthonormal (HS) basis of the span, as stacked vec columns."""
    stack = np.stack([_vec(m) for m in mats], axis=1)
    u, s, _ = np.linalg.svd(stack, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        raise PreconditionError("spanning set is zero")
    keep = s > rel * s[0]
    return u[:, keep]


def _span_residual(onb: np.ndarray, m: np.ndarray) -> float:
    v = _vec(m)
    proj = onb @ (onb.conj().T @ v)
    return float(np.linalg.norm(v - proj))


def _cluster_by_gap(values: np.ndarray, gap: float) -> list[np.ndarray]:
    """Split ascending values into clusters at gaps larger than `gap`."""
    clusters, start = [], 0
    for i in range(1, len(values)):
        if values[i] - values[i - 1] > gap:
            clusters.append(np.arange(start, i))
            start = i
    clusters.append(np.arange(start, len(values)))
    return clusters


def wedderburn_decompose(
    spanning_set: Sequence,
    *,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    gap_tol: float = 1e-6,
    retries: int = 5,
) -> WedderburnDecomposition:
    """Standardize a *-closed unital matrix algebra into block form.

    Orthonormalizes the span, extracts minimal central projections from a
    seeded random self-adjoint central element, then builds matrix units per
    simple block. Retries with fresh randomness when eigenvalue gaps fall
    under `gap_tol`.
    """
    mats = [linalg.as_complex_matrix(m) for m in spanning_set]
    if not mats:
        raise PreconditionError("empty spanning set")
    n_amb = mats[0].shape[0]
    if any(m.shape != (n_amb, n_amb) for m in mats):
        raise PreconditionError("spanning matrices must all be square of equal size")

    onb = _orthonormal_span(mats)
    dim = onb.shape[1]
    basis_mats = [onb[:, i].reshape(n_amb, n_amb) for i in range(dim)]
    scale = max(1.0, max(linalg.frobenius(m) for m in mats))

    # *-closure, unitality, and product closure (rank stabilization).
    for m in mats:
        if _span_residual(onb, m.conj().T) > tol * scale:
            raise PreconditionError("spanning set is not closed under adjoints")
    if _span_residual(onb, np.eye(n_amb, dtype=np.complex128)) > tol:
        raise PreconditionError("span does not contain the ambient identity")
    products = [a @ b for a in basis_mats for b in basis_mats]
    grown = np.concatenate(
        [onb, np.stack([_vec(p) for p in products], axis=1)], axis=1
    )
    if linalg.matrix_rank(grown) != dim:
        raise PreconditionError("spanning set is not closed under multiplication")

    # Center: kernel of c -> [X(c), basis_j] over span coordinates.
    comm_cols = []
    for i in range(dim):
        x = basis_mats[i]
        comm_cols.append(np.concatenate([_vec(x @ b - b @ x) for b in basis_mats]))
    comm = np.stack(comm_cols, axis=1)
    # Right-singular vectors suffice for the kernel; comm is tall, so
    # full_matrices=False still returns all of them.
    _, s, vh = np.linalg.svd(comm, full_matrices=False)
    cutoff = max(s[0], 1.0) * 1e-9 if s.size else 0.0
    null_dim = int(np.count_nonzero(s <= cutoff)) + (dim - len(s))
    center_coeffs = vh.conj().T[:, dim - null_dim :]
    n_blocks = center_coeffs.shape[1]

    rng = np.random.default_rng(seed)
    last_error = None
    for _ in range(retries):
        try:
            coeff = center_coeffs @ (
                rng.standard_normal(n_blocks) + 1j * rng.standard_normal(n_blocks)
            )
            central = (onb @ coeff).reshape(n_amb, n_amb)
            central = (central + central.conj().T) / 2.0
            central /= max(linalg.frobenius(central), 1e-30)
            if _span_residual(onb, central) > 1e-8:
                raise NumericalError("symmetrized central element left the span")
            vals, vecs = linalg.hermitian_eigendecomposition(central)
            spread = max(float(vals[-1] - vals[0]), 1.0)
            clusters = _cluster_by_gap(vals, gap_tol * spread)
            if len(clusters) != n_blocks:
                raise NumericalError(
                    "central element did not separate the blocks",
                    clusters=len(clusters),
                    expected=n_blocks,
                )
            projections = []
            for idx in clusters:
                cols = vecs[:, idx]
                proj = cols @ cols.conj().T
                if _span_residual(onb, proj) > 1e-7:
                    raise NumericalError("central eigenprojection left the span")
                projections.append(proj)
            return _build_blocks(
                n_amb, onb, basis_mats, projections, rng, tol, gap_tol, retries
            )
        except NumericalError as err:
            last_error = err
    raise NumericalError(
        f"Wedderburn center separation failed after {retries} retries: {last_error}"
    )


def _minimal_projections(
    corner_onb: np.ndarray,
    n_amb: int,
    block_dim: int,
    rng: np.random.Generator,
    gap_tol: float,
    retries: int,
) -> list[np.ndarray]:
    """Diagonal matrix units of one simple corner, from a generic element."""
    m = int(round(np.sqrt(block_dim)))
    if m * m != block_dim:
        raise NumericalError("corner dimension is not a perfect square", dim=block_dim)
    for _ in range(retries):
        coeff = rng.standard_normal(block_dim) + 1j * rng.standard_normal(block_dim)
        y = (corner_onb @ coeff).reshape(n_amb, n_amb)
        y = (y + y.conj().T) / 2.0
        y /= max(linalg.frobenius(y), 1e-30)
        vals, vecs = linalg.hermitian_eigendecomposition(y)
        spread = max(float(vals[-1] - vals[0]), 1.0)
        # Ambient kernel of the corner shows up as a zero cluster; drop it.
        clusters = [
            idx
            for idx in _cluster_by_gap(vals, gap_tol * spread)
            if np.max(np.abs(vals[idx])) > gap_tol * spread
        ]
        sizes = {len(idx) for idx in clusters}
        if len(clusters) != m or len(sizes) != 1:
            continue
        projs = []
        ok = True
        for idx in clusters:
            cols = vecs[:, idx]
            proj = cols @ cols.conj().T
            if _span_residual(corner_onb, proj) > 1e-7:
                ok = False
                break
            projs.append(proj)
        if ok:
            return projs
    raise NumericalError("failed to split a simple corner into minimal projections")


def _build_blocks(n_amb, onb, basis_mats, central_projs, rng, tol, gap_tol, retries):
    blocks = []
    for z in central_projs:
        corner_mats = [z @ b @ z for b in basis_mats]
        corner_onb = _orthonormal_span(corner_mats)
        block_dim = corner_onb.shape[1]
        diag = _minimal_projections(corner_onb, n_amb, block_dim, rng, gap_tol, retries)
        m = len(diag)
        mult = float(np.trace(diag[0]).real)
        if abs(mult - round(mult)) > 1e-6 or round(mult) < 1:
            raise NumericalError("non-integer block multiplicity", trace=mult)
        mult = int(round(mult))

        # Partial isometries f_1i via generic corner elements.
        f_row = [diag[0]]
        for i in range(1, m):
            w = None
            for _ in range(retries):
                coeff = rng.standard_normal(block_dim) + 1j * rng.standard_normal(block_dim)
                cand = (corner_onb @ coeff).reshape(n_amb, n_amb)
                w_try = diag[0] @ cand @ diag[i]
                norm = linalg.frobenius(w_try)
                if norm > 1e-6:
                    w = w_try
                    break
            if w is None:
                raise NumericalError("could not link diagonal projections")
            c = np.trace(w.conj().T @ w).real / mult
            f = w / np.sqrt(c)
            if linalg.frobenius(f.conj().T @ f - diag[i]) > 1e-7:
                raise NumericalError("partial isometry residual too large")
            f_row.append(f)

        units = [None] * (m * m)
        for i in range(m):
            for j in range(m):
                units[i * m + j] = f_row[i].conj().T @ f_row[j]
        blocks.append((m, mult, units))

    # Ascending block sizes, deterministic under the seed.
    blocks.sort(key=lambda t: t[0])
    sizes = tuple(b[0] for b in blocks)
    mults = tuple(b[1] for b in blocks)
    standard = FiniteCStarAlgebra(sizes)
    unit_list = [b[2] for b in blocks]

    decomp = WedderburnDecomposition(
        ambient_dim=n_amb,
        standard_form=standard,
        matrix_units=unit_list,
        multiplicities=mults,
        embedding=None,  # filled below
        report=None,
    )
    ambient_alg = FiniteCStarAlgebra((n_amb,))
    images = [
        ambient_alg.from_dense(decomp.from_standard(b), check=False)
        for b in standard.basis()
    ]
    decomp.embedding = StarHomomorphism.from_images(standard, ambient_alg, images)
    hom_report = decomp.embedding.verify(max(tol, 1e-8), check_surjective=False)

    dim = onb.shape[1]
    dim_check = Check("dimension conservation", float(abs(standard.linear_dim - dim)), 0.5)
    injective = Check(
        "embedding injective",
        float(standard.linear_dim - linalg.matrix_rank(decomp.embedding.action_matrix)),
        0.5,
    )
    round_trip = 0.0
    for b in basis_mats:
        back = decomp.from_standard(decomp.to_standard(b))
        round_trip = max(round_trip, linalg.frobenius(back - b))
    checks = list(hom_report.checks) + [
        dim_check,
        injective,
        Check("span round trip", round_trip, max(tol, 1e-8)),
    ]
    decomp.report = VerificationReport(f"Wedderburn -> {standard}", tuple(checks))
    if not decomp.report.passed:
        raise NumericalError(f"Wedderburn verification failed:\n{decomp.report}")
    return decomp
