"""Hilbert modules over a finite-dimensional C*-algebra and their adjointable maps.

A module is a projective summand P·B^n. Elements are columns over B and
operators are matrices over B, both stored through the dense block-diagonal
embedding of B: an element is an (n·D)×D complex matrix, an operator an
(m·D)×(n·D) one, where D is the embedding size of B. Inner products,
composition, adjoints and norms then reduce to plain matrix algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import linalg
from .algebra import AlgebraElement, Check, FiniteCStarAlgebra, VerificationReport
from .errors import StructuralError
from .linalg import DEFAULT_TOL


def _tile_mask(mask: np.ndarray, rows: int, cols: int) -> np.ndarray:
    return np.tile(mask, (rows, cols))


@dataclass(frozen=True, eq=False)
class HilbertModule:
    """P·B^n for a self-adjoint idempotent P in the n×n matrices over B.

    Every array it holds or caches is read-only.
    """

    algebra: FiniteCStarAlgebra
    rank: int
    projection_flat: np.ndarray
    # Optional: flats of a known complex basis (skips the generic scan).
    basis_flats: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        if self.rank < 1:
            raise StructuralError("module rank must be positive")
        d = self.flat_dim
        p = linalg.as_complex_matrix(self.projection_flat)
        if p.shape != (d, d):
            raise StructuralError(f"projection shape {p.shape} != {(d, d)}")
        object.__setattr__(self, "projection_flat", linalg.read_only(p))
        if self.basis_flats is not None:
            object.__setattr__(self, "basis_flats", tuple(map(linalg.read_only, self.basis_flats)))
        # Written as `not (defect <= bound)` so that an overflow to inf or NaN
        # in the residuals or the scale rejects the projection.
        with np.errstate(over="ignore", invalid="ignore"):
            bound = 1e-9 * max(1.0, linalg.frobenius(p))
            idem = linalg.frobenius(p @ p - p)
            herm = linalg.hermitian_defect(p)
        if not (np.isfinite(bound) and idem <= bound and herm <= bound):
            raise StructuralError("range projection is not a self-adjoint idempotent")
        self._check_b_structure(p, self.rank, self.rank)

    @classmethod
    def free(cls, algebra: FiniteCStarAlgebra, rank: int) -> "HilbertModule":
        d = algebra.total_dim * rank
        return cls(algebra, rank, np.eye(d, dtype=np.complex128))

    @property
    def block_dim(self) -> int:
        return self.algebra.total_dim

    @property
    def flat_dim(self) -> int:
        return self.rank * self.algebra.total_dim

    @property
    def is_free(self) -> bool:
        return bool(np.allclose(self.projection_flat, np.eye(self.flat_dim), atol=1e-12))

    @cached_property
    def range_basis(self) -> np.ndarray | None:
        """Orthonormal columns U with UU* = P (read-only), or None when P = 1.

        Every operator of L_B(E) is a corner P·X·P, so products of operators
        can be formed as the rank(P)-sided corners U*XU.
        """
        if self.is_free:
            return None
        p = self.projection_flat
        vals, vecs = linalg.hermitian_eigendecomposition((p + p.conj().T) / 2.0)
        basis = np.ascontiguousarray(vecs[:, vals > 0.5])
        basis.setflags(write=False)
        return basis

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        return (
            isinstance(other, HilbertModule)
            and self.algebra == other.algebra
            and self.rank == other.rank
            and np.allclose(self.projection_flat, other.projection_flat, atol=1e-12)
        )

    def _check_b_structure(self, flat: np.ndarray, rows: int, cols: int, tol: float = 1e-10):
        mask = _tile_mask(self.algebra.dense_support_mask(), rows, cols)
        leak = linalg.frobenius(flat * (1.0 - mask))
        if not (leak <= tol * max(1.0, linalg.frobenius(flat))):
            raise StructuralError(f"matrix has {leak:.3e} mass outside the base algebra")

    # -- elements ----------------------------------------------------------

    def element_from_entries(self, entries: Sequence) -> "ModuleElement":
        """Build from n coordinates, each an AlgebraElement of B (or raw blocks)."""
        if len(entries) != self.rank:
            raise StructuralError(f"expected {self.rank} coordinates, got {len(entries)}")
        flats = []
        for e in entries:
            if isinstance(e, AlgebraElement):
                if e.algebra != self.algebra:
                    raise StructuralError("coordinate in the wrong algebra")
                flats.append(e.dense())
            else:
                flats.append(self.algebra.from_blocks(e).dense())
        return ModuleElement(self, np.vstack(flats))

    def element_from_flat(self, flat) -> "ModuleElement":
        flat = linalg.as_complex_matrix(flat)
        if flat.shape != (self.flat_dim, self.block_dim):
            raise StructuralError(
                f"flat element shape {flat.shape} != {(self.flat_dim, self.block_dim)}"
            )
        return ModuleElement(self, flat)

    def random_element(self, rng: np.random.Generator) -> "ModuleElement":
        entries = [self.algebra.random_element(rng) for _ in range(self.rank)]
        raw = self.element_from_entries(entries)
        return self.element_from_flat(self.projection_flat @ raw.flat)

    # -- complex-linear view -----------------------------------------------

    @cached_property
    def complex_basis(self) -> tuple["ModuleElement", ...]:
        """A C-linear basis of the module viewed as a complex vector space.

        Candidates P·(e_i · b_mu) are scanned in coordinate-major order and a
        maximal independent subset is kept; for a free module this is exactly
        the canonical basis e_i · b_mu.
        """
        if self.basis_flats is not None:
            return tuple(ModuleElement(self, f) for f in self.basis_flats)
        candidates = []
        for i in range(self.rank):
            for mu in range(self.algebra.linear_dim):
                b = self.algebra.basis_element(mu)
                flat = np.zeros((self.flat_dim, self.block_dim), dtype=np.complex128)
                flat[i * self.block_dim : (i + 1) * self.block_dim, :] = b.dense()
                candidate = self.projection_flat @ flat
                candidate.setflags(write=False)
                candidates.append(candidate)
        if self.is_free:
            return tuple(ModuleElement(self, f) for f in candidates)
        kept, kept_vecs = [], []
        for f in candidates:
            v = f.ravel()
            if kept_vecs:
                stack = np.stack(kept_vecs, axis=1)
                v_res = v - stack @ np.linalg.lstsq(stack, v, rcond=None)[0]
            else:
                v_res = v
            if np.linalg.norm(v_res) > 1e-9 * max(1.0, np.linalg.norm(v)):
                kept.append(f)
                kept_vecs.append(v)
        return tuple(ModuleElement(self, f) for f in kept)

    @property
    def complex_dim(self) -> int:
        return len(self.complex_basis)

    @cached_property
    def _basis_stack(self) -> np.ndarray:
        stack = np.stack([b.flat.ravel() for b in self.complex_basis], axis=1)
        stack.setflags(write=False)
        return stack

    @property
    def basis_tensor(self) -> np.ndarray:
        """The complex basis as one stack of flats, shape (complex_dim, flat_dim, block_dim)."""
        return self._basis_stack.T.reshape(-1, self.flat_dim, self.block_dim)

    @cached_property
    def _basis_pinv(self) -> np.ndarray:
        pinv = np.linalg.pinv(self._basis_stack)
        pinv.setflags(write=False)
        return pinv

    def coords_of(self, xi: "ModuleElement") -> np.ndarray:
        if xi.module != self:
            raise StructuralError("element belongs to a different module")
        return self._basis_pinv @ xi.flat.ravel()

    def identity_operator(self) -> "AdjointableOperator":
        return AdjointableOperator(self, self, self.projection_flat)

    def operators(self, flats) -> tuple["AdjointableOperator", ...]:
        """Endomorphisms of the module, one for each matrix of a stack of flats."""
        return tuple(AdjointableOperator(self, self, f) for f in flats)

    def __str__(self) -> str:
        kind = "free" if self.is_free else "projective"
        return f"{kind} module of rank {self.rank} over {self.algebra}"


@dataclass(eq=False)
class ModuleElement:
    """A column over B, stored as its (n·D)×D dense stacking."""

    module: HilbertModule
    flat: np.ndarray

    @property
    def coordinates(self) -> list[AlgebraElement]:
        d = self.module.block_dim
        return [
            self.module.algebra.from_dense(self.flat[i * d : (i + 1) * d, :], check=False)
            for i in range(self.module.rank)
        ]

    def _require_same(self, other: "ModuleElement") -> None:
        if self.module != other.module:
            raise StructuralError("module mismatch")

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        self._require_same(other)
        return ModuleElement(self.module, self.flat + other.flat)

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        self._require_same(other)
        return ModuleElement(self.module, self.flat - other.flat)

    def __neg__(self) -> "ModuleElement":
        return ModuleElement(self.module, -self.flat)

    def __mul__(self, b) -> "ModuleElement":
        """Right action by an algebra element (or a scalar)."""
        if isinstance(b, AlgebraElement):
            if b.algebra != self.module.algebra:
                raise StructuralError("algebra mismatch in module action")
            return ModuleElement(self.module, self.flat @ b.dense())
        return ModuleElement(self.module, self.flat * complex(b))

    def __rmul__(self, scalar) -> "ModuleElement":
        return ModuleElement(self.module, complex(scalar) * self.flat)

    def inner(self, other: "ModuleElement") -> AlgebraElement:
        """B-valued inner product, conjugate-linear in self."""
        self._require_same(other)
        return self.module.algebra.from_dense(self.flat.conj().T @ other.flat, check=False)

    def norm(self) -> float:
        return float(np.sqrt(max(self.inner(self).operator_norm(), 0.0)))


@dataclass(frozen=True, eq=False)
class AdjointableOperator:
    """A module map, stored as its flattened (m·D)×(n·D) complex matrix (read-only)."""

    domain: HilbertModule
    codomain: HilbertModule
    flat: np.ndarray

    def __post_init__(self):
        if self.domain.algebra != self.codomain.algebra:
            raise StructuralError("operators require a common base algebra")
        f = linalg.as_complex_matrix(self.flat)
        expect = (self.codomain.flat_dim, self.domain.flat_dim)
        if f.shape != expect:
            raise StructuralError(f"operator shape {f.shape} != {expect}")
        object.__setattr__(self, "flat", linalg.read_only(f))

    @classmethod
    def from_entries(
        cls, domain: HilbertModule, codomain: HilbertModule, entries
    ) -> "AdjointableOperator":
        """Build from an m×n array of AlgebraElement values of B."""
        d = domain.block_dim
        m, n = codomain.rank, domain.rank
        flat = np.zeros((m * d, n * d), dtype=np.complex128)
        for i in range(m):
            for j in range(n):
                e = entries[i][j]
                dense = e.dense() if isinstance(e, AlgebraElement) else domain.algebra.from_blocks(e).dense()
                flat[i * d : (i + 1) * d, j * d : (j + 1) * d] = dense
        return cls(domain, codomain, flat)

    @classmethod
    def from_complex_matrix(
        cls, domain: HilbertModule, codomain: HilbertModule, matrix
    ) -> "AdjointableOperator":
        """Promote a complex m×n matrix entrywise to multiples of the unit of B."""
        m = linalg.as_complex_matrix(matrix)
        if m.shape != (codomain.rank, domain.rank):
            raise StructuralError(f"matrix shape {m.shape} != {(codomain.rank, domain.rank)}")
        flat = np.kron(m, np.eye(domain.block_dim, dtype=np.complex128))
        flat = codomain.projection_flat @ flat @ domain.projection_flat
        return cls(domain, codomain, flat)

    def entry(self, i: int, j: int) -> AlgebraElement:
        d = self.domain.block_dim
        return self.domain.algebra.from_dense(
            self.flat[i * d : (i + 1) * d, j * d : (j + 1) * d], check=False
        )

    def __call__(self, xi: ModuleElement) -> ModuleElement:
        if xi.module != self.domain:
            raise StructuralError("element is not in the operator domain")
        return ModuleElement(self.codomain, self.flat @ xi.flat)

    def compose(self, inner_op: "AdjointableOperator") -> "AdjointableOperator":
        """self ∘ inner_op."""
        if inner_op.codomain != self.domain:
            raise StructuralError("composition shape mismatch")
        return AdjointableOperator(inner_op.domain, self.codomain, self.flat @ inner_op.flat)

    def __matmul__(self, other: "AdjointableOperator") -> "AdjointableOperator":
        return self.compose(other)

    def adjoint(self) -> "AdjointableOperator":
        return AdjointableOperator(self.codomain, self.domain, self.flat.conj().T)

    def __add__(self, other: "AdjointableOperator") -> "AdjointableOperator":
        if other.domain != self.domain or other.codomain != self.codomain:
            raise StructuralError("operator shape mismatch")
        return AdjointableOperator(self.domain, self.codomain, self.flat + other.flat)

    def __sub__(self, other: "AdjointableOperator") -> "AdjointableOperator":
        return self + (-other)

    def __neg__(self) -> "AdjointableOperator":
        return AdjointableOperator(self.domain, self.codomain, -self.flat)

    def __mul__(self, scalar) -> "AdjointableOperator":
        return AdjointableOperator(self.domain, self.codomain, self.flat * complex(scalar))

    __rmul__ = __mul__

    def norm(self) -> float:
        """Largest singular value of the flattened matrix (corner-restricted)."""
        return linalg.spectral_norm(
            self.codomain.projection_flat @ self.flat @ self.domain.projection_flat
        )

    def corner_defect(self) -> float:
        """Residual of Q·T·P = T."""
        fixed = self.codomain.projection_flat @ self.flat @ self.domain.projection_flat
        return linalg.frobenius(fixed - self.flat)

    def complex_matrix(self) -> np.ndarray:
        """Matrix w.r.t. the complex bases of domain and codomain."""
        return complex_matrices(self.domain, self.codomain, self.flat)

    def is_unitary(self, tol: float = DEFAULT_TOL) -> VerificationReport:
        left = linalg.frobenius(
            self.flat.conj().T @ self.flat - self.domain.projection_flat
        )
        right = linalg.frobenius(
            self.flat @ self.flat.conj().T - self.codomain.projection_flat
        )
        return VerificationReport(
            "unitary operator",
            (Check("T*T = id", left, tol), Check("TT* = id", right, tol)),
        )

    def is_positive(self, tol: float = DEFAULT_TOL) -> bool:
        if self.domain != self.codomain:
            raise StructuralError("positivity needs an endomorphism")
        scale = max(1.0, linalg.frobenius(self.flat))
        if linalg.hermitian_defect(self.flat) > tol * scale:
            return False
        sym = (self.flat + self.flat.conj().T) / 2.0
        return linalg.min_eigenvalue(sym) >= -tol * (1.0 + linalg.spectral_norm(sym))

    def __str__(self) -> str:
        return f"operator ({self.codomain.rank}×{self.domain.rank}) over {self.domain.algebra}"


def complex_matrices(domain: HilbertModule, codomain: HilbertModule, flats) -> np.ndarray:
    """Matrices w.r.t. the complex bases of a stack of operator flats (..., m·D, n·D)."""
    images = flats[..., None, :, :] @ domain.basis_tensor  # (..., d_dom, m·D, D)
    return codomain._basis_pinv @ images.reshape(*images.shape[:-2], -1).swapaxes(-1, -2)

