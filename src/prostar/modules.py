"""Hilbert modules over a finite-dimensional C*-algebra and their adjointable maps.

A module P·B^n is held by an isometry U with UU* = P (none when P = 1).
Elements are columns over B, stored through the dense block-diagonal
embedding of B (size D) as (n·D)×D "flats". An operator T: P·B^n -> Q·B^m is
held by its range coordinates U_Q*·T·U_P: L_B(P·B^n) = P·M_n(B)·P, and
X ↦ U*XU is an injective *-homomorphism on it, so products, adjoints,
unitarity and norms are exact on coordinates (E. C. Lance, *Hilbert
C*-modules*, LMS Lecture Notes 210, 1995, ch. 1). A matrix on the flats
enters only through `operator_coords`, which refuses what is not a module map.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import linalg
from .algebra import AlgebraElement, Check, FiniteCStarAlgebra, VerificationReport
from .errors import PreconditionError, StructuralError
from .linalg import DEFAULT_TOL

B_MASS_REL = 1e-10  # mass outside B allowed in a flat (kept), relative to max(1, ||X||_F)
OFF_RANGE_REL = 1e-12  # mass off the range allowed in a flat (dropped), likewise


def _mass_outside(algebra: FiniteCStarAlgebra, flats: np.ndarray, rows: int, cols: int):
    """Per matrix of a stack of flats (..., rows·D, cols·D): the Frobenius mass
    outside B entrywise, and the scale max(1, ||X||_F)."""
    off = 1.0 - np.tile(algebra.dense_support_mask(), (rows, cols))
    return linalg.frobenius_each(flats * off), np.maximum(1.0, linalg.frobenius_each(flats))


@dataclass(frozen=True, eq=False)
class HilbertModule:
    """P·B^n for a self-adjoint idempotent P in M_n(B), held by an isometry U
    (fd × rank P) with UU* = P, or None when P = 1. Every array it holds or
    caches is read-only. Equal modules share their U, in which operator
    coordinates are taken."""

    algebra: FiniteCStarAlgebra
    rank: int
    isometry: np.ndarray | None = None
    # Optional: a known complex basis as one stack of flats (complex_dim, fd, D),
    # which skips the generic scan.
    basis_flats: np.ndarray | None = None

    def __post_init__(self):
        if self.rank < 1:
            raise StructuralError("module rank must be positive")
        if self.isometry is not None:
            d = self.flat_dim
            u = linalg.as_complex_matrix(self.isometry)
            if u.shape[0] != d or u.shape[1] > d:
                raise StructuralError(f"isometry shape {u.shape} does not fit flat dimension {d}")
            object.__setattr__(self, "isometry", linalg.read_only(u))
            with np.errstate(over="ignore", invalid="ignore"):
                defect = linalg.frobenius(u.conj().T @ u - np.eye(u.shape[1]))
            if not defect <= 1e-9 * max(1.0, linalg.frobenius(u)):
                raise StructuralError("range basis is not an isometry")
            leak, scale = _mass_outside(self.algebra, self.projection_flat, self.rank, self.rank)
            if not leak <= B_MASS_REL * scale:
                raise StructuralError(f"projection has {leak:.3e} mass outside the base algebra")
        if self.basis_flats is not None:
            flats = np.asarray(self.basis_flats, dtype=np.complex128)
            object.__setattr__(self, "basis_flats", linalg.read_only(flats))

    @classmethod
    def free(cls, algebra: FiniteCStarAlgebra, rank: int) -> "HilbertModule":
        return cls(algebra, rank)

    @classmethod
    def from_projection(
        cls, algebra: FiniteCStarAlgebra, rank: int, projection
    ) -> "HilbertModule":
        """P·B^n for a declared projection P, eigendecomposed once: U holds the
        eigenvectors of eigenvalue 1. P within 1e-12 of 1 gives the free module."""
        d = algebra.total_dim * rank
        p = linalg.as_complex_matrix(projection)
        if p.shape != (d, d):
            raise StructuralError(f"projection shape {p.shape} != {(d, d)}")
        # Written as `not (defect <= bound)` so that an overflow to inf or NaN
        # in the residuals or the scale rejects the projection.
        with np.errstate(over="ignore", invalid="ignore"):
            bound = 1e-9 * max(1.0, linalg.frobenius(p))
            idem = linalg.frobenius(p @ p - p)
            herm = linalg.hermitian_defect(p)
        if not (np.isfinite(bound) and idem <= bound and herm <= bound):
            raise StructuralError("range projection is not a self-adjoint idempotent")
        if np.allclose(p, np.eye(d), atol=1e-12):
            return cls.free(algebra, rank)
        vals, vecs = linalg.hermitian_eigendecomposition((p + p.conj().T) / 2.0)
        module = cls(algebra, rank, np.ascontiguousarray(vecs[:, vals > 0.5]))
        # `projection_flat` reads back the declared P, not its rounding UU*.
        vars(module)["projection_flat"] = linalg.read_only(p)
        return module

    @property
    def block_dim(self) -> int:
        return self.algebra.total_dim

    @property
    def flat_dim(self) -> int:
        return self.rank * self.algebra.total_dim

    @property
    def coord_dim(self) -> int:
        """rank P, the size of operator coordinates."""
        return self.flat_dim if self.isometry is None else self.isometry.shape[1]

    @property
    def is_free(self) -> bool:
        return self.coord_dim == self.flat_dim

    @cached_property
    def projection_flat(self) -> np.ndarray:
        """P = UU* on the flats (read-only), the identity on a free module; the
        declared P itself for a module made by `from_projection`."""
        u = self.isometry
        p = np.eye(self.flat_dim, dtype=np.complex128) if u is None else u @ u.conj().T
        p.setflags(write=False)
        return p

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if not (
            isinstance(other, HilbertModule)
            and self.algebra == other.algebra
            and self.rank == other.rank
        ):
            return False
        mine, theirs = self.isometry, other.isometry
        if mine is None or theirs is None:
            return mine is theirs
        return mine.shape == theirs.shape and bool(np.allclose(mine, theirs, atol=1e-12))

    def to_range(self, flats: np.ndarray) -> np.ndarray:
        """U*·X for a stack of matrices X with fd rows."""
        return flats if self.isometry is None else self.isometry.conj().T @ flats

    def from_range(self, coords: np.ndarray) -> np.ndarray:
        """U·Y for a stack of matrices Y with rank P rows."""
        return coords if self.isometry is None else self.isometry @ coords

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
    def basis_tensor(self) -> np.ndarray:
        """A C-linear basis of the module viewed as a complex vector space, as one
        read-only stack of flats (complex_dim, flat_dim, block_dim).

        `basis_flats` when given. For a free module it is exactly the
        canonical basis e_i · b_mu. For a projective one the candidates
        U*·(e_i · b_mu), in range coordinates, get one SVD, and the basis is
        U·u for each left singular vector u of a singular value above 1e-9 of
        the largest: orthonormal in coordinates, so the coordinate basis has
        condition number 1.
        """
        if self.basis_flats is not None:
            return self.basis_flats
        d = self.block_dim
        dim = self.algebra.linear_dim
        candidates = np.zeros((self.rank, dim, self.flat_dim, d), dtype=np.complex128)
        dense = self.algebra.dense_stack(np.eye(dim, dtype=np.complex128))
        for i in range(self.rank):
            candidates[i, :, i * d : (i + 1) * d, :] = dense
        flats = candidates.reshape(-1, self.flat_dim, d)
        if self.isometry is not None:
            coords = self.to_range(flats).reshape(len(flats), -1).T
            u, s, _ = np.linalg.svd(coords, full_matrices=False)
            flats = self.from_range(u[:, s > 1e-9 * s[0]].T.reshape(-1, self.coord_dim, d))
        flats.setflags(write=False)
        return flats

    @property
    def complex_basis(self) -> tuple["ModuleElement", ...]:
        """`basis_tensor` as elements: views for readers outside the package."""
        return tuple(ModuleElement(self, f) for f in self.basis_tensor)

    @property
    def complex_dim(self) -> int:
        return len(self.basis_tensor)

    @cached_property
    def coord_basis(self) -> np.ndarray:
        """The complex basis in range coordinates U*·b, shape (complex_dim, rank P, block_dim)."""
        stack = self.to_range(self.basis_tensor)
        stack.setflags(write=False)
        return stack

    @cached_property
    def _basis_stack(self) -> np.ndarray:
        """The coordinate basis as columns, shape (rank P · block_dim, complex_dim)."""
        stack = np.ascontiguousarray(self.coord_basis.reshape(self.complex_dim, -1).T)
        stack.setflags(write=False)
        return stack

    @cached_property
    def _basis_pinv(self) -> np.ndarray:
        pinv = np.linalg.pinv(self._basis_stack)
        pinv.setflags(write=False)
        return pinv

    def coords_of(self, xi: "ModuleElement") -> np.ndarray:
        if xi.module != self:
            raise StructuralError("element belongs to a different module")
        return self._basis_pinv @ self.to_range(xi.flat).ravel()

    def identity_operator(self) -> "AdjointableOperator":
        return AdjointableOperator(self, self, np.eye(self.coord_dim, dtype=np.complex128))

    def __str__(self) -> str:
        kind = "free" if self.is_free else "projective"
        return f"{kind} module of rank {self.rank} over {self.algebra}"


def operator_coords(domain: HilbertModule, codomain: HilbertModule, flats) -> np.ndarray:
    """The one entry of matrices on the flats: the coordinates U_Q*·X·U_P of each
    X of a stack (..., m·D, n·D), refusing (StructuralError) what is not a map
    P·B^n -> Q·B^m of L_B.

    Mass outside B entrywise may reach B_MASS_REL = 1e-10 times max(1, ||X||_F),
    as for a declared projection; it stays in the coordinates, where every
    residual counts it. The off-range mass ||X - Q·X·P||_F may reach only
    OFF_RANGE_REL = 1e-12 times that scale, since the coordinates drop it: a
    dropped δ moves a product residual by at most δ·||other factor||_op, so
    100× below DEFAULT_TOL it cannot decide a certificate at the default
    tolerance for factors of norm up to about 10, while the rounding of flats
    formed from coordinates (about fd·eps·||X||_F, 3e-14 at fd = 144) passes.
    """
    x = np.asarray(flats, dtype=np.complex128)
    expect = (codomain.flat_dim, domain.flat_dim)
    if x.ndim < 2 or x.shape[-2:] != expect or domain.algebra != codomain.algebra:
        raise StructuralError(f"operator of shape {x.shape} is not {expect} over one algebra")
    if not np.all(np.isfinite(x)):
        raise StructuralError("operator matrix contains NaN or Inf entries")
    leak, scale = _mass_outside(domain.algebra, x, codomain.rank, domain.rank)
    if not np.all(leak <= B_MASS_REL * scale):
        raise StructuralError(f"matrix has {np.max(leak):.3e} mass outside the base algebra")
    y = range_coords(domain, codomain, x)
    if domain.isometry is not None or codomain.isometry is not None:
        defect = linalg.frobenius_each(x - operator_flats(domain, codomain, y))
        if not np.all(defect <= OFF_RANGE_REL * scale):
            raise StructuralError(f"matrix has {np.max(defect):.3e} mass off the module range")
    return y


def endomorphism_stack(module: HilbertModule, values, count: int, what: str) -> np.ndarray:
    """One read-only copy of the range coordinates (count, rank P, rank P) of a
    family of endomorphisms of `module` (a map's values, a representation's
    unitaries), given as a coordinate stack or a sequence of operators on it.
    A wrong count or shape, or an operator on another module, raises
    StructuralError; NaN or Inf entries raise PreconditionError."""
    if not isinstance(values, np.ndarray):
        ops = tuple(values)
        for op in ops:
            if not isinstance(op, AdjointableOperator) or op.domain != module or op.codomain != module:
                raise StructuralError(f"{what} must be endomorphisms of the module")
        values = [op.coords for op in ops]
    stack = np.array(values, dtype=np.complex128)
    if stack.ndim == 0 or len(stack) != count:
        raise StructuralError(f"need {count} {what}, got {len(stack) if stack.ndim else 0}")
    p = module.coord_dim
    if stack.shape[1:] != (p, p):
        raise StructuralError(f"{what} coordinates of shape {stack.shape[1:]} != {(p, p)}")
    if not np.all(np.isfinite(stack)):
        raise PreconditionError(f"{what} contain NaN or Inf entries")
    stack.setflags(write=False)
    return stack


def range_coords(domain: HilbertModule, codomain: HilbertModule, flats) -> np.ndarray:
    """U_Q*·X·U_P for a stack of matrices X on the flats, unchecked: the
    coordinates of the compression Q·X·P."""
    y = codomain.to_range(flats)
    return y if domain.isometry is None else y @ domain.isometry


def operator_flats(domain: HilbertModule, codomain: HilbertModule, coords) -> np.ndarray:
    """U_Q·Y·U_P* for a stack of operator coordinates Y: the maps on the flats."""
    x = codomain.from_range(coords)
    return x if domain.isometry is None else x @ domain.isometry.conj().T


@dataclass(eq=False)
class ModuleElement:
    """A column over B, stored as its (n·D)×D dense stacking."""

    module: HilbertModule
    flat: np.ndarray

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
    """A module map T: E -> F, held by its range coordinates U_F*·T·U_E, a
    rank P_F × rank P_E matrix (read-only). A matrix on the flats enters
    through `from_flat` (`operator_coords`)."""

    domain: HilbertModule
    codomain: HilbertModule
    coords: np.ndarray

    def __post_init__(self):
        if self.domain.algebra != self.codomain.algebra:
            raise StructuralError("operators require a common base algebra")
        y = linalg.as_complex_matrix(self.coords)
        expect = (self.codomain.coord_dim, self.domain.coord_dim)
        if y.shape != expect:
            raise StructuralError(f"operator coordinates shape {y.shape} != {expect}")
        object.__setattr__(self, "coords", linalg.read_only(y))

    @classmethod
    def from_flat(
        cls, domain: HilbertModule, codomain: HilbertModule, flat
    ) -> "AdjointableOperator":
        """The map given by an (m·D)×(n·D) matrix on the flats (`operator_coords`)."""
        flat = linalg.as_complex_matrix(flat)
        return cls(domain, codomain, operator_coords(domain, codomain, flat))

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
        return cls.from_flat(domain, codomain, flat)

    @cached_property
    def flat(self) -> np.ndarray:
        """U_F·Y·U_E*, the map on the flats (read-only)."""
        x = operator_flats(self.domain, self.codomain, self.coords)
        if x is not self.coords:
            x.setflags(write=False)
        return x

    def entry(self, i: int, j: int) -> AlgebraElement:
        d = self.domain.block_dim
        return self.domain.algebra.from_dense(
            self.flat[i * d : (i + 1) * d, j * d : (j + 1) * d], check=False
        )

    def __call__(self, xi: ModuleElement) -> ModuleElement:
        if xi.module != self.domain:
            raise StructuralError("element is not in the operator domain")
        image = self.codomain.from_range(self.coords @ self.domain.to_range(xi.flat))
        return ModuleElement(self.codomain, image)

    def compose(self, inner_op: "AdjointableOperator") -> "AdjointableOperator":
        """self ∘ inner_op."""
        if inner_op.codomain != self.domain:
            raise StructuralError("composition shape mismatch")
        return AdjointableOperator(inner_op.domain, self.codomain, self.coords @ inner_op.coords)

    def __matmul__(self, other: "AdjointableOperator") -> "AdjointableOperator":
        return self.compose(other)

    def adjoint(self) -> "AdjointableOperator":
        return AdjointableOperator(self.codomain, self.domain, self.coords.conj().T)

    def __add__(self, other: "AdjointableOperator") -> "AdjointableOperator":
        if other.domain != self.domain or other.codomain != self.codomain:
            raise StructuralError("operator shape mismatch")
        return AdjointableOperator(self.domain, self.codomain, self.coords + other.coords)

    def __sub__(self, other: "AdjointableOperator") -> "AdjointableOperator":
        return self + (-other)

    def __neg__(self) -> "AdjointableOperator":
        return AdjointableOperator(self.domain, self.codomain, -self.coords)

    def __mul__(self, scalar) -> "AdjointableOperator":
        return AdjointableOperator(self.domain, self.codomain, self.coords * complex(scalar))

    __rmul__ = __mul__

    def norm(self) -> float:
        """Operator norm: the largest singular value of the coordinates."""
        return linalg.spectral_norm(self.coords)

    def complex_matrix(self) -> np.ndarray:
        """Matrix w.r.t. the complex bases of domain and codomain."""
        return complex_matrices(self.domain, self.codomain, self.coords)

    def is_unitary(self, tol: float = DEFAULT_TOL) -> VerificationReport:
        y = self.coords
        left = linalg.frobenius(y.conj().T @ y - np.eye(y.shape[1]))
        right = linalg.frobenius(y @ y.conj().T - np.eye(y.shape[0]))
        return VerificationReport(
            "unitary operator",
            (Check("T*T = id", left, tol), Check("TT* = id", right, tol)),
        )

    def __str__(self) -> str:
        return f"operator ({self.codomain.rank}×{self.domain.rank}) over {self.domain.algebra}"


def complex_matrices(domain: HilbertModule, codomain: HilbertModule, coords) -> np.ndarray:
    """Matrices w.r.t. the complex bases of a stack of operator coordinates (..., q, p)."""
    images = coords[..., None, :, :] @ domain.coord_basis  # (..., d_dom, q, D)
    return codomain._basis_pinv @ images.reshape(*images.shape[:-2], -1).swapaxes(-1, -2)
