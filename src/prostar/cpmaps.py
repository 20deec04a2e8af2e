"""Completely positive maps A -> L_B(E): basis values, amplification, Choi tests."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import linalg
from .algebra import (
    AlgebraElement,
    Check,
    FiniteCStarAlgebra,
    VerificationReport,
)
from .errors import PreconditionError, StructuralError
from .linalg import DEFAULT_TOL
from .modules import AdjointableOperator, HilbertModule


@dataclass(frozen=True)
class CPCertificate:
    """Outcome of the blockwise Choi test."""

    is_hermitian_preserving: bool
    hermitian_residual: float
    choi_min_eigenvalues: tuple[float, ...]
    is_cp: bool
    tol: float

    @property
    def min_eigenvalue(self) -> float:
        return min(self.choi_min_eigenvalues)


@dataclass(frozen=True, eq=False)
class CompletelyPositiveMap:
    """Linear map A -> L_B(E), stored by its values on the matrix-unit basis of A."""

    source: FiniteCStarAlgebra
    module: HilbertModule
    basis_values: tuple[AdjointableOperator, ...]

    def __post_init__(self):
        if len(self.basis_values) != self.source.linear_dim:
            raise StructuralError(
                f"need {self.source.linear_dim} basis values, got {len(self.basis_values)}"
            )
        for op in self.basis_values:
            if op.domain != self.module or op.codomain != self.module:
                raise StructuralError("basis values must be endomorphisms of the target module")
        object.__setattr__(self, "basis_values", tuple(self.basis_values))

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_dense_images(
        cls, source: FiniteCStarAlgebra, module: HilbertModule, images: Sequence
    ) -> "CompletelyPositiveMap":
        values = []
        for m in images:
            op = AdjointableOperator(module, module, linalg.as_complex_matrix(m))
            module._check_b_structure(op.flat, module.rank, module.rank)
            if op.corner_defect() > 1e-9 * max(1.0, linalg.frobenius(op.flat)):
                raise StructuralError("image does not respect the module's range projection")
            values.append(op)
        return cls(source, module, tuple(values))

    @classmethod
    def identity_representation(
        cls, source: FiniteCStarAlgebra, module: HilbertModule
    ) -> "CompletelyPositiveMap":
        """a -> a acting on E when E's flattened fibre is the defining space of A."""
        if module.flat_dim != source.total_dim:
            raise StructuralError(
                f"identity representation needs flat module dimension {source.total_dim}"
            )
        return cls.from_dense_images(source, module, [b.dense() for b in source.basis()])

    @classmethod
    def trace_state(cls, source: FiniteCStarAlgebra, module: HilbertModule) -> "CompletelyPositiveMap":
        """a -> (trace a / trace 1) * id_E, the normalized-trace state."""
        total = float(source.total_dim)
        images = [
            (b.trace() / total) * module.projection_flat for b in source.basis()
        ]
        return cls.from_dense_images(source, module, images)

    @classmethod
    def from_kraus(
        cls, source: FiniteCStarAlgebra, module: HilbertModule, kraus: Sequence
    ) -> "CompletelyPositiveMap":
        """a -> sum_r K_r a K_r* with K_r of shape (flat_dim(E), total_dim(A)).

        The caller must supply Kraus terms whose images stay inside L_B(E);
        this is checked at construction.
        """
        ks = [linalg.as_complex_matrix(k) for k in kraus]
        for k in ks:
            if k.shape != (module.flat_dim, source.total_dim):
                raise StructuralError(
                    f"Kraus shape {k.shape} != {(module.flat_dim, source.total_dim)}"
                )
        images = []
        for b in source.basis():
            dense = b.dense()
            images.append(sum(k @ dense @ k.conj().T for k in ks))
        return cls.from_dense_images(source, module, images)

    @classmethod
    def zero(cls, source: FiniteCStarAlgebra, module: HilbertModule) -> "CompletelyPositiveMap":
        z = np.zeros((module.flat_dim, module.flat_dim), dtype=np.complex128)
        return cls.from_dense_images(source, module, [z] * source.linear_dim)

    # -- evaluation ----------------------------------------------------------

    @cached_property
    def _value_tensor(self) -> np.ndarray:
        return np.stack([op.flat for op in self.basis_values], axis=0)

    @cached_property
    def _value_matrix(self) -> np.ndarray:
        fd = self.module.flat_dim
        return self._value_tensor.reshape(self.source.linear_dim, fd * fd)

    def __call__(self, a: AlgebraElement) -> AdjointableOperator:
        if a.algebra != self.source:
            raise StructuralError("element does not belong to the source algebra")
        fd = self.module.flat_dim
        flat = (a.coords() @ self._value_matrix).reshape(fd, fd)
        return AdjointableOperator(self.module, self.module, flat)

    # -- structure tests -----------------------------------------------------

    def hermiticity_residual(self) -> float:
        """max over basis elements of ||rho(E_a*) - rho(E_a)*||_F."""
        vals = self._value_tensor
        adj = self.source.adjoint_index
        return max(linalg.frobenius(vals[adj[i]] - vals[i].conj().T) for i in range(len(vals)))

    def choi_matrices(self) -> list[np.ndarray]:
        """Per source block: C_k = sum_ij E_ij (x) rho(E_ij), flattened over L_B(E)."""
        fd = self.module.flat_dim
        out = []
        for k, n in enumerate(self.source.block_sizes):
            off = self.source.coord_offsets[k]
            vals = self._value_tensor[off : off + n * n].reshape(n, n, fd, fd)
            choi = vals.transpose(0, 2, 1, 3).reshape(n * fd, n * fd)
            out.append(choi)
        return out

    @cached_property
    def _choi_data(self) -> tuple:
        """The Choi test's tolerance-free part: the hermiticity residual and its
        scale, and per Choi block its Hermitian defect and scale, the least
        eigenvalue of its Hermitian part and the norm of its anti-Hermitian part."""
        scale = max(1.0, max(linalg.frobenius(v.flat) for v in self.basis_values))
        blocks = []
        for choi in self.choi_matrices():
            sym = (choi + choi.conj().T) / 2.0
            size = max(1.0, linalg.frobenius(choi))
            anti = linalg.spectral_norm(choi - sym)
            blocks.append((linalg.hermitian_defect(choi), size, linalg.min_eigenvalue(sym), anti))
        return self.hermiticity_residual(), scale, tuple(blocks)

    def verify_completely_positive(self, tol: float = DEFAULT_TOL) -> CPCertificate:
        """Blockwise Choi test at `tol`; a block whose Choi matrix is not Hermitian
        within tol counts its anti-Hermitian norm as a negative eigenvalue."""
        herm, scale, blocks = self._choi_data
        herm_ok = herm <= tol * scale
        mins = tuple(
            float(min(low, -anti) if defect > tol * size else low)
            for defect, size, low, anti in blocks
        )
        return CPCertificate(
            is_hermitian_preserving=herm_ok,
            hermitian_residual=herm,
            choi_min_eigenvalues=mins,
            is_cp=herm_ok and all(m >= -tol for m in mins),
            tol=tol,
        )

    def verify_nondegenerate(self, tol: float = DEFAULT_TOL) -> VerificationReport:
        """Unitality rho(1) = id_E, the finite-dimensional form of non-degeneracy."""
        resid = linalg.spectral_norm(
            self(self.source.unit()).flat - self.module.projection_flat
        )
        return VerificationReport(
            "non-degeneracy", (Check("rho(1) = id_E", float(resid), tol),)
        )

    def verify_representation(self, tol: float = DEFAULT_TOL) -> VerificationReport:
        """Unital *-homomorphism check of the map into L_B(E), on all basis pairs.

        Multiplicativity compares rho(E_a) rho(E_b) with rho(E_a E_b) through
        the source's product table, a few rows a at a time: memory stays near
        chunk·dim·fd² entries (chunk set by `linalg.PRODUCT_CHUNK_BYTES`)
        instead of the dim²·fd² of all pairwise products at once. On a
        non-free module the products are formed on the range of its
        projection (`HilbertModule.range_basis`), and the residual is an
        upper bound of the full one that also counts the values' mass off
        the corner P·X·P.
        """
        vals = self._value_tensor
        mult = linalg.max_product_residual(
            vals, vals, vals, self.source.product_table, self.module.range_basis
        )
        star = self.hermiticity_residual()
        unital = linalg.frobenius(self(self.source.unit()).flat - self.module.projection_flat)
        return VerificationReport(
            "representation",
            (
                Check("multiplicative", float(mult), tol),
                Check("star", float(star), tol),
                Check("unital", float(unital), tol),
            ),
        )

    # -- amplification -------------------------------------------------------

    def amplify(self, n: int) -> "CompletelyPositiveMap":
        """Entrywise application on n×n matrices over A, as a map M_n(A) -> L_B(E^n)."""
        if n < 1:
            raise PreconditionError("amplification order must be >= 1")
        if n == 1:
            return self
        big_source = FiniteCStarAlgebra(tuple(n * m for m in self.source.block_sizes))
        big_module = HilbertModule(
            self.module.algebra,
            n * self.module.rank,
            np.kron(np.eye(n, dtype=np.complex128), self.module.projection_flat),
        )
        fd = self.module.flat_dim
        values = []
        for k, m in enumerate(self.source.block_sizes):
            for big_row in range(n * m):
                for big_col in range(n * m):
                    i, u = divmod(big_row, m)
                    j, v = divmod(big_col, m)
                    flat = np.zeros((n * fd, n * fd), dtype=np.complex128)
                    inner = self.basis_values[self.source.basis_index(k, u, v)].flat
                    flat[i * fd : (i + 1) * fd, j * fd : (j + 1) * fd] = inner
                    values.append(AdjointableOperator(big_module, big_module, flat))
        return CompletelyPositiveMap(big_source, big_module, tuple(values))

    def __str__(self) -> str:
        return f"CP map {self.source} -> L_B({self.module})"


def require_certified_cp(rho: CompletelyPositiveMap, tol: float = DEFAULT_TOL) -> CPCertificate:
    """Certify at `tol`; raise PreconditionError when the map is not CP."""
    cert = rho.verify_completely_positive(tol)
    if not cert.is_cp:
        raise PreconditionError(
            f"map is not completely positive (Choi minimum {cert.min_eigenvalue:.3e})"
        )
    return cert
