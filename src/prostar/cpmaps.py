"""Completely positive maps A -> L_B(E): basis values, Choi tests, representation checks."""

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
    bound_or_exact,
)
from .errors import PreconditionError, StructuralError
from .linalg import DEFAULT_TOL
from .modules import AdjointableOperator, HilbertModule, endomorphism_stack, operator_coords


@dataclass(frozen=True)
class CPCertificate:
    """Outcome of the blockwise Choi test. Each entry of `choi_min_eigenvalues`
    belongs to one Choi block: the least eigenvalue of its Hermitian part, or a
    certified lower bound of it (the CP extension's Stinespring bound,
    `crossed._stinespring_bound`); a block that is not Hermitian within tol
    counts minus its anti-Hermitian norm when that is lower."""

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
    """Linear map A -> L_B(E), held by its values on the matrix-unit basis of A as
    one read-only stack of range coordinates of E, (dim A, rank P, rank P)
    (`modules.endomorphism_stack`)."""

    source: FiniteCStarAlgebra
    module: HilbertModule
    values: np.ndarray

    def __post_init__(self):
        stack = endomorphism_stack(self.module, self.values, self.source.linear_dim, "basis values")
        object.__setattr__(self, "values", stack)

    @property
    def basis_values(self) -> tuple[AdjointableOperator, ...]:
        """The values as operators: views for readers outside the package."""
        return tuple(AdjointableOperator(self.module, self.module, y) for y in self.values)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_dense_images(
        cls, source: FiniteCStarAlgebra, module: HilbertModule, images: Sequence
    ) -> "CompletelyPositiveMap":
        """The map with the given matrices on the flats as its basis values, checked
        by one `modules.operator_coords` call on their stack."""
        flats = np.array([linalg.as_complex_matrix(m) for m in images])
        return cls(source, module, operator_coords(module, module, flats))

    @classmethod
    def identity_representation(
        cls, source: FiniteCStarAlgebra, module: HilbertModule
    ) -> "CompletelyPositiveMap":
        """a -> a acting on E when E's flattened fibre is the defining space of A."""
        if module.flat_dim != source.total_dim:
            raise StructuralError(
                f"identity representation needs flat module dimension {source.total_dim}"
            )
        return cls.from_dense_images(source, module, source.dense_stack(np.eye(source.linear_dim)))

    @classmethod
    def trace_state(cls, source: FiniteCStarAlgebra, module: HilbertModule) -> "CompletelyPositiveMap":
        """a -> (trace a / trace 1) * id_E, the normalized-trace state."""
        total = float(source.total_dim)
        images = [(b.trace() / total) * module.projection_flat for b in source.basis()]
        return cls.from_dense_images(source, module, images)

    @classmethod
    def from_kraus(
        cls, source: FiniteCStarAlgebra, module: HilbertModule, kraus: Sequence
    ) -> "CompletelyPositiveMap":
        """a -> sum_r K_r a K_r* with K_r of shape (flat_dim(E), total_dim(A)).

        The caller must supply Kraus terms whose images stay inside L_B(E);
        this is checked at construction.
        """
        ks = np.array([linalg.as_complex_matrix(k) for k in kraus])
        if ks.shape[1:] != (module.flat_dim, source.total_dim):
            raise StructuralError(
                f"Kraus shape {ks.shape[1:]} != {(module.flat_dim, source.total_dim)}"
            )
        dense = source.dense_stack(np.eye(source.linear_dim, dtype=np.complex128))
        return cls.from_dense_images(source, module, sum(k @ dense @ k.conj().T for k in ks))

    @classmethod
    def zero(cls, source: FiniteCStarAlgebra, module: HilbertModule) -> "CompletelyPositiveMap":
        return cls(source, module, np.zeros((source.linear_dim, module.coord_dim, module.coord_dim)))

    # -- evaluation ----------------------------------------------------------

    def __call__(self, a: AlgebraElement) -> AdjointableOperator:
        if a.algebra != self.source:
            raise StructuralError("element does not belong to the source algebra")
        p = self.module.coord_dim
        return AdjointableOperator(
            self.module, self.module, (a.coords() @ self.values.reshape(-1, p * p)).reshape(p, p)
        )

    # -- structure tests -----------------------------------------------------

    @property
    def _identity(self) -> np.ndarray:
        return np.eye(self.module.coord_dim, dtype=np.complex128)

    @cached_property
    def _star_residual(self) -> float:
        """max over basis elements of ||rho(E_a*) - rho(E_a)*||_F, shared by the
        Choi test and the representation check."""
        vals = self.values
        adj = self.source.adjoint_index
        return linalg.max_frobenius(vals[adj] - vals.conj().transpose(0, 2, 1))

    def choi_matrices(self) -> list[np.ndarray]:
        """Per source block: C_k = sum_ij E_ij (x) rho(E_ij), on the range coordinates of E.

        On the flats C_k would be (1 (x) U) C_k (1 (x) U)*, with the same nonzero
        spectrum and extra zero eigenvalues, so the CP decision is the same."""
        p = self.module.coord_dim
        out = []
        for k, n in enumerate(self.source.block_sizes):
            off = self.source.coord_offsets[k]
            vals = self.values[off : off + n * n].reshape(n, n, p, p)
            choi = vals.transpose(0, 2, 1, 3).reshape(n * p, n * p)
            out.append(choi)
        return out

    @cached_property
    def _choi_frame(self) -> tuple:
        """The Choi test's eigensolve-free part: the hermiticity residual and its
        scale, and per Choi block its Hermitian defect and its scale."""
        scale = max(1.0, linalg.max_frobenius(self.values))
        blocks = tuple(
            (linalg.hermitian_defect(choi), max(1.0, linalg.frobenius(choi)))
            for choi in self.choi_matrices()
        )
        return self._star_residual, scale, blocks

    @cached_property
    def _choi_lows(self) -> tuple[float, ...]:
        """The least eigenvalue of each Choi block's Hermitian part, one eigensolve each."""
        return tuple(
            linalg.min_eigenvalue((choi + choi.conj().T) / 2.0) for choi in self.choi_matrices()
        )

    @cached_property
    def _choi_antis(self) -> tuple[float, ...]:
        """The norm of each Choi block's anti-Hermitian part, one SVD each."""
        return tuple(
            linalg.spectral_norm(choi - (choi + choi.conj().T) / 2.0)
            for choi in self.choi_matrices()
        )

    def verify_completely_positive(self, tol: float = DEFAULT_TOL) -> CPCertificate:
        """Blockwise Choi test at `tol`, on the least eigenvalue of each block."""
        return self.choi_certificate(self._choi_lows, tol)

    def choi_certificate(self, lows: Sequence[float], tol: float) -> CPCertificate:
        """The Choi test's one decision rule at `tol`, given per Choi block `lows`,
        the least eigenvalue of its Hermitian part or a certified lower bound of
        it. A block whose Hermitian defect exceeds tol times its size counts its
        anti-Hermitian norm as a negative eigenvalue; those norms are formed only
        when some block reads them."""
        herm, scale, blocks = self._choi_frame
        herm_ok = herm <= tol * scale
        mins = tuple(
            float(min(low, -self._choi_antis[k]) if defect > tol * size else low)
            for k, ((defect, size), low) in enumerate(zip(blocks, lows))
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
        resid = linalg.spectral_norm(self(self.source.unit()).coords - self._identity)
        return VerificationReport(
            "non-degeneracy", (Check("rho(1) = id_E", float(resid), tol),)
        )

    @cached_property
    def _representation_data(self) -> tuple[float, float, float]:
        """`verify_representation`'s tolerance-free part: a bound of the
        multiplicative residual, and the star and unital residuals.

        The bound is `linalg.matrix_unit_bound`: it bounds every basis pair's
        ||rho(E_a) rho(E_b) - rho(E_a E_b)||_F from the matrix-unit relations
        of the source, with dim + (Σn)² products on the range coordinates.
        """
        mult = linalg.matrix_unit_bound(self.values, self.source.matrix_unit_relations)
        return float(mult), float(self._star_residual), self._unital_residual

    @cached_property
    def _unital_residual(self) -> float:
        """||rho(1) - id_E||_F, read by the representation check."""
        return linalg.frobenius(self(self.source.unit()).coords - self._identity)

    @cached_property
    def _exact_multiplicative(self) -> float:
        """The all-pairs multiplicative residual, formed when the bound says nothing.

        It compares rho(E_a) rho(E_b) with rho(E_a E_b) through the source's
        product table, a few rows a at a time (`linalg.max_product_residual`):
        memory stays near chunk·dim·p² entries instead of dim²·p², with p
        the rank of the module projection.
        """
        vals = self.values
        return float(linalg.max_product_residual(vals, vals, vals, self.source.product_table))

    def verify_representation(self, tol: float = DEFAULT_TOL) -> VerificationReport:
        """Unital *-homomorphism check of the map into L_B(E) at `tol`, from the
        cached `_representation_data`. A *-homomorphism A -> B is checked here
        too, as a representation on B_B (`algebra.verify_star_homomorphism`).

        The multiplicative residual is the matrix-unit bound when that is at
        most `tol`, and otherwise the all-pairs residual
        (`_exact_multiplicative`, computed once), by `algebra.bound_or_exact`:
        pass/fail is the all-pairs decision at every `tol`, a passing residual
        is an upper bound, and the check's detail names the certificate that
        decided.
        """
        mult, star, unital = self._representation_data
        mult, certificate = bound_or_exact(
            mult, "matrix-unit bound", tol, lambda: (self._exact_multiplicative, "all pairs")
        )
        return VerificationReport(
            "representation",
            (
                Check("multiplicative", mult, tol, certificate),
                Check("star", star, tol),
                Check("unital", unital, tol),
            ),
        )

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
