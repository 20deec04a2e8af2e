"""Deterministic generators for groups, actions, representations, and CP maps.

Everything here is seeded: the same seed gives byte-identical data. These
builders feed the worked examples, the CLI `example` subcommand, and the
acceptance suites.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from . import linalg
from .algebra import FiniteCStarAlgebra
from .cpmaps import CompletelyPositiveMap
from .errors import PreconditionError
from .groups import (
    FiniteGroup,
    GroupAction,
    UnitaryRepresentation,
    covariant_average,
)
from .modules import AdjointableOperator, HilbertModule

GROUP_NAMES = ("trivial", "z2", "z3", "s3")


def named_group(name: str) -> FiniteGroup:
    if name == "trivial":
        return FiniteGroup.trivial()
    if name == "z2":
        return FiniteGroup.cyclic(2)
    if name == "z3":
        return FiniteGroup.cyclic(3)
    if name == "s3":
        return FiniteGroup.symmetric(3)
    raise PreconditionError(f"unknown group name {name!r}")


def _s3_permutations() -> list[tuple[int, ...]]:
    return list(permutations(range(3)))


def complex_unitary_rep(group_name: str, dim: int) -> list[np.ndarray]:
    """A concrete unitary representation of the named group on C^dim.

    Uses diagonal phase representations for cyclic groups and, for S3, the
    permutation action (dim >= 3) or its standard two-dimensional summand.
    """
    if group_name == "trivial":
        return [np.eye(dim, dtype=np.complex128)]
    if group_name == "z2":
        if dim == 1:
            return [np.eye(1), -np.eye(1)]
        m = np.eye(dim, dtype=np.complex128)
        swap = m.copy()
        swap[[0, 1]] = swap[[1, 0]]
        return [m, swap]
    if group_name == "z3":
        omega = np.exp(2j * np.pi / 3)
        phases = np.array([omega ** (k % 3) for k in range(dim)])
        base = np.diag(phases)
        return [np.linalg.matrix_power(base, k) for k in range(3)]
    if group_name == "s3":
        perms = _s3_permutations()
        if dim >= 3:
            out = []
            for p in perms:
                m = np.zeros((dim, dim), dtype=np.complex128)
                for x in range(3):
                    m[p[x], x] = 1.0
                for x in range(3, dim):
                    m[x, x] = 1.0
                out.append(m)
            return out
        if dim == 2:
            # Standard summand of the permutation action on the plane x+y+z=0.
            basis = np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]])
            q, _ = np.linalg.qr(basis)
            out = []
            for p in perms:
                pm = np.zeros((3, 3))
                for x in range(3):
                    pm[p[x], x] = 1.0
                out.append((q.T @ pm @ q).astype(np.complex128))
            return out
        if dim == 1:
            signs = []
            for p in perms:
                inversions = sum(
                    1 for i in range(3) for j in range(i + 1, 3) if p[i] > p[j]
                )
                signs.append(np.array([[(-1.0) ** inversions]], dtype=np.complex128))
            return signs
    raise PreconditionError(f"no representation recipe for {group_name!r} at dim {dim}")


def standard_action(group_name: str, algebra: FiniteCStarAlgebra) -> GroupAction:
    """A faithful-for-testing action of the named group on the algebra.

    Blockwise inner action by a unitary representation; the special case of
    z2 on C⊕C uses the outer block swap.
    """
    group = named_group(group_name)
    if group_name == "z2" and algebra.block_sizes == (1, 1):
        return GroupAction.by_block_permutation(group, algebra, [[0, 1], [1, 0]])
    unitaries = []
    for g in range(group.order):
        unitaries.append(
            [complex_unitary_rep(group_name, n)[g] for n in algebra.block_sizes]
        )
    return GroupAction.by_conjugation(group, algebra, unitaries)


def standard_representation(group_name: str, module: HilbertModule) -> UnitaryRepresentation:
    """Unitary representation on a free module, promoted entrywise from C^rank."""
    group = named_group(group_name)
    mats = complex_unitary_rep(group_name, module.rank)
    return UnitaryRepresentation.from_complex_matrices(group, module, mats)


def compress_to_module_algebra(flat: np.ndarray, module: HilbertModule) -> np.ndarray:
    """Conditional expectation of an operator matrix onto L_B(E) (block support)."""
    mask = np.kron(
        np.ones((module.rank, module.rank)), module.algebra.dense_support_mask()
    )
    return module.projection_flat @ (flat * mask) @ module.projection_flat


def random_cp_map(
    source: FiniteCStarAlgebra,
    module: HilbertModule,
    rng: np.random.Generator,
    *,
    kraus_terms: int = 3,
    depolarizing_weight: float = 0.05,
) -> CompletelyPositiveMap:
    """A random CP map A -> L_B(E): Kraus form compressed into the module algebra.

    A small depolarizing term keeps rho(1) well away from singular, so the
    map can be normalized to a unital one.
    """
    fd, td = module.flat_dim, source.total_dim
    kraus = [linalg.random_complex(rng, fd, td) / np.sqrt(fd * td) for _ in range(kraus_terms)]
    values = []
    unit_scale = depolarizing_weight / source.total_dim
    for b in source.basis():
        dense = b.dense()
        acc = sum(k @ dense @ k.conj().T for k in kraus)
        acc = compress_to_module_algebra(acc, module)
        acc += unit_scale * b.trace() * module.projection_flat
        values.append(AdjointableOperator(module, module, acc))
    return CompletelyPositiveMap(source, module, tuple(values))


def unitalize(rho: CompletelyPositiveMap) -> CompletelyPositiveMap:
    """Normalize a CP map so that rho(1) = id_E, preserving covariance.

    Conjugates by rho(1)^(-1/2); requires rho(1) to be invertible on the
    range of the module projection.
    """
    module = rho.module
    s = rho(rho.source.unit()).flat
    s = (s + s.conj().T) / 2.0
    vals, vecs = linalg.hermitian_eigendecomposition(s)
    top = max(float(vals[-1]), 0.0)
    if top <= 0.0:
        raise PreconditionError("rho(1) vanishes; cannot normalize")
    # Eigenvalues near zero must belong to the complement of the range projection.
    keep = vals > 1e-12 * top
    inv_sqrt = (vecs[:, keep] / np.sqrt(vals[keep])) @ vecs[:, keep].conj().T
    rank_p = linalg.matrix_rank(module.projection_flat, rel_threshold=1e-9)
    if int(np.count_nonzero(keep)) != rank_p:
        raise PreconditionError("rho(1) is singular on the module; cannot normalize")
    values = tuple(
        AdjointableOperator(module, module, inv_sqrt @ v.flat @ inv_sqrt)
        for v in rho.basis_values
    )
    return CompletelyPositiveMap(rho.source, module, values)


def random_covariant_cp(
    source: FiniteCStarAlgebra,
    module: HilbertModule,
    action: GroupAction,
    rep: UnitaryRepresentation,
    seed: int,
    *,
    kraus_terms: int = 3,
) -> CompletelyPositiveMap:
    """Seeded generator of a unital covariant CP map: average, then normalize."""
    rng = np.random.default_rng(seed)
    sigma = random_cp_map(source, module, rng, kraus_terms=kraus_terms)
    rho = unitalize(covariant_average(sigma, action, rep))
    rho.verify_completely_positive()  # fills the map's cached Choi data
    return rho


ALGEBRA_NAMES = {
    "m2": (2,),
    "m3": (3,),
    "m2+c": (2, 1),
    "c": (1,),
    "c+c": (1, 1),
}


def named_algebra(name: str) -> FiniteCStarAlgebra:
    key = name.lower()
    if key not in ALGEBRA_NAMES:
        raise PreconditionError(f"unknown algebra name {name!r}")
    return FiniteCStarAlgebra(ALGEBRA_NAMES[key])


def dilation_instance(
    algebra_name: str,
    base_name: str,
    module_rank: int,
    group_name: str,
    seed: int,
):
    """One acceptance-grid instance: (rho, action, rep) ready to dilate."""
    algebra = named_algebra(algebra_name)
    base = named_algebra(base_name)
    module = HilbertModule.free(base, module_rank)
    action = standard_action(group_name, algebra)
    rep = standard_representation(group_name, module)
    rho = random_covariant_cp(algebra, module, action, rep, seed)
    return rho, action, rep
