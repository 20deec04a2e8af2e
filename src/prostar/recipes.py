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
from .modules import HilbertModule, range_coords

GROUP_NAMES = ("trivial", "z2", "z3", "s3")

KRAUS_TERMS = 3  # Kraus operators of `random_cp_map`
DEPOLARIZING_WEIGHT = 0.05  # weight of the trace term `random_cp_map` adds


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
    """Conditional expectation of an operator matrix onto L_B(E) (block support),
    in the range coordinates U*·(X masked)·U of the module."""
    mask = np.kron(
        np.ones((module.rank, module.rank)), module.algebra.dense_support_mask()
    )
    return range_coords(module, module, flat * mask)


def random_cp_map(
    source: FiniteCStarAlgebra, module: HilbertModule, rng: np.random.Generator
) -> CompletelyPositiveMap:
    """A random CP map A -> L_B(E): Kraus form (KRAUS_TERMS terms) compressed
    into the module algebra.

    A small depolarizing term (DEPOLARIZING_WEIGHT) keeps rho(1) well away
    from singular, so the map can be normalized to a unital one.
    """
    fd, td = module.flat_dim, source.total_dim
    kraus = [linalg.random_complex(rng, fd, td) / np.sqrt(fd * td) for _ in range(KRAUS_TERMS)]
    dense = source.dense_stack(np.eye(source.linear_dim, dtype=np.complex128))
    values = compress_to_module_algebra(sum(k @ dense @ k.conj().T for k in kraus), module)
    unit_scale = DEPOLARIZING_WEIGHT / source.total_dim
    traces = np.trace(dense, axis1=1, axis2=2)[:, None, None]
    values += unit_scale * traces * np.eye(module.coord_dim)
    return CompletelyPositiveMap(source, module, values)


def unitalize(rho: CompletelyPositiveMap) -> CompletelyPositiveMap:
    """Normalize a CP map so that rho(1) = id_E, preserving covariance.

    Conjugates by rho(1)^(-1/2) on the range coordinates; requires rho(1) to
    be invertible there.
    """
    module = rho.module
    s = rho(rho.source.unit()).coords
    s = (s + s.conj().T) / 2.0
    vals, vecs = linalg.hermitian_eigendecomposition(s)
    top = max(float(vals[-1]), 0.0)
    if top <= 0.0:
        raise PreconditionError("rho(1) vanishes; cannot normalize")
    keep = vals > 1e-12 * top
    if int(np.count_nonzero(keep)) != module.coord_dim:
        raise PreconditionError("rho(1) is singular on the module; cannot normalize")
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return CompletelyPositiveMap(rho.source, module, inv_sqrt @ rho.values @ inv_sqrt)


def random_covariant_cp(
    source: FiniteCStarAlgebra,
    module: HilbertModule,
    action: GroupAction,
    rep: UnitaryRepresentation,
    seed: int,
) -> CompletelyPositiveMap:
    """Seeded generator of a unital covariant CP map: average, then normalize."""
    rng = np.random.default_rng(seed)
    sigma = random_cp_map(source, module, rng)
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
