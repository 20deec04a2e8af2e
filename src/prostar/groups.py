"""Finite groups, actions by *-automorphisms, unitary representations, covariance.

Groups are Cayley tables over indices 0..order-1. The modular function is
housed as the constant 1 (finite groups are unimodular); convolution-algebra
formulas keep the factor for fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from typing import Sequence

import numpy as np

from . import linalg
from .algebra import (
    AlgebraElement,
    Check,
    FiniteCStarAlgebra,
    StarHomomorphism,
    VerificationReport,
    verify_star_homomorphism,
)
from .cpmaps import CompletelyPositiveMap
from .errors import StructuralError
from .linalg import DEFAULT_TOL
from .modules import AdjointableOperator, HilbertModule, endomorphism_stack, range_coords

TIE_REL = 1e-12  # residuals this close to the largest, relative to the values, tie


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group as a Cayley table: entry [g][h] is the index of g·h."""

    cayley: tuple[tuple[int, ...], ...]
    element_names: tuple[str, ...] = ()

    def __post_init__(self):
        n = len(self.cayley)
        if any(len(row) != n for row in self.cayley):
            raise StructuralError("Cayley table must be square")
        if any(not (0 <= v < n) for row in self.cayley for v in row):
            raise StructuralError("Cayley table entries out of range")
        if not self.element_names:
            object.__setattr__(self, "element_names", tuple(str(i) for i in range(n)))

    @classmethod
    def from_table(cls, table, names: Sequence[str] = ()) -> "FiniteGroup":
        rows = tuple(tuple(int(v) for v in row) for row in table)
        return cls(rows, tuple(names))

    @classmethod
    def trivial(cls) -> "FiniteGroup":
        return cls.cyclic(1)

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        table = tuple(tuple((g + h) % n for h in range(n)) for g in range(n))
        return cls(table, tuple(str(k) for k in range(n)))

    @classmethod
    def symmetric(cls, n: int) -> "FiniteGroup":
        """S_n on {0..n-1}; element order is lexicographic in one-line notation."""
        perms = list(permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        table = tuple(
            tuple(index[tuple(p[q[x]] for x in range(n))] for q in perms) for p in perms
        )
        names = tuple("".join(str(x) for x in p) for p in perms)
        return cls(table, names)

    @property
    def order(self) -> int:
        return len(self.cayley)

    @cached_property
    def identity(self) -> int | None:
        for e in range(self.order):
            if all(self.cayley[e][h] == h and self.cayley[h][e] == h for h in range(self.order)):
                return e
        return None

    @cached_property
    def inverses(self) -> tuple[int | None, ...]:
        e = self.identity
        out = []
        for g in range(self.order):
            inv = None
            if e is not None:
                for h in range(self.order):
                    if self.cayley[g][h] == e and self.cayley[h][g] == e:
                        inv = h
                        break
            out.append(inv)
        return tuple(out)

    def multiply(self, g: int, h: int) -> int:
        return self.cayley[g][h]

    def inverse(self, g: int) -> int:
        inv = self.inverses[g]
        if inv is None:
            raise StructuralError(f"element {g} has no inverse in this table")
        return inv

    def modular_function(self, g: int) -> float:
        """Finite groups are unimodular."""
        return 1.0

    def elements(self) -> range:
        return range(self.order)

    def __str__(self) -> str:
        return f"group of order {self.order}"


def verify_group(group: FiniteGroup) -> VerificationReport:
    """Exhaustive identity/inverse/associativity check with a witness on failure."""
    identity_fail = 1.0 if group.identity is None else 0.0
    inverse_fail, inverse_witness = 0.0, ""
    for g in range(group.order):
        if group.inverses[g] is None:
            inverse_fail = 1.0
            inverse_witness = f"element {g}"
            break
    assoc_fail, assoc_witness = 0.0, ""
    for a in range(group.order):
        for b in range(group.order):
            for c in range(group.order):
                if group.cayley[group.cayley[a][b]][c] != group.cayley[a][group.cayley[b][c]]:
                    assoc_fail = 1.0
                    assoc_witness = f"triple ({a},{b},{c})"
                    break
            if assoc_fail:
                break
        if assoc_fail:
            break
    return VerificationReport(
        "group axioms",
        (
            Check("identity exists", identity_fail, 0.5),
            Check("inverses exist", inverse_fail, 0.5, inverse_witness),
            Check("associativity", assoc_fail, 0.5, assoc_witness),
        ),
    )


@dataclass(frozen=True, eq=False)
class GroupAction:
    """Action of a finite group on an algebra by *-automorphisms."""

    group: FiniteGroup
    algebra: FiniteCStarAlgebra
    automorphisms: tuple[StarHomomorphism, ...]

    def __post_init__(self):
        if len(self.automorphisms) != self.group.order:
            raise StructuralError("need one automorphism per group element")
        for phi in self.automorphisms:
            if phi.source != self.algebra or phi.target != self.algebra:
                raise StructuralError("automorphisms must map the algebra to itself")
        object.__setattr__(self, "automorphisms", tuple(self.automorphisms))

    @classmethod
    def trivial(cls, group: FiniteGroup, algebra: FiniteCStarAlgebra) -> "GroupAction":
        ident = StarHomomorphism.identity(algebra)
        return cls(group, algebra, tuple(ident for _ in range(group.order)))

    @classmethod
    def by_conjugation(
        cls, group: FiniteGroup, algebra: FiniteCStarAlgebra, unitary_blocks: Sequence
    ) -> "GroupAction":
        """Inner action g -> Ad(u_g) from per-element blockwise unitaries."""
        autos = tuple(
            StarHomomorphism.conjugation_by(algebra, blocks) for blocks in unitary_blocks
        )
        return cls(group, algebra, autos)

    @classmethod
    def by_block_permutation(
        cls, group: FiniteGroup, algebra: FiniteCStarAlgebra, perms: Sequence[Sequence[int]]
    ) -> "GroupAction":
        """Outer action permuting equal-sized blocks, one permutation per element."""
        autos = tuple(StarHomomorphism.block_permutation(algebra, p) for p in perms)
        return cls(group, algebra, autos)

    @cached_property
    def _action_tensor(self) -> np.ndarray:
        """The action matrices stacked by group element (read-only), formed once."""
        stack = np.stack([phi.action_matrix for phi in self.automorphisms], axis=0)
        stack.setflags(write=False)
        return stack

    def apply(self, g: int, a: AlgebraElement) -> AlgebraElement:
        return self.automorphisms[g].apply(a)

    def __str__(self) -> str:
        return f"action of {self.group} on {self.algebra}"


def verify_action(action: GroupAction, tol: float = DEFAULT_TOL) -> VerificationReport:
    group, maps = action.group, action._action_tensor
    e = group.identity
    id_resid = np.inf if e is None else linalg.frobenius(maps[e] - np.eye(len(maps[e])))
    cocycle = group_law_residual(maps, group)
    star_hom = 0.0
    bijective = True
    for g in group.elements():
        rep = verify_star_homomorphism(action.automorphisms[g], tol)
        star_hom = max(star_hom, rep.max_residual)
        bijective = bijective and action.automorphisms[g].is_bijective()
    return VerificationReport(
        "group action",
        (
            Check("unit acts as identity", float(id_resid), tol),
            Check("cocycle law", float(cocycle), tol),
            Check("*-automorphisms", float(star_hom), tol),
            Check("bijectivity", 0.0 if bijective else 1.0, 0.5),
        ),
    )


@dataclass(frozen=True, eq=False)
class UnitaryRepresentation:
    """Unitary representation of a finite group on a Hilbert module, held as one
    read-only stack of range coordinates, (|G|, rank P, rank P)
    (`modules.endomorphism_stack`)."""

    group: FiniteGroup
    module: HilbertModule
    values: np.ndarray

    def __post_init__(self):
        stack = endomorphism_stack(self.module, self.values, self.group.order, "unitaries")
        object.__setattr__(self, "values", stack)

    @classmethod
    def trivial(cls, group: FiniteGroup, module: HilbertModule) -> "UnitaryRepresentation":
        return cls(group, module, np.array([np.eye(module.coord_dim)] * group.order))

    @classmethod
    def from_complex_matrices(
        cls, group: FiniteGroup, module: HilbertModule, matrices: Sequence
    ) -> "UnitaryRepresentation":
        """Promote a complex unitary representation entrywise to operators over B,
        each compressed to P·(m ⊗ 1)·P."""
        m = np.array([linalg.as_complex_matrix(x) for x in matrices])
        if m.shape[1:] != (module.rank, module.rank):
            raise StructuralError(f"matrix shape {m.shape[1:]} != {(module.rank, module.rank)}")
        flats = np.kron(m, np.eye(module.block_dim, dtype=np.complex128))
        return cls(group, module, range_coords(module, module, flats))

    @property
    def unitaries(self) -> tuple[AdjointableOperator, ...]:
        """The unitaries as operators: views for readers outside the package."""
        return tuple(AdjointableOperator(self.module, self.module, y) for y in self.values)

    @cached_property
    def _residuals(self) -> tuple[float, float, float, float]:
        """`verify_unitary_representation`'s tolerance-free part, formed once:
        the identity residual ||u_e - 1||_F, unitarity
        max_g max(||u_g* u_g - 1||_F, ||u_g u_g* - 1||_F), the group law
        max_{g,h} ||u_g u_h - u_gh||_F (`group_law_residual`) and the inverse
        law max_g ||u_{g^-1} - u_g*||_F. The integrated form's standard-map
        bound reads unitarity and the group law too."""
        group, u = self.group, self.values
        p = np.eye(self.module.coord_dim, dtype=np.complex128)
        e = group.identity
        identity = np.inf if e is None else linalg.frobenius(u[e] - p)
        u_star = u.conj().swapaxes(-1, -2)
        unitary = max(linalg.max_frobenius(u_star @ u - p), linalg.max_frobenius(u @ u_star - p))
        law = group_law_residual(u, group)
        if any(inv is None for inv in group.inverses):
            inverse = np.inf
        else:
            inverse = linalg.max_frobenius(u[list(group.inverses)] - u_star)
        return float(identity), float(unitary), float(law), float(inverse)

    def __str__(self) -> str:
        return f"unitary representation of {self.group} on {self.module}"


def group_law_residual(stack: np.ndarray, group: FiniteGroup) -> float:
    """max over g, h of ||X_g X_h - X_{gh}||_F for a stack X indexed by the group.

    The Cayley table is the integer product table of `linalg.max_product_residual`:
    the products are streamed in chunks and compared with X gathered through it.
    """
    return linalg.max_product_residual(stack, stack, stack, np.asarray(group.cayley))


def verify_unitary_representation(
    rep: UnitaryRepresentation, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """The unitary-representation report of `rep` at `tol`, from its cached
    residuals (`UnitaryRepresentation._residuals`)."""
    id_resid, unitary, mult, inverse = rep._residuals
    return VerificationReport(
        "unitary representation",
        (
            Check("unit maps to identity", id_resid, tol),
            Check("unitarity", unitary, tol),
            Check("multiplicativity", mult, tol),
            Check("inverse law u_{g^-1} = u_g*", inverse, tol),
        ),
    )


def _require_covariant_data(
    rho: CompletelyPositiveMap, action: GroupAction, rep: UnitaryRepresentation
) -> None:
    """Raise StructuralError unless rho, the action and rep fit together."""
    if action.algebra != rho.source:
        raise StructuralError("action algebra differs from the map's source")
    if rep.module != rho.module:
        raise StructuralError("representation module differs from the map's target module")
    if action.group != rep.group:
        raise StructuralError("action and representation use different groups")


def _covariance_stacks(
    values: np.ndarray, unitaries: np.ndarray, action: GroupAction
) -> tuple[np.ndarray, np.ndarray]:
    """(M, C), each (|G|, dim A, p, p), for a value stack X (one p×p matrix per
    basis element) and unitaries V_g indexed by g: the two sides of covariance,
    M[g, i] = sum_j A_g[j, i] X_j (the image of alpha_g(a_i)) and
    C[g, i] = V_g X_i V_g*.

    M is one product of the action tensor, (|G|·dim A, dim A) with each A_g
    transposed, with the values as (dim A, p²). C is one
    `linalg.pair_products` product (|G|·p, p) @ (p, dim A·p), whose rows
    (g, r) hold V_g X_i for every i side by side, followed by |G| products
    of those dim A·p rows with V_g*. The stacks of all of G are alive at once,
    2·|G|·dim A·p² entries and the products forming them.
    """
    order, dim, p = len(unitaries), len(values), values.shape[-1]
    acts = action._action_tensor.transpose(0, 2, 1).reshape(order * dim, dim)
    moved = (acts @ values.reshape(dim, p * p)).reshape(order, dim, p, p)
    # pair_products returns its (|G|, p, dim A, p) product transposed; undo the view.
    left = linalg.pair_products(unitaries, values).transpose(0, 2, 1, 3)
    conj = np.matmul(left.reshape(order, p * dim, p), unitaries.conj().transpose(0, 2, 1))
    return moved, conj.reshape(order, p, dim, p).transpose(0, 2, 1, 3)


def check_covariance(
    rho: CompletelyPositiveMap,
    action: GroupAction,
    rep: UnitaryRepresentation,
    tol: float = DEFAULT_TOL,
) -> VerificationReport:
    """Residuals of rho(alpha_g(a)) = u_g rho(a) u_g* over all g and basis a, on
    the range coordinates of the module; mismatched data raise StructuralError
    first.

    Tie rule: the witness is the first (g, basis #i), g-major, whose residual
    is within TIE_REL·max(1, max_i ||rho(a_i)||_F) of the largest. Rounding
    moves a residual far less, so the witness does not depend on the
    coordinates the map is held in; at rounding level the first pair is named.
    """
    _require_covariant_data(rho, action, rep)
    values = rho.values
    moved, conj = _covariance_stacks(values, rep.values, action)
    resid = linalg.frobenius_each(moved - conj)
    worst, witness = float(np.max(resid)), ""
    if worst > 0.0:
        band = TIE_REL * max(1.0, linalg.max_frobenius(values))
        g, i = divmod(int(np.argmax(resid >= worst - band)), resid.shape[1])
        witness = f"g={g}, basis #{i}"
    return VerificationReport(
        "covariance", (Check("rho(alpha_g(a)) = u_g rho(a) u_g*", worst, tol, witness),)
    )


def covariant_average(
    sigma: CompletelyPositiveMap,
    action: GroupAction,
    rep: UnitaryRepresentation,
) -> CompletelyPositiveMap:
    """Group-average a CP map into a covariant one:

        rho(a) = (1/|G|) * sum_g u_g* sigma(alpha_g(a)) u_g
    """
    if action.algebra != sigma.source or rep.module != sigma.module:
        raise StructuralError("averaging data does not match the map")
    # moved[g, i] = sigma(alpha_g(a_i)), the moved side of covariance.
    moved, _ = _covariance_stacks(sigma.values, rep.values, action)
    u = rep.values[:, None]
    values = np.mean(u.conj().swapaxes(-1, -2) @ moved @ u, axis=0)
    return CompletelyPositiveMap(sigma.source, sigma.module, values)
