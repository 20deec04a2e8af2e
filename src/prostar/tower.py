"""Finite inverse systems of algebras and modules, coherent elements, and
levelwise constructions with commuting-square verification.

Levels form a finite directed poset; connecting maps run downward
(pi_pq: A_p -> A_q for p >= q) and are surjective *-homomorphisms. Module
towers share one ambient rank, with connecting maps acting entrywise through
the algebra maps, so well-definedness of induced operators is structural.
Every entrywise application, (pi_pq)_*, is `ModuleTower.push`: one product
with the transfer matrix of pi_pq over a whole stack of flats.

Towers are frozen, and their level and map tables are read-only mappings, so
the residuals of `AlgebraTower.verify` and `ModuleTower.verify` are computed
once per tower; a report at `tol` only applies thresholds to them. Every
check over composites walks the same chains p > q > r, `DirectedPoset.triangles`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping

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
from .crossed import CrossedProductRealization, integrated_form
from .dilation import label_shuffles
from .errors import PreconditionError, StructuralError
from .groups import FiniteGroup, GroupAction, UnitaryRepresentation, verify_action
from .linalg import DEFAULT_TOL
from .modules import AdjointableOperator, HilbertModule, complex_matrices


@dataclass(frozen=True)
class DirectedPoset:
    """Finite poset given by its elements and the strict relations b < a."""

    elements: tuple[str, ...]
    relations: frozenset[tuple[str, str]]  # (lower, upper) pairs, strict

    def leq(self, a: str, b: str) -> bool:
        return a == b or (a, b) in self.relations

    def comparable_pairs(self) -> list[tuple[str, str]]:
        """All (upper, lower) pairs with upper > lower."""
        return sorted((b, a) for (a, b) in self.relations)

    @cached_property
    def triangles(self) -> tuple[tuple[str, str, str], ...]:
        """Every chain p > q > r: the pairs (p, q) in `comparable_pairs` order,
        and for each the levels r below q in element order."""
        return tuple(
            (p, q, r)
            for p, q in self.comparable_pairs()
            for r in self.elements
            if r != p and r != q and self.leq(r, q)
        )

    def upper_bound(self, a: str, b: str) -> str | None:
        for c in self.elements:
            if self.leq(a, c) and self.leq(b, c):
                return c
        return None

    def greatest(self) -> str | None:
        for c in self.elements:
            if all(self.leq(x, c) for x in self.elements):
                return c
        return None

    def verify(self) -> VerificationReport:
        anti = 0.0
        witness_anti = ""
        for a, b in self.relations:
            if (b, a) in self.relations or a == b:
                anti, witness_anti = 1.0, f"{a} ~ {b}"
                break
        trans = 0.0
        witness_trans = ""
        for a, b in self.relations:
            for b2, c in self.relations:
                if b2 == b and not self.leq(a, c):
                    trans, witness_trans = 1.0, f"{a} < {b} < {c}"
                    break
        direct = 0.0
        witness_dir = ""
        for a in self.elements:
            for b in self.elements:
                if self.upper_bound(a, b) is None:
                    direct, witness_dir = 1.0, f"({a}, {b})"
        return VerificationReport(
            "directed poset",
            (
                Check("antisymmetry", anti, 0.5, witness_anti),
                Check("transitivity", trans, 0.5, witness_trans),
                Check("directedness", direct, 0.5, witness_dir),
            ),
        )


def _push_entrywise(transfer: np.ndarray, flats: np.ndarray, cols: int) -> np.ndarray:
    """Apply a connecting map to every D_p×D_p entry of a stack of flats.

    `flats` has shape (..., rows·D_p, cols·D_p) with any leading batch axes and
    `transfer` is the map's transfer matrix (`StarHomomorphism._transfer_matrix`,
    formed once per map); all entries of the stack go through one matrix product.
    """
    dq, dp = (math.isqrt(n) for n in transfer.shape)
    *batch, height, _ = flats.shape
    rows = height // dp
    grid = flats.reshape(*batch, rows, dp, cols, dp).swapaxes(-3, -2).reshape(-1, dp * dp)
    out = (grid @ transfer.T).reshape(*batch, rows, cols, dq, dq).swapaxes(-3, -2)
    return out.reshape(*batch, rows * dq, cols * dq)


@dataclass(frozen=True, eq=False)
class AlgebraTower:
    """Inverse system {A_p; pi_pq} over a directed poset; `algebras` and
    `connecting` are copied into read-only mappings."""

    poset: DirectedPoset
    algebras: Mapping[str, FiniteCStarAlgebra]
    connecting: Mapping[tuple[str, str], StarHomomorphism]  # (upper, lower) -> map

    def __post_init__(self):
        object.__setattr__(self, "algebras", MappingProxyType(dict(self.algebras)))
        object.__setattr__(self, "connecting", MappingProxyType(dict(self.connecting)))
        for label in self.poset.elements:
            if label not in self.algebras:
                raise StructuralError(f"no algebra at level {label}")
        for (p, q) in self.poset.comparable_pairs():
            if (p, q) not in self.connecting:
                raise StructuralError(f"missing connecting map {p} -> {q}")
            hom = self.connecting[(p, q)]
            if hom.source != self.algebras[p] or hom.target != self.algebras[q]:
                raise StructuralError(f"connecting map {p} -> {q} has wrong end algebras")

    @classmethod
    def from_covers(
        cls,
        algebras: dict[str, FiniteCStarAlgebra],
        covers: Iterable[tuple[str, str]],
        maps: dict[tuple[str, str], StarHomomorphism],
    ) -> "AlgebraTower":
        """The tower over the order that the relations `covers` generate.

        `algebras` gives the levels in order with their algebras, `covers`
        the relations as (lower, upper) pairs and `maps` the given connecting
        maps, keyed (upper, lower) as `connecting` is. The relations are
        closed transitively, and a cycle is rejected. Each given map is kept;
        each comparable pair p > r without one gets the composite
        pi_qr ∘ pi_pq along the first cover (q, p) with a given map and
        r < q, filled from the bottom level up.
        """
        levels = tuple(algebras)
        covers = list(covers)
        for lower, upper in covers:
            if lower not in algebras or upper not in algebras:
                raise StructuralError(f"relation {lower} < {upper} names an unknown level")
        rels = set(covers)
        while True:
            new = {(a, d) for a, b in rels for c, d in rels if b == c} - rels
            if not new:
                break
            rels |= new
        cycle = sorted(a for a, b in rels if a == b)
        if cycle:
            raise StructuralError(f"relations form a cycle through level {cycle[0]}")
        for upper, lower in maps:
            if (lower, upper) not in rels:
                raise StructuralError(f"map {upper} -> {lower} joins levels that are not related")
        below = {p: sorted(lo for lo, up in rels if up == p) for p in levels}
        connecting = dict(maps)
        for p in sorted(levels, key=lambda level: len(below[level])):
            for r in below[p]:
                if (p, r) in connecting:
                    continue
                q = next(
                    (q for q, up in covers if up == p and (p, q) in maps and (q, r) in connecting),
                    None,
                )
                if q is not None:
                    connecting[(p, r)] = connecting[(q, r)].compose(maps[(p, q)])
        return cls(DirectedPoset(levels, frozenset(rels)), algebras, connecting)

    def map(self, p: str, q: str) -> StarHomomorphism:
        if p == q:
            return StarHomomorphism.identity(self.algebras[p])
        return self.connecting[(p, q)]

    @cached_property
    def _residuals(self) -> tuple[float, str, VerificationReport]:
        """`verify`'s tolerance-free part besides the maps' own checks: the worst
        composition square ||pi_qr pi_pq - pi_pr||_F with its chain, and the
        poset's report."""
        comp, witness = 0.0, ""
        for p, q, r in self.poset.triangles:
            lhs = self.connecting[(q, r)].action_matrix @ self.connecting[(p, q)].action_matrix
            res = linalg.frobenius(lhs - self.connecting[(p, r)].action_matrix)
            if res > comp:
                comp, witness = res, f"{p} -> {q} -> {r}"
        return comp, witness, self.poset.verify()

    def verify(self, tol: float = DEFAULT_TOL) -> VerificationReport:
        """The tower's report at `tol`, from residuals computed once: each
        connecting map's checks are cached on the map, the squares on the tower."""
        hom_res, surj_ok = 0.0, True
        for hom in self.connecting.values():
            rep = verify_star_homomorphism(hom, tol)
            hom_res = max(hom_res, rep.check("multiplicative").residual,
                          rep.check("star").residual, rep.check("unital").residual)
            surj_ok = surj_ok and rep.check("surjective").passed
        comp, witness, poset_report = self._residuals
        checks = (
            Check("connecting maps are *-homomorphisms", float(hom_res), tol),
            Check("connecting maps surjective", 0.0 if surj_ok else 1.0, 0.5),
            Check("composition squares", float(comp), tol, witness),
        ) + poset_report.checks
        return VerificationReport("algebra tower", checks)


@dataclass(eq=False)
class CoherentElement:
    """A level-indexed family carried onto itself by the connecting maps."""

    tower: AlgebraTower
    levels: dict[str, AlgebraElement]

    def __post_init__(self):
        for label in self.tower.poset.elements:
            if label not in self.levels:
                raise StructuralError(f"no component at level {label}")
            if self.levels[label].algebra != self.tower.algebras[label]:
                raise StructuralError(f"component at {label} is in the wrong algebra")

    @classmethod
    def from_top(cls, tower: AlgebraTower, top: str, a: AlgebraElement) -> "CoherentElement":
        levels = {top: a}
        for label in tower.poset.elements:
            if label != top:
                if not tower.poset.leq(label, top):
                    raise StructuralError(f"level {label} is not below {top}")
                levels[label] = tower.map(top, label).apply(a)
        return cls(tower, levels)

    def verify(self, tol: float = DEFAULT_TOL) -> VerificationReport:
        worst, witness = 0.0, ""
        for (p, q) in self.tower.poset.comparable_pairs():
            res = (self.tower.map(p, q).apply(self.levels[p]) - self.levels[q]).frobenius()
            if res > worst:
                worst, witness = res, f"{p} -> {q}"
        return VerificationReport(
            "coherent element", (Check("coherence", float(worst), tol, witness),)
        )

    def seminorm(self, level: str) -> float:
        if level not in self.levels:
            raise StructuralError(f"unknown level {level}")
        return self.levels[level].operator_norm()

    def __add__(self, other: "CoherentElement") -> "CoherentElement":
        return CoherentElement(
            self.tower, {k: v + other.levels[k] for k, v in self.levels.items()}
        )

    def __mul__(self, other: "CoherentElement") -> "CoherentElement":
        return CoherentElement(
            self.tower, {k: v * other.levels[k] for k, v in self.levels.items()}
        )

    def adjoint(self) -> "CoherentElement":
        return CoherentElement(self.tower, {k: v.adjoint() for k, v in self.levels.items()})


@dataclass(eq=False)
class TowerAction:
    """A group acting compatibly on every level of an algebra tower.

    This is the inverse system of actions (G, A_p, alpha_p) that a locally
    C*-dynamical system is the limit of (N. C. Phillips, "Inverse limits of
    C*-algebras", J. Operator Theory 1988): `verify` checks each level's
    action and that every connecting map intertwines them,
    pi_pq ∘ alpha_p(g) = alpha_q(g) ∘ pi_pq. No construction here takes one
    (the levelwise checks vary the coefficient algebra B_p and keep one
    action on A), but it is the object the paper's inverse-limit setting of
    the acting algebra starts from.
    """

    group: FiniteGroup
    tower: AlgebraTower
    actions: dict[str, GroupAction]

    def verify(self, tol: float = DEFAULT_TOL) -> VerificationReport:
        level_res = 0.0
        for label in self.tower.poset.elements:
            act = self.actions[label]
            if act.group != self.group or act.algebra != self.tower.algebras[label]:
                raise StructuralError(f"action at level {label} does not match the tower")
            level_res = max(level_res, verify_action(act, tol).max_residual)
        compat, witness = 0.0, ""
        for (p, q) in self.tower.poset.comparable_pairs():
            pi = self.tower.map(p, q).action_matrix
            res = linalg.frobenius_each(
                self.actions[q]._action_tensor @ pi - pi @ self.actions[p]._action_tensor
            )
            g = int(np.argmax(res))
            if res[g] > compat:
                compat, witness = float(res[g]), f"g={g}, {p} -> {q}"
        return VerificationReport(
            "tower action",
            (
                Check("levelwise actions", float(level_res), tol),
                Check("compatibility with connecting maps", float(compat), tol, witness),
            ),
        )


@dataclass(frozen=True, eq=False)
class ModuleTower:
    """Inverse system of modules over an algebra tower, sharing one ambient rank.

    The connecting maps sigma_pq act entrywise through pi_pq, so
    sigma(xi·a) = sigma(xi)·pi(a) and <sigma xi, sigma eta> = pi(<xi, eta>)
    hold structurally and are re-verified numerically. `modules` is copied
    into a read-only mapping.
    """

    base: AlgebraTower
    modules: Mapping[str, HilbertModule]

    def __post_init__(self):
        object.__setattr__(self, "modules", MappingProxyType(dict(self.modules)))
        ranks = {m.rank for m in self.modules.values()}
        if len(ranks) != 1:
            raise StructuralError("module tower levels must share the ambient rank")
        for label in self.base.poset.elements:
            if label not in self.modules:
                raise StructuralError(f"no module at level {label}")
            if self.modules[label].algebra != self.base.algebras[label]:
                raise StructuralError(f"module at {label} is over the wrong algebra")

    @classmethod
    def of_free_modules(cls, base: AlgebraTower, rank: int) -> "ModuleTower":
        return cls(
            base, {label: HilbertModule.free(alg, rank) for label, alg in base.algebras.items()}
        )

    @classmethod
    def pushed_down(cls, base: AlgebraTower, top: str, top_module: HilbertModule) -> "ModuleTower":
        """Tower generated by one module at the top level: E_q = pi(P)·B_q^n."""
        if top_module.algebra != base.algebras[top]:
            raise StructuralError(f"module is not over the level-{top} algebra")
        modules = {top: top_module}
        for label in base.poset.elements:
            if label == top:
                continue
            if not base.poset.leq(label, top):
                raise StructuralError(f"level {label} is not below {top}")
            proj = _push_entrywise(
                base.map(top, label)._transfer_matrix, top_module.projection_flat, top_module.rank
            )
            modules[label] = HilbertModule(base.algebras[label], top_module.rank, proj)
        return cls(base, modules)

    def push(self, p: str, q: str, flats: np.ndarray, cols: int) -> np.ndarray:
        """(pi_pq)_* on a stack of flats (..., rows·D_p, cols·D_p): pi_pq on every entry.

        Elements of the level-p module have cols = 1, operators on it cols = rank.
        """
        if p == q:
            return flats
        if (p, q) not in self.base.connecting:
            raise StructuralError(f"no connecting map {p} -> {q}")
        return _push_entrywise(self.base.connecting[(p, q)]._transfer_matrix, flats, cols)

    def induced_operator(self, p: str, q: str, t: AdjointableOperator) -> AdjointableOperator:
        """(pi_pq)_* applied to an operator at level p."""
        if t.domain != self.modules[p] or t.codomain != self.modules[p]:
            raise StructuralError(f"operator does not live at level {p}")
        if p == q:
            return t
        eq = self.modules[q]
        return AdjointableOperator(eq, eq, self.push(p, q, t.flat, eq.rank))

    @cached_property
    def _residuals(self) -> tuple[float, str, float, float]:
        """`verify`'s residuals, free of tol: projections (with the worst pair),
        inner products, and sigma composition."""
        proj_res, inner_res, witness = 0.0, 0.0, ""
        for (p, q) in self.base.poset.comparable_pairs():
            ep = self.modules[p]
            mapped_proj = self.push(p, q, ep.projection_flat, ep.rank)
            res = linalg.frobenius(mapped_proj - self.modules[q].projection_flat)
            if res > proj_res:
                proj_res, witness = res, f"{p} -> {q}"
            # <sigma b_i, sigma b_j> = pi(<b_i, b_j>) for every pair of basis elements.
            basis = ep.basis_tensor
            pushed = self.push(p, q, basis, 1)
            gap = self.push(p, q, _pairwise_inner(basis), 1) - _pairwise_inner(pushed)
            inner_res = max(inner_res, linalg.max_frobenius(gap))
        comp = 0.0
        for p, q, r in self.base.poset.triangles:
            probe = self.modules[p].projection_flat[:, : self.modules[p].block_dim]
            via = self.push(q, r, self.push(p, q, probe, 1), 1)
            comp = max(comp, linalg.frobenius(via - self.push(p, r, probe, 1)))
        return proj_res, witness, inner_res, comp

    def verify(self, tol: float = DEFAULT_TOL) -> VerificationReport:
        """The module tower's report at `tol`, from `_residuals`, computed once."""
        proj_res, witness, inner_res, comp = self._residuals
        checks = (
            Check("projections connect", float(proj_res), tol, witness),
            Check("inner products connect", float(inner_res), tol),
            Check("sigma composition", float(comp), tol),
        )
        return VerificationReport("module tower", checks)


def _pairwise_inner(flats: np.ndarray) -> np.ndarray:
    """The stack [x_i* x_j] over all pairs of a stack of flats x_i."""
    return np.matmul(flats.conj().swapaxes(-1, -2)[:, None], flats[None])


def _pushed_pair(
    mt: ModuleTower,
    top: str,
    q: str,
    rho: CompletelyPositiveMap,
    u: UnitaryRepresentation,
) -> tuple[CompletelyPositiveMap, UnitaryRepresentation]:
    """A CP map and a representation at the top level, each carried to level q by one push."""
    if q == top:
        return rho, u
    eq = mt.modules[q]
    values = mt.push(top, q, rho._value_tensor, eq.rank)
    unitaries = mt.push(top, q, u._unitary_tensor, eq.rank)
    return (
        CompletelyPositiveMap(rho.source, eq, eq.operators(values)),
        UnitaryRepresentation(u.group, eq, eq.operators(unitaries)),
    )


@dataclass
class CoherenceReport:
    report: VerificationReport
    level_dimensions: dict[str, int]

    @property
    def passed(self) -> bool:
        return self.report.passed

    @property
    def max_residual(self) -> float:
        return self.report.max_residual


def _connecting_class_matrix(
    mt: ModuleTower, p: str, q: str, cores, dim_a: int
) -> tuple[np.ndarray, np.ndarray]:
    """Class-coordinate matrix of the map a(x)xi -> a(x)sigma(xi) on the quotients,
    and the matrix y of sigma_pq: E_p -> E_q in the complex bases."""
    ep, eq = mt.modules[p], mt.modules[q]
    pushed = mt.push(p, q, ep.basis_tensor, 1)
    y = eq._basis_pinv @ pushed.reshape(ep.complex_dim, -1).T  # (d_q, d_p)
    rows, cols = cores[q].quotient.spanning_labels, cores[p].quotient.spanning_labels
    shuffle = label_shuffles(rows, cols, np.eye(dim_a)[None], y[None])[0]
    return cores[q]._coord_map @ shuffle @ cores[p]._class_embed, y


def _square(m: np.ndarray, fp: HilbertModule, fq: HilbertModule, ops_p, ops_q) -> float:
    """max_k ||m A_k - B_k m||_F for stacked operators A_k on F_p and B_k on F_q."""
    a, b = complex_matrices(fp, fp, ops_p), complex_matrices(fq, fq, ops_q)
    return linalg.max_frobenius(m @ a - b @ m)


def levelwise_dilation_coherence(
    rho_top: CompletelyPositiveMap,
    action: GroupAction,
    rep_top: UnitaryRepresentation,
    mt: ModuleTower,
    *,
    tol: float = DEFAULT_TOL,
) -> CoherenceReport:
    """Build the covariant dilation at every level and verify the commuting squares.

    rho and u are given at the top level and pushed down; the connecting maps
    between the level dilation modules send a (x) xi to a (x) sigma(xi) and
    are verified to intertwine the representations, the connectors, and the
    level unitaries, and to respect the B-valued inner products.
    """
    from .dilation import covariant_extend, minimal_dilation

    top = mt.base.poset.greatest()
    if top is None:
        raise PreconditionError("module tower has no greatest level to push from")
    if rho_top.module != mt.modules[top]:
        raise StructuralError(f"rho is not defined on the level-{top} module")

    base_report = mt.base.verify(tol)
    mod_report = mt.verify(tol)
    if not (base_report.passed and mod_report.passed):
        raise PreconditionError("the underlying towers fail verification")

    levels = list(mt.base.poset.elements)
    cores, dils = {}, {}
    for q in levels:
        rho_q, u_q = _pushed_pair(mt, top, q, rho_top, rep_top)
        # minimal_dilation certifies rho_q as CP; covariant_extend checks covariance.
        cores[q] = minimal_dilation(rho_q, tol=tol)
        dils[q] = covariant_extend(cores[q], action, u_q, tol)

    checks: list[Check] = [
        Check("levelwise dilations verified",
              max(dils[q].residuals.max_residual for q in levels), max(tol, 1e-9)),
    ]
    class_maps: dict[tuple[str, str], np.ndarray] = {}
    rep_sq = conn_sq = v_sq = gram_sq = surj = 0.0
    dim_a = rho_top.source.linear_dim
    for (p, q) in mt.base.poset.comparable_pairs():
        m_pq, y = _connecting_class_matrix(mt, p, q, cores, dim_a)
        class_maps[(p, q)] = m_pq
        fp, fq = dils[p].module, dils[q].module
        rep_sq = max(rep_sq, _square(m_pq, fp, fq, dils[p].representation._value_tensor,
                                     dils[q].representation._value_tensor))
        v_sq = max(v_sq, _square(m_pq, fp, fq, dils[p].group_unitaries._unitary_tensor,
                                 dils[q].group_unitaries._unitary_tensor))
        cm_v_p = dils[p].connector.complex_matrix()
        cm_v_q = dils[q].connector.complex_matrix()
        conn_sq = max(conn_sq, linalg.frobenius(m_pq @ cm_v_p - cm_v_q @ y))
        # Inner products: <Sigma x, Sigma y> = pi(<x, y>) on the class basis.
        images = (fq._basis_stack @ m_pq).T.reshape(-1, fq.flat_dim, fq.block_dim)
        mapped = np.hstack(images)
        lhs = mapped.conj().T @ mapped
        h_p = cores[p]._sqrt_flat @ cores[p]._sqrt_flat
        gram_sq = max(gram_sq, linalg.frobenius(lhs - mt.push(p, q, h_p, fp.rank)))
        surj = max(surj, float(fq.complex_dim - linalg.matrix_rank(m_pq)))
    func = 0.0
    for p, q, r in mt.base.poset.triangles:
        composite = class_maps[(q, r)] @ class_maps[(p, q)]
        func = max(func, linalg.frobenius(composite - class_maps[(p, r)]))

    checks.extend(
        [
            Check("squares: representations", float(rep_sq), max(tol, 1e-9)),
            Check("squares: connectors", float(conn_sq), max(tol, 1e-9)),
            Check("squares: group unitaries", float(v_sq), max(tol, 1e-9)),
            Check("squares: inner products", float(gram_sq), max(tol, 1e-9)),
            Check("level dilation modules match", float(surj), 0.5),
            Check("functoriality of connecting maps", float(func), max(tol, 1e-9)),
        ]
    )
    return CoherenceReport(
        report=VerificationReport("levelwise dilation coherence", tuple(checks)),
        level_dimensions={q: dils[q].module.complex_dim for q in levels},
    )


def levelwise_integrated_coherence(
    phi_top: CompletelyPositiveMap,
    v_top: UnitaryRepresentation,
    xp: CrossedProductRealization,
    mt: ModuleTower,
    *,
    tol: float = DEFAULT_TOL,
) -> CoherenceReport:
    """Integrate a covariant representation at every level and check coherence.

    Verifies (pi_qr)_*((Phi_q x v_q)(f)) = (Phi_r x v_r)(f) on the spanning
    set {delta_g (x) a_i} for every comparable pair of levels.
    """
    top = mt.base.poset.greatest()
    if top is None:
        raise PreconditionError("module tower has no greatest level to push from")
    if phi_top.module != mt.modules[top]:
        raise StructuralError(f"Phi is not defined on the level-{top} module")

    levels = list(mt.base.poset.elements)
    forms = {q: integrated_form(*_pushed_pair(mt, top, q, phi_top, v_top), xp, tol) for q in levels}

    level_res = max(forms[q].report.max_residual for q in levels)
    conn = 0.0
    for (p, q) in mt.base.poset.comparable_pairs():
        pushed = mt.push(p, q, forms[p].spanning_values, mt.modules[p].rank)
        conn = max(conn, linalg.max_frobenius(pushed - forms[q].spanning_values))
    checks = (
        Check("levelwise integrated forms verified", float(level_res), max(tol, 1e-9)),
        Check("connecting identity on the spanning set", float(conn), max(tol, 1e-9)),
    )
    return CoherenceReport(
        report=VerificationReport("levelwise integrated-form coherence", tuple(checks)),
        level_dimensions={q: forms[q].module.complex_dim for q in levels},
    )
