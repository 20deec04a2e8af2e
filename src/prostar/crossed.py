"""Convolution algebra C(G,A), its concrete C*-realization, and extensions.

The crossed product is realized by the regular representation on the
defining space of A tensored with functions on G: a acts by alpha_{t^-1}(a)
at coordinate t, the group shifts coordinates, and a function f embeds as
sum_g pi(f(g)) lambda_g. Integration over the finite group is the plain sum
(counting Haar measure); the modular function is constant 1 but kept in the
involution formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .algebra import (
    AlgebraElement,
    Check,
    FiniteCStarAlgebra,
    VerificationReport,
    WedderburnDecomposition,
    bound_or_exact,
    wedderburn_decompose,
)
from .cpmaps import CompletelyPositiveMap, CPCertificate
from .dilation import CovariantDilation
from .errors import NumericalError, PreconditionError, StructuralError
from .groups import (
    GroupAction,
    UnitaryRepresentation,
    _covariance_stacks,
    _moved_stack,
    _require_covariant_data,
)
from .linalg import DEFAULT_TOL
from .modules import AdjointableOperator, HilbertModule


@dataclass(eq=False)
class ConvolutionElement:
    """A function f: G -> A attached to a dynamical system (G, A, alpha)."""

    system: GroupAction
    values: tuple[AlgebraElement, ...]

    def __post_init__(self):
        if len(self.values) != self.system.group.order:
            raise StructuralError("need one value per group element")
        for v in self.values:
            if v.algebra != self.system.algebra:
                raise StructuralError("value outside the coefficient algebra")

    @classmethod
    def delta(cls, system: GroupAction, g: int, a: AlgebraElement) -> "ConvolutionElement":
        values = [system.algebra.zero() for _ in range(system.group.order)]
        values[g] = a
        return cls(system, tuple(values))

    @classmethod
    def unit(cls, system: GroupAction) -> "ConvolutionElement":
        e = system.group.identity
        if e is None:
            raise StructuralError("system group has no identity")
        return cls.delta(system, e, system.algebra.unit())

    def _require_same(self, other: "ConvolutionElement") -> None:
        if self.system is not other.system and (
            self.system.group != other.system.group
            or self.system.algebra != other.system.algebra
        ):
            raise StructuralError("convolution elements from different systems")

    def __add__(self, other: "ConvolutionElement") -> "ConvolutionElement":
        self._require_same(other)
        return ConvolutionElement(
            self.system, tuple(a + b for a, b in zip(self.values, other.values))
        )

    def __sub__(self, other: "ConvolutionElement") -> "ConvolutionElement":
        self._require_same(other)
        return ConvolutionElement(
            self.system, tuple(a - b for a, b in zip(self.values, other.values))
        )

    def __rmul__(self, scalar) -> "ConvolutionElement":
        return ConvolutionElement(self.system, tuple(complex(scalar) * a for a in self.values))

    def convolve(self, other: "ConvolutionElement") -> "ConvolutionElement":
        """(f x h)(s) = sum_t f(t) alpha_t(h(t^-1 s))."""
        self._require_same(other)
        group, action = self.system.group, self.system
        out = []
        for s in group.elements():
            acc = self.system.algebra.zero()
            for t in group.elements():
                idx = group.multiply(group.inverse(t), s)
                acc = acc + self.values[t] * action.apply(t, other.values[idx])
            out.append(acc)
        return ConvolutionElement(self.system, tuple(out))

    def involution(self) -> "ConvolutionElement":
        """f#(t) = Delta(t)^-1 alpha_t(f(t^-1)*); Delta is 1 on a finite group."""
        group, action = self.system.group, self.system
        out = []
        for t in group.elements():
            factor = 1.0 / group.modular_function(t)
            out.append(factor * action.apply(t, self.values[group.inverse(t)].adjoint()))
        return ConvolutionElement(self.system, tuple(out))

    def l1_seminorm(self, level_map=None) -> float:
        """N(f) = sum_g ||f(g)||, optionally evaluated at a lower tower level.

        `level_map` is a connecting *-homomorphism out of the coefficient
        algebra; values are pushed through it before taking norms.
        """
        if level_map is None:
            return float(sum(v.operator_norm() for v in self.values))
        if level_map.source != self.system.algebra:
            raise StructuralError("level map does not start at the coefficient algebra")
        return float(sum(level_map.apply(v).operator_norm() for v in self.values))

    def coords(self) -> np.ndarray:
        """Coordinates in the g-major spanning order delta_g (x) basis_i."""
        return np.concatenate([v.coords() for v in self.values])


def _spanning_stack(system: GroupAction) -> np.ndarray:
    """E, the embedding of the spanning set delta_g (x) a_i in g-major order, (m, N, N).

    Block (t, t') of f is alpha_{t^-1}(f(t t'^-1)), so the only nonzero
    blocks of delta_g a_i are (t, g^-1 t), each alpha_{t^-1}(a_i): column i
    of the action matrix of t^-1 scattered onto the dense support. The
    whole stack is filled by one indexed assignment of those |G|·dim
    dense blocks.
    """
    group, alg = system.group, system.algebra
    order, dim, d = group.order, alg.linear_dim, alg.total_dim
    inv = np.array([group.inverse(t) for t in group.elements()])
    moved = alg.dense_stack(system._action_tensor[inv].transpose(0, 2, 1))
    g, t = np.indices((order, order))
    cols = np.asarray(group.cayley)[inv[g], t]
    stack = np.zeros((order, dim, order, d, order, d), dtype=np.complex128)
    stack[g, :, t, :, cols, :] = moved[t]
    stack.setflags(write=False)
    return stack.reshape(order * dim, order * d, order * d)


def _identity_row(system: GroupAction, stack: np.ndarray) -> np.ndarray:
    """Coordinates (..., |G|, dim) read off the identity block row of a stack
    (..., N, N): at g, the block (e, g^-1), where f(g) sits."""
    group, alg = system.group, system.algebra
    order, d = group.order, alg.total_dim
    inv = [group.inverse(g) for g in group.elements()]
    grid = stack.reshape(stack.shape[:-2] + (order, d, order, d))
    return alg.coords_stack(np.moveaxis(grid[..., group.identity, :, inv, :], 0, -3))


@dataclass(frozen=True, eq=False)
class CrossedProductRealization:
    """A⋊G: regular-representation embedding plus its standard form."""

    system: GroupAction
    ambient_dim: int
    spanning_stack: np.ndarray
    wedderburn: WedderburnDecomposition
    embedding_report: VerificationReport

    @property
    def standard_algebra(self) -> FiniteCStarAlgebra:
        return self.wedderburn.standard_form

    def embed(self, f: ConvolutionElement) -> np.ndarray:
        """Concrete matrix of f: block (t, t') is alpha_{t^-1}(f(t t'^-1))."""
        return np.tensordot(f.coords(), self.spanning_stack, axes=1)

    def standardize(self, f: ConvolutionElement) -> AlgebraElement:
        return self.standard_algebra.from_coords(self.wedderburn.to_standard(self.embed(f)))

    @cached_property
    def _std_from_conv(self) -> np.ndarray:
        """Linear map: convolution coordinates -> standard-form coordinates (read-only)."""
        std = self.wedderburn.to_standard(self.spanning_stack).T
        std.setflags(write=False)
        return std

    @cached_property
    def _conv_from_std(self) -> np.ndarray:
        conv = np.linalg.inv(self._std_from_conv)
        conv.setflags(write=False)
        return conv

    @cached_property
    def _change_of_basis(self) -> tuple[float, float]:
        """(c, ε_T) of T = `_conv_from_std`, whose column m holds the convolution
        coordinates t_m of the standard basis element s_m: c = max_m ||t_m||_1,
        the largest column 1-norm, and

            ε_T = max_{m,n} ||t_m * t_n - T(s_m s_n)||_1,

        the convolution of the two columns against the column of s_m s_n (0
        where the matrix units do not compose). They bound how far the
        standard map of a representation strays from the spanning values it is
        formed from (`_standard_map_bound`), and belong to A⋊G alone, so they
        are formed on first use and kept.

        For δ_g a_i * δ_h a_j = δ_{gh} a_i α_g(a_j), the product is, at s
        and a_k, Σ_g Σ_j t_n[g^-1 s, j] L_g[j, k] with
        L_g[j, k] = Σ_i t_m[g, i] T_g[i, j, k] (`_twisted_structure`): one
        matrix product of S[(n, s), (g, j)] = t_n[g^-1 s, j], formed once,
        with L stacked over (g, j). It is formed one row s_m at a time against
        every s_n, so (dim A⋊G)² products are alive at once, never the
        (dim A⋊G)³ structure constants of the whole algebra.
        """
        group, dim = self.system.group, self.system.algebra.linear_dim
        conv = self._conv_from_std
        size, order = conv.shape[0], group.order
        columns = conv.T.reshape(size, order, dim)
        twisted = np.stack([_twisted_structure(self.system, g) for g in group.elements()])
        lifted = np.einsum("mgi,gijk->mgjk", columns, twisted).reshape(size, order * dim, dim)
        # left[s, g] = g^-1 s, the h with g h = s.
        elements = group.elements()
        left = np.array([[group.multiply(group.inverse(g), s) for g in elements] for s in elements])
        shifted = columns[:, left, :].reshape(size * order, order * dim)
        table = self.standard_algebra.product_table
        padded = np.vstack([conv.T, np.zeros((1, size))])  # row -1: s_m s_n = 0
        worst = 0.0
        for m in range(size):
            convolved = (shifted @ lifted[m]).reshape(size, size)
            worst = max(worst, float(np.abs(convolved - padded[table[m]]).sum(axis=1).max()))
        return float(np.abs(conv).sum(axis=0).max()), worst


def _twisted_structure(action: GroupAction, g: int) -> np.ndarray:
    """T[i, j, k]: the coefficient of a_k in a_i alpha_g(a_j)."""
    structure = action.algebra.structure_constants()
    return np.einsum("ick,cj->ijk", structure, action.automorphisms[g].action_matrix)


def build_crossed_product(
    system: GroupAction, *, seed: int = 0, tol: float = DEFAULT_TOL
) -> CrossedProductRealization:
    """Realize A⋊G concretely and bring it to standard form.

    Every check reads the stack E of the spanning set (`spanning_stack`),
    with m = |G|·dim(A) and N = |G|·total_dim(A):

    - convolution -> product: (delta_g a_i)(delta_h a_j) = delta_{gh} a_i alpha_g(a_j),
      so for each (g, h) the pairs of E[g] and E[h] are compared with
      E[gh] through the twisted structure constants of g
      (`linalg.max_product_residual`, streamed over row chunks);
    - involution -> adjoint: (delta_h a_i)# = delta_{h^-1} alpha_{h^-1}(a_i*) / Delta(h^-1),
      and a_i* is the basis element adjoint_index[i], so at g = h^-1 the
      image is (sum_j A_g[j, :] E[g, j])[adjoint_index] / Delta(g), to be
      compared with E[h, i]*;
    - unit -> identity: the image of delta_e (x) 1;
    - embedding injective: rank of E as m vectors (so dim(A⋊G) = m);
    - extraction round trip: the identity block row of E gives back the
      coordinates of each delta_g a_i.
    """
    group, alg = system.group, system.algebra
    if group.identity is None:
        raise PreconditionError("system group has no identity element")
    stack = _spanning_stack(system)
    order, dim = group.order, alg.linear_dim
    m, n = stack.shape[:2]

    rank = linalg.matrix_rank(stack.reshape(m, n * n).T)
    injective = Check("embedding injective", float(m - rank), 0.5, f"rank {rank} of {m}")

    by_group = stack.reshape(order, dim, n, n)
    mult = 0.0
    for g in group.elements():
        twisted = _twisted_structure(system, g)
        for h in group.elements():
            mult = max(
                mult,
                linalg.max_product_residual(
                    by_group[g], by_group[h], by_group[group.multiply(g, h)], twisted
                ),
            )

    moved = np.einsum("gji,gjxy->gixy", system._action_tensor, by_group)
    delta = np.array([group.modular_function(g) for g in group.elements()])
    inv = [group.inverse(g) for g in group.elements()]
    star = linalg.max_frobenius(
        moved[:, alg.adjoint_index] / delta[:, None, None, None]
        - by_group[inv].conj().transpose(0, 1, 3, 2)
    )
    unit = np.tensordot(ConvolutionElement.unit(system).coords(), stack, axes=1)
    unital = linalg.frobenius(unit - np.eye(n))
    back = _identity_row(system, stack).reshape(m, m)
    round_trip = float(np.max(np.linalg.norm((back - np.eye(m)).reshape(m, order, dim), axis=2)))

    embedding_report = VerificationReport(
        f"crossed product embedding ({alg} by group of order {group.order})",
        (
            Check("convolution -> product", mult, tol),
            Check("involution -> adjoint", star, tol),
            Check("unit -> identity", unital, tol),
            injective,
            Check("extraction round trip", round_trip, tol),
        ),
    )
    if not embedding_report.passed:
        raise NumericalError(
            f"crossed-product embedding failed verification:\n{embedding_report}",
            report=embedding_report,
        )
    wedderburn = wedderburn_decompose(stack, seed=seed, tol=tol)
    return CrossedProductRealization(system, n, stack, wedderburn, embedding_report)


@dataclass(frozen=True, eq=False)
class IntegratedForm:
    """(Phi x v): the representation of A⋊G attached to a covariant pair (Phi, v, F).

    Phi must be a unital *-representation and (Phi, v) covariant. The other
    fields are derived at `tol` when it is built, so `replace` checks it again.
    `report` checks convolution -> composition and involution -> adjoint on
    the whole spanning set {delta_g (x) a_i}, which by linearity pins the map
    on all of A⋊G (the uniqueness clause). Both sides of covariance are
    formed for the whole group at once (`_spanning_residuals`); the
    covariance residual C read from them enters both bounds below.

    The composition check compares X_i (V_g X_j V_g*) with Phi(a_i alpha_g(a_j)),
    X_i = Phi(a_i): the product of the images of delta_g a_i and delta_h a_j
    with the right factor v_g v_h = v_{gh} cancelled. That cancellation assumes
    v is multiplicative, so this check alone certifies composition on the
    spanning pairs only for a unitary representation v: a v that breaks the
    group law while keeping each Ad(v_g) passes it. The group law is read by
    the standard-form factorization check, whose certificate carries it.

    The composition residual is certified as `verify_representation`
    certifies Phi: the relation bound f·C + a·M (`_relation_bound`) is
    reported where it is at most the threshold, and otherwise the exact
    residual of that comparison over all spanning pairs
    (`_twisted_residual`), by one rule (`algebra.bound_or_exact`). Pass/fail
    is the all-pairs decision at every `tol`, a passing residual is an upper
    bound, and the check's detail names the certificate that decided.

    The involution residual is certified by the same rule: the bound
    √(1+u)·(C + f·u + s) + f·w⁻ (`_involution_bound`), from C, Phi's star
    residual s and the unitarity and inverse-law residuals u and w⁻ cached
    on v, is reported where it is at most the threshold, and otherwise the
    exact gather-and-compare over the spanning set
    (`_involution_residual`). A v that keeps every Ad(v_g) but breaks its
    inverse law (a phase twist) passes the composition check; w⁻ puts the
    involution bound above the threshold, and the exact residual fails it.

    The standard-form factorization check certifies `standard_map`, the
    form read on the standard basis of A⋊G, as a unital *-homomorphism. Its
    multiplicative residual is bounded through the change of basis
    (`_standard_map_bound`) from the composition certificate and the
    unitarity and group-law residuals of v (`_spanning_pair_bound`), cached
    on v; where that bound exceeds the threshold, the standard map's own
    `verify_representation` decides. Its star and unital residuals are read
    exactly. The three are kept as `standard_residuals` for the extension's
    Stinespring bound, and the check's detail names the certificate that
    decided the multiplicative one.
    """

    crossed: CrossedProductRealization
    representation: CompletelyPositiveMap  # Phi, a verified representation on F
    group_unitaries: UnitaryRepresentation  # v on F
    tol: float
    standard_map: CompletelyPositiveMap = field(init=False)  # induced on the standard form
    # certified (multiplicative, star, unital) residuals of standard_map
    standard_residuals: tuple[float, float, float] = field(init=False)
    # K[g, i] = Phi(a_i) v_g in range coordinates, (|G|, dim A, rank P, rank P)
    spanning_values: np.ndarray = field(init=False, repr=False)
    report: VerificationReport = field(init=False)

    def __post_init__(self):
        xp, phi, v, tol = self.crossed, self.representation, self.group_unitaries, self.tol
        action = xp.system
        threshold = max(tol, 1e-9)
        if phi.source != action.algebra:
            raise StructuralError("representation source differs from the system algebra")
        rep_check = phi.verify_representation(threshold)
        if not rep_check.passed:
            raise PreconditionError(
                f"Phi is not a unital *-representation (residual {rep_check.max_residual:.3e})"
            )
        _require_covariant_data(phi, action, v)
        p = phi.module.coord_dim

        k_values, cov = _spanning_residuals(phi.values, v.values, action)
        if not cov <= max(tol, 1e-8):
            raise PreconditionError(f"(Phi, v) is not covariant (residual {cov:.3e})")
        bound, certificate = _relation_bound(
            phi.values, action, cov, rep_check.check("multiplicative").residual
        )
        mult, certificate = bound_or_exact(
            bound,
            certificate,
            threshold,
            lambda: (_twisted_residual(phi.values, v.values, action), "all spanning pairs"),
        )

        _, unitarity, group_law, inverse_law = v._residuals
        bound, star_certificate = _involution_bound(
            phi.values, cov, unitarity, inverse_law, phi._star_residual
        )
        star, star_certificate = bound_or_exact(
            bound,
            star_certificate,
            threshold,
            lambda: (_involution_residual(phi.values, v.values, action), "all spanning elements"),
        )

        unit_value = np.tensordot(action.algebra.unit().coords(), phi.values, axes=([0], [0]))
        unital = linalg.frobenius(unit_value @ v.values[action.group.identity] - np.eye(p))

        # Factor through the standard form: values on the standard basis by
        # linearity, from the spanning values K[g, i] = Phi(a_i) v_g.
        std_values = (xp._conv_from_std.T @ k_values.reshape(-1, p * p)).reshape(-1, p, p)
        standard_map = CompletelyPositiveMap(xp.standard_algebra, phi.module, std_values)
        spanning = _spanning_pair_bound(phi.values, mult, unitarity, group_law)
        std_bound, std_certificate = _standard_map_bound(xp, k_values, spanning)
        std_mult, std_certificate = bound_or_exact(
            std_bound, std_certificate, threshold, lambda: _exact_standard(standard_map, threshold)
        )
        std_residuals = (std_mult, standard_map._star_residual, standard_map._unital_residual)

        checks = (
            Check("convolution -> composition (spanning pairs)", mult, threshold, certificate),
            Check("involution -> adjoint (spanning set)", star, threshold, star_certificate),
            Check("unit of C(G,A) -> identity", unital, threshold),
            Check(
                "standard-form factorization is a unital *-homomorphism",
                max(std_residuals),
                threshold,
                std_certificate,
            ),
        )
        object.__setattr__(self, "standard_map", standard_map)
        object.__setattr__(self, "standard_residuals", std_residuals)
        object.__setattr__(self, "spanning_values", k_values)
        object.__setattr__(self, "report", VerificationReport("integrated form", checks))

    @property
    def module(self) -> HilbertModule:
        return self.representation.module

    def on_convolution(self, f: ConvolutionElement) -> AdjointableOperator:
        """(Phi x v)(f) = sum_g Phi(f(g)) v_g = sum_{g, i} f(g)_i K[g, i]."""
        k = self.spanning_values
        coords = np.tensordot(f.coords(), k.reshape(-1, *k.shape[2:]), axes=1)
        return AdjointableOperator(self.module, self.module, coords)


def integrated_form(
    phi: CompletelyPositiveMap,
    v: UnitaryRepresentation,
    xp: CrossedProductRealization,
    tol: float = DEFAULT_TOL,
) -> IntegratedForm:
    """Integrate a covariant representation (Phi, v, F) over the crossed product
    (see `IntegratedForm` for the preconditions and the report)."""
    return IntegratedForm(xp, phi, v, tol)


def _spanning_residuals(
    values: np.ndarray, unitaries: np.ndarray, action: GroupAction
) -> tuple[np.ndarray, float]:
    """The spanning values and the covariance residual on the spanning set.

    `values` stacks X_i = Phi(a_i) and `unitaries` V_g = v_g, in the range
    coordinates of the module. The spanning values K[g, i] = X_i V_g
    (`_spanning_values`, read-only) are formed once; the integrated form
    keeps them. The covariance residual max_{g,i} ||M[g, i] - C[g, i]||_F
    is read from the two sides of covariance for the whole group at once
    (`groups._covariance_stacks`), M[g, i] = sum_j A_g[j, i] X_j (the image
    of alpha_g(a_i)) and C[g, i] = V_g X_i V_g*.

    Involution and multiplicativity on the spanning set are bounded from
    these residuals (`_involution_bound`, `_relation_bound`), or formed
    exactly where a bound says nothing (`_involution_residual`,
    `_twisted_residual`).
    """
    moved, conj = _covariance_stacks(values, unitaries, action)
    return _spanning_values(values, unitaries), linalg.max_frobenius(moved - conj)


def _spanning_values(values: np.ndarray, unitaries: np.ndarray) -> np.ndarray:
    """K[g, i] = X_i V_g, (|G|, dim A, p, p), read-only: one
    `linalg.pair_products` product (dim A·p, p) @ (p, |G|·p), laid out g-major."""
    k = np.ascontiguousarray(linalg.pair_products(values, unitaries).transpose(1, 0, 2, 3))
    k.setflags(write=False)
    return k


def _involution_bound(
    values: np.ndarray, cov: float, unitarity: float, inverse_law: float, star: float
) -> tuple[float, str]:
    """An upper bound of `_involution_residual(values, unitaries, action)` from
    residuals the integrated form already holds, and the detail naming it.

    The residual bounded is ||M[g, i*] V_g / Delta(g) - K[g^-1, i]*||_F over g
    and i, with i* = adjoint_index[i], M[g, i] = sum_j A_g[j, i] X_j the
    image of alpha_g(a_i), X_i = Phi(a_i) and K[h, i] = X_i V_h: the image of
    (delta_h a_i)# = delta_{h^-1} alpha_{h^-1}(a_i*) / Delta(h^-1) at
    g = h^-1 against the adjoint of the image of delta_h a_i. A finite group
    has Delta = 1. Let C be the covariance residual max_{g,i} ||M[g, i] -
    C[g, i]||_F with C[g, i] = V_g X_i V_g*, u = `unitarity` at least
    ||V_g* V_g - 1||_F, w⁻ = `inverse_law` = max_g ||V_{g^-1} - V_g*||_F
    (both cached on v) and s = `star` = max_i ||X_{i*} - X_i*||_F (Phi's
    star residual). Write V = V_g, M = M[g, i*] and C = C[g, i*]. Since
    C V = V X_{i*} + V X_{i*} (V*V - 1) and K[g^-1, i]* = V_{g^-1}* X_i*,

        M V - V_{g^-1}* X_i*
            = (M - C) V + V X_{i*} (V*V - 1) + V (X_{i*} - X_i*)
              + (V_g - V_{g^-1}*) X_i*.

    ||V||_op² = ||V*V||_op <= 1 + u, and with f = max_i ||X_i||_F >=
    ||X_i||_op and ||AB||_F <= ||A||_op ||B||_F the four terms are within
    √(1+u)·C, √(1+u)·f·u, √(1+u)·s and f·w⁻ (the last at h = g^-1, where
    ||V_g - V_{g^-1}*||_F = ||V_{h^-1} - V_h*||_F):

        star <= √(1+u)·(C + f·u + s) + f·w⁻.

    A v that breaks its inverse law while keeping every Ad(v_g) (a phase
    twist, which leaves C at rounding) makes w⁻, and so the bound, large.
    """
    f = linalg.max_frobenius(values)
    bound = np.sqrt(1.0 + unitarity) * (cov + f * unitarity + star) + f * inverse_law
    detail = (
        f"involution bound √(1+u)·(C + f·u + s) + f·w⁻: u={unitarity:.3e}, C={cov:.3e}, "
        f"f={f:.3e}, s={star:.3e}, w⁻={inverse_law:.3e}"
    )
    return float(bound), detail


def _involution_residual(
    values: np.ndarray, unitaries: np.ndarray, action: GroupAction
) -> float:
    """max over g, i of ||M[g, i*] V_g / Delta(g) - K[g^-1, i]*||_F, the exact
    involution residual on the spanning set, formed when `_involution_bound`
    exceeds the threshold.

    (delta_h a_i)# = delta_{h^-1} alpha_{h^-1}(a_i*) / Delta(h^-1) and a_i*
    is the basis element i* = adjoint_index[i], so at g = h^-1 the image of
    the left side is M[g, i*] V_g / Delta(g) (`groups._moved_stack`),
    to be compared with K[h, i]* (`_spanning_values`): one gather of each
    side for the whole group.
    """
    group = action.group
    moved = _moved_stack(values, action)
    delta = np.array([group.modular_function(g) for g in group.elements()])
    inv = [group.inverse(g) for g in group.elements()]
    lhs = np.matmul(moved[:, action.algebra.adjoint_index], unitaries[:, None])
    rhs = _spanning_values(values, unitaries)[inv].conj().transpose(0, 1, 3, 2)
    return linalg.max_frobenius(lhs / delta[:, None, None, None] - rhs)


def _relation_bound(
    values: np.ndarray, action: GroupAction, cov: float, mult: float
) -> tuple[float, str]:
    """An upper bound of `_twisted_residual(values, unitaries, action)` from two
    residuals the integrated form already holds, and the detail naming it.

    The residual bounded is ||X_i C_j - Phi(a_i alpha_g(a_j))||_F with
    X_i = Phi(a_i) and C_j = V_g X_j V_g*: multiplicativity on a spanning pair
    (delta_g a_i, delta_h a_j) once the right factor v_g v_h is replaced by
    v_{gh} and cancelled, which holds only when v is multiplicative; the
    group law of v enters the standard map's bound instead
    (`_spanning_pair_bound`). Let C be the covariance
    residual max_{g,j} ||C_j - M_j||_F, with M_j = sum_l A_g[l, j] X_l the
    image of alpha_g(a_j), and M an upper bound of Phi's all-pairs residual
    max_{i,l} ||X_i X_l - Phi(a_i a_l)||_F (the `multiplicative` residual
    of a passing `verify_representation`). Since
    Phi(a_i alpha_g(a_j)) = sum_l A_g[l, j] Phi(a_i a_l),

        X_i C_j - Phi(a_i alpha_g(a_j))
            = X_i (C_j - M_j) + sum_l A_g[l, j] (X_i X_l - Phi(a_i a_l)),

    and ||AB||_F <= ||A||_op ||B||_F with the triangle inequality bound it
    by f·C + a·M, with
    f = max_i ||X_i||_F >= max_i ||X_i||_op and a = max_{g,j} sum_l |A_g[l, j]|,
    the largest column 1-norm of the action matrices.
    """
    f = linalg.max_frobenius(values)
    a = float(np.max(np.sum(np.abs(action._action_tensor), axis=1)))
    bound = f * cov + a * mult
    return bound, f"relation bound f·C + a·M: f={f:.3e}, C={cov:.3e}, a={a:.3e}, M={mult:.3e}"


def _twisted_residual(values: np.ndarray, unitaries: np.ndarray, action: GroupAction) -> float:
    """max over g, i, j of ||X_i (V_g X_j V_g*) - Phi(a_i alpha_g(a_j))||_F, every
    spanning pair, formed when `_relation_bound` exceeds the threshold.

    C = V_g X_j V_g* is read for the whole group at once
    (`groups._covariance_stacks`); for each g the products are compared
    through the twisted structure constants of g
    (`linalg.max_product_residual`, streamed over row chunks).
    """
    _, conj = _covariance_stacks(values, unitaries, action)
    worst = 0.0
    for g in action.group.elements():
        worst = max(
            worst,
            linalg.max_product_residual(values, conj[g], values, _twisted_structure(action, g)),
        )
    return worst


def _spanning_pair_bound(
    values: np.ndarray, mult: float, unitarity: float, group_law: float
) -> float:
    """B, an upper bound of max_{c,d} ||K_c K_d - Σ_e Γ_cde K_e||_F over the
    spanning pairs c = (g, i), d = (h, j), with K[g, i] = X_i V_g, X_i = Phi(a_i),
    V_g = v_g and Γ the structure constants of the spanning set,
    (δ_g a_i)(δ_h a_j) = δ_{gh} a_i α_g(a_j). So Σ_e Γ_cde K_e = Phi(a_i α_g(a_j)) V_gh.

    `mult` bounds the composition residual ||X_i C_j - Phi(a_i α_g(a_j))||_F
    with C_j = V_g X_j V_g* (the integrated form's certificate), u =
    `unitarity` bounds ||V_g* V_g - 1||_F and w = `group_law` is
    max ||V_g V_h - V_gh||_F (both cached on v). Since V_g X_j = C_j V_g +
    V_g X_j (1 - V_g* V_g),

        K_c K_d - Phi(a_i α_g(a_j)) V_gh
            = (X_i C_j - Phi(a_i α_g(a_j))) V_gh + X_i C_j (V_g V_h - V_gh)
              + X_i V_g X_j (1 - V_g* V_g) V_h.

    ||V||_op² = ||V* V||_op <= 1 + u, so ||V_g||_op ||V_h||_op <= 1 + u and
    ||C_j||_op <= (1 + u)·f with f = max ||X_i||_F >= ||X_i||_op; with
    ||AB||_F <= ||A||_op ||B||_F the three terms are within mult·(1 + u),
    f²·(1 + u)·w and f²·(1 + u)·u:

        B = mult·(1 + u) + f²·(1 + u)·(u + w).

    The group law enters through w: a v that breaks it (a phase twist keeps
    every Ad(v_g), so `mult` stays at rounding) makes B large.
    """
    f2 = linalg.max_frobenius(values) ** 2
    return mult * (1.0 + unitarity) + f2 * (1.0 + unitarity) * (unitarity + group_law)


def _standard_map_bound(
    xp: CrossedProductRealization, k_values: np.ndarray, spanning: float
) -> tuple[float, str]:
    """An upper bound of max_{m,n} ||pi(s_m) pi(s_n) - pi(s_m s_n)||_F for the
    standard map pi(s_m) = Σ_c t_m[c] K_c, with t_m = T s_m the convolution
    coordinates of the standard basis element s_m (`xp._conv_from_std`), from
    B = `spanning` (`_spanning_pair_bound`); and the detail naming it.

    Write R_cd = K_c K_d - Σ_e Γ_cde K_e, so ||R_cd||_F <= B. Then

        pi(s_m) pi(s_n) - pi(s_m s_n)
            = Σ_{c,d} t_m[c] t_n[d] R_cd + Σ_e (t_m * t_n - T(s_m s_n))[e] K_e,

    whose norm is at most ||t_m||_1 ||t_n||_1·B + max_e ||K_e||_F·ε_T
    <= c²·B + max_e ||K_e||_F·ε_T, with c and ε_T the change of basis's
    (`CrossedProductRealization._change_of_basis`).
    """
    c, eps = xp._change_of_basis
    k_max = linalg.max_frobenius(k_values)
    bound = c * c * spanning + k_max * eps
    detail = (
        f"standard-map bound c²·B + ‖K‖·ε_T: c={c:.3e}, B={spanning:.3e}, "
        f"‖K‖={k_max:.3e}, ε_T={eps:.3e}"
    )
    return bound, detail


def _exact_standard(standard_map: CompletelyPositiveMap, threshold: float) -> tuple[float, str]:
    """The standard map's multiplicative residual from its own representation
    check, where `_standard_map_bound` exceeds the threshold, and the name of
    the certificate that decided it there."""
    check = standard_map.verify_representation(threshold).check("multiplicative")
    return check.residual, check.detail


def _stinespring_bound(
    pi: CompletelyPositiveMap,
    mult: float,
    star: float,
    connector: np.ndarray,
    values: np.ndarray,
) -> tuple[tuple[float, ...], str]:
    """Per block M_n of pi's source, b_k >= 0 with -b_k at most the least
    eigenvalue of the Hermitian part of the Choi block of the map with basis
    values `values`; and the detail naming the bound.

    Write that map as V* pi(.) V + Δ, with V = `connector` and
    Δ = values - V* pi(.) V (0 for the map `extend_covariant_cp` forms). Let
    P_ij = pi(e_ij), Z = Σ E_ij (x) P_ij and R = Σ_i E_i0 (x) P_i0, so block
    (i, j) of RR* >= 0 is P_i0 P_j0*. Let M bound max_{a,b} ||pi(e_a) pi(e_b)
    - pi(e_a e_b)||_F and s bound max_a ||pi(e_a*) - pi(e_a)*||_F, and
    f = max_a ||pi(e_a)||_F >= ||P_i0||_op. `CovariantExtension` reads M and
    s from the integrated form's `standard_residuals`: M is the standard-map
    bound c²·B + ||K||·ε_T (`_standard_map_bound`) where that is at most the
    threshold, and otherwise pi's own `verify_representation` residual; s is
    pi's exact star residual. Since e_i0 e_0j = e_ij and
    e_j0* = e_0j,

        P_ij - P_i0 P_j0* = (P_ij - P_i0 P_0j) + P_i0 (P_0j - P_j0*),

    so each block of Z - RR* is within M + f·s in Frobenius norm, and
    ||Z - RR*||_op <= n·(f·s + M). The Choi block is
    (I (x) V)* Z (I (x) V) + Σ E_ij (x) Δ_ij, and its Hermitian part is the
    positive (I (x) V)* RR* (I (x) V) plus two terms of norm at most
    ||V||²·n·(f·s + M) and ||Δ_k||_F = (Σ_ij ||Δ_ij||_F²)^½. By Weyl's
    inequality its least eigenvalue is at least -b_k with

        b_k = ||V||²·n·(f·s + M) + ||Δ_k||_F.

    (Stinespring's argument that a compression of a *-representation is CP;
    Paulsen, *Completely Bounded Maps and Operator Algebras*, ch. 3–4.)
    """
    f = linalg.max_frobenius(pi.values)
    v_sq = linalg.spectral_norm(connector) ** 2
    delta = values - connector.conj().T @ pi.values @ connector
    sizes = pi.source.block_sizes
    offsets = pi.source.coord_offsets
    deltas = [linalg.frobenius(delta[off : off + n * n]) for off, n in zip(offsets, sizes)]
    bounds = tuple(v_sq * n * (f * star + mult) + d_k for n, d_k in zip(sizes, deltas))
    detail = (
        f"Stinespring bound ‖V‖²·n·(f·s + M) + ‖Δ_k‖_F: max {max(bounds):.3e}, "
        f"‖V‖²={v_sq:.3e}, f={f:.3e}, s={star:.3e}, M={mult:.3e}, max ‖Δ_k‖_F={max(deltas):.3e}"
    )
    return bounds, detail


@dataclass(frozen=True, eq=False)
class CovariantExtension:
    """phi = V*(Phi_rho x v_rho)(.)V, the CP extension of rho to A⋊G. `certificate`
    (the Choi certificate of `standard_map`) and `report` are derived from the
    other fields at `tol` when it is built, so `replace` checks it again.

    phi is CP because it compresses the integrated *-representation pi
    (Stinespring). The Choi check is certified as the integrated form
    certifies composition: `_stinespring_bound` bounds each Choi block's
    least eigenvalue from below, from pi's certified representation
    residuals (`IntegratedForm.standard_residuals`) and the distance of
    `standard_map` from V* pi(.) V, and decides where every block's bound is
    at most the threshold max(tol, 1e-9), by `algebra.bound_or_exact`.
    Otherwise the exact blockwise Choi test of `standard_map` decides. Hermiticity is
    tested exactly on both paths, by one decision rule
    (`CompletelyPositiveMap.choi_certificate`), so the decision is the exact
    test's at every `tol`; the check's detail names the certificate that
    decided.
    """

    dilation: CovariantDilation
    crossed: CrossedProductRealization
    integrated: IntegratedForm
    standard_map: CompletelyPositiveMap  # on the standard form of A⋊G
    tol: float
    certificate: CPCertificate = field(init=False)
    report: VerificationReport = field(init=False)

    def __post_init__(self):
        d, tol, phi_std = self.dilation, self.tol, self.standard_map
        threshold = max(tol, 1e-9)
        mult, star, _ = self.integrated.standard_residuals
        bounds, detail = _stinespring_bound(
            self.integrated.standard_map, mult, star, d.connector.coords, phi_std.values
        )
        # Per block, minus the least Choi eigenvalue: at most b_k, or exact.
        negativity, certificate = bound_or_exact(
            bounds,
            detail,
            threshold,
            lambda: (
                tuple(-low for low in phi_std._choi_lows),
                f"exact Choi eigenvalues (Stinespring bound {max(bounds):.3e})",
            ),
        )
        cert = phi_std.choi_certificate(tuple(-b for b in negativity), threshold)

        # Spanning agreement phi(delta_g a_i) = V* Phi(a_i) v_g V = rho(a_i) u_g,
        # batched over (g, i) from the one stack V* Phi(a_i).
        rho, v = d.cp_map, d.connector.coords
        pulled = np.matmul(v.conj().T[None], d.representation.values)
        moved_connector = d.group_unitaries.values @ v
        lhs = np.matmul(pulled[None], moved_connector[:, None])
        rhs = np.matmul(rho.values[None], d.rep.values[:, None])
        agree = linalg.max_frobenius(lhs - rhs)
        restriction = linalg.max_frobenius(lhs[d.action.group.identity] - rho.values)

        unit = self.crossed.standard_algebra.unit()
        nondeg = linalg.frobenius(phi_std(unit).coords - np.eye(rho.module.coord_dim))

        checks = (
            Check("phi(delta_g a) = rho(a) u_g (spanning set)", float(agree), max(tol, 1e-10)),
            Check("phi(1) = id_E", float(nondeg), max(tol, 1e-10)),
            Check(
                "phi completely positive (Choi on standard form)",
                float(max(0.0, -cert.min_eigenvalue)),
                threshold,
                certificate,
            ),
            Check("restriction to delta_e (x) A equals rho", float(restriction), max(tol, 1e-10)),
        )
        report = VerificationReport("covariant CP extension to A⋊G", checks)
        object.__setattr__(self, "certificate", cert)
        object.__setattr__(self, "report", report)

    def on_convolution(self, f: ConvolutionElement) -> AdjointableOperator:
        v = self.dilation.connector.coords
        inner = self.integrated.on_convolution(f).coords
        module = self.dilation.cp_map.module
        return AdjointableOperator(module, module, v.conj().T @ inner @ v)


def extend_covariant_cp(
    d: CovariantDilation,
    xp: CrossedProductRealization,
    tol: float = DEFAULT_TOL,
) -> CovariantExtension:
    """Extend a covariant CP map to a CP map on the crossed product.

    The extension is phi(x) = V* (Phi x v)(x) V on the standard form; its
    report checks that it agrees with sum_g rho(f(g)) u_g on the spanning
    set, is unital, and is completely positive on the standard form: by the
    Stinespring bound of each Choi block where it is at most the threshold,
    otherwise by the exact blockwise Choi test (see `CovariantExtension`).
    """
    if not d.residuals.passed:
        raise PreconditionError("extension needs a verified covariant dilation")
    if xp.system is not d.action and (
        xp.system.group != d.action.group or xp.system.algebra != d.action.algebra
    ):
        raise StructuralError("crossed product belongs to a different dynamical system")

    integrated = integrated_form(d.representation, d.group_unitaries, xp, tol)
    v = d.connector.coords
    module = d.cp_map.module
    values = v.conj().T @ integrated.standard_map.values @ v
    phi_std = CompletelyPositiveMap(xp.standard_algebra, module, values)
    return CovariantExtension(d, xp, integrated, phi_std, tol)
