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
    wedderburn_decompose,
)
from .cpmaps import CompletelyPositiveMap, CPCertificate
from .dilation import CovariantDilation
from .errors import NumericalError, PreconditionError, StructuralError
from .groups import (
    GroupAction,
    UnitaryRepresentation,
    _covariance_steps,
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
    on all of A⋊G (the uniqueness clause).
    """

    crossed: CrossedProductRealization
    representation: CompletelyPositiveMap  # Phi, a verified representation on F
    unitaries: UnitaryRepresentation  # v on F
    tol: float
    standard_map: CompletelyPositiveMap = field(init=False)  # induced on the standard form
    spanning_values: np.ndarray = field(init=False, repr=False)  # K, (|G|, dim A, fd, fd)
    report: VerificationReport = field(init=False)

    def __post_init__(self):
        xp, phi, v, tol = self.crossed, self.representation, self.unitaries, self.tol
        action = xp.system
        if phi.source != action.algebra:
            raise StructuralError("representation source differs from the system algebra")
        rep_check = phi.verify_representation(max(tol, 1e-9))
        if not rep_check.passed:
            raise PreconditionError(
                f"Phi is not a unital *-representation (residual {rep_check.max_residual:.3e})"
            )
        _require_covariant_data(phi, action, v)
        fd = phi.module.flat_dim
        phi_tensor, u_tensor = phi._value_tensor, v._unitary_tensor

        cov, mult, star = _spanning_residuals(phi_tensor, u_tensor, action, phi.module.range_basis)
        if not cov <= max(tol, 1e-8):
            raise PreconditionError(f"(Phi, v) is not covariant (residual {cov:.3e})")

        unit_value = np.tensordot(action.algebra.unit().coords(), phi_tensor, axes=([0], [0]))
        unital = linalg.frobenius(
            unit_value @ u_tensor[action.group.identity] - phi.module.projection_flat
        )

        # Factor through the standard form: values on the standard basis by
        # linearity, from the spanning values K[g, i] = Phi(a_i) v_g on full flats.
        k_values = np.einsum("aij,gjk->gaik", phi_tensor, u_tensor, optimize=True)
        k_values.setflags(write=False)
        std_values = (xp._conv_from_std.T @ k_values.reshape(-1, fd * fd)).reshape(-1, fd, fd)
        standard_map = CompletelyPositiveMap(
            xp.standard_algebra, phi.module, phi.module.operators(std_values)
        )
        std_report = standard_map.verify_representation(max(tol, 1e-9))

        checks = (
            Check("convolution -> composition (spanning pairs)", mult, max(tol, 1e-9)),
            Check("involution -> adjoint (spanning set)", star, max(tol, 1e-9)),
            Check("unit of C(G,A) -> identity", unital, max(tol, 1e-9)),
            Check(
                "standard-form factorization is a unital *-homomorphism",
                std_report.max_residual,
                max(tol, 1e-9),
            ),
        )
        object.__setattr__(self, "standard_map", standard_map)
        object.__setattr__(self, "spanning_values", k_values)
        object.__setattr__(self, "report", VerificationReport("integrated form", checks))

    @property
    def module(self) -> HilbertModule:
        return self.representation.module

    def on_convolution(self, f: ConvolutionElement) -> AdjointableOperator:
        """(Phi x v)(f) = sum_g Phi(f(g)) v_g = sum_{g, i} f(g)_i K[g, i]."""
        k = self.spanning_values
        flat = np.tensordot(f.coords(), k.reshape(-1, *k.shape[2:]), axes=1)
        return AdjointableOperator(self.module, self.module, flat)


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
    values: np.ndarray,
    unitaries: np.ndarray,
    action: GroupAction,
    basis: np.ndarray | None,
) -> tuple[float, float, float]:
    """Covariance, multiplicativity and involution residuals on the spanning set.

    `values` stacks X_i = Phi(a_i) and `unitaries` V_g = v_g on the full
    flats. On a non-free module (`basis` U with UU* = P) both are compressed
    once to the p×p corners Y_i = U*X_iU and W_g = U*V_gU, and every product
    below is formed at p×p; each residual is then the corner residual plus
    an off-range slack, so it bounds the full-flat residual from above.
    Without a basis the corners are the flats themselves and every slack is 0.

    One pass over G reads every identity from the two sides of covariance
    at g (`_covariance_steps`), M_i = sum_j A_g[j, i] Y_j (the image of
    alpha_g(a_i)) and C_i = W_g Y_i W_g*, and the spanning values
    K[g, i] = Y_i W_g. Only one g's stacks are alive at a time.

    - Covariance: max_i ||M_i - C_i||_F.
    - Multiplicativity on every spanning pair (delta_g a_i, delta_h a_j):
      both sides share the right factor v_{gh}, which is unitary, so the
      residual is ||X_i (V_g X_j V_g*) - Phi(a_i alpha_g(a_j))||_F.
    - Involution: (delta_h a_i)# = delta_{h^-1} alpha_{h^-1}(a_i*) / Delta(h^-1)
      and a_i* is the basis element adjoint_index[i], so at g = h^-1 the
      image of the left side is M_{adjoint_index[i]} V_g / Delta(g), to be
      compared with K[h, i]*.

    Slacks, from `linalg.product_slack` (c_L·f_R + f_L·c_R + t·c_W, with c
    a corner defect and f an operator-norm bound of each factor, where that
    docstring proves the formula). With c_X, f_X of the values and c_V, f_V
    of the unitaries (maxima over the stacks, f from `_operator_bound`):
    V X moves by c_VX = c_V·f_X + f_V·c_X and has norm at most
    f_VX = f_V·f_X; V X V* moves by c_C = c_VX·f_V + f_VX·c_V; X V moves by
    c_XV = c_X·f_V + f_X·c_V; M moves by t_A·c_X and has norm at most
    t_A·f_X, with t_A = max_i sum_j |A_g[j, i]|. So the three residuals
    move, between full flats and corners, by at most

    - covariance, (V X_i) V* - sum_j A_g[j, i] X_j:
      c_VX·f_V + f_VX·c_V + t_A·c_X;
    - multiplicativity, X_i C_j - sum_k T_g[i, j, k] X_k:
      c_X·f_C + f_X·c_C + t_T·c_X, with f_C = f_VX·f_V and
      t_T = max_{i,j} sum_k |T_g[i, j, k]|;
    - involution, M (V_g / Delta) - (X V_{g^-1})*:
      t_A·c_X·f_V/Delta + t_A·f_X·c_V/Delta + c_XV.
    """
    group = action.group
    adjoint = action.algebra.adjoint_index
    x, v = linalg.corner(values, basis), linalg.corner(unitaries, basis)
    if basis is not None:
        # f only ever multiplies a corner defect, and without a basis every c is 0.
        x, v = _operator_bound(x), _operator_bound(v)
    k = np.einsum("aij,gjk->gaik", x.y, v.y, optimize=True)
    # t_A[g] = max_i sum_j |A_g[j, i]|, the coefficient sum of the moved side.
    t_a = np.max(np.sum(np.abs(action._action_tensor), axis=1), axis=1)
    c_vx = linalg.product_slack(v.c, v.f, x.c, x.f)
    f_vx = v.f * x.f
    c_xv = linalg.product_slack(x.c, x.f, v.c, v.f)
    conj_c = linalg.product_slack(c_vx, f_vx, v.c, v.f)
    cov = mult = star = 0.0
    for g, moved, conj in _covariance_steps(x.y, v.y, action):
        slack = linalg.product_slack(c_vx, f_vx, v.c, v.f, t_a[g], x.c)
        cov = max(cov, linalg.max_frobenius(moved - conj) + slack)
        mult = max(
            mult,
            linalg.corner_product_residual(
                x, linalg.Corner(conj, conj_c, f_vx * v.f), x, _twisted_structure(action, g)
            ),
        )
        delta = group.modular_function(g)
        lhs = np.matmul(moved[adjoint], v.y[g]) / delta
        rhs = k[group.inverse(g)].conj().transpose(0, 2, 1)
        slack = linalg.product_slack(
            t_a[g] * x.c, t_a[g] * x.f, v.c / delta, v.f / delta, 1.0, c_xv
        )
        star = max(star, linalg.max_frobenius(lhs - rhs) + slack)
    return cov, mult, star


def _operator_bound(stack: linalg.Corner) -> linalg.Corner:
    """The same corners with f = max ||Y||_op + c, a bound of max ||X||_op.

    ||X||_op <= ||P·X·P||_op + ||X - P·X·P||_F, and ||P·X·P||_op = ||Y||_op. For
    unitaries and matrix-unit images this is about 1, where the Frobenius
    norm grows like sqrt(p) and would inflate every slack it multiplies.
    """
    return stack._replace(f=float(np.max(linalg.spectral_norm(stack.y))) + stack.c)


@dataclass(frozen=True, eq=False)
class CovariantExtension:
    """phi = V*(Phi_rho x v_rho)(.)V, the CP extension of rho to A⋊G. `certificate`
    (the Choi test of `standard_map`) and `report` are derived from the other
    fields at `tol` when it is built, so `replace` checks it again."""

    dilation: CovariantDilation
    crossed: CrossedProductRealization
    integrated: IntegratedForm
    standard_map: CompletelyPositiveMap  # on the standard form of A⋊G
    tol: float
    certificate: CPCertificate = field(init=False)
    report: VerificationReport = field(init=False)

    def __post_init__(self):
        d, tol, phi_std = self.dilation, self.tol, self.standard_map
        cert = phi_std.verify_completely_positive(max(tol, 1e-9))

        # Spanning agreement phi(delta_g a_i) = V* Phi(a_i) v_g V = rho(a_i) u_g,
        # batched over (g, i) from the one stack V* Phi(a_i).
        rho, v_flat = d.cp_map, d.connector.flat
        pulled = np.matmul(v_flat.conj().T[None], d.representation._value_tensor)
        moved_connector = d.group_unitaries._unitary_tensor @ v_flat
        lhs = np.matmul(pulled[None], moved_connector[:, None])
        rhs = np.matmul(rho._value_tensor[None], d.rep._unitary_tensor[:, None])
        agree = linalg.max_frobenius(lhs - rhs)
        restriction = linalg.max_frobenius(lhs[d.action.group.identity] - rho._value_tensor)

        unit = self.crossed.standard_algebra.unit()
        nondeg = linalg.frobenius(phi_std(unit).flat - rho.module.projection_flat)

        checks = (
            Check("phi(delta_g a) = rho(a) u_g (spanning set)", float(agree), max(tol, 1e-10)),
            Check("phi(1) = id_E", float(nondeg), max(tol, 1e-10)),
            Check(
                "phi completely positive (Choi on standard form)",
                float(max(0.0, -cert.min_eigenvalue)),
                max(tol, 1e-9),
            ),
            Check("restriction to delta_e (x) A equals rho", float(restriction), max(tol, 1e-10)),
        )
        report = VerificationReport("covariant CP extension to A⋊G", checks)
        object.__setattr__(self, "certificate", cert)
        object.__setattr__(self, "report", report)

    def on_convolution(self, f: ConvolutionElement) -> AdjointableOperator:
        v = self.dilation.connector.flat
        inner = self.integrated.on_convolution(f).flat
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
    set, is unital, and is completely positive (blockwise Choi test on the
    standard form).
    """
    if not d.residuals.passed:
        raise PreconditionError("extension needs a verified covariant dilation")
    if xp.system is not d.action and (
        xp.system.group != d.action.group or xp.system.algebra != d.action.algebra
    ):
        raise StructuralError("crossed product belongs to a different dynamical system")

    integrated = integrated_form(d.representation, d.group_unitaries, xp, tol)
    v_flat = d.connector.flat
    module = d.cp_map.module
    values = v_flat.conj().T @ integrated.standard_map._value_tensor @ v_flat
    phi_std = CompletelyPositiveMap(xp.standard_algebra, module, module.operators(values))
    return CovariantExtension(d, xp, integrated, phi_std, tol)
