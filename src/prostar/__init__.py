"""Finite-dimensional covariant dilations, crossed products, and towers of
C*-algebras, with every construction certified against its defining identities.
"""

from .algebra import (
    AlgebraElement,
    Check,
    FiniteCStarAlgebra,
    PositivityWitness,
    StarHomomorphism,
    VerificationReport,
    WedderburnDecomposition,
    verify_star_homomorphism,
    wedderburn_decompose,
)
from .cpmaps import (
    CompletelyPositiveMap,
    CPCertificate,
)
from .crossed import (
    ConvolutionElement,
    CovariantExtension,
    CrossedProductRealization,
    IntegratedForm,
    build_crossed_product,
    extend_covariant_cp,
    integrated_form,
)
from .dilation import (
    CovariantDilation,
    DilationCore,
    covariant_dilation,
    covariant_extend,
    gram_operator,
    minimal_dilation,
    uniqueness_unitary,
    verify_dilation,
)
from .errors import NumericalError, PreconditionError, ProstarError, StructuralError
from .groups import (
    FiniteGroup,
    GroupAction,
    UnitaryRepresentation,
    check_covariance,
    covariant_average,
    verify_action,
    verify_group,
    verify_unitary_representation,
)
from .linalg import DEFAULT_TOL, hermitian_eigendecomposition
from .modules import (
    AdjointableOperator,
    HilbertModule,
    ModuleElement,
)
from .report import Report, TaskResult
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario, run_scenario
from .tower import (
    AlgebraTower,
    CoherenceReport,
    CoherentElement,
    DirectedPoset,
    ModuleTower,
    TowerAction,
    levelwise_integrated_coherence,
    levelwise_dilation_coherence,
)

__version__ = "0.1.0"
