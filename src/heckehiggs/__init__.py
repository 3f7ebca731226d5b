"""Exact-arithmetic toolkit for Higgs pairs twisted by a rank-2 bundle
presented by point conditions on the projective line, with the spectral
correspondence in both directions and a stability certificate."""

__version__ = "0.1.0"

from .errors import (
    CommutationError,
    DegreeBoundError,
    EigenvalueConditionError,
    FiberConditionError,
    HeckeHiggsError,
    NonIntegralError,
    NotInCommutantError,
    ParseError,
    RetryExhaustedError,
    ValidationError,
)
from .hecke import (
    HeckeData,
    HeckePoint,
    h0_of_twist,
    make_presentation,
    splitting_type,
)
from .higgs import (
    HiggsPair,
    TwistedHiggsField,
    check_commutation,
    check_fiber_condition,
    decompose,
    reconstruct,
)
from .numfield import NumberField, NumberFieldElement
from .poly import (
    BiPoly,
    RationalFunction,
    UniPoly,
    format_bipoly,
    format_unipoly,
    parse_bipoly,
    parse_unipoly,
)
from .projline import (
    SplitBundle,
    TwistedEndo,
    evaluate_endo,
    validate_twisted_endo,
)
from .spectral import (
    SpectralCurve,
    SpectralData,
    SpectralFiberPoint,
    backward_correspondence,
    certify_stability,
    commutant_coordinates,
    eigenvalue_condition,
    fiber_points,
    forward_correspondence,
    is_integral,
)
