"""Distributions, approximation bounds, simulation, and option pricing for
linear combinations of bilateral-gamma random variables."""

from .combo import (
    LinearCombinationModel,
    MixtureRepresentation,
    build_mixture,
    load_model,
    read_json,
)
from .errors import (
    BilgammaError,
    DomainError,
    EmptySampleError,
    GridError,
    KappaUndefinedError,
    ModelFileError,
    ModelMismatchError,
    NonConvergenceError,
    NonFiniteResultError,
    OutOfStripError,
    SeriesDivergenceError,
    SingularPointError,
    TruncationFailureError,
)
from .pricing import (
    PricingInputs,
    martingale_gap,
    price_call_atm,
    price_call_gamma_series,
    price_call_integral,
    price_call_monte_carlo,
)
from .quadrature import integrate_zero_to_inf
from .sampling import (
    RandomStream,
    sample_compound_poisson,
    sample_direct,
    sample_mixture,
    sample_path,
)
from .stein import (
    KappaInputs,
    TestFunction,
    bound_compound_poisson_k,
    bound_d3_bg,
    bound_d3_normal,
    bound_two_sums,
    empirical_kolmogorov,
    kappa_inputs,
    stein_identity_check,
)

__version__ = "0.1.0"

__all__ = [
    "LinearCombinationModel",
    "MixtureRepresentation",
    "build_mixture",
    "load_model",
    "read_json",
    "integrate_zero_to_inf",
    "RandomStream",
    "sample_direct",
    "sample_mixture",
    "sample_compound_poisson",
    "sample_path",
    "KappaInputs",
    "TestFunction",
    "stein_identity_check",
    "empirical_kolmogorov",
    "kappa_inputs",
    "bound_two_sums",
    "bound_compound_poisson_k",
    "bound_d3_bg",
    "bound_d3_normal",
    "PricingInputs",
    "martingale_gap",
    "price_call_integral",
    "price_call_gamma_series",
    "price_call_atm",
    "price_call_monte_carlo",
    "BilgammaError",
    "DomainError",
    "SingularPointError",
    "OutOfStripError",
    "NonConvergenceError",
    "NonFiniteResultError",
    "TruncationFailureError",
    "SeriesDivergenceError",
    "ModelMismatchError",
    "EmptySampleError",
    "GridError",
    "ModelFileError",
    "KappaUndefinedError",
]
