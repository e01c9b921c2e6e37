"""Moments and Lyapunov exponents for fractional stochastic heat/wave
equations driven by space-time white noise, with Monte Carlo validation."""

from .errors import (
    ConvergenceFailure,
    DalangViolated,
    InvalidParams,
    MittagLefflerAccuracyWarning,
    ResultOverflow,
    SpdeMomentsError,
    StabilityViolated,
    StepTooCoarse,
)
from .model import (
    DerivedConstants,
    KernelSign,
    ModelParams,
    big_theta,
    dalang_bound,
    dalang_satisfied,
    derived_constants,
    j0,
    kernel_ft,
    kernel_nonneg_known,
    t_p,
    theta,
)
from .moments import (
    MomentCurve,
    pth_lyapunov_upper,
    pth_moment_upper,
    second_lyapunov,
    second_moment,
    she_exact_pth_lyapunov,
    she_second_moment,
    swe_second_moment,
    volterra_second_moment,
)
from .specialfn import gamma, ml, normal_cdf, sin_power_integral

__version__ = "0.1.0"
