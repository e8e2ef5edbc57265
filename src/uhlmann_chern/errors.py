"""Exception and warning types shared across the package."""
import sys
import warnings


class UhlmannChernError(Exception):
    """Base class for every error this package raises on purpose."""


class InvalidArgument(UhlmannChernError, ValueError):
    """An argument outside its domain; also a ValueError, like NegativeBeta."""


# --- linear algebra ---

class NonHermitianInput(UhlmannChernError):
    """A matrix tagged Hermitian failed the Hermiticity check."""


class ConvergenceFailure(UhlmannChernError):
    """The eigensolver did not converge within its iteration cap."""


class IndefiniteInput(UhlmannChernError):
    """A matrix required to be positive semidefinite has a negative
    eigenvalue below the clamping floor."""


class NonAntiHermitianInput(UhlmannChernError):
    """The generator of a unitary exponential is not anti-Hermitian."""


class NonFiniteInput(UhlmannChernError):
    """A matrix entry, or the spread of a spectrum, is NaN or infinite;
    typically a non-finite or overflowing model parameter."""


# --- models ---

class ManifoldMismatch(UhlmannChernError):
    """A parameter point does not live on the model's manifold."""


class UnsupportedDirection(UhlmannChernError):
    """A derivative direction index is out of range for the manifold."""


class NegativeBeta(UhlmannChernError, ValueError):
    """An inverse temperature is negative (-inf included)."""


class TruncationTooSmall(UhlmannChernError):
    """The requested displacement exceeds what the Fock truncation
    can represent (|z|^2 must stay below fock_dim / 8)."""


# --- geometry ---

class DegenerateBand(UhlmannChernError):
    """A single-band operation was asked for a degenerate level."""


class NotMaximalCluster(UhlmannChernError):
    """The supplied index group is not a maximal degenerate cluster."""


class GapClosed(UhlmannChernError):
    """The spectral gap protecting the operation closed."""


class StepTooLarge(InvalidArgument):
    """A finite-difference step outside (0, a tenth of the coordinate scale]."""


# --- integration / CLI ---

class DimensionMismatch(UhlmannChernError):
    """Grid, manifold, or operator dimensions are inconsistent."""


class NonIntegerPlaquetteSum(UhlmannChernError):
    """The plaquette phase sum is not close to an integer multiple of
    2*pi, signalling too coarse a grid or a closing gap."""


class MissingModelHook(UhlmannChernError):
    """The model lacks a method the requested operation needs."""


class ConfigError(UhlmannChernError):
    """A run configuration failed schema or semantic validation."""


# --- warnings ---

def warn(message: str, category) -> None:
    """warnings.warn at the line of the first caller outside the package."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__package__") == __package__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


class VanishingDenominatorWarning(UserWarning):
    """Weight-sum denominators below threshold were dropped."""


class ResolutionTooLowWarning(UserWarning):
    """Grid resolution is below the recommended floor for converged
    second-order invariants."""


class TruncationWeightWarning(UserWarning):
    """Thermal weight past half the Fock truncation has reached 1e-12 in a
    Gibbs state (thermal_state), or 1e-4, criterion 9's tolerance, at a beta
    of a first-order integral or sweep, so truncation artifacts may show."""
