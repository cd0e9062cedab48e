"""Exception hierarchy and warning categories shared across the package."""


class TempcertError(Exception):
    """Base class for all package-specific errors."""


class NotHermitian(TempcertError):
    """Hermiticity deviation exceeded the allowed tolerance."""


class ShapeMismatch(TempcertError):
    """Operands have incompatible shapes or dimensions."""


class NonSquare(ShapeMismatch):
    """A square matrix was required."""


class RankDeficient(TempcertError):
    """A full-rank matrix was required but an eigenvalue fell below the cutoff."""


class ZeroEigenvalue(TempcertError):
    """Sign function undefined: an eigenvalue sits inside the zero cutoff."""


class NonInvolution(TempcertError):
    """An observable's deviation from A @ A == 1 exceeded the tolerance."""


class BadTransformId(TempcertError):
    """Unknown symmetry transform identifier."""


class SubspaceDegenerate(TempcertError):
    """The four subspace generators are linearly dependent; a 4-dimensional
    certification target cannot be extracted."""


class AnticommutatorTooLarge(TempcertError):
    """The rounded projected observables fail to anticommute well enough for
    the Pauli-pair basis construction."""


class FactorizationFailure(TempcertError):
    """The second-factor operators cannot be brought near anticommuting
    involutions on C^2."""


class NotAViolation(TempcertError):
    """The observed deficit is too large for the robustness bounds to mean
    anything (epsilon > 2)."""


class ParseError(TempcertError):
    """A scenario or config document failed to parse or validate."""


class DegenerateCoefficientWarning(UserWarning):
    """A seesaw coefficient operator has a near-zero eigenvalue; the
    corresponding sign was tie-broken to +1."""
