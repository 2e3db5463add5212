"""Exception hierarchy shared by all modules."""


class PseudoHermError(Exception):
    """Base class for every error raised by this package.  A threshold refusal
    carries the two numbers it compared, ``measured`` not at most ``limit``."""

    def __init__(self, message: str, measured: float | None = None, limit: float | None = None):
        super().__init__(message)
        self.measured = measured
        self.limit = limit


class NonFiniteError(PseudoHermError):
    """Input contains NaN or Inf entries."""


class DimensionMismatchError(PseudoHermError):
    """Operands have incompatible shapes."""


class NotDiagonalizableError(PseudoHermError):
    """Eigenvector matrix is numerically rank-deficient or the requested
    construction tolerance cannot be met (defective or near-defective input).

    ``check`` names the verified residual that exceeded the tolerance, or is
    None when the condition number of the eigenvector matrix exceeded its
    ceiling."""

    def __init__(self, message: str, measured=None, limit=None, check: str | None = None):
        super().__init__(message, measured, limit)
        self.check = check


class AmbiguousPairingError(PseudoHermError):
    """Two conjugate-partner candidates are equidistant within tolerance;
    usually a sign of a misconfigured cluster gap."""


class AsymmetricCoefficientsError(PseudoHermError):
    """A coefficient block is not symmetric."""


class SingularCoefficientsError(PseudoHermError):
    """A coefficient block is singular or too ill-conditioned to invert."""


class NonHermitianEtaError(PseudoHermError):
    """Candidate metric matrix is not Hermitian."""


class SingularEtaError(PseudoHermError):
    """Metric matrix is singular or too ill-conditioned to invert."""


class SingularTauError(PseudoHermError):
    """Antilinear operator matrix is singular or too ill-conditioned to invert."""


class UnpairedSpectrumError(PseudoHermError):
    """Spectrum has a complex eigenvalue without a conjugate partner, so no
    invertible Hermitian metric exists."""


class NotPseudoHermitianError(PseudoHermError):
    """Operator fails the metric intertwining identity within tolerance."""


class NotASymmetryError(PseudoHermError):
    """Candidate operator does not commute with the Hamiltonian."""


class SpectrumNotRealError(PseudoHermError):
    """Hermitization requested for a spectrum that is not entirely real."""


class SingularTransformError(PseudoHermError):
    """Similarity transform matrix is singular or too ill-conditioned."""


class NotSymmetricError(PseudoHermError):
    """Matrix expected to be complex symmetric is not."""


class SingularInputError(PseudoHermError):
    """Matrix to be factorized is numerically singular."""


class SingularBlockError(PseudoHermError):
    """A per-level basis-change block is singular or too ill-conditioned."""


class AsymmetricPotentialError(PseudoHermError):
    """Lattice potential samples violate the required parity."""


class NotPTSymmetricError(PseudoHermError):
    """Hamiltonian does not commute with the parity-conjugation map."""


class ResultNotHermitianError(PseudoHermError):
    """Composed candidate metric fails Hermiticity or the intertwining check;
    the supplied antilinear operator is inconsistent with the Hamiltonian."""
