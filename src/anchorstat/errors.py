"""Exception types shared across the package."""


class AnchorstatError(ValueError):
    """Base class for all validation and computation errors raised here."""


class CorpusFormatError(AnchorstatError):
    """Malformed matrix file: ragged rows, unparseable cells, empty input."""


class PairingError(AnchorstatError):
    """Row counts or pairing labels of supposedly paired datasets disagree."""


class DimensionError(AnchorstatError):
    """A dimension argument or matrix shape is out of its allowed range."""


class ParameterError(AnchorstatError):
    """A scalar parameter (K, R, bins, ...) is out of its allowed range."""


class DegeneracyError(AnchorstatError):
    """Input data cannot support the requested computation (e.g. too few
    distinct rows for K clusters, singular covariance)."""


class DegenerateSampleError(DegeneracyError):
    """A sample has zero variance where positive variance is required."""


class VacuousTestError(DegeneracyError):
    """The two mapped structures are identical, so the paired test carries
    no information either way."""


class GuardError(AnchorstatError):
    """A safety guard tripped (redraw budget exhausted)."""


class ManifestError(AnchorstatError):
    """An experiment manifest is missing or inconsistent."""


class TransportError(AnchorstatError):
    """A remote endpoint could not be reached after bounded retries."""
