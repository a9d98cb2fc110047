"""Exception types raised across the toolkit.

Every failure surfaced by the library is a subclass of QuantError, so
callers (and the CLI) can catch one type. The names mirror the failure,
not the module that raised it.
"""


class QuantError(Exception):
    """Base class for all toolkit errors."""


# --- manifest / tensor store ---

class ManifestError(QuantError):
    """Manifest file is malformed or describes an unsupported tensor."""


class MissingFile(QuantError):
    """A referenced path does not resolve to a readable file."""


class ShapeMismatch(QuantError):
    """Data size disagrees with the declared shape."""


class InvalidValue(QuantError):
    """NaN or infinity encountered where finite values are required."""


class SourceChanged(QuantError):
    """A data file changed while its tensor was being read."""


class DuplicateName(QuantError):
    """Two tensors share the same name."""


class IndexOutOfRange(QuantError):
    """Coordinate outside the tensor's bounds."""


# --- uniform quantization ---

class DegenerateRange(QuantError):
    """Clip range has zero width, so no scale can be derived."""


class CodeOutOfDomain(QuantError):
    """Integer code outside the scheme's code domain."""


class IncompatibleBits(QuantError):
    """Bit width outside the supported range for the chosen method."""


# --- piecewise-linear quantization ---

class BreakpointOutOfRange(QuantError):
    """Breakpoint must satisfy 0 < p < m."""


class BitsTooSmall(QuantError):
    """Piecewise quantization needs at least 3 bits (tails use k-1)."""


# --- granularity / selection ---

class CorruptCodes(QuantError):
    """Stored codes fall outside their group's code domain."""


class NoViableCandidate(QuantError):
    """No granularity candidate produced a comparable quantization."""


class InvalidInput(QuantError):
    """Argument outside the documented domain."""


# --- packing / container ---

class TruncatedData(QuantError):
    """Packed byte stream shorter than the declared element count requires."""


class CorruptHeader(QuantError):
    """Container header cannot be parsed or is internally inconsistent."""


class VersionMismatch(QuantError):
    """Container format version is not supported."""


class OffsetOutOfBounds(QuantError):
    """Container section offsets overlap or point past end of file."""


# --- sweeps ---

class InvalidRange(QuantError):
    """Bit-width sweep range is empty or outside the supported bits."""
