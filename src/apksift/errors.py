"""Exception taxonomy shared across the toolkit.

An error's base class decides its CLI exit code: ``UsageError`` 2,
``FingerprintMismatch`` 4, any other ``ApksiftError`` (or an ``OSError``) 3.
"""


class ApksiftError(Exception):
    """Base class for all toolkit errors."""


class UsageError(ApksiftError):
    """Bad command-line request, configuration or protocol input (exit 2)."""


# -- archive ingestion ------------------------------------------------------

class NotAZipArchive(ApksiftError):
    """File is not a readable zip archive (bad magic / truncated directory)."""


class NoDexFound(ApksiftError):
    """Valid archive, but no classes.dex / classesN.dex entries."""


class MalformedLine(ApksiftError):
    """Invoke-list text file has a bad line; reports the first offender."""

    def __init__(self, line_no: int, message: str = ""):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}" if message else f"line {line_no}")


# -- DEX parsing ------------------------------------------------------------

class TruncatedEncoding(ApksiftError):
    """Variable-length integer ran past the end of the buffer."""


class Overlong(ApksiftError):
    """ULEB128 encoding used more than 5 bytes."""


class InvalidSequence(ApksiftError):
    """Byte run is not valid modified UTF-8."""


class BadMagic(ApksiftError):
    """Blob does not start with a DEX magic."""


class UnsupportedVersion(ApksiftError):
    """DEX magic carries a version outside 035..039."""


class ChecksumMismatch(ApksiftError):
    """Header Adler-32 disagrees with file contents (strict mode only)."""


class StructuralError(ApksiftError):
    """Out-of-bounds offset/index or inconsistent structure inside a DEX."""


# -- reference lists --------------------------------------------------------

class GranularityMismatch(UsageError):
    """Reference file declares a different granularity than expected."""


class MalformedKey(UsageError):
    """Reference list entry does not match the canonical key syntax."""

    def __init__(self, line_no: int, message: str = ""):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}" if message else f"line {line_no}")


class InvalidProjection(UsageError):
    """Requested projection target is not coarser than the source list."""


# -- classification ---------------------------------------------------------

class EmptySet(ApksiftError):
    """Entropy of an empty sample set is undefined."""


class NoUsefulSplit(ApksiftError):
    """No candidate feature/threshold has positive information gain."""


class SingleClassData(UsageError):
    """Training data contains fewer than two classes."""


class InvalidHyperparams(UsageError):
    """Hyperparameter values outside their legal ranges."""


class TooFewSamples(UsageError):
    """Not enough samples for the requested protocol."""


class FingerprintMismatch(ApksiftError):
    """Feature vector / model / dataset built against different reference lists."""


class CorruptModel(ApksiftError):
    """Model file is truncated or structurally invalid."""


class VersionMismatch(ApksiftError):
    """Model file format version is not supported by this build."""


# -- evaluation harness -----------------------------------------------------

class MissingClass(UsageError):
    """Test population lacks a class required by the protocol."""


class EmptyBin(UsageError):
    """A protocol step received zero samples."""


class ConfigError(UsageError):
    """Protocol configuration is inconsistent (e.g. train/test id overlap)."""
