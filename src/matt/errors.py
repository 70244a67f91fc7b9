"""Exception hierarchy shared across the pipeline.

ValidationError subclasses signal bad inputs or configuration and map to
CLI exit code 1; RuntimeFailure subclasses signal failures during an
otherwise valid run and map to exit code 2.
"""


class MattError(Exception):
    """Base class for all pipeline errors."""


class ValidationError(MattError):
    """Invalid input data or configuration."""


class RuntimeFailure(MattError):
    """Failure while executing a valid request."""


class NotUtf8(ValidationError):
    """A text input holds bytes that are not UTF-8."""

    @classmethod
    def in_file(cls, path) -> "NotUtf8":
        """Name the file and its first line that is not UTF-8; reads the file again."""
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            return cls(f"{path}: line {line} is not UTF-8 (byte 0x{data[exc.start]:02x})")
        return cls(f"{path}: not UTF-8")


# audio / DSP
class EmptyAudio(ValidationError):
    pass


class CorruptAudio(ValidationError):
    pass


class AudioTooShort(ValidationError):
    pass


class SampleRateMismatch(ValidationError):
    pass


class InvalidBand(ValidationError):
    pass


class InvalidConfig(ValidationError):
    pass


class EmptyFeature(ValidationError):
    pass


# dataset
class BadHeader(ValidationError):
    pass


class BadSplit(ValidationError):
    pass


class DuplicateTrack(ValidationError):
    pass


class InconsistentBagLabel(ValidationError):
    pass


class InfeasibleConfig(ValidationError):
    pass


# numeric / model
class ShapeError(ValidationError):
    pass


class EmptyBag(ValidationError):
    pass


class DivergedError(RuntimeFailure):
    pass


class MissingFeature(ValidationError):
    """The feature cache lacks a track that the metadata lists."""


class NonFiniteFeature(ValidationError):
    """The feature cache holds a NaN or infinite value."""


# evaluation
class EmptyEval(ValidationError):
    pass


class InvalidK(ValidationError):
    pass
