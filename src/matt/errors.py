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


# evaluation
class EmptyEval(ValidationError):
    pass


class InvalidK(ValidationError):
    pass
