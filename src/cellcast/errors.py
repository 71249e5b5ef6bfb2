"""Exception types raised by the cellcast pipeline.

Everything derives from CellcastError so callers can catch the whole
family; validation-style errors additionally derive from ValueError.
"""


class CellcastError(Exception):
    pass


class ValidationError(CellcastError, ValueError):
    """Bad inputs detected before any work is done."""


class MalformedFile(ValidationError):
    """A JSON artefact is not a JSON object, or a key in it is missing,
    unknown or misshaped. Loaders raise a subclass whose message names
    the file and the key."""


# --- ingest ---------------------------------------------------------------

class MalformedLine(ValidationError):
    """A CDR line is missing mandatory columns or has non-numeric fields."""


class NegativeActivity(ValidationError):
    """The internet-activity field parsed below zero."""


class UnalignedSpan(ValidationError):
    """Span boundaries are not whole multiples of the bin width."""


class SpanMismatch(ValidationError):
    """The series of one bins set do not share one span and length."""


class MalformedBins(MalformedFile):
    """A bins file is not JSON, or a key is missing or misshaped, or its
    series differ in length."""


# --- clustering -----------------------------------------------------------

class EmptySeries(ValidationError):
    pass


class TooFewPoints(ValidationError):
    """Fewer distinct profiles than requested clusters."""


class InvalidK(ValidationError):
    pass


class CurveTooShort(ValidationError):
    """Knee detection needs at least three curve points."""


class MissingSeries(ValidationError):
    """A cell in the cluster assignment has no binned series."""


class MalformedClusters(MalformedFile):
    """A cluster file is not JSON, or a key is missing or misshaped, or a
    cell is assigned to a cluster outside 0..k-1."""


# --- series prep ----------------------------------------------------------

class SeriesTooShort(ValidationError):
    pass


class ConstantSeries(ValidationError):
    """Min-max scaling is undefined on a constant series."""


# --- recurrent core -------------------------------------------------------

class ShapeMismatch(ValidationError):
    pass


class LengthMismatch(ValidationError):
    pass


class Empty(ValidationError):
    pass


class TapeMismatch(ValidationError):
    """Backward pass called with a tape from a different batch."""


class MalformedModel(MalformedFile):
    """A model file is not JSON, or a key is missing, unknown or misshaped."""


# --- training -------------------------------------------------------------

class MalformedResults(ValidationError):
    """A results.csv file is empty, or a row is short or non-numeric."""


# --- statistics -----------------------------------------------------------

class TooFewGroups(ValidationError):
    pass


class EmptyGroup(ValidationError):
    pass


class DomainError(ValidationError):
    pass


# --- synthesis / config ---------------------------------------------------

class InvalidSpec(ValidationError):
    pass


class UnknownCluster(ValidationError):
    pass


class MalformedTruth(ValidationError):
    """A truth.csv is empty, or a row is not two integers or repeats a
    cell, or it lacks a cell being scored."""


class ConfigError(ValidationError):
    """Pipeline configuration failed validation."""
