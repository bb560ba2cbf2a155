"""Exception types shared across the package."""


class LengthMismatch(ValueError):
    """Two sequences that must have equal length do not."""


class Infeasible(ValueError):
    """No joint distribution meets the requested marginals and distortion."""


class NotALeaf(ValueError):
    """A tree operation that requires a leaf was given an internal node."""


class EmptyMatchSet(ValueError):
    """Codelet selection was asked to choose from an empty match set."""


class CorruptStream(ValueError):
    """An encoded stream fails structural validation."""


class BadMagic(CorruptStream):
    """The stream does not start with the expected magic bytes."""


class UnsupportedVersion(CorruptStream):
    """The stream declares a format version this decoder does not know."""


class ZeroRate(ValueError):
    """An operation needed a positive rate-distortion value but it is zero."""
