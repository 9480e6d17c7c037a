"""Domain exceptions shared across the package."""


class PhyskeyError(Exception):
    """Base class for domain errors (CLI maps these to exit code 1)."""


class ImpossibleObservationError(PhyskeyError):
    """An observation sequence has zero probability under the model.

    ``row`` names the offending sequence when it came from a batch.
    """

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        super().__init__(message)


class UncorrectableBlockError(PhyskeyError):
    """A sketch's error weight exceeds the code's correction capacity."""

    def __init__(self, detail: str):
        self.detail = detail
        super().__init__(f"uncorrectable sketch: {detail}")


class SketchFormatError(PhyskeyError, ValueError):
    """Serialized sketch or transcript bytes are truncated or malformed."""


class CalibrationError(PhyskeyError):
    """No member of the channel search family reaches the target rates."""


class InfeasiblePlanError(PhyskeyError):
    """No sample count satisfies the requested key-length/security conditions."""
