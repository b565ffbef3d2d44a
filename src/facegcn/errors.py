"""Exception hierarchy shared by all facegcn modules."""


class FaceGcnError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(FaceGcnError):
    """A file does not conform to the supported format subset."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc += f"{path}"
        if line is not None:
            loc += f":{line}"
        super().__init__(f"{loc}: {message}" if loc else message)
        self.path = path
        self.line = line


class InvariantError(FaceGcnError):
    """Data violates a structural invariant (bad index, NaN, shape drift)."""


class MissingUV(FaceGcnError):
    """Operation requires per-vertex uv coordinates and the mesh has none."""


class EmptyInput(FaceGcnError):
    """An input collection that must be non-empty is empty."""


class EmptyMesh(FaceGcnError):
    """Mesh has no vertices."""


class Unreachable(FaceGcnError):
    """No path exists between the requested vertices."""


class DegeneratePath(FaceGcnError):
    """Geodesic path has zero total length."""


class InvalidPair(FaceGcnError):
    """Augmentation pair does not name two distinct base landmark ids."""


class InconsistentLandmarks(FaceGcnError):
    """Frames of one sequence disagree on landmark count or ordering.

    ``frame`` is the index of the first frame that disagrees, where one does.
    """

    def __init__(self, message, frame=None):
        super().__init__(message)
        self.frame = frame


class UnknownId(FaceGcnError):
    """A template edge names a landmark id that does not exist."""


class ShapeMismatch(FaceGcnError):
    """Tensor or parameter shapes are inconsistent with the operation."""


class PartitionMismatch(FaceGcnError):
    """Partition count of weights and adjacency stack disagree."""


class LabelOutOfRange(FaceGcnError):
    """Class label is outside [0, num_classes)."""


class TapeIncomplete(FaceGcnError):
    """backward() called before the forward pass and loss were recorded."""


class ConfigError(FaceGcnError):
    """Run configuration failed validation."""


class EmptySide(FaceGcnError):
    """A split would leave the train or test side empty."""


class MissingIdentity(FaceGcnError):
    """An identity is absent from one side of the split."""


class ArchitectureMismatch(FaceGcnError):
    """Checkpoint architecture disagrees with the requested configuration."""


class NumericalError(FaceGcnError):
    """A numerical computation produced non-finite values at runtime."""
