"""Exception types shared across the package."""


class CstarRegError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatch(CstarRegError):
    pass


class BadOrdering(CstarRegError):
    pass


class NotInvertible(CstarRegError):
    pass


class NotAWitness(CstarRegError):
    pass


class CornerNotInvertible(CstarRegError):
    pass


class OffDiagonalNotZero(CstarRegError):
    pass


class TooFar(CstarRegError):
    pass


class SpectralCollision(CstarRegError):
    """A probe level collides with the spectrum; caller perturbs and retries."""


class PhaseUnwrapAliasing(CstarRegError):
    """Adjacent-point phase jump exceeds the alias guard; refine the grid."""


class NoWitness(CstarRegError):
    pass


class InputParse(CstarRegError):
    pass


class UnknownGalleryName(CstarRegError):
    pass

