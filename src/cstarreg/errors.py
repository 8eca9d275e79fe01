"""Exception types shared across the package."""


class CstarRegError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatch(CstarRegError):
    pass


class NotHermitian(CstarRegError):
    pass


class EigenvalueTooCloseToCut(CstarRegError):
    """An eigenvalue sits inside the guard band around the cut level.

    Callers sweeping the cut level should perturb it by 2*eta_sep and retry.
    """

    def __init__(self, cut, eigenvalue, eta_sep):
        super().__init__(
            f"eigenvalue {eigenvalue:.6g} within {eta_sep:.3g} of cut {cut:.6g}"
        )
        self.cut = cut
        self.eigenvalue = eigenvalue
        self.eta_sep = eta_sep


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

