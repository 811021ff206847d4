"""Exception types raised by the public API."""


class Qprep3Error(Exception):
    """Base class for all qprep3 errors.

    `branch_trace` lists the synthesis branch labels taken before the error
    (empty when it was raised outside a synthesis run).
    """

    def __init__(self, message="", branch_trace=()):
        super().__init__(message)
        self.branch_trace = list(branch_trace)


class ZeroPairError(Qprep3Error):
    """Both arguments of u_from_pair are (numerically) zero."""


class SingularInputError(Qprep3Error):
    """r1 requires a nonsingular matrix."""


class NonSingularInputError(Qprep3Error):
    """r2/l1 require a singular matrix."""


class ZeroMatrixError(Qprep3Error):
    """r2/l1 require a nonzero matrix."""


class BadShapeError(Qprep3Error):
    """r3 requires a nonzero first row and a vanishing second row."""


class SingularPencilCoefficientError(Qprep3Error):
    """solve_det_pencil requires det(B) != 0."""


class NotNormalizedError(Qprep3Error):
    """State amplitudes are too far from unit norm to renormalize."""


class NotRealError(Qprep3Error):
    """Operation defined only for real-amplitude states."""


class SynthesisInvariantError(Qprep3Error):
    """An internal step invariant of the synthesis algorithm failed."""
