"""Exception types shared across the package."""

from __future__ import annotations


class CoslieError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(CoslieError):
    pass


class ParametricUnsupported(CoslieError):
    """Operation requires plain rational scalars, but symbols are present."""


class MissingVariable(CoslieError):
    """Polynomial evaluation got an assignment that misses a variable."""


class InexactDivision(CoslieError):
    """Polynomial division left a nonzero remainder."""


class EvenDimension(CoslieError):
    """Operation only makes sense on odd-dimensional algebras."""


class SingularPhi(CoslieError):
    """The map x -> i_x(omega) + alpha(x)alpha is not invertible."""


class DegenerateOmega(CoslieError):
    """A two-form that must be nondegenerate has zero determinant."""


class SingularSystem(CoslieError):
    """A linear system that should be uniquely solvable is not."""


class NotCosymplectic(CoslieError):
    """A (algebra, alpha, omega) triple failed validation."""

    def __init__(self, report):
        self.report = report
        super().__init__(f"not a cosymplectic structure: {report}")


class NotDerivation(CoslieError):
    pass


class NotLieAlgebra(CoslieError):
    """A bracket fails the Jacobi identity."""


class NotIst(CoslieError):
    """Linear map is not an infinitesimal symplectic transformation."""


class ConditionsFail(CoslieError):
    """A construction's hypotheses do not hold; carries the failing ones."""

    def __init__(self, failures):
        self.failures = list(failures)
        super().__init__("conditions fail: " + "; ".join(str(f) for f in self.failures))


class UnknownEntry(CoslieError):
    pass


class MissingParam(CoslieError):
    pass


class DegenerateParams(CoslieError):
    """Parameter values make the stored nondegeneracy condition vanish."""


class AlgFileError(CoslieError):
    """Syntax error in an .alg style file, with location."""

    def __init__(self, message: str, line: int, column: int = 0):
        self.message = message
        self.line = line
        self.column = column
        super().__init__(f"line {line}, col {column}: {message}")


class DuplicateBracket(AlgFileError):
    pass


class IndexOutOfRange(AlgFileError):
    pass
