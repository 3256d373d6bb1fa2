"""Exception types shared by all weilgram modules.

Every failure mode that callers are expected to handle gets its own class;
anything else surfaces as a plain ValueError/TypeError.
"""


class WeilgramError(Exception):
    """Base class for all package-specific errors.

    Subclasses may format their message from constructor arguments, so
    unpickling (for example when a process pool sends an error back) restores
    args and attributes directly instead of calling __init__ again.
    """

    def __reduce__(self):
        return _restore, (type(self), self.args, self.__dict__)


def _restore(cls, args, state):
    exc = cls.__new__(cls)
    exc.args = args
    exc.__dict__.update(state)
    return exc


# --- finite fields ---------------------------------------------------------

class NotPrime(WeilgramError):
    def __init__(self, p):
        super().__init__(f"{p} is not prime")
        self.p = p


class NotPrimePower(WeilgramError, ValueError):
    """Field size is not a prime power, so no field of that size exists."""


class InvalidDegree(WeilgramError):
    def __init__(self, k):
        super().__init__(f"extension degree must be >= 1, got {k}")
        self.k = k


class FieldMismatch(WeilgramError):
    """Operands belong to different fields."""


class DivisionByZero(WeilgramError, ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class EvenCharacteristic(WeilgramError):
    """Operation requires odd characteristic."""


class ZeroInput(WeilgramError):
    """Operation is undefined at zero."""


# --- curves ----------------------------------------------------------------

class NotSquarefree(WeilgramError):
    """Defining polynomial has a repeated root."""


class ZeroPolynomial(WeilgramError):
    """Defining polynomial is identically zero (or constant where not allowed)."""


class NotHomogeneous(WeilgramError):
    """Plane model is not homogeneous of the stated degree."""


class SingularCurve(WeilgramError):
    """Plane model has a singular point over some small extension."""

    def __init__(self, witness, extension_degree):
        super().__init__(
            f"singular point {witness} found over extension of degree {extension_degree}"
        )
        self.witness = witness
        self.extension_degree = extension_degree


class DegreeParity(WeilgramError):
    """Biquadratic construction needs deg f odd and deg g even >= 2."""


class NotCoprime(WeilgramError):
    """The two branch polynomials share a root, so the fiber product degenerates."""


class WrongKind(WeilgramError):
    """Operation does not apply to this curve family."""


class BudgetExceeded(WeilgramError):
    def __init__(self, needed, budget):
        super().__init__(f"enumeration of {needed} points exceeds budget {budget}")
        self.needed = needed
        self.budget = budget


# --- zeta ------------------------------------------------------------------

class NonIntegerCoefficient(WeilgramError):
    """Newton reconstruction produced a non-integer; counts are unrealizable."""


class CountLengthMismatch(WeilgramError):
    """Wrong number of point counts supplied for the requested genus."""


class RootFindingFailure(WeilgramError):
    """Numeric root finder failed to reach the required residual."""


# --- gram matrices ---------------------------------------------------------

class InsufficientCounts(WeilgramError):
    """Count series is shorter than the requested Gram order."""


class GenusOrder(WeilgramError):
    """Cover has genus(source) < genus(target), which no finite morphism allows."""


class NegativeRelativeGenus(WeilgramError):
    """Diagram genus combination gX - gY1 - gY2 + gZ is negative."""


class TooLarge(WeilgramError):
    """Matrix or scan order above the supported exact-enumeration size."""


class IndexOutOfRange(WeilgramError):
    """Basis index outside the Gram matrix."""


class DimensionMismatch(WeilgramError):
    """Combination vector length differs from the Gram dimension."""


# --- bounds ----------------------------------------------------------------

class EqualGenera(WeilgramError):
    """Second-order relative bound requires distinct genera."""


class InvalidDiagram(WeilgramError):
    """Diagram certificate (irreducible and smooth fiber product) not satisfied."""


# --- feasibility -----------------------------------------------------------

class ZeroGenus(WeilgramError):
    """Closed-form bound is only defined for genus >= 1."""


class NegativeGenus(WeilgramError, ValueError):
    """Genus is negative."""
