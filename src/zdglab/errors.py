"""Exception types shared across the package."""


class ZdglabError(Exception):
    """Base class for all package-specific errors."""


class InvalidOrderError(ZdglabError, ValueError):
    """Requested ring order is not a valid size (needs >= 2 elements)."""


class InvalidModulusError(ZdglabError, ValueError):
    """Polynomial-quotient modulus is not prime."""


class InvalidPolynomialError(ZdglabError, ValueError):
    """Quotient polynomial is not monic of degree >= 1 with coefficients in 0..p-1."""


class InvalidElementError(ZdglabError, ValueError):
    """An element index is outside 0..order-1."""


class CapExceededError(ZdglabError, ValueError):
    """A configured size cap (ring order, ideal enumeration) was exceeded."""


class ImproperIdealError(ZdglabError, ValueError):
    """The whole ring was supplied where a proper ideal is required."""


class RingConsistencyError(ZdglabError, RuntimeError):
    """Ring tables violate an axiom; indicates corrupted construction data."""


class SpecParseError(ZdglabError, ValueError):
    """Ring-spec string rejected; `position` is the character offset of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position

    def __str__(self) -> str:
        return f"{self.args[0]} (at offset {self.position})"


class CatalogueError(ZdglabError, ValueError):
    """Catalogue file could not be parsed."""
