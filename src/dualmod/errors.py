"""Exception hierarchy shared across the package."""


class DualModError(Exception):
    """Base class for every error raised by this package."""


class SchemaError(DualModError):
    """An instance file or spec payload is malformed; `field` names the culprit."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")


class GroundSetTooLarge(DualModError):
    def __init__(self, n: int, limit: int, what: str = "operation"):
        self.n = n
        self.limit = limit
        super().__init__(f"{what} requires n <= {limit}, got n = {n}")


class StructuralError(DualModError):
    """The instance violates a structural hypothesis (dual-modularity family)."""


class NotStrictlyMonotone(StructuralError):
    def __init__(self, which: str, witness=None):
        self.which = which
        self.witness = witness
        msg = f"{which} is not strictly monotone"
        if witness is not None:
            msg += f" (witness masks {witness})"
        super().__init__(msg)


class ZeroTotal(StructuralError):
    def __init__(self, which: str):
        self.which = which
        super().__init__(f"{which}(V) must be positive to normalize")


class ZeroCostCoordinate(DualModError):
    """A cost share y_u = 0 makes the induced density of u undefined."""

    def __init__(self, element: int, label: str | None = None):
        self.element = element
        self.label = label
        name = label if label is not None else f"#{element}"
        super().__init__(
            f"cost share of element {name} is zero; induced density undefined "
            "(strict monotonicity of the cost function rules this out)"
        )


class DomainError(DualModError):
    """An argument left the domain of the divergence generator."""


class InfiniteDensity(DualModError):
    def __init__(self, mask: int):
        self.mask = mask
        super().__init__(
            f"subset mask {mask} has zero cost but positive reward: density is "
            "infinite; perturb the cost function to restore strict monotonicity"
        )


class EmptyResidual(DualModError):
    def __init__(self):
        super().__init__("residual instance over the empty ground set is undefined")


class DecompositionError(DualModError):
    """Internal consistency assertion of the decomposition failed."""


class NotLinearCost(DualModError):
    def __init__(self):
        super().__init__("this solver variant requires a linear cost function")


class WeightSumMismatch(DualModError):
    def __init__(self, total):
        self.total = total
        super().__init__(f"permutation weights must sum to 1, got {total}")
