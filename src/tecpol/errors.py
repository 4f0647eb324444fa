"""Exception types shared across the package."""


class TecError(Exception):
    """Base class for all package-specific errors."""


class NegativeComponent(TecError):
    def __init__(self, field: str, value: float):
        self.field = field
        self.value = value
        super().__init__(f"component {field}={value!r} is negative beyond tolerance")


class SumNotOne(TecError):
    def __init__(self, total: float):
        self.total = total
        super().__init__(f"components sum to {total!r}, not 1 within 1e-12")


class OutOfRange(TecError):
    pass


class InfeasiblePoint(TecError):
    pass


class NotMonotone(TecError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"values are not monotone; first violation at index {index}")


class DepthTooLarge(TecError):
    pass


class DegenerateRoot(TecError):
    pass


class NoConvergence(TecError):
    pass


class UnknownCheck(TecError):
    pass
