"""Shared result record for multiplier computations."""

from __future__ import annotations

from .abelian import AbelianGroup
from .record import Frozen

METHOD_ORACLE = "oracle"
METHOD_BE = "blackburn_evens"
METHOD_KUNNETH = "kunneth"
METHOD_ABELIAN = "abelian"
METHOD_TAILS = "tails"

_METHODS = (METHOD_ORACLE, METHOD_BE, METHOD_KUNNETH, METHOD_ABELIAN, METHOD_TAILS)


class MultiplierResult(Frozen):
    """Invariant factors of M(G), the method that produced them, and a trace.

    The trace is not compared: equal results may have been reached by
    different routes."""

    _fields = ("p", "invariants", "method", "trace")
    _compared = ("p", "invariants", "method")

    def __init__(self, p: int, invariants: AbelianGroup, method: str,
                 trace: tuple[str, ...] = ()):
        if method not in _METHODS:
            raise ValueError(f"unknown method tag {method!r}")
        # multiplier of a p-group is a p-group
        invariants.order_exponent(p)
        self._set(p=p, invariants=invariants, method=method, trace=trace)

    @property
    def order_exponent(self) -> int:
        return self.invariants.order_exponent(self.p)

    def render(self) -> str:
        return self.invariants.render()
