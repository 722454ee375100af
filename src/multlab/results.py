"""Shared result record for multiplier computations."""

from __future__ import annotations

from dataclasses import dataclass, field

from .abelian import AbelianGroup

METHOD_ORACLE = "oracle"
METHOD_BE = "blackburn_evens"
METHOD_KUNNETH = "kunneth"
METHOD_ABELIAN = "abelian"
METHOD_TAILS = "tails"

_METHODS = (METHOD_ORACLE, METHOD_BE, METHOD_KUNNETH, METHOD_ABELIAN, METHOD_TAILS)


@dataclass(frozen=True)
class MultiplierResult:
    """Invariant factors of M(G), the method that produced them, and a trace."""

    p: int
    invariants: AbelianGroup
    method: str
    trace: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method tag {self.method!r}")
        # multiplier of a p-group is a p-group
        self.invariants.order_exponent(self.p)

    @property
    def order_exponent(self) -> int:
        return self.invariants.order_exponent(self.p)

    def render(self) -> str:
        return self.invariants.render()
