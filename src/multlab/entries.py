"""Catalog of group presentations: parsing, registry, and instantiation.

Entries live as one `.grp` file each under the packaged `catalog/` directory.
A file is either a direct presentation (DSL statements), a product recipe
(`product <id> <id> ...`), or an alias, plus header lines:

    name Phi2_211b
    constraint odd              # odd | two | any
    expect multiplier [p,p] "source"
    expect order p^9 "source"
    expect t 6 "source"
    squeeze phi7_15_squeeze.script         # bound replay, an order cross-check
    disabled <reason>                      # the rest of the line, citation and all

Each line is read once, by `dsl.read_line` under the DSL's comment and
citation rule; DSL lines are kept as `(line, words)` statements.
"""

from __future__ import annotations

from importlib import resources

from .abelian import AbelianGroup, valuation
from .dsl import (DslError, _parse_scalar, ascii_digits, build_presentation,
                  load_presentation, parse_order, read_line)
from .pcgroup import PcPresentation, direct_product, is_prime
from .record import Frozen

CONSTRAINTS = ("odd", "two", "any")
SINGLE_HEADERS = ("name", "constraint", "squeeze", "alias", "product", "disabled")
EXPECT_KINDS = ("multiplier", "order", "t")


class CatalogError(ValueError):
    pass


class ConstraintError(CatalogError):
    pass


class Expect(Frozen):
    """One `expect` line.  An order's exponent of p and a t are kept as the
    ints they parse to; a multiplier keeps its raw `[...]`, read per prime."""

    _fields = ("kind", "value", "source")

    def __init__(self, kind: str,     # multiplier | order | t
                 value: str | int, source: str):
        self._set(kind=kind, value=value, source=source)

    def multiplier_at(self, p: int) -> AbelianGroup:
        assert self.kind == "multiplier"
        exponents = []
        for tok, n in _factors(self.value, p):
            if n < 1 or p ** (e := valuation(n, p)) != n:
                raise CatalogError(f"expect multiplier {self.value}: factor {tok!r} "
                                   f"is {n}, not a power of p = {p}")
            exponents.append(e)
        return AbelianGroup.of(p, exponents)


def _factors(value: str, p: int) -> list[tuple[str, int]]:
    """Each factor of an `expect multiplier [...]` value, as (token, value at p)."""
    inner = value[1:-1]
    try:
        return [(tok, _parse_scalar(tok, p, 0)) for tok in inner.split(",") if inner]
    except DslError as exc:
        raise CatalogError(f"expect multiplier {value}: {exc}") from None


class CatalogEntry(Frozen):
    _fields = ("entry_id", "constraint", "statements", "factors", "alias_of", "expects",
               "squeeze_script", "disabled_reason")

    def __init__(self, entry_id: str, constraint: str,
                 statements: tuple[tuple[int, tuple[str, ...]], ...] = (),  # (line, words) of the DSL
                 factors: tuple[str, ...] = (), alias_of: str | None = None,
                 expects: tuple[Expect, ...] = (), squeeze_script: str | None = None,
                 disabled_reason: str | None = None):
        self._set(entry_id=entry_id, constraint=constraint, statements=statements,
                  factors=factors, alias_of=alias_of, expects=expects,
                  squeeze_script=squeeze_script, disabled_reason=disabled_reason)

    @property
    def is_product(self) -> bool:
        return bool(self.factors)

    @property
    def is_disabled(self) -> bool:
        return self.disabled_reason is not None

    def allows(self, p: int) -> bool:
        if self.constraint == "two":
            return p == 2
        if self.constraint == "odd":
            return p != 2
        return True

    def check_prime(self, p: int) -> None:
        """ConstraintError unless p is a prime this entry is stated at."""
        if not is_prime(p):
            raise ConstraintError(f"{p} is not prime")
        if not self.allows(p):
            need = "p = 2" if self.constraint == "two" else "an odd prime"
            raise ConstraintError(f"{self.entry_id} requires {need}, got {p}")


def parse_entry(text: str, fallback_name: str | None = None) -> CatalogEntry:
    name = fallback_name
    constraint = "any"
    expects: list[Expect] = []
    factors: list[str] = []
    alias_of = None
    squeeze = None
    disabled = None
    statements: list[tuple[int, tuple[str, ...]]] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        try:
            line, words, citation = read_line(raw)
            if not words:
                continue
            kw, *args = words
            if citation is not None and kw not in ("expect", "disabled"):
                raise CatalogError(f"{kw} takes no citation")
            if kw in ("name", "constraint", "squeeze", "alias") and len(args) != 1:
                raise CatalogError(f"{line!r} needs an argument" if not args else
                                   f"{kw} takes one argument, got {line!r}")
            if kw in SINGLE_HEADERS and kw in seen:
                raise CatalogError(f"{kw!r} is stated twice")
            seen.add(kw)
            if kw == "name":
                name = args[0]
            elif kw == "constraint":
                constraint = args[0]
                if constraint not in CONSTRAINTS:
                    raise CatalogError(f"unknown constraint {constraint!r}")
            elif kw == "expect":
                if len(args) != 2:
                    raise CatalogError(f"malformed expect line: {line!r}")
                kind, value = args
                if kind not in EXPECT_KINDS:
                    raise CatalogError(f"unknown expect kind {kind!r}")
                if kind == "multiplier":
                    if not (value[0] == "[" and value[-1] == "]"):
                        raise CatalogError(f"expect multiplier needs [...], got {value!r}")
                    _factors(value, 3)  # the syntax, at an odd prime (nu needs one)
                elif kind == "order":
                    value = parse_order(value)
                else:
                    if not ascii_digits(value.removeprefix("-")):
                        raise CatalogError(f"expect t needs an integer, got {value!r}")
                    value = int(value)
                expects.append(Expect(kind, value, citation or ""))
            elif kw == "squeeze":
                squeeze = args[0]
            elif kw == "product":
                factors = args
            elif kw == "alias":
                alias_of = args[0]
            elif kw == "disabled":
                disabled = line[len(kw):].strip() or "disabled"
            else:
                statements.append((lineno, tuple(words)))
        except ValueError as exc:  # read_line's, parse_order's and the header checks'
            raise CatalogError(f"line {lineno}: {exc}") from None
    if name is None:
        raise CatalogError("entry has no name")
    modes = sum(1 for x in (factors, alias_of, statements) if x)
    if modes != 1 and disabled is None:
        raise CatalogError(f"{name}: entry must be exactly one of direct/product/alias")
    if len(factors) == 1:
        raise CatalogError(f"{name}: a product needs two factors or more")
    return CatalogEntry(
        entry_id=name,
        constraint=constraint,
        statements=tuple(statements),
        factors=tuple(factors),
        alias_of=alias_of,
        expects=tuple(expects),
        squeeze_script=squeeze,
        disabled_reason=disabled,
    )


class Catalog:
    def __init__(self, entries: dict[str, CatalogEntry]):
        self.entries = entries
        self._cache: dict[tuple[str, int], PcPresentation] = {}

    @classmethod
    def bundled(cls) -> "Catalog":
        entries = {}
        root = resources.files("multlab") / "catalog"
        for item in sorted(root.iterdir(), key=lambda f: f.name):
            if item.name.endswith(".grp"):
                entry = parse_entry(item.read_text(), item.name[:-4])
                entries[entry.entry_id] = entry
        return cls(entries)

    def __getitem__(self, entry_id: str) -> CatalogEntry:
        try:
            return self.entries[entry_id]
        except KeyError:
            raise CatalogError(f"no catalog entry named {entry_id!r}") from None

    def ids(self) -> list[str]:
        return sorted(self.entries)

    def resolve_recipe(self, entry_id: str) -> CatalogEntry:
        """Follow alias links to the defining entry."""
        entry = self[entry_id]
        seen = {entry_id}
        while entry.alias_of:
            if entry.alias_of in seen:
                raise CatalogError(f"alias cycle at {entry_id}")
            seen.add(entry.alias_of)
            entry = self[entry.alias_of]
        return entry

    def instantiate(self, entry_id: str, p: int,
                    _products: tuple[str, ...] = ()) -> PcPresentation:
        """The presentation of `entry_id` at p.  `_products` holds the product
        recipes being built around this call, so one that reaches itself is refused."""
        key = (entry_id, p)
        if key in self._cache:
            return self._cache[key]
        entry = self[entry_id]
        if entry.is_disabled:
            raise CatalogError(f"{entry_id} is disabled: {entry.disabled_reason}")
        entry.check_prime(p)
        target = self.resolve_recipe(entry_id)
        if target.is_disabled:
            raise CatalogError(f"{entry_id} aliases disabled {target.entry_id}")
        if target.is_product:
            if target.entry_id in _products:
                raise CatalogError(f"product cycle at {target.entry_id}")
            outer = _products + (target.entry_id,)
            pres = direct_product(*[self.instantiate(fid, p, outer) for fid in target.factors],
                                  name=entry_id)
        else:
            try:
                pres = build_presentation(target.statements, p, name=entry_id)
            except DslError as exc:
                raise CatalogError(f"{entry_id}: {exc}") from exc
        self._cache[key] = pres
        return pres


load_group_dsl = load_presentation  # the public name of dsl.load_presentation
