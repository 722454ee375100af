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
    disabled <reason>
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

from .abelian import AbelianGroup, valuation
from .dsl import DslError, _parse_scalar, load_presentation, parse_order
from .pcgroup import PcPresentation, direct_product, is_prime

CONSTRAINTS = ("odd", "two", "any")
SINGLE_HEADERS = ("name", "constraint", "squeeze", "alias", "product", "disabled")
EXPECT_KINDS = ("multiplier", "order", "t")


class CatalogError(ValueError):
    pass


class ConstraintError(CatalogError):
    pass


@dataclass(frozen=True)
class Expect:
    kind: str                       # multiplier | order | t
    value: str                      # raw token(s); instantiated per prime
    source: str

    def multiplier_at(self, p: int) -> AbelianGroup:
        assert self.kind == "multiplier"
        inner = self.value.strip()[1:-1].strip()
        exponents = []
        for tok in inner.split(",") if inner else ():
            n = _parse_scalar(tok, p, 0)
            if n < 1 or p ** (e := valuation(n, p)) != n:
                raise CatalogError(f"expect multiplier {self.value}: factor {tok.strip()!r} "
                                   f"is {n}, not a power of p = {p}")
            exponents.append(e)
        return AbelianGroup.of(p, exponents)

    def order_exponent_at(self, p: int) -> int:
        assert self.kind == "order"
        return parse_order(self.value)

    def t_value(self) -> int:
        assert self.kind == "t"
        return int(self.value)


@dataclass(frozen=True)
class CatalogEntry:
    entry_id: str
    constraint: str
    dsl_text: str | None = None
    factors: tuple[str, ...] = ()
    alias_of: str | None = None
    expects: tuple[Expect, ...] = ()
    squeeze_script: str | None = None
    disabled_reason: str | None = None

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


def _strip_comment(raw: str) -> str:
    """The line without its `# comment`, stripped.  A quoted citation may hold
    `#` and quotes: it runs from the first `"` to the first later `"` that
    only blanks or a comment follow, and ValueError is raised if none does."""
    head, quote, rest = raw.partition('"')
    if "#" in head or not quote:
        return head.split("#", 1)[0].strip()
    for i, ch in enumerate(rest):
        if ch == '"' and not rest[i + 1:].split("#", 1)[0].strip():
            return f'{head}"{rest[:i + 1]}'.strip()
    raise ValueError("only a comment may follow the closing quote of a citation")


def _take_citation(line: str) -> tuple[str, str]:
    if '"' in line:
        head, _, rest = line.partition('"')
        return head.strip(), rest.rsplit('"', 1)[0]
    return line.strip(), ""


def parse_entry(text: str, fallback_name: str | None = None) -> CatalogEntry:
    name = fallback_name
    constraint = "any"
    expects: list[Expect] = []
    factors: list[str] = []
    alias_of = None
    squeeze = None
    disabled = None
    dsl_lines: list[str] = []  # header lines blank, so DSL errors keep the file's line numbers
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        try:
            line = _strip_comment(raw)
        except ValueError as exc:
            raise CatalogError(f"line {lineno}: {exc}") from None
        dsl_lines.append("")
        if not line:
            continue
        kw, *args = line.split()
        if kw in ("name", "constraint", "squeeze", "alias") and len(args) != 1:
            raise CatalogError(f"line {lineno}: {line!r} needs an argument" if not args else
                               f"line {lineno}: {kw} takes one argument, got {line!r}")
        if kw in SINGLE_HEADERS and kw in seen:
            raise CatalogError(f"line {lineno}: {kw!r} is stated twice")
        seen.add(kw)
        if kw == "name":
            name = args[0]
        elif kw == "constraint":
            constraint = args[0]
            if constraint not in CONSTRAINTS:
                raise CatalogError(f"unknown constraint {constraint!r}")
        elif kw == "expect":
            head, citation = _take_citation(line)
            parts = head.split(None, 2)
            if len(parts) < 3:
                raise CatalogError(f"malformed expect line: {line!r}")
            kind, value = parts[1], parts[2]
            if kind not in EXPECT_KINDS:
                raise CatalogError(f"line {lineno}: unknown expect kind {kind!r}")
            if kind == "multiplier" and not (value[0] == "[" and value[-1] == "]"):
                raise CatalogError(
                    f"line {lineno}: expect multiplier needs [...], got {value!r}")
            if kind == "t":
                try:
                    int(value)
                except ValueError:
                    raise CatalogError(
                        f"line {lineno}: expect t needs an integer, got {value!r}") from None
            expects.append(Expect(kind, value, citation))
        elif kw == "squeeze":
            squeeze = args[0]
        elif kw == "product":
            factors = args
        elif kw == "alias":
            alias_of = args[0]
        elif kw == "disabled":
            disabled = line.split(None, 1)[1] if " " in line else "disabled"
        else:
            dsl_lines[-1] = raw
    if name is None:
        raise CatalogError("entry has no name")
    direct = any(dsl_lines)
    modes = sum(1 for x in (factors, alias_of, direct) if x)
    if modes != 1 and disabled is None:
        raise CatalogError(f"{name}: entry must be exactly one of direct/product/alias")
    if len(factors) == 1:
        raise CatalogError(f"{name}: a product needs two factors or more")
    return CatalogEntry(
        entry_id=name,
        constraint=constraint,
        dsl_text="\n".join(dsl_lines) if direct else None,
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

    def instantiate(self, entry_id: str, p: int) -> PcPresentation:
        key = (entry_id, p)
        if key in self._cache:
            return self._cache[key]
        entry = self[entry_id]
        if entry.is_disabled:
            raise CatalogError(f"{entry_id} is disabled: {entry.disabled_reason}")
        if not is_prime(p):
            raise ConstraintError(f"{p} is not prime")
        if not entry.allows(p):
            raise ConstraintError(
                f"{entry_id} requires a {entry.constraint} prime, got {p}")
        target = self.resolve_recipe(entry_id)
        if target.is_disabled:
            raise CatalogError(f"{entry_id} aliases disabled {target.entry_id}")
        if target.is_product:
            pres = direct_product(*[self.instantiate(fid, p) for fid in target.factors],
                                  name=entry_id)
        else:
            try:
                pres = load_presentation(target.dsl_text, p, name=entry_id)
            except DslError as exc:
                raise CatalogError(f"{entry_id}: {exc}") from exc
        self._cache[key] = pres
        return pres


load_group_dsl = load_presentation  # the public name of dsl.load_presentation
