"""Text DSL for power-commutator presentations.

One statement per line::

    prime 3            # or `prime p` for parametric entries
    gen a p^2          # relative order: INT, p, or p^INT
    gen a1 p
    gen a2 p
    pow a = a2         # g^{relative order} = word
    comm a1 a = a2     # [a1, a] = word; first name must have the higher index

Words are `*`-separated `name^exp` atoms or the literal `1`.  Exponents may
be integers, `p`, `p^INT`, or `nu` (the least quadratic non-residue mod p),
all instantiated when the text is loaded at a concrete prime.  Exponents are
normalized into [0, relative order) at load time.  Blank lines and `#`
comments are ignored; unknown leading keywords are rejected here but may be
claimed by catalog-level wrappers before parsing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pcgroup import PcPresentation


class DslError(ValueError):
    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}" if line_no else message)


def least_nonresidue(p: int) -> int:
    if p == 2:
        raise DslError("nu is undefined at p = 2")
    residues = {pow(x, 2, p) for x in range(1, p)}
    return min(x for x in range(2, p) if x not in residues)


def _parse_scalar(token: str, p: int, line_no: int) -> int:
    """Parse INT | p | p^INT | nu | cp3, with an optional leading minus.

    `nu` is the least quadratic non-residue mod p.  `cp3` is binom(p,3) mod p,
    the weight-3 power-correction exponent: 1 at p = 3 and 0 for p >= 5, which
    lets one parametric text carry the p = 3 variant of a presentation.
    """
    token = token.strip()
    sign = 1
    if token.startswith("-"):
        sign = -1
        token = token[1:]
    if token == "p":
        return sign * p
    if token == "nu":
        return sign * least_nonresidue(p)
    if token == "cp3":
        return sign * ((p * (p - 1) * (p - 2) // 6) % p)
    if token.startswith("p^"):
        try:
            return sign * p ** int(token[2:])
        except ValueError:
            raise DslError(f"bad exponent {token!r}", line_no) from None
    try:
        return sign * int(token)
    except ValueError:
        raise DslError(f"bad number {token!r}", line_no) from None


def parse_order(token: str) -> int:
    """E for an order written `1` (E = 0) or `p^E`."""
    token = token.strip()
    if token == "1":
        return 0
    if token.startswith("p^") and token[2:].isdigit():
        return int(token[2:])
    raise DslError(f"order values are written 1 or p^E, got {token!r}")


def _parse_word(text: str, gen_index: dict[str, int], p: int, line_no: int):
    text = text.strip()
    if text == "1":
        return []
    letters = []
    for atom in text.split("*"):
        atom = atom.strip()
        if not atom:
            raise DslError("empty atom in word", line_no)
        if "^" in atom:
            name, _, exp = atom.partition("^")
            name = name.strip()
            if name == "p":  # guard against `p^2` read as a generator power
                raise DslError("word atom cannot be a bare prime power", line_no)
            e = _parse_scalar(exp, p, line_no)
        else:
            name, e = atom, 1
        if name not in gen_index:
            raise DslError(f"unknown generator {name!r} in word", line_no)
        letters.append((gen_index[name], e))
    return letters


@dataclass
class ParsedPresentation:
    prime_token: str | None
    gens: list[tuple[str, str]]              # (name, order token)
    pows: list[tuple[str, str, int]]         # (name, word text, line)
    comms: list[tuple[str, str, str, int]]   # (high, low, word text, line)


def parse_statements(text: str) -> ParsedPresentation:
    out = ParsedPresentation(None, [], [], [])
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kw = parts[0]
        if kw == "prime":
            if len(parts) != 2:
                raise DslError("prime takes one argument", line_no)
            out.prime_token = parts[1]
        elif kw == "gen":
            if len(parts) != 3:
                raise DslError("gen takes a name and a relative order", line_no)
            out.gens.append((parts[1], parts[2]))
        elif kw == "pow":
            if len(parts) < 4 or parts[2] != "=":
                raise DslError("expected `pow <name> = <word>`", line_no)
            out.pows.append((parts[1], " ".join(parts[3:]), line_no))
        elif kw == "comm":
            if len(parts) < 5 or parts[3] != "=":
                raise DslError("expected `comm <name> <name> = <word>`", line_no)
            out.comms.append((parts[1], parts[2], " ".join(parts[4:]), line_no))
        else:
            raise DslError(f"unknown statement {kw!r}", line_no)
    return out


def build_presentation(parsed: ParsedPresentation, p: int,
                       name: str | None = None) -> PcPresentation:
    if parsed.prime_token is not None and parsed.prime_token != "p":
        declared = int(parsed.prime_token)
        if declared != p:
            raise DslError(f"presentation is fixed at prime {declared}, not {p}")
    gen_index = {}
    orders = []
    for gname, order_tok in parsed.gens:
        if gname in gen_index:
            raise DslError(f"duplicate generator {gname!r}")
        gen_index[gname] = len(orders)
        orders.append(_parse_scalar(order_tok, p, 0))
    n = len(orders)

    def normalize(letters, line_no):
        # fold into a normal-form tail: indices ascending, exponents reduced
        acc: dict[int, int] = {}
        prev = -1
        for k, e in letters:
            if k < prev:
                raise DslError("tail word must use ascending generator indices", line_no)
            prev = k
            acc[k] = (acc.get(k, 0) + e) % orders[k]
        return tuple((k, acc[k]) for k in sorted(acc) if acc[k])

    powers: list = [()] * n
    for gname, word_text, line_no in parsed.pows:
        if gname not in gen_index:
            raise DslError(f"unknown generator {gname!r}", line_no)
        i = gen_index[gname]
        if powers[i]:
            raise DslError(f"duplicate power relation for {gname!r}", line_no)
        powers[i] = normalize(_parse_word(word_text, gen_index, p, line_no), line_no)
    comms = []
    for high, low, word_text, line_no in parsed.comms:
        for nm in (high, low):
            if nm not in gen_index:
                raise DslError(f"unknown generator {nm!r}", line_no)
        j, i = gen_index[high], gen_index[low]
        if j <= i:
            raise DslError(
                f"comm {high} {low}: first generator must have the higher index", line_no)
        tail = normalize(_parse_word(word_text, gen_index, p, line_no), line_no)
        if tail:
            comms.append((j, i, tail))
    try:
        return PcPresentation(
            p=p,
            names=tuple(g for g, _ in parsed.gens),
            orders=tuple(orders),
            powers=tuple(powers),
            comms=tuple(comms),
            name=name,
        )
    except ValueError as exc:
        raise DslError(str(exc)) from exc


def load_presentation(text: str, p: int, name: str | None = None) -> PcPresentation:
    """Parse and instantiate at p; building the presentation checks consistency."""
    return build_presentation(parse_statements(text), p, name=name)
