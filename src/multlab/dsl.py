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
comments are ignored.  `read_line` reads the DSL, catalog files and replay
scripts under this one rule; a quoted citation may end a line only where its
keyword takes one (a catalog `expect`, a replay `assume`), and any other
stray word or citation is rejected with its line number.
"""

from __future__ import annotations

from .abelian import valuation
from .pcgroup import PcPresentation


class DslError(ValueError):
    def __init__(self, message: str, line_no: int | None = None):
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
        if not token[2:].isdecimal():  # p^-1 would be the fraction 1/p
            raise DslError(f"bad exponent {token!r}", line_no)
        return sign * p ** int(token[2:])
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


def read_line(raw: str) -> tuple[str, list[str], str | None]:
    """Split a line into its statement (without its `# comment`, stripped),
    the words before its quoted citation, and the citation or None.  A
    citation may hold `#` and quotes: it runs from the first `"` to the
    first later `"` that only blanks or a comment follow; ValueError if none
    does, if it is directly followed by `#` and a later `"`, which could
    close it instead, or if no word comes before it."""
    head, quote, rest = raw.partition('"')
    if "#" in head or not quote:
        statement = head.split("#", 1)[0].strip()
        return statement, statement.split(), None
    if not head.strip():
        raise ValueError("a citation must follow a keyword")
    for i, ch in enumerate(rest):
        if ch == '"' and not rest[i + 1:].split("#", 1)[0].strip():
            if rest[i + 1:i + 2] == "#" and '"' in rest[i + 1:]:
                raise ValueError('a citation\'s "# is ambiguous when a later " follows')
            return f'{head}"{rest[:i + 1]}'.strip(), head.split(), rest[:i]
    raise ValueError("only a comment may follow the closing quote of a citation")


# the leading words that name what a statement defines, once per text
DEFINES = {"prime": 1, "gen": 2, "pow": 2, "comm": 3}


def build_presentation(statements, p: int, name: str | None = None) -> PcPresentation:
    """Instantiate `(line number, words)` statements at p."""
    prime = None
    gens, pows, comms = [], [], []
    defined: set[str] = set()
    for line_no, words in statements:
        kw = words[0]
        if kw == "prime":
            if len(words) != 2:
                raise DslError("prime takes one argument", line_no)
            prime = (words[1], line_no)
        elif kw == "gen":
            if len(words) != 3:
                raise DslError("gen takes a name and a relative order", line_no)
            gens.append((words[1], words[2], line_no))
        elif kw == "pow":
            if len(words) < 4 or words[2] != "=":
                raise DslError("expected `pow <name> = <word>`", line_no)
            pows.append((words[1], " ".join(words[3:]), line_no))
        elif kw == "comm":
            if len(words) < 5 or words[3] != "=":
                raise DslError("expected `comm <name> <name> = <word>`", line_no)
            comms.append((words[1], words[2], " ".join(words[4:]), line_no))
        else:
            raise DslError(f"unknown statement {kw!r}", line_no)
        key = " ".join(words[:DEFINES[kw]])  # a second `pow a`, whatever its word
        if key in defined:
            raise DslError(f"{key!r} is stated twice", line_no)
        defined.add(key)
    if prime is not None and prime[0] != "p":
        token, line_no = prime
        if not token.isdigit():
            raise DslError(f"bad prime {token!r}", line_no)
        if int(token) != p:
            raise DslError(f"presentation is fixed at prime {token}, not {p}", line_no)
    gen_index = {}
    orders = []
    for gname, order_tok, line_no in gens:
        gen_index[gname] = len(orders)
        order = _parse_scalar(order_tok, p, line_no)
        if order < p or p ** valuation(order, p) != order:
            raise DslError(f"relative order of {gname} is {order}, not a power of {p}", line_no)
        orders.append(order)
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
    for gname, word_text, line_no in pows:
        if gname not in gen_index:
            raise DslError(f"unknown generator {gname!r}", line_no)
        i = gen_index[gname]
        powers[i] = normalize(_parse_word(word_text, gen_index, p, line_no), line_no)
    tails = []
    for high, low, word_text, line_no in comms:
        for nm in (high, low):
            if nm not in gen_index:
                raise DslError(f"unknown generator {nm!r}", line_no)
        j, i = gen_index[high], gen_index[low]
        if j <= i:
            raise DslError(
                f"comm {high} {low}: first generator must have the higher index", line_no)
        tails.append((j, i, normalize(_parse_word(word_text, gen_index, p, line_no), line_no)))
    try:
        return PcPresentation(
            p=p,
            names=tuple(g for g, _, _ in gens),
            orders=tuple(orders),
            powers=tuple(powers),
            comms=tuple(tails),
            name=name,
        )
    except ValueError as exc:
        raise DslError(str(exc)) from exc


def load_presentation(text: str, p: int, name: str | None = None) -> PcPresentation:
    """Parse and instantiate at p; building the presentation checks consistency."""
    statements = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        try:
            _, words, citation = read_line(raw)
        except ValueError as exc:
            raise DslError(str(exc), line_no) from None
        if citation is not None:
            raise DslError(f"{words[0]} takes no citation", line_no)
        if words:
            statements.append((line_no, words))
    return build_presentation(statements, p, name=name)
