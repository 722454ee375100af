"""A fact ledger for multiplier orders, with derivation rules and replays.

Facts record what is known about |M(G)| for a named group: exact orders,
upper/lower bounds (as exponents of p), exact structures, and capability
witnesses.  Provenance is always one of Computed(method), Rule(name,
premises), or Assumed(citation); rules refuse to run without their premises
rather than assuming anything silently.  Strict inequalities are promoted
to the next p-power, which is what makes "p^3 < |M|" machine-usable as
">= p^4".

Replay scripts are small text programs (use / assume / apply / compute /
expect) that re-derive bound chains step by step and assert the declared
outcomes, failing loudly on the first divergent step.  `dsl.read_line`
reads their lines; only `assume` takes a citation.
"""

from __future__ import annotations

from .abelian import AbelianGroup, exterior_square, tensor
from .compute import Computer
from .dsl import DslError, parse_order, read_line
from .pcgroup import (
    PcPresentation,
    Subgroup,
    abelian_quotient_invariants,
    abelianization,
    central_quotient,
    derived_subgroup,
    structure_report,
)
from .record import Frozen, Record
from .results import MultiplierResult

KIND_EXACT = "exact-order"
KIND_UPPER = "upper-bound"
KIND_LOWER = "lower-bound"
KIND_STRUCTURE = "exact-structure"
KIND_CAPABLE = "capability"

_KINDS = (KIND_EXACT, KIND_UPPER, KIND_LOWER, KIND_STRUCTURE, KIND_CAPABLE)


class LedgerError(ValueError):
    pass


class MissingPremiseError(LedgerError):
    pass


class ReplayAssertionError(LedgerError):
    def __init__(self, step_no: int, line: str, message: str):
        self.step_no = step_no
        self.line = line
        super().__init__(f"step {step_no} ({line!r}): {message}")


class Provenance(Frozen):
    _fields = ("tag", "detail", "premises", "citation")

    def __init__(self, tag: str,            # computed | rule | assumed
                 detail: str = "",          # method or rule name
                 premises: tuple[int, ...] = (), citation: str | None = None):
        self._set(tag=tag, detail=detail, premises=premises, citation=citation)

    @classmethod
    def computed(cls, method: str) -> "Provenance":
        return cls("computed", method)

    @classmethod
    def rule(cls, name: str, premises) -> "Provenance":
        return cls("rule", name, tuple(premises))

    @classmethod
    def assumed(cls, citation: str) -> "Provenance":
        return cls("assumed", citation=citation)


_COMPUTED = Provenance("computed")


class Fact(Frozen):
    _fields = ("fact_id", "subject", "kind", "p", "exponent", "structure", "provenance")

    def __init__(self, fact_id: int, subject: str, kind: str, p: int,
                 exponent: int | None = None,      # order facts: value is p^exponent
                 structure: AbelianGroup | None = None,
                 provenance: Provenance = _COMPUTED):
        if kind not in _KINDS:
            raise LedgerError(f"unknown fact kind {kind!r}")
        if kind in (KIND_EXACT, KIND_UPPER, KIND_LOWER) and exponent is None:
            raise LedgerError(f"{kind} facts carry an exponent")
        if kind in (KIND_EXACT, KIND_STRUCTURE) and provenance.tag == "rule" \
                and not provenance.premises:
            raise LedgerError("rule-derived facts must list premises")
        self._set(fact_id=fact_id, subject=subject, kind=kind, p=p, exponent=exponent,
                  structure=structure, provenance=provenance)

    def describe(self) -> str:
        prov = self.provenance
        if prov.tag == "assumed":
            src = f'assumed "{prov.citation}"'
        elif prov.tag == "rule":
            src = f"rule {prov.detail} <- {list(prov.premises)}"
        else:
            src = f"computed({prov.detail})"
        if self.kind == KIND_CAPABLE:
            val = "capable"
        elif self.kind == KIND_STRUCTURE:
            val = self.structure.render()
        else:
            val = f"p^{self.exponent}"
        return f"F{self.fact_id} {self.subject}: {self.kind} {val} [{src}]"


class Ledger:
    """Single-writer fact store with bound-consistency checks on every add."""

    def __init__(self):
        self.facts: list[Fact] = []

    def add(self, subject: str, kind: str, p: int, *, exponent: int | None = None,
            structure: AbelianGroup | None = None,
            provenance: Provenance) -> Fact:
        fact = Fact(len(self.facts), subject, kind, p,
                    exponent=exponent, structure=structure, provenance=provenance)
        for pid in provenance.premises:
            if not 0 <= pid < len(self.facts):
                raise LedgerError(f"premise F{pid} does not exist")
        self._validate(fact)
        self.facts.append(fact)
        return fact

    def _validate(self, fact: Fact):
        if fact.kind == KIND_CAPABLE:
            return
        subject_facts = self.for_subject(fact.subject) + [fact]
        uppers = [f.exponent for f in subject_facts if f.kind == KIND_UPPER]
        lowers = [f.exponent for f in subject_facts if f.kind == KIND_LOWER]
        exacts = [f.exponent for f in subject_facts if f.kind == KIND_EXACT]
        exacts += [f.structure.order_exponent(f.p) for f in subject_facts
                   if f.kind == KIND_STRUCTURE]
        lo = max(lowers, default=0)
        hi = min(uppers, default=None)
        if hi is not None and lo > hi:
            raise LedgerError(
                f"{fact.subject}: lower bound p^{lo} exceeds upper bound p^{hi}")
        for e in exacts:
            if e < lo or (hi is not None and e > hi):
                raise LedgerError(
                    f"{fact.subject}: exact order p^{e} escapes [p^{lo}, p^{hi}]")
        if len(set(exacts)) > 1:
            raise LedgerError(f"{fact.subject}: conflicting exact orders {exacts}")

    def for_subject(self, subject: str) -> list[Fact]:
        return [f for f in self.facts if f.subject == subject]

    def best_upper(self, subject: str) -> Fact | None:
        cands = [f for f in self.for_subject(subject) if f.kind == KIND_UPPER]
        return min(cands, key=lambda f: f.exponent) if cands else None

    def best_lower(self, subject: str) -> Fact | None:
        cands = [f for f in self.for_subject(subject) if f.kind == KIND_LOWER]
        return max(cands, key=lambda f: f.exponent) if cands else None

    def exact(self, subject: str) -> Fact | None:
        for f in self.for_subject(subject):
            if f.kind == KIND_EXACT:
                return f
        return None

    def capability(self, subject: str) -> Fact | None:
        for f in self.for_subject(subject):
            if f.kind == KIND_CAPABLE:
                return f
        return None

    def trace(self, fact: Fact) -> list[Fact]:
        """The fact and its premise closure, in derivation order."""
        seen: set[int] = set()
        out: list[Fact] = []

        def visit(f: Fact):
            if f.fact_id in seen:
                return
            seen.add(f.fact_id)
            for pid in f.provenance.premises:
                visit(self.facts[pid])
            out.append(f)

        visit(fact)
        return out


# -- rules ---------------------------------------------------------------------


def rule_green(ledger: Ledger, subject: str, p: int, n: int) -> Fact:
    """Upper bound p^{n(n-1)/2} for any group of order p^n."""
    if n < 0:
        raise LedgerError("order exponent must be nonnegative")
    return ledger.add(subject, KIND_UPPER, p, exponent=n * (n - 1) // 2,
                      provenance=Provenance.computed("green-bound"))


def _order_premise(premise: Fact | None, wanted: str, allowed=(KIND_EXACT, KIND_UPPER)):
    if premise is None:
        raise MissingPremiseError(f"need a fact for {wanted}")
    if premise.kind not in allowed:
        raise MissingPremiseError(
            f"premise for {wanted} must be one of {allowed}, got {premise.kind}")
    return premise.exponent


def _derived_meet_exponent(pres: PcPresentation, K: Subgroup) -> int:
    """log_p |G' cap K| = log_p |G'| + log_p |K| - log_p |G'K| for normal K."""
    derived = derived_subgroup(pres)
    product = Subgroup.generate(pres, list(derived.igs.values()) + list(K.igs.values()))
    return derived.order_exponent + K.order_exponent - product.order_exponent


def rule_jones(ledger: Ledger, subject: str, pres: PcPresentation, K: Subgroup,
               premise: Fact | None) -> Fact:
    """|M(G)| <= |M(G/K)| |M(K)| |(G/K)^ab (x) K| / |G' cap K| for central K > 1."""
    if not K.order_exponent:
        raise LedgerError("K is trivial")
    if not K.is_central():
        raise LedgerError("K is not central")
    p = pres.p
    e_mq = _order_premise(premise, "|M(G/K)|")
    k_inv = K.abelian_invariants()
    e_mk = exterior_square(k_inv).order_exponent(p)
    a_ab = abelian_quotient_invariants(pres, list(K.igs.values()))
    e_t = tensor(a_ab, k_inv).order_exponent(p)
    e_cap = _derived_meet_exponent(pres, K)
    exp = e_mq + e_mk + e_t - e_cap
    if exp < 0:
        raise LedgerError("divisibility bound went negative; premises inconsistent")
    return ledger.add(
        subject, KIND_UPPER, p, exponent=exp,
        provenance=Provenance.rule(
            f"jones[|M(A)|=p^{e_mq},|M(K)|=p^{e_mk},|A^ab(x)K|=p^{e_t},|G'^K|=p^{e_cap}]",
            (premise.fact_id,)))


def rule_class_bound(ledger: Ledger, subject: str, pres: PcPresentation,
                     premise: Fact | None) -> Fact:
    """|gamma_c| |M(G)| <= |M(G/gamma_c)| |(G/Z_{c-1})^ab (x) gamma_c| at class c >= 2."""
    st = structure_report(pres)
    c = st.nilpotency_class
    if c < 2:
        raise LedgerError(f"nilpotency class is {c}, rule needs >= 2")
    p = pres.p
    gamma_c = st.lower_central[c - 1]
    z_prev = st.upper_central[c - 1]
    e_mq = _order_premise(premise, "|M(G/gamma_c)|")
    g_inv = gamma_c.abelian_invariants()
    q_ab = abelian_quotient_invariants(pres, list(z_prev.igs.values()))
    e_t = tensor(q_ab, g_inv).order_exponent(p)
    exp = e_mq + e_t - gamma_c.order_exponent
    if exp < 0:
        raise LedgerError("class bound went negative; premises inconsistent")
    return ledger.add(subject, KIND_UPPER, p, exponent=exp,
                      provenance=Provenance.rule(
                          f"class_bound[c={c},|gamma_c|=p^{gamma_c.order_exponent}]",
                          (premise.fact_id,)))


def rule_extraspecial(ledger: Ledger, subject: str, pres: PcPresentation) -> Fact:
    """Exact |M| for verified extraspecial groups: p^{2n^2-n-1} for order
    p^{2n+1}, n >= 2, and the four classical n = 1 structures, told apart
    from the presentation: at odd p, (xy)^p = x^p y^p (class 2, |G'| = p),
    so G has exponent p iff every pc generator does; at p = 2, G is D8 iff
    x, y or xy is an involution, for x, y the generators that survive in
    G/Z(G)."""
    st = structure_report(pres)
    p = pres.p
    if not (st.derived.order_exponent == 1 and st.center.order_exponent == 1
            and st.derived == st.center
            and abelianization(pres).is_elementary(p)):
        raise LedgerError("group is not extraspecial")
    if pres.order_exponent % 2 == 0:
        raise LedgerError("extraspecial groups have odd order exponent")
    n = (pres.order_exponent - 1) // 2
    if n >= 2:
        exp = 2 * n * n - n - 1
        return ledger.add(subject, KIND_EXACT, p, exponent=exp,
                          provenance=Provenance.computed(f"extraspecial-formula[n={n}]"))
    if p == 2:
        z = st.center.igs
        x, y = (pres.gen(i) for i in range(pres.ngens) if i not in z or z[i][i] > 1)
        dihedral = pres.identity in (pres.pow_el(x, 2), pres.pow_el(y, 2),
                                     pres.pow_el(pres.mul(x, y), 2))
        structure = AbelianGroup.cyclic(2) if dihedral else AbelianGroup.trivial()
    else:
        exponent_p = all(pres.pow_el(pres.gen(i), p) == pres.identity
                         for i in range(pres.ngens))
        structure = AbelianGroup.elementary(p, 2) if exponent_p else AbelianGroup.trivial()
    ledger.add(subject, KIND_STRUCTURE, p, structure=structure,
               provenance=Provenance.computed("extraspecial-formula[n=1]"))
    return ledger.add(subject, KIND_EXACT, p, exponent=structure.order_exponent(p),
                      provenance=Provenance.computed("extraspecial-formula[n=1]"))


def rule_transgression_lower(ledger: Ledger, subject: str, pres: PcPresentation,
                             Z: Subgroup, capability: Fact | None,
                             premise: Fact | None) -> Fact:
    """For capable G and central Z > 1: |M(G)| > |M(G/Z)| / |G' cap Z|, promoted
    to the next p-power, via the inflation-transgression five-term sequence."""
    if capability is None or capability.kind != KIND_CAPABLE:
        raise MissingPremiseError(
            "refusing to assume the transgression connecting map is nontrivial "
            "without a capability fact")
    if not Z.order_exponent:
        raise LedgerError("Z is trivial")
    if not Z.is_central():
        raise LedgerError("Z is not central")
    p = pres.p
    e_mq = _order_premise(premise, "|M(G/Z)|", allowed=(KIND_EXACT, KIND_LOWER))
    e_cap = _derived_meet_exponent(pres, Z)
    exp = e_mq - e_cap + 1
    return ledger.add(subject, KIND_LOWER, p, exponent=exp,
                      provenance=Provenance.rule(
                          f"transgression[|M(G/Z)|=p^{e_mq},|G'^Z|=p^{e_cap}]",
                          (capability.fact_id, premise.fact_id)))


def squeeze_exact(ledger: Ledger, subject: str, p: int) -> Fact | None:
    """Derive an exact order when the best bounds meet and none is known yet."""
    lo, hi = ledger.best_lower(subject), ledger.best_upper(subject)
    if ledger.exact(subject) or lo is None or hi is None or lo.exponent != hi.exponent:
        return None
    return ledger.add(subject, KIND_EXACT, p, exponent=lo.exponent,
                      provenance=Provenance.rule("squeeze", (lo.fact_id, hi.fact_id)))


# -- script replay ---------------------------------------------------------------


class ReplayResult(Record):
    _fields = ("subject", "ledger", "trace")

    def __init__(self, subject: str, ledger: Ledger, trace: list[str]):
        self.subject = subject
        self.ledger = ledger
        self.trace = trace

    @property
    def assumed(self) -> list[Fact]:
        return [f for f in self.ledger.facts if f.provenance.tag == "assumed"]

    def assumed_bounds(self) -> list[Fact]:
        """Assumed order facts (capability assumptions are gate conditions,
        tracked separately)."""
        return [f for f in self.assumed if f.kind != KIND_CAPABLE]

    def assumed_capabilities(self) -> list[Fact]:
        return [f for f in self.assumed if f.kind == KIND_CAPABLE]

    def final_exact(self) -> Fact | None:
        return self.ledger.exact(self.subject)


def _resolve_subgroup(pres: PcPresentation, spec: str) -> Subgroup:
    st = structure_report(pres)
    if spec == "center":
        return st.center
    if spec == "derived":
        return st.derived
    if spec.startswith("gamma"):
        series, idx = st.lower_central, spec[5:]
        if not (idx.isdecimal() and 1 <= int(idx) <= len(series)):
            raise LedgerError(f"{spec!r} is not one of gamma1 ... gamma{len(series)}")
        return series[int(idx) - 1]
    if spec.startswith("gens:"):
        names = spec[5:].split(",")
        return Subgroup.generate(pres, [pres.gen(pres.gen_index(n)) for n in names])
    raise LedgerError(f"unknown subgroup spec {spec!r}")


def _resolve_central(pres: PcPresentation, spec: str, key: str) -> Subgroup:
    """Argument `key`'s subgroup, refused if trivial or not central before any quotient."""
    sub = _resolve_subgroup(pres, spec)
    if not sub.order_exponent:
        raise LedgerError(f"{key} is trivial")
    if not sub.is_central():
        raise LedgerError(f"{spec} is not central")
    return sub


# the key=value arguments each `apply` rule takes, all of them required
RULE_KEYS = {"green": (), "extraspecial": (), "class_bound": (), "jones": ("K",),
             "transgression": ("Z",)}
# the fact each `assume <kind>` adds; all but capable take an order
ASSUME_KINDS = {"capable": KIND_CAPABLE, "upper": KIND_UPPER, "lower": KIND_LOWER,
                "exact": KIND_EXACT}
# the tokens `use <group>`, `compute` and `expect <kind> <order>` take, exactly
VERB_ARGS = {"use": ("group",), "compute": (), "expect": ("kind", "order")}


def replay_script(script: str, p: int, computer: Computer) -> ReplayResult:
    """Execute a bound-derivation script and assert its declared expectations."""
    ledger = Ledger()
    subject: str | None = None
    pres: PcPresentation | None = None
    trace: list[str] = []

    def add_result(fact_subject: str, result: MultiplierResult) -> Fact:
        """An exact-order fact from a multiplier computation."""
        fact = ledger.add(fact_subject, KIND_EXACT, p, exponent=result.order_exponent,
                          provenance=Provenance.computed(result.method))
        trace.append(fact.describe())
        return fact

    def premise_for(quot_subject: str, quot_pres: PcPresentation) -> Fact:
        existing = ledger.exact(quot_subject)
        if existing is not None:
            return existing
        return add_result(quot_subject, computer.compute(quot_pres))

    for step_no, raw in enumerate(script.splitlines(), start=1):
        try:
            line, parts, citation = read_line(raw)
        except ValueError as exc:
            raise ReplayAssertionError(step_no, raw.strip(), str(exc)) from None
        if not parts:
            continue
        verb = parts[0]
        try:
            if citation is not None and verb != "assume":
                raise LedgerError(f"{verb} takes no citation")
            if verb in VERB_ARGS and len(parts) - 1 != len(VERB_ARGS[verb]):
                raise LedgerError(
                    f"{verb} takes {' '.join(VERB_ARGS[verb]) or 'no arguments'}, "
                    f"got {' '.join(parts[1:]) or 'none'}")
            if verb == "use":
                subject = parts[1]
                pres = computer.catalog.instantiate(subject, p)
                trace.append(f"use {subject} at p={p} (order p^{pres.order_exponent})")
                continue
            if subject is None or pres is None:
                raise LedgerError("script must start with `use <group>`")
            if verb == "assume":
                if citation is None:
                    raise LedgerError("an assumption needs a quoted citation")
                args = parts[1:]
                if args and args[0] not in ASSUME_KINDS:
                    raise LedgerError(f"unknown assumption kind {args[0]!r}")
                if len(args) != (1 if args[:1] == ["capable"] else 2):
                    raise LedgerError("assume takes <upper|lower|exact> <order> or capable "
                                      f"before the citation, got {' '.join(args) or 'none'}")
                fact = ledger.add(subject, ASSUME_KINDS[args[0]], p,
                                  exponent=parse_order(args[1]) if args[1:] else None,
                                  provenance=Provenance.assumed(citation))
                trace.append(fact.describe())
            elif verb == "apply":
                if len(parts) == 1:
                    raise LedgerError(f"apply takes a rule: {', '.join(RULE_KEYS)}")
                rule = parts[1]
                if rule not in RULE_KEYS:
                    raise LedgerError(f"unknown rule {rule!r}")
                if any("=" not in kv for kv in parts[2:]):
                    raise LedgerError("rule arguments take the form key=value")
                keys = sorted(kv.split("=", 1)[0] for kv in parts[2:])
                if keys != sorted(RULE_KEYS[rule]):
                    raise LedgerError(
                        f"{rule} takes {' '.join(RULE_KEYS[rule]) or 'no arguments'}, "
                        f"got {' '.join(keys) or 'none'}")
                args = dict(kv.split("=", 1) for kv in parts[2:])
                if rule == "green":
                    fact = rule_green(ledger, subject, p, pres.order_exponent)
                elif rule == "extraspecial":
                    fact = rule_extraspecial(ledger, subject, pres)
                elif rule == "jones":
                    K = _resolve_central(pres, args["K"], "K")
                    quot = central_quotient(pres, K)
                    prem = premise_for(f"{subject}/{args['K']}", quot)
                    fact = rule_jones(ledger, subject, pres, K, prem)
                elif rule == "class_bound":
                    st = structure_report(pres)
                    gamma_c = st.lower_central[st.nilpotency_class - 1]
                    quot = central_quotient(pres, gamma_c)
                    prem = premise_for(f"{subject}/gamma_c", quot)
                    fact = rule_class_bound(ledger, subject, pres, prem)
                elif rule == "transgression":
                    Z = _resolve_central(pres, args["Z"], "Z")
                    quot = central_quotient(pres, Z)
                    prem = premise_for(f"{subject}/{args['Z']}", quot)
                    fact = rule_transgression_lower(
                        ledger, subject, pres, Z, ledger.capability(subject), prem)
                trace.append(fact.describe())
            elif verb == "compute":
                add_result(subject, computer.compute(pres))
            elif verb == "expect":
                kind_tok, value = parts[1], parse_order(parts[2])
                if kind_tok == "upper":
                    best = ledger.best_upper(subject)
                    found = best.exponent if best else None
                elif kind_tok == "lower":
                    best = ledger.best_lower(subject)
                    found = best.exponent if best else None
                elif kind_tok == "exact":
                    if squeeze_exact(ledger, subject, p) is not None:
                        trace.append(ledger.facts[-1].describe())
                    exact = ledger.exact(subject)
                    found = exact.exponent if exact else None
                else:
                    raise LedgerError(f"unknown expectation {kind_tok!r}")
                if found != value:
                    raise ReplayAssertionError(
                        step_no, line,
                        f"expected {kind_tok} p^{value}, ledger has "
                        f"{'nothing' if found is None else f'p^{found}'}")
                trace.append(f"expect {kind_tok} p^{value}: OK")
            else:
                raise LedgerError(f"unknown verb {verb!r}")
        except ReplayAssertionError:
            raise
        except (LedgerError, DslError, KeyError, IndexError) as exc:
            raise ReplayAssertionError(step_no, line, str(exc)) from exc
    if subject is None:
        raise LedgerError("empty script")
    return ReplayResult(subject, ledger, trace)
