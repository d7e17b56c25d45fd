"""Planning scenarios: the container, the textual DSL, and validation.

A scenario file declares types, constants, predicates with roles, an initial
configuration, guarded rules tagged system / system_update / goal_update, and
goal / critical specification pairs.  Facts render as ``Pred(a,b)@N`` and
timestamps may use ``NdHH:MM`` clock sugar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cached_property
from importlib import resources
from typing import Callable, Iterable, Optional, TypeVar

from .kernel import (
    TIME_PREDICATE,
    Configuration,
    Constant,
    KernelError,
    Role,
    Signature,
    Term,
    TimedFact,
    Variable,
    clock_convert,
    fact_size,
    make_signature,
)
from .rules import (
    GLOBAL_TIME_VAR,
    RELATIONS,
    Atom,
    CreatedFact,
    FactPattern,
    Rule,
    RuleClassification,
    RuleError,
    RuleRole,
    TimeConstraint,
    classify_rule,
)
from .relax import Relaxation
from .specs import ConfigSpec, SpecError, SpecKind, SpecPair, eta_measure


@dataclass(frozen=True)
class Diagnostic:
    line: int
    col: int
    message: str

    def render(self, filename: str = "<scenario>") -> str:
        return f"{filename}:{self.line}:{self.col}: {self.message}"


class ScenarioError(ValueError):
    def __init__(self, diagnostics: list[Diagnostic], filename: str = "<scenario>"):
        self.diagnostics = diagnostics
        self.filename = filename
        super().__init__("\n".join(d.render(filename) for d in diagnostics))


@dataclass(frozen=True)
class PlanningScenario:
    """Signature, rules, goal/critical specifications, initial configuration."""

    signature: Signature
    system_rules: tuple[Rule, ...]
    update_rules: tuple[Rule, ...]
    goal_spec: ConfigSpec
    critical_spec: ConfigSpec
    initial: Configuration
    fact_size_bound: int
    declared_bound: bool = False
    inject_past: bool = True  # add T >= T_i for consumed facts of every rule

    def rules(self) -> tuple[Rule, ...]:
        return self.system_rules + self.update_rules

    def classify(self) -> dict[str, RuleClassification]:
        return {r.name: classify_rule(r, self.signature) for r in self.rules()}

    @property
    def progressing(self) -> bool:
        """Every rule is progressing: `classify`'s verdict, read from the
        checks each rule keeps (`Rule.progress`), without the role checks."""
        return all(r.progress.progressing for r in self.rules())

    @cached_property
    def relaxation(self) -> Relaxation:
        """The timed relaxation of the system rules and the goal, prepared
        on first use and kept with the scenario."""
        return Relaxation(self.system_rules, self.goal_spec)

    def eta(self) -> int:
        return eta_measure(self.critical_spec)

    def is_eta_simple(self, eta: int) -> bool:
        return self.eta() < eta

    def with_initial(self, initial: Configuration) -> "PlanningScenario":
        return replace(self, initial=initial)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<clock>\d+d\d+:\d+)
  | (?P<number>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|[{}();,:@|+\-<>=])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # clock | number | ident | op | eof
    text: str
    line: int
    col: int


def _lex(text: str) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            diagnostics.append(
                Diagnostic(line, col, f"unexpected character {text[pos]!r}")
            )
            pos += 1
            col += 1
            continue
        kind = m.lastgroup or ""
        lexeme = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens, diagnostics


_CLOCK_RE = re.compile(r"(\d+)d(\d+):(\d+)")


def _clock_value(text: str, tok: Token, diags: list[Diagnostic]) -> int:
    m = _CLOCK_RE.fullmatch(text)
    assert m is not None
    try:
        return clock_convert(int(m.group(1)), int(m.group(2)), int(m.group(3)))
    except KernelError as exc:
        diags.append(Diagnostic(tok.line, tok.col, str(exc)))
        return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_ROLES = {"system": Role.SYSTEM, "goal": Role.GOAL, "critical": Role.CRITICAL}
_RULE_ROLES = {
    "system": RuleRole.SYSTEM,
    "system_update": RuleRole.SYSTEM_UPDATE,
    "goal_update": RuleRole.GOAL_UPDATE,
}

_T = TypeVar("_T")


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.diags: list[Diagnostic] = []
        self.types: list[str] = []
        self.consts: dict[str, str] = {}
        self.preds: dict[str, tuple[str, ...]] = {}
        self.roles: dict[str, Role] = {}
        self.init_facts: list[TimedFact] = []
        self.saw_init = False
        self.rules: list[Rule] = []
        self.goal_pairs: list[SpecPair] = []
        self.critical_pairs: list[SpecPair] = []
        self.bound: Optional[int] = None
        self.inject_past = True

    # -- token helpers ------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, tok: Token, message: str) -> None:
        self.diags.append(Diagnostic(tok.line, tok.col, message))

    def fail(self, tok: Token, message: str) -> "ScenarioError":
        self.error(tok, message)
        raise ScenarioError(self.diags)

    def unexpected(self, tok: Token, what: str) -> "ScenarioError":
        return self.fail(tok, f"expected {what}, found {tok.text or 'end of file'!r}")

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise self.unexpected(tok, repr(text))
        return tok

    def expect_ident(self, what: str) -> Token:
        tok = self.next()
        if tok.kind != "ident":
            raise self.unexpected(tok, what)
        return tok

    def expect_nat(self, what: str = "a number") -> int:
        tok = self.next()
        if tok.kind not in ("number", "clock"):
            raise self.unexpected(tok, what)
        try:
            if tok.kind == "number":
                return int(tok.text)
            return _clock_value(tok.text, tok, self.diags)
        except ValueError:  # more digits than `int` converts
            self.error(tok, f"number of {len(tok.text)} digits out of range")
            return 0

    # -- top level -----------------------------------------------------------

    def parse(self) -> None:
        sections = {
            "types": self.parse_types,
            "consts": self.parse_consts,
            "predicates": self.parse_predicates,
            "bound": self.parse_bound,
            "option": self.parse_option,
            "init": self.parse_init,
            "rule": self.parse_rule,
            "goal": self.parse_spec_block,
            "critical": self.parse_spec_block,
        }
        while (tok := self.peek()).kind != "eof":
            section = sections.get(tok.text)
            if section is None:
                raise self.fail(
                    tok, f"expected one of: {', '.join(sections)}; found {tok.text!r}"
                )
            section()

    def parse_types(self) -> None:
        self.expect("types")
        while self.peek().kind == "ident":
            tok = self.next()
            if tok.text in self.types:
                self.error(tok, f"duplicate type {tok.text}")
            else:
                self.types.append(tok.text)
        self.expect(";")

    def parse_type_name(self) -> str:
        tok = self.expect_ident("a type name")
        if tok.text not in self.types:
            self.error(tok, f"unknown type {tok.text}")
        return tok.text

    def parse_consts(self) -> None:
        self.expect("consts")
        while self.peek().text != ";":
            name_tok = self.expect_ident("a constant name")
            self.expect(":")
            ctype = self.parse_type_name()
            if name_tok.text in self.consts:
                self.error(name_tok, f"duplicate constant {name_tok.text}")
            self.consts[name_tok.text] = ctype
            if self.peek().text == ",":
                self.next()
        self.expect(";")

    def parse_predicates(self) -> None:
        self.expect("predicates")
        while self.peek().text != ";":
            name_tok = self.expect_ident("a predicate name")
            name = name_tok.text
            args: list[str] = []
            if self.peek().text == "(":
                self.next()
                args = self.items(self.parse_type_name)
                self.expect(")")
            self.expect(":")
            role_tok = self.expect_ident("a role (system, goal, or critical)")
            role = _ROLES.get(role_tok.text)
            if role is None:
                self.error(role_tok, f"unknown role {role_tok.text}")
                role = Role.SYSTEM
            if name == TIME_PREDICATE:
                self.error(name_tok, f"{TIME_PREDICATE} is predeclared and cannot be redefined")
            elif name in self.preds:
                self.error(name_tok, f"duplicate predicate {name}")
            else:
                self.preds[name] = tuple(args)
                self.roles[name] = role
            if self.peek().text == ",":
                self.next()
        self.expect(";")

    def parse_bound(self) -> None:
        self.expect("bound")
        self.expect("facts")
        self.bound = self.expect_nat()
        self.expect(";")

    def parse_option(self) -> None:
        self.expect("option")
        tok = self.expect_ident("an option name")
        if tok.text == "explicit_constraints":
            self.inject_past = False
        else:
            self.error(tok, f"unknown option {tok.text}")
        self.expect(";")

    def parse_init(self) -> None:
        self.expect("init")
        self.expect("{")
        self.saw_init = True
        while self.peek().text != "}":
            atom = self.parse_atom(None)
            self.expect("@")
            ts_tok = self.peek()
            ts = self.expect_nat("a timestamp")
            if atom is not None and not atom.variables():
                try:
                    self.init_facts.append(TimedFact(atom.pred, atom.args, ts))
                except KernelError as exc:  # a timestamp out of range
                    self.error(ts_tok, str(exc))
            if self.peek().text == ",":
                self.next()
        self.expect("}")

    # -- lists, terms and atoms -----------------------------------------------

    def items(self, parse_item: Callable[[], Optional[_T]]) -> list[_T]:
        """One or more comma-separated items, leaving out those that failed
        to parse (None)."""
        out = []
        while True:
            item = parse_item()
            if item is not None:
                out.append(item)
            if self.peek().text != ",":
                return out
            self.next()

    def parse_term(
        self, var_types: Optional[dict[str, str]], expected: Optional[str]
    ) -> Term:
        """A constant, or in a pattern a variable (see `parse_atom`)."""
        tok = self.expect_ident("a constant" if var_types is None else "a term")
        if self.peek().text == "(":
            raise self.fail(tok, "function terms are not supported in scenario files")
        name = tok.text
        if name in self.consts:
            ctype = self.consts[name]
            if expected is not None and ctype != expected:
                self.error(tok, f"constant {name} has type {ctype}, expected {expected}")
            return Constant(name, ctype)
        if var_types is None:
            self.error(tok, f"undeclared constant {name}")
            return Variable(name, "")
        # Undeclared identifiers in patterns are variables typed by their
        # position.
        seen = var_types.get(name)
        if seen is None:
            if expected is not None:
                var_types[name] = expected
            return Variable(name, expected or "")
        if expected is not None and expected != seen:
            self.error(
                tok,
                f"variable {name} used at type {expected} but previously at type {seen}",
            )
        return Variable(name, seen)

    def parse_atom(self, var_types: Optional[dict[str, str]]) -> Optional[Atom]:
        """``Pred`` or ``Pred(t1, ..., tk)``.  Patterns pass the types their
        variables have had so far.  Init facts pass None: each argument must
        be a declared constant, and one that is not is reported and left as a
        variable, so the caller drops the fact."""
        name_tok = self.expect_ident("a predicate name")
        name = name_tok.text
        arity = () if name == TIME_PREDICATE else self.preds.get(name)
        if arity is None:
            self.error(name_tok, f"undeclared predicate {name}")
        args: list[Term] = []
        if self.peek().text == "(":
            self.next()
            expected = iter(arity or ())
            args = self.items(lambda: self.parse_term(var_types, next(expected, None)))
            self.expect(")")
        if arity is None:
            return None
        if len(args) != len(arity):
            self.error(name_tok, f"predicate {name} expects {len(arity)} arguments")
            return None
        return Atom(name, tuple(args))

    def parse_pattern(
        self, var_types: dict[str, str], tvars: set[str]
    ) -> Optional[FactPattern]:
        atom = self.parse_atom(var_types)
        self.expect("@")
        tok = self.expect_ident("a time variable")
        tvars.add(tok.text)
        if atom is None:
            return None
        return FactPattern(atom, tok.text)

    def parse_create(self, var_types: dict[str, str]) -> Optional[CreatedFact]:
        atom = self.parse_atom(var_types)
        self.expect("@")
        tok = self.peek()
        delay = 0
        if tok.text == "+":
            self.next()
            delay = self.expect_nat("a delay")
        elif tok.kind == "ident" and tok.text == GLOBAL_TIME_VAR:
            self.next()
            if self.peek().text == "+":
                self.next()
                delay = self.expect_nat("a delay")
        else:
            raise self.fail(
                tok,
                f"created facts carry timestamps {GLOBAL_TIME_VAR}+D; expected "
                f"'{GLOBAL_TIME_VAR}' or '+'",
            )
        if atom is None:
            return None
        return CreatedFact(atom, delay)

    def parse_constraint(self, tvars: set[str], scope: str) -> Optional[TimeConstraint]:
        def side() -> tuple[Optional[str], int]:
            tok = self.expect_ident("a time variable")
            name = tok.text
            if name not in tvars:
                self.error(
                    tok,
                    f"time variable {name} does not occur in the {scope}",
                )
                name = None  # type: ignore[assignment]
            off = 0
            if self.peek().text in ("+", "-"):
                signed = self.next().text
                value = self.expect_nat("an offset")
                off = value if signed == "+" else -value
            return name, off

        left, loff = side()
        rel_tok = self.next()
        if rel_tok.text not in RELATIONS:
            raise self.fail(rel_tok, f"expected a relation, found {rel_tok.text!r}")
        right, roff = side()
        if left is None or right is None:
            return None
        return TimeConstraint(left, rel_tok.text, right, roff - loff)

    def parse_rule(self) -> None:
        self.expect("rule")
        role_tok = self.expect_ident("a rule role")
        role = _RULE_ROLES.get(role_tok.text)
        if role is None:
            self.error(
                role_tok,
                f"unknown rule role {role_tok.text!r} (one of: system, "
                "system_update, goal_update)",
            )
            role = RuleRole.SYSTEM
        name_tok = self.expect_ident("a rule name")
        self.expect("{")
        var_types: dict[str, str] = {}
        tvars: set[str] = {GLOBAL_TIME_VAR}
        side: list[FactPattern] = []
        consumed: list[FactPattern] = []
        created: list[CreatedFact] = []
        guard: list[TimeConstraint] = []
        while self.peek().text != "}":
            clause_tok = self.expect_ident("a rule clause")
            self.expect(":")
            if clause_tok.text == "pre":
                side += self.items(lambda: self.parse_pattern(var_types, tvars))
            elif clause_tok.text == "consume":
                consumed += self.items(lambda: self.parse_pattern(var_types, tvars))
            elif clause_tok.text == "create":
                created += self.items(lambda: self.parse_create(var_types))
            elif clause_tok.text == "guard":
                guard += self.items(
                    lambda: self.parse_constraint(tvars, "rule's precondition")
                )
            else:
                raise self.fail(
                    clause_tok,
                    f"unknown rule clause {clause_tok.text!r} "
                    "(one of: pre, consume, create, guard)",
                )
            self.expect(";")
        self.expect("}")
        try:
            rule = Rule(
                name=name_tok.text,
                side=tuple(side),
                consumed=tuple(consumed),
                created=tuple(created),
                guard=tuple(guard),
                role=role,
            )
        except RuleError as exc:
            self.error(name_tok, str(exc))
            return
        if self.inject_past:
            rule = rule.with_past_consumption()
        if any(r.name == rule.name for r in self.rules):
            self.error(name_tok, f"duplicate rule name {rule.name}")
            return
        self.rules.append(rule)

    def parse_spec_block(self) -> None:
        head = self.next()
        kind = SpecKind(head.text)
        self.expect("{")
        var_types: dict[str, str] = {}
        tvars: set[str] = set()
        pattern = self.items(lambda: self.parse_pattern(var_types, tvars))
        constraints: list[TimeConstraint] = []
        if self.peek().text == "|":
            self.next()
            constraints = self.items(
                lambda: self.parse_constraint(tvars, "pair's pattern")
            )
        self.expect("}")
        try:
            pair = SpecPair(tuple(pattern), tuple(constraints))
        except SpecError as exc:
            self.error(head, str(exc))
            return
        wanted = Role.GOAL if kind is SpecKind.GOAL else Role.CRITICAL
        roles = {
            self.roles.get(p.atom.pred, Role.TIME if p.atom.pred == TIME_PREDICATE else None)
            for p in pattern
        }
        if wanted not in roles:
            self.error(
                head,
                f"{kind.value} pattern must contain at least one {wanted.value} "
                "predicate",
            )
            return
        if kind is SpecKind.GOAL:
            self.goal_pairs.append(pair)
        else:
            self.critical_pairs.append(pair)

    # -- assembly ------------------------------------------------------------

    def build(self) -> PlanningScenario:
        if self.diags:
            raise ScenarioError(self.diags)
        if not self.saw_init:
            raise ScenarioError([Diagnostic(1, 1, "missing init block")])
        try:
            signature = make_signature(
                self.types, self.consts, self.preds, self.roles
            )
            initial = Configuration(self.init_facts)
            for f in initial:
                signature.check_fact_args(f.pred, f.args)
        except KernelError as exc:
            raise ScenarioError([Diagnostic(1, 1, str(exc))]) from exc
        inferred = _max_fact_size(self.init_facts, self.rules)
        bound = self.bound if self.bound is not None else inferred
        return PlanningScenario(
            signature=signature,
            system_rules=tuple(r for r in self.rules if r.role is RuleRole.SYSTEM),
            update_rules=tuple(r for r in self.rules if r.role is not RuleRole.SYSTEM),
            goal_spec=ConfigSpec(SpecKind.GOAL, tuple(self.goal_pairs)),
            critical_spec=ConfigSpec(SpecKind.CRITICAL, tuple(self.critical_pairs)),
            initial=initial,
            fact_size_bound=bound,
            declared_bound=self.bound is not None,
            inject_past=self.inject_past,
        )


def _atom_size(atom: Atom) -> int:
    return 1 + len(atom.args)  # variables stand for terms of size >= 1


def _max_fact_size(init_facts: Iterable[TimedFact], rules: Iterable[Rule]) -> int:
    sizes = [fact_size(f) for f in init_facts]
    for r in rules:
        for p in (*r.side, *r.consumed):
            sizes.append(_atom_size(p.atom))
        for c in r.created:
            sizes.append(_atom_size(c.atom))
    return max(sizes, default=1)


def parse_scenario(text: str, filename: str = "<scenario>") -> PlanningScenario:
    """Parse the scenario DSL; raises ScenarioError with located diagnostics."""
    tokens, diags = _lex(text)
    if diags:
        raise ScenarioError(diags, filename)
    parser = _Parser(tokens)
    try:
        parser.parse()
        return parser.build()
    except ScenarioError as exc:
        raise ScenarioError(exc.diagnostics, filename) from None


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------

def pretty_print(scenario: PlanningScenario) -> str:
    """Canonical text form; parsing it back reproduces the scenario."""
    sig = scenario.signature
    out: list[str] = []
    out.append("types " + " ".join(sorted(sig.base_types)) + ";")
    if sig.constants:
        decls = ", ".join(f"{n}: {t}" for n, t in sorted(sig.constants.items()))
        out.append(f"consts {decls};")
    pred_decls = []
    for name in sig.predicates:
        if name == TIME_PREDICATE:
            continue
        args = sig.predicates[name]
        head = f"{name}({', '.join(args)})" if args else name
        pred_decls.append(f"{head}: {sig.predicate_roles[name].value}")
    if pred_decls:
        out.append("predicates\n  " + ",\n  ".join(pred_decls) + ";")
    if scenario.declared_bound:
        out.append(f"bound facts {scenario.fact_size_bound};")
    if not scenario.inject_past:
        out.append("option explicit_constraints;")
    out.append("")
    facts = ",\n  ".join(str(f) for f in scenario.initial.canonical_order())
    out.append("init {\n  " + facts + "\n}")
    out.append("")
    out.extend(str(rule) for rule in (*scenario.system_rules, *scenario.update_rules))
    out.append("")
    for pair in scenario.goal_spec.pairs:
        out.append(f"goal {{ {pair} }}")
    for pair in scenario.critical_spec.pairs:
        out.append(f"critical {{ {pair} }}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Validation and syntactic bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    classifications: dict[str, RuleClassification]
    progressing: bool
    eta: int
    dmax: int
    fact_size_bound: int
    fact_size_failures: tuple[str, ...]
    role_warnings: tuple[str, ...]

    def is_eta_simple(self, eta: int) -> bool:
        return self.eta < eta

    def render(self) -> str:
        lines = []
        for name, c in self.classifications.items():
            flags = []
            flags.append("balanced" if c.balanced else "UNBALANCED")
            flags.append("progressing" if c.progressing else "NOT-PROGRESSING")
            flags.append("role-ok" if c.role_valid else "role-warnings")
            lines.append(f"rule {name}: " + ", ".join(flags))
            for v in c.violations:
                lines.append(f"  - {v}")
        lines.append(f"scenario progressing: {'yes' if self.progressing else 'no'}")
        lines.append(f"eta measure: {self.eta} ({self.eta + 1}-simple)")
        lines.append(f"inferred Dmax: {self.dmax}")
        lines.append(f"fact size bound: {self.fact_size_bound}")
        for f in self.fact_size_failures:
            lines.append(f"fact size violation: {f}")
        return "\n".join(lines)


def infer_dmax(scenario: PlanningScenario) -> int:
    """Syntactic bound on the numbers appearing in the scenario, floored at 1.

    Covers initial timestamps, created-fact delays, and constraint offsets in
    rules and both specifications.
    """
    values = [1]
    for f in scenario.initial:
        values.append(f.ts)
    for r in scenario.rules():
        for c in r.created:
            values.append(c.delay)
        for g in r.guard:
            values.append(abs(g.offset))
    for spec in (scenario.goal_spec, scenario.critical_spec):
        for pair in spec.pairs:
            for g in pair.constraints:
                values.append(abs(g.offset))
    return max(values)


def validate_scenario(scenario: PlanningScenario) -> ValidationReport:
    """Pure, total report: classifications, progressing, eta, Dmax, size audit."""
    classifications = scenario.classify()
    role_warnings = []
    for name, c in classifications.items():
        for v in c.violations:
            if v.startswith("role("):
                role_warnings.append(f"{name}: {v}")
    failures = []
    for f in scenario.initial:
        size = fact_size(f)
        if size > scenario.fact_size_bound:
            failures.append(f"initial fact {f} has size {size}")
    for r in scenario.rules():
        for c in r.created:
            size = _atom_size(c.atom)
            if size > scenario.fact_size_bound:
                failures.append(f"rule {r.name} creates {c.atom} of size {size}")
    return ValidationReport(
        classifications=classifications,
        progressing=all(c.progressing for c in classifications.values()),
        eta=eta_measure(scenario.critical_spec),
        dmax=infer_dmax(scenario),
        fact_size_bound=scenario.fact_size_bound,
        fact_size_failures=tuple(failures),
        role_warnings=tuple(role_warnings),
    )


def load_bundled(name: str) -> PlanningScenario:
    """Parse one of the scenario files shipped with the package."""
    return parse_scenario(bundled_text(name), filename=name)


def bundled_text(name: str) -> str:
    return resources.files("msrplan.data").joinpath(name).read_text(encoding="utf-8")
