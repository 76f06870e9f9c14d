"""Parsers and renderers for machine files, amplitudes, and inputs.

Machine files are line based.  ``#`` starts a comment anywhere on a line.
The first meaningful line must be the format header (``qtm-spec v1`` for
quantum machines, ``tm-spec v1`` for classical ones), followed by the
``states:``, ``initial:``, ``halt:`` and ``alphabet:`` headers and any
number of ``rule:`` lines.

Amplitudes are exact-looking literals::

    amp  ::= part | part ('+'|'-') part 'i' | part 'i'
    part ::= ['-'] int [ ('/' int) | ('/sqrt(' int ')') ]

``*`` as a rule's read symbol expands the rule over the whole alphabet;
``*`` in the write slot means "write the symbol that was read".

Both formats parse to a ``MachineSpec``, and an input parses to its
initial ``QuantumState``.  A classical file becomes its
effective table: one amplitude-1 target for every (state, symbol) key,
where a key without a declared rule, and every halt-state key, halts and
moves right.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ParseError
from .evolution import QuantumState, initial_state
from .machine import BLANK, MOVE_DELTA, MachineSpec, RuleTarget
from .wellformed import row_norm2

# Characters that would collide with the file and input grammars if they
# appeared in a tape symbol.
_RESERVED_SYMBOL_CHARS = set("#|*:+->")

QTM_HEADER = "qtm-spec v1"
TM_HEADER = "tm-spec v1"


# ---------------------------------------------------------------------------
# amplitudes

def _parse_int(text: str, i: int) -> tuple[int, int]:
    start = i
    while i < len(text) and "0" <= text[i] <= "9":  # ASCII only, unlike isdecimal
        i += 1
    if i == start:
        raise ParseError("expected an integer", offset=start)
    return int(text[start:i]), i


def _parse_part(text: str, i: int) -> tuple[float, int]:
    start = i
    sign = 1.0
    if i < len(text) and text[i] == "-":
        sign = -1.0
        i += 1
    try:
        num, i = _parse_int(text, i)
        if i < len(text) and text[i] == "/":
            if text[i + 1 : i + 6] == "sqrt(":
                i += 6
                radicand, i = _parse_int(text, i)
                if i >= len(text) or text[i] != ")":
                    raise ParseError("expected ')'", offset=i)
                i += 1
                if radicand < 1:
                    raise ParseError("sqrt argument must be >= 1", offset=i)
                value = num / math.sqrt(radicand)
            else:
                i += 1
                den, i = _parse_int(text, i)
                if den == 0:
                    raise ParseError("division by zero", offset=i)
                # Fraction instead of int division: correctly rounded even when
                # the denominator alone is too large for a float (subnormals).
                value = float(Fraction(num, den))
        else:
            value = float(num)
        if not math.isfinite(value * value):  # norms of rows and inputs sum squares
            raise OverflowError
    except (OverflowError, ValueError):  # ValueError: int() digit limit
        raise ParseError("number too large to evaluate", offset=start) from None
    return sign * value, i


def _skip_ws(text: str, i: int) -> int:
    while i < len(text) and text[i].isspace():
        i += 1
    return i


def parse_amplitude(text: str) -> complex:
    """Evaluate an amplitude literal to a complex double."""
    return _amplitude(text, 0)


def _amplitude(text: str, i: int) -> complex:  # text[i:], with offsets into text
    i = _skip_ws(text, i)
    first, i = _parse_part(text, i)
    i = _skip_ws(text, i)
    if i < len(text) and text[i] == "i":
        value = complex(0.0, first)
        i = _skip_ws(text, i + 1)
    elif i < len(text) and text[i] in "+-":
        sign = 1.0 if text[i] == "+" else -1.0
        i = _skip_ws(text, i + 1)
        second, i = _parse_part(text, i)
        i = _skip_ws(text, i)
        if i >= len(text) or text[i] != "i":
            raise ParseError("expected 'i' after imaginary part", offset=i)
        value = complex(first, sign * second)
        i = _skip_ws(text, i + 1)
    else:
        value = complex(first, 0.0)
    if i != len(text):
        raise ParseError("trailing characters after amplitude", offset=i)
    return value


def _render_real(x: float) -> str:
    if x == int(x) and abs(x) <= 2**53:
        return str(int(x))
    # prefer p/sqrt(r) for the common irrational amplitudes
    for r in range(2, 100):
        root = math.isqrt(r)
        if root * root == r:
            continue
        y = x * math.sqrt(r)
        p = round(y)
        if p != 0 and abs(y - p) < 1e-9 and p / math.sqrt(r) == x:
            return f"{p}/sqrt({r})"
    frac = Fraction(x)  # exact: every finite double is a dyadic rational
    return f"{frac.numerator}/{frac.denominator}"


def render_amplitude(value: complex) -> str:
    """Inverse of parse_amplitude: parse(render(z)) == z exactly."""
    re, im = value.real, value.imag
    if im == 0.0:
        return _render_real(re)
    if re == 0.0:
        return _render_real(im) + "i"
    op = "+" if im >= 0 else "-"
    return f"{_render_real(re)} {op} {_render_real(abs(im))}i"


# ---------------------------------------------------------------------------
# machine files

def _meaningful_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if line:
            yield lineno, line


def _check_symbol(token: str, lineno: int) -> str:
    if len(token) != 1 or token in _RESERVED_SYMBOL_CHARS:
        raise ParseError(
            f"bad tape symbol {token!r}: symbols are single characters "
            f"outside the reserved set",
            line=lineno,
        )
    return token


def _parse_headers(text: str, expected_header: str):
    """The checked header fields (states, initial, halt, alphabet) and the
    ``(lineno, body)`` of every rule line, ``body`` the text after ``rule:``
    with what precedes it blanked, so that an offset into it is the line's."""
    lines = _meaningful_lines(text)
    lineno, line = next(lines, (1, None))
    if line is None:
        raise ParseError(f"empty file, expected {expected_header!r}", line=1)
    if line.lstrip() != expected_header:
        raise ParseError(f"expected format header {expected_header!r}", line=lineno)
    names = ("states", "initial", "halt", "alphabet")
    headers: dict[str, tuple] = {}
    rule_lines = []
    for lineno, raw in lines:
        name, colon, value = (line := raw.lstrip()).partition(":")
        if not colon or name not in ("rule", *names):
            raise ParseError(f"unrecognized line {line!r}", line=lineno)
        if name == "rule":
            rule_lines.append((lineno, " " * (len(raw) - len(value)) + value))
        elif name in headers:
            raise ParseError(f"duplicate header {name!r}", line=lineno)
        else:
            headers[name] = (lineno, value.split())
    for name in names:
        if name not in headers:
            raise ParseError(f"missing header {name!r}")
    lineno, states = headers["states"]
    if len(set(states)) != len(states) or not states:
        raise ParseError("states must be distinct and non-empty", line=lineno)
    for name in states:  # '|' splits a quantum target, '->' a rule line
        if "|" in name or "->" in name:
            raise ParseError(f"state name {name!r} may not contain '|' or '->'", line=lineno)
    lineno, initial = headers["initial"]
    if len(initial) != 1 or initial[0] not in states:
        raise ParseError("initial must name exactly one declared state", line=lineno)
    lineno, halt = headers["halt"]
    if len(halt) != 1 or halt[0] not in states:
        raise ParseError("halt must name exactly one declared state", line=lineno)
    if halt[0] == initial[0]:
        raise ParseError("initial and halt states must differ", line=lineno)
    lineno, alphabet = headers["alphabet"]
    symbols = [_check_symbol(tok, lineno) for tok in alphabet]
    if len(set(symbols)) != len(symbols):
        raise ParseError("alphabet symbols must be distinct", line=lineno)
    if BLANK not in symbols:
        raise ParseError(f"alphabet must contain the blank symbol {BLANK!r}", line=lineno)
    return (tuple(states), initial[0], halt[0], tuple(symbols)), rule_lines


def _target(text: str, usage: str, machine, lineno) -> tuple[str, str, str]:
    """``<state> <write> <move>``, checked against the declared states,
    alphabet and moves; ``usage`` is the error for a wrong field count."""
    states, _, _, alphabet = machine
    fields = text.split()
    if len(fields) != 3:
        raise ParseError(usage, line=lineno)
    state, write, move = fields
    if state not in states:
        raise ParseError(f"unknown state {state!r}", line=lineno)
    if write != "*" and write not in alphabet:
        raise ParseError(f"unknown symbol {write!r}", line=lineno)
    if move not in MOVE_DELTA:
        raise ParseError(f"move must be one of L N R, got {move!r}", line=lineno)
    return state, write, move


def _rules(rule_lines, machine, right_side):
    """Yield ``(lineno, (state, symbol), targets)`` for every rule key of
    ``<state> <symbol> -> <right side>`` lines, the grammar both formats
    share.  ``right_side`` parses the format's right side into
    ``(amplitude, state, write, move)`` targets."""
    states, _, _, alphabet = machine
    seen = set()
    for lineno, body in rule_lines:
        if "->" not in body:
            raise ParseError("rule needs '->'", line=lineno)
        lhs, rhs = body.split("->", 1)
        parts = lhs.split()
        if len(parts) != 2:
            raise ParseError("rule left side must be '<state> <symbol>'", line=lineno)
        state, symbol = parts
        if state not in states:
            raise ParseError(f"unknown state {state!r}", line=lineno)
        if symbol != "*" and symbol not in alphabet:
            raise ParseError(f"unknown symbol {symbol!r}", line=lineno)
        targets = right_side(" " * (len(lhs) + 2) + rhs, state, machine, lineno)
        for sym in alphabet if symbol == "*" else (symbol,):
            if (state, sym) in seen:
                raise ParseError(f"duplicate rule for ({state}, {sym})", line=lineno)
            seen.add((state, sym))
            yield lineno, (state, sym), [
                (a, q, sym if w == "*" else w, m) for a, q, w, m in targets
            ]


def _quantum_right_side(text: str, state: str, machine, lineno) -> list:
    """``<amplitude> : <state> <write> <move>`` targets split by ``|``; offsets index ``text``."""
    usage = "target must be '<amplitude> : <state> <write> <move>'"
    targets, start = [], 0
    for chunk in text.split("|"):
        if ":" not in chunk:
            raise ParseError(usage, line=lineno)
        amp_text, rest = chunk.split(":", 1)
        try:
            amplitude = _amplitude(text[: start + len(amp_text)], start)
        except ParseError as exc:
            raise ParseError(f"bad amplitude: {exc}", line=lineno) from None
        targets.append((amplitude, *_target(rest, usage, machine, lineno)))
        start += len(chunk) + 1
    return targets


def _classical_right_side(text: str, state: str, machine, lineno) -> list:
    """One ``<state> <write> <move>`` target; the halt state has no rules."""
    _, _, halt, _ = machine
    if state == halt:
        raise ParseError("classical rules may not start in the halt state", line=lineno)
    usage = "rule right side must be '<state> <write> <move>'"
    return [(complex(1), *_target(text, usage, machine, lineno))]


def parse_machine(text: str) -> MachineSpec:
    """Parse ``qtm-spec v1`` source into a MachineSpec.

    ``*`` read symbols expand to one rule group per alphabet symbol; a key
    produced twice (directly or via expansion) is a duplicate-rule error, as
    is a target repeated within one rule group, and so is a row whose
    squared norm overflows a double.
    """
    machine, rule_lines = _parse_headers(text, QTM_HEADER)
    rules: dict = {}
    for lineno, key, targets in _rules(rule_lines, machine, _quantum_right_side):
        seen = set()
        for target in targets:
            if target[1:] in seen:
                raise ParseError(
                    f"duplicate target {target[1:]} in rule ({key[0]}, {key[1]})",
                    line=lineno,
                )
            seen.add(target[1:])
        rules[key] = tuple(RuleTarget(*target) for target in targets)
        if not math.isfinite(row_norm2(rules[key])):
            raise ParseError(f"squared norm of rule ({key[0]}, {key[1]}) overflows", line=lineno)
    return MachineSpec(*machine, rules)


def render_machine(spec: MachineSpec) -> str:
    """Write a MachineSpec back out; parse_machine(render_machine(s)) == s."""
    lines = [
        QTM_HEADER,
        "states: " + " ".join(spec.states),
        "initial: " + spec.initial,
        "halt: " + spec.halt,
        "alphabet: " + " ".join(spec.alphabet),
    ]
    for (state, symbol), targets in spec.rules.items():
        rendered = " | ".join(
            f"{render_amplitude(t.amplitude)} : {t.state} {t.write} {t.move}"
            for t in targets
        )
        lines.append(f"rule: {state} {symbol} -> {rendered}")
    return "\n".join(lines) + "\n"


def parse_classical(text: str) -> MachineSpec:
    """Parse ``tm-spec v1`` source into its effective rule table.

    Every key over states x alphabet, in that order, gets one amplitude-1
    target: its declared rule, or else "enter the halt state, leave the
    symbol, move right", which is also how the halt state drifts.
    """
    machine, rule_lines = _parse_headers(text, TM_HEADER)
    states, _, halt, alphabet = machine
    declared = {
        key: targets[0]
        for _, key, targets in _rules(rule_lines, machine, _classical_right_side)
    }
    rules = {
        (q, s): (RuleTarget(*declared.get((q, s), (complex(1), halt, s, "R"))),)
        for q in states
        for s in alphabet
    }
    return MachineSpec(*machine, rules)


# ---------------------------------------------------------------------------
# inputs

def parse_input(text: str, spec: MachineSpec) -> QuantumState:
    """Parse ``input ::= term ('+' term)*``, ``term ::= [amp ':'] string``,
    to its initial state (``initial_state``, which checks the terms).

    All text before a term's ``:`` is its amplitude, so a complex literal
    keeps its ``+``; a ``+`` ends a term only after the term's string.  A
    bare string (no ``:``) is allowed only as the whole input, with
    amplitude 1.  An empty term is an error; error offsets index ``text``.
    """
    if not text.strip():
        raise ParseError("empty input")
    terms, amplitudes, i = [], {}, 0
    while True:
        i = _skip_ws(text, i)
        if i == len(text) or text[i] == "+":
            raise ParseError("empty term in input")
        colon = text.find(":", i)
        if colon < 0:
            if terms or "+" in text[i:]:
                raise ParseError("every term of a superposed input needs an amplitude")
            terms.append((complex(1.0, 0.0), text[i:].rstrip()))
            break
        if (amp_text := text[i:colon]) not in amplitudes:  # parsed once per call
            amplitudes[amp_text] = _amplitude(text[:colon], i)
        end = text.find("+", colon)
        terms.append((amplitudes[amp_text], text[colon + 1:end if end >= 0 else None].strip()))
        if end < 0:
            break
        i = end + 1
    return initial_state(spec, terms)
