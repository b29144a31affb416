"""Textual pulse-sequence language, named presets, and unrolling.

The grammar is deliberately small:

    sequence := item ('-' item)*
    item     := pulse | delay | repeat
    pulse    := ('pi' | 'pi/2' | FLOAT 'deg') '(' axis ')'
    delay    := 'tau' ('/' INT)? | FLOAT ('us' | 'ns' | 's')
    repeat   := '[' sequence ']' '^' INT
    axis     := x | y | -x | -y

Keywords are case-insensitive and whitespace never matters.  'tau/INT'
(fractional symbolic delay, needed for symmetric block edges) is the
only construct beyond the bare core.  Every pulse rotates the probed
pair of the central spin, the only spin the echo model drives.

Angles are stored in degrees exactly as written, so the canonical
printer round-trips bit-for-bit; radians are derived on demand.
Program equality compares the item tree only, not the preset name.  A
program is the one form of a sequence: _runs unrolls it for
dynamics._plans, compile_schedule flattens it at one tau.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .constants import as_count, as_quantity

__all__ = [
    "Pulse",
    "Delay",
    "Repeat",
    "PulseProgram",
    "ParseError",
    "parse_sequence",
    "expand_preset",
    "canonical_text",
    "PRESET_NAMES",
    "AXIS_VECTORS",
    "two_level_unitary",
]

_UNIT_SECONDS = {"us": 1e-6, "ns": 1e-9, "s": 1.0}

# unit vectors (x, y) of the four pulse-phase labels, the only axis table
AXIS_VECTORS = {
    "x": (1.0, 0.0),
    "y": (0.0, 1.0),
    "-x": (-1.0, 0.0),
    "-y": (0.0, -1.0),
}

PRESET_NAMES = ("hahn", "cpmg", "xy8")


class ParseError(ValueError):
    """Sequence text rejected, with a 1-based line:column in the message."""


@dataclass(frozen=True)
class Pulse:
    """An ideal rotation of one central spin's probed two-level subspace."""

    axis: str
    angle_deg: float

    def __post_init__(self):
        if self.axis not in AXIS_VECTORS:
            raise ValueError(f"unknown axis {self.axis!r}")
        if not 0.0 < self.angle_deg <= 360.0:
            raise ValueError("pulse angle must lie in (0, 360] degrees")

    @property
    def angle_rad(self) -> float:
        return math.radians(self.angle_deg)


def two_level_unitary(axis: str, angle: float) -> np.ndarray:
    """Ideal rotation exp(-i angle (n . sigma) / 2), n = AXIS_VECTORS[axis]."""
    if axis not in AXIS_VECTORS:
        raise ValueError(f"unknown pulse axis {axis!r}")
    angle = as_quantity(angle, f"rotation angle must be finite, not {angle}")
    nx, ny = AXIS_VECTORS[axis]
    c = np.cos(angle / 2.0)
    s = np.sin(angle / 2.0)
    return np.array(
        [[c, -1j * s * (nx - 1j * ny)],
         [-1j * s * (nx + 1j * ny), c]], dtype=complex)


@dataclass(frozen=True)
class Delay:
    """Free evolution: either a literal duration or a fraction of tau.

    value is the literal amount in `unit`; value None means the symbolic
    delay tau/divisor, resolved at compile time.
    """

    value: float | None = None
    unit: str = "s"
    divisor: int = 1

    def __post_init__(self):
        if self.value is None:
            object.__setattr__(self, "divisor",
                               as_count(self.divisor, "tau divisor"))
            # duration_s divides tau by it, so it must convert to a float
            as_quantity(self.divisor, "tau divisor must be at most 1.8e308,"
                        " the largest float")
        else:
            if self.unit not in _UNIT_SECONDS:
                raise ValueError(f"unknown time unit {self.unit!r}")
            # a float, and -0.0 as 0.0: "-0.0us" would not parse
            object.__setattr__(self, "value", 0.0 + as_quantity(
                self.value, "delays must be finite and non-negative", 0.0))
            if self.divisor != 1:
                raise ValueError("literal delays take no divisor")

    def duration_s(self, tau_s: float | None = None) -> float:
        if self.value is None:
            if tau_s is None:
                raise ValueError("symbolic delay needs a tau value")
            return tau_s / self.divisor
        return self.value * _UNIT_SECONDS[self.unit]


@dataclass(frozen=True)
class Repeat:
    """A block of items applied count times in a row."""

    block: tuple
    count: int

    def __post_init__(self):
        object.__setattr__(self, "block", tuple(self.block))
        if not self.block:
            raise ValueError("repeat block must be non-empty")
        object.__setattr__(self, "count", as_count(self.count, "repeat count"))


@dataclass(frozen=True)
class PulseProgram:
    """Parsed sequence plus an optional preset name (bookkeeping, outside
    == and hash)."""

    items: tuple
    name: str | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOKEN_RE = re.compile(
    r"(?P<NUMBER>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<SYM>[-()\[\]^/])"
    r"|(?P<WS>\s+)"
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int

    @property
    def where(self) -> str:
        return f"{self.line}:{self.col}"


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos, line, line_start = 0, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r} at {line}:{pos - line_start + 1}")
        kind = m.lastgroup
        if kind != "WS":
            tokens.append(_Token(kind, m.group(), line, m.start() - line_start + 1))
        else:
            for _ in range(m.group().count("\n")):
                line += 1
                line_start = text.index("\n", line_start) + 1
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            where = f"{last.line}:{last.col + len(last.text)}" if last else "1:1"
            raise ParseError(f"unexpected end of input at {where}")
        self.pos += 1
        return tok

    def expect_sym(self, sym: str) -> _Token:
        tok = self.next()
        if tok.kind != "SYM" or tok.text != sym:
            raise ParseError(f"expected {sym!r} at {tok.where}")
        return tok

    def at_sym(self, sym: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "SYM" and tok.text == sym

    def sequence(self) -> tuple:
        items = [self.item()]
        while self.at_sym("-"):
            self.next()
            items.append(self.item())
        return tuple(items)

    def item(self):
        tok = self.peek() or self.next()  # next raises at the end of input
        if tok.kind == "SYM" and tok.text == "[":
            return self.repeat()
        if tok.kind == "IDENT":
            word = tok.text.lower()
            if word == "pi":
                return self.pulse()
            if word == "tau":
                return self.symbolic_delay()
            raise ParseError(f"unexpected token {tok.text!r} at {tok.where}")
        if tok.kind == "NUMBER":
            return self.number_item()
        raise ParseError(f"unexpected token {tok.text!r} at {tok.where}")

    def pulse(self) -> Pulse:
        self.next()  # 'pi'
        angle = 180.0
        if self.at_sym("/"):
            self.next()
            den = self.next()
            if den.kind != "NUMBER" or den.text != "2":
                raise ParseError(f"expected 'pi/2' at {den.where}")
            angle = 90.0
        return self.finish_pulse(angle)

    def number_item(self):
        num = self.next()
        value = float(num.text)
        suffix = self.peek()
        if suffix is None or suffix.kind != "IDENT":
            where = suffix.where if suffix else f"{num.line}:{num.col + len(num.text)}"
            raise ParseError(f"expected a unit or 'deg' after {num.text!r} at {where}")
        word = self.next().text.lower()
        if word == "deg":
            if not 0.0 < value <= 360.0:
                raise ParseError(
                    f"pulse angle must lie in (0, 360] degrees at {num.where}")
            return self.finish_pulse(value)
        if word in _UNIT_SECONDS:
            if not math.isfinite(value):
                raise ParseError(f"delay must be finite at {num.where}")
            return Delay(value=value, unit=word)
        raise ParseError(f"unknown unit {word!r} at {suffix.where}")

    def finish_pulse(self, angle_deg: float) -> Pulse:
        self.expect_sym("(")
        axis = self.axis()
        self.expect_sym(")")
        return Pulse(axis=axis, angle_deg=angle_deg)

    def axis(self) -> str:
        tok = self.next()
        name = self.next() if tok.kind == "SYM" and tok.text == "-" else tok
        text = (tok.text if name is not tok else "") + name.text
        if name.kind != "IDENT" or text.lower() not in AXIS_VECTORS:
            raise ParseError(f"unknown axis {text!r} at {tok.where}")
        return text.lower()

    def symbolic_delay(self) -> Delay:
        self.next()  # 'tau'
        if self.at_sym("/"):
            self.next()
            den = self.next()
            if den.kind != "NUMBER" or not den.text.isdigit():
                raise ParseError(f"expected an integer divisor at {den.where}")
            return Delay(divisor=int(den.text))
        return Delay()

    def repeat(self) -> Repeat:
        self.expect_sym("[")
        block = self.sequence()
        self.expect_sym("]")
        self.expect_sym("^")
        count = self.next()
        if count.kind != "NUMBER" or not count.text.isdigit():
            raise ParseError(f"expected an integer repeat count at {count.where}")
        return Repeat(block=block, count=int(count.text))


def parse_sequence(text: str) -> PulseProgram:
    """Parse sequence text into a PulseProgram.

    Raises ParseError with a 1-based line:column position on any syntax
    problem, unknown axis, bad unit, non-finite delay, or a repeat count or
    tau divisor below 1.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty sequence at 1:1")
    parser = _Parser(tokens)
    try:
        items = parser.sequence()
    except ParseError:
        raise
    except ValueError as err:  # an item's own check, at the token it ended on
        raise ParseError(f"{err} at {tokens[parser.pos - 1].where}") from None
    trailing = parser.peek()
    if trailing is not None:
        raise ParseError(f"unexpected token {trailing.text!r} at {trailing.where}")
    return PulseProgram(items=items)


# ---------------------------------------------------------------------------
# presets

def _pi(axis: str) -> Pulse:
    return Pulse(axis=axis, angle_deg=180.0)


def _pi2(axis: str) -> Pulse:
    return Pulse(axis=axis, angle_deg=90.0)


_TAU = Delay()
_TAU2 = Delay(divisor=2)

# one XY8 block: symmetric half-delays at the edges, equal spacing inside
_XY8_AXES = ("x", "y", "x", "y", "y", "x", "y", "x")


def _xy8_block() -> tuple:
    items: list = [_TAU2]
    for k, axis in enumerate(_XY8_AXES):
        items.append(_pi(axis))
        items.append(_TAU if k < len(_XY8_AXES) - 1 else _TAU2)
    return tuple(items)


def expand_preset(name: str, n: int | None = None) -> PulseProgram:
    """Named sequences: hahn, cpmg (n blocks), xy8 (n blocks).

    cpmg and xy8 take a repetition count n >= 1 (default 1); hahn takes
    none.
    """
    key = name.lower()
    if key not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}")
    if key == "hahn" and n is not None:
        raise ValueError(f"preset {key!r} takes no repetition count")
    n = as_count(1 if n is None else n, "repetition count")
    if key == "hahn":
        items = (_pi2("x"), _TAU, _pi("x"), _TAU, _pi2("x"))
    elif key == "cpmg":
        items = (_pi2("x"), Repeat(block=(_TAU, _pi("y"), _TAU), count=n),
                 _pi2("x"))
    else:
        items = (_pi2("x"), Repeat(block=_xy8_block(), count=n), _pi2("x"))
    return PulseProgram(items=items, name=key)


# ---------------------------------------------------------------------------
# unrolling

def _runs(items) -> list:
    """items unrolled once, in order: each pulse, and each run of adjacent
    delays as the tuple of its Delays."""
    events: list = []

    def walk(items):
        for item in items:
            if isinstance(item, Pulse):
                events.append(item)
            elif isinstance(item, Delay):
                if not events or isinstance(events[-1], Pulse):
                    events.append([])
                events[-1].append(item)
            elif isinstance(item, Repeat):
                for _ in range(item.count):
                    walk(item.block)
            else:
                raise TypeError(f"unknown program item {item!r}")

    walk(items)
    return [e if isinstance(e, Pulse) else tuple(e) for e in events]


def _run_length(run, tau):
    """The delays of a run summed in order at tau, a float or an array."""
    length = 0.0
    for delay in run:
        length += delay.duration_s(tau)
    return length


def compile_schedule(prog: PulseProgram, tau: float | None = None) -> tuple:
    """Flatten a program at a concrete tau (seconds) into its events: its
    pulses, and each run of adjacent delays (_runs) summed into one float
    interval in seconds, zero-length ones dropped.  Programs with symbolic
    delays require tau; tau must be non-negative.  The tests' reference of
    _plans, kept only while perfbench/trace_child.py wraps it by name."""
    if tau is not None and tau < 0.0:
        raise ValueError("tau must be non-negative")
    events = [e if isinstance(e, Pulse) else _run_length(e, tau)
              for e in _runs(prog.items)]
    return tuple(e for e in events if isinstance(e, Pulse) or e > 0.0)


# ---------------------------------------------------------------------------
# canonical printer

def _format_pulse(p: Pulse) -> str:
    if p.angle_deg == 180.0:
        head = "pi"
    elif p.angle_deg == 90.0:
        head = "pi/2"
    else:
        head = f"{float(p.angle_deg)!r}deg"
    return f"{head}({p.axis})"


def _format_delay(d: Delay) -> str:
    if d.value is None:
        return "tau" if d.divisor == 1 else f"tau/{d.divisor}"
    return f"{float(d.value)!r}{d.unit}"


def _format_item(item) -> str:
    if isinstance(item, Pulse):
        return _format_pulse(item)
    if isinstance(item, Delay):
        return _format_delay(item)
    if isinstance(item, Repeat):
        inner = " - ".join(_format_item(i) for i in item.block)
        return f"[{inner}]^{item.count}"
    raise TypeError(f"unknown program item {item!r}")


def canonical_text(prog: PulseProgram) -> str:
    """Byte-stable text form; parse(canonical_text(p)) equals p."""
    return " - ".join(_format_item(item) for item in prog.items)
