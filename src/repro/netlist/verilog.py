"""A synthesizable-Verilog-subset frontend.

The paper's designs are "gate-level designs that can be obtained from RTL
designs through logic synthesis" (Section 1).  This module provides that
front door for small RTL: it parses a structural/dataflow Verilog subset
and synthesizes it onto the primitive gate library of
:class:`repro.netlist.Circuit`.

Supported subset
----------------
- one module per file; ports listed in the header;
- declarations: ``input``/``output``/``wire``/``reg``, scalar or vectored
  (``[msb:0]``); ``reg`` declarations may carry an initial value
  (``reg [3:0] q = 4'd2;``);
- continuous assignments ``assign lhs = expr;`` where ``expr`` uses
  identifiers, bit-selects (``a[3]``), sized literals (``4'b0101``,
  ``2'd3``, ``1'b0``), parentheses, the operators ``~ & | ^``, reduction
  ``&x |x ^x`` on an operand, equality ``==``, and the ternary
  ``cond ? a : b``;
- one implicit clock: ``always @(posedge <clk>)`` blocks containing
  non-blocking assignments ``q <= expr;`` (optionally inside
  ``begin``/``end``); the clock input itself does not become a netlist
  signal.

Vectored signals elaborate to per-bit names ``name[i]``, matching the
word-level convention used by the rest of the library.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.netlist.circuit import Circuit, NetlistError


class VerilogError(NetlistError):
    """Raised on unsupported or malformed Verilog input."""


# ----------------------------------------------------------------------
# Tokenizer
# ----------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|//[^\n]*|/\*.*?\*/)
  | (?P<number>\d+'[bdh][0-9a-fA-F_xzXZ]+|\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_$]*)
  | (?P<op><=|==|[~&|^()\[\]{}:;,=?@.<>-])
    """,
    re.VERBOSE | re.DOTALL,
)

KEYWORDS = {
    "module", "endmodule", "input", "output", "wire", "reg",
    "assign", "always", "posedge", "begin", "end",
}


@dataclass
class Token:
    kind: str  # "number" | "ident" | "op" | "kw"
    text: str
    line: int


def tokenize(source: str) -> List[Token]:
    tokens: List[Token] = []
    position = 0
    line = 1
    while position < len(source):
        match = _TOKEN_RE.match(source, position)
        if match is None:
            raise VerilogError(
                f"line {line}: unexpected character {source[position]!r}"
            )
        text = match.group(0)
        if match.lastgroup == "ws":
            line += text.count("\n")
        elif match.lastgroup == "ident" and text in KEYWORDS:
            tokens.append(Token("kw", text, line))
        else:
            tokens.append(Token(match.lastgroup, text, line))
        position = match.end()
    tokens.append(Token("eof", "", line))
    return tokens


# ----------------------------------------------------------------------
# Parser / elaborator
# ----------------------------------------------------------------------

@dataclass
class _Signal:
    name: str
    width: int
    kind: str  # "input" | "output" | "wire" | "reg"
    init: int = 0


class _Parser:
    def __init__(self, source: str) -> None:
        self.tokens = tokenize(source)
        self.index = 0
        self.signals: Dict[str, _Signal] = {}
        self.assigns: List[Tuple[str, object]] = []  # (lhs, expr ast)
        self.regs: List[Tuple[str, object]] = []  # (lhs, expr ast)
        self.clock: Optional[str] = None
        self.module_name = "top"
        self.outputs: List[str] = []

    # -- token helpers ---------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.index]

    def next(self) -> Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, text: str) -> Token:
        token = self.next()
        if token.text != text:
            raise VerilogError(
                f"line {token.line}: expected {text!r}, got {token.text!r}"
            )
        return token

    def accept(self, text: str) -> bool:
        if self.peek().text == text:
            self.index += 1
            return True
        return False

    # -- grammar -----------------------------------------------------------

    def parse(self) -> "_Parser":
        self.expect("module")
        self.module_name = self.next().text
        if self.accept("("):
            while not self.accept(")"):
                self.next()  # port names re-declared in the body
                self.accept(",")
        self.expect(";")
        while self.peek().text != "endmodule":
            token = self.peek()
            if token.text in ("input", "output", "wire", "reg"):
                self._declaration()
            elif token.text == "assign":
                self._assign()
            elif token.text == "always":
                self._always()
            else:
                raise VerilogError(
                    f"line {token.line}: unsupported construct "
                    f"{token.text!r}"
                )
        self.expect("endmodule")
        return self

    def _range(self) -> int:
        """Optional [msb:0] range; returns the width."""
        if not self.accept("["):
            return 1
        msb = int(self.next().text)
        self.expect(":")
        lsb = int(self.next().text)
        self.expect("]")
        if lsb != 0 or msb < 0:
            raise VerilogError(f"only [msb:0] ranges supported, got [{msb}:{lsb}]")
        return msb + 1

    def _declaration(self) -> None:
        kind = self.next().text
        if kind == "output" and self.peek().text in ("wire", "reg"):
            inner = self.next().text
            kind = "reg" if inner == "reg" else "output"
            is_output = True
        else:
            is_output = kind == "output"
            if kind == "output":
                kind = "output"
        width = self._range()
        while True:
            name = self.next().text
            init = 0
            if self.accept("="):
                init = self._literal_value(self.next(), width)
            if name in self.signals:
                raise VerilogError(f"duplicate declaration of {name!r}")
            self.signals[name] = _Signal(name, width, kind, init)
            if is_output or kind == "output":
                self.outputs.append(name)
            if not self.accept(","):
                break
        self.expect(";")

    def _literal_value(self, token: Token, width: int) -> int:
        if token.kind != "number":
            raise VerilogError(
                f"line {token.line}: expected literal, got {token.text!r}"
            )
        _, value = self._parse_number(token)
        if value >= (1 << width):
            raise VerilogError(
                f"line {token.line}: literal {token.text} exceeds "
                f"{width} bits"
            )
        return value

    @staticmethod
    def _parse_number(token: Token) -> Tuple[Optional[int], int]:
        text = token.text.replace("_", "")
        if "'" in text:
            size_text, _, rest = text.partition("'")
            base = rest[0].lower()
            digits = rest[1:]
            radix = {"b": 2, "d": 10, "h": 16}[base]
            return int(size_text), int(digits, radix)
        return None, int(text)

    def _assign(self) -> None:
        self.expect("assign")
        lhs = self.next().text
        self.expect("=")
        expr = self._expression()
        self.expect(";")
        self.assigns.append((lhs, expr))

    def _always(self) -> None:
        self.expect("always")
        self.expect("@")
        self.expect("(")
        self.expect("posedge")
        clock = self.next().text
        if self.clock is None:
            self.clock = clock
        elif self.clock != clock:
            raise VerilogError(
                f"multiple clocks unsupported ({self.clock!r} vs {clock!r})"
            )
        self.expect(")")
        statements: List[Tuple[str, object]] = []
        if self.accept("begin"):
            while not self.accept("end"):
                statements.append(self._nonblocking())
        else:
            statements.append(self._nonblocking())
        self.regs.extend(statements)

    def _nonblocking(self) -> Tuple[str, object]:
        lhs = self.next().text
        self.expect("<=")
        expr = self._expression()
        self.expect(";")
        return lhs, expr

    # -- expressions (precedence: ?: < | < ^ < & < == < unary) ------------

    def _expression(self):
        condition = self._or_expr()
        if self.accept("?"):
            then_expr = self._expression()
            self.expect(":")
            else_expr = self._expression()
            return ("ite", condition, then_expr, else_expr)
        return condition

    def _or_expr(self):
        left = self._xor_expr()
        while self.peek().text == "|":
            self.next()
            left = ("|", left, self._xor_expr())
        return left

    def _xor_expr(self):
        left = self._and_expr()
        while self.peek().text == "^":
            self.next()
            left = ("^", left, self._and_expr())
        return left

    def _and_expr(self):
        left = self._eq_expr()
        while self.peek().text == "&":
            self.next()
            left = ("&", left, self._eq_expr())
        return left

    def _eq_expr(self):
        left = self._unary()
        if self.peek().text == "==":
            self.next()
            return ("==", left, self._unary())
        return left

    def _unary(self):
        token = self.peek()
        if token.text == "~":
            self.next()
            return ("~", self._unary())
        if token.text in ("&", "|", "^"):
            # Reduction operator in operand position.
            self.next()
            return ("red" + token.text, self._unary())
        return self._primary()

    def _primary(self):
        token = self.next()
        if token.text == "(":
            expr = self._expression()
            self.expect(")")
            return expr
        if token.kind == "number":
            size, value = self._parse_number(token)
            return ("const", size, value, token.line)
        if token.kind == "ident":
            if self.peek().text == "[":
                self.next()
                index = int(self.next().text)
                self.expect("]")
                return ("bit", token.text, index, token.line)
            return ("sig", token.text, token.line)
        raise VerilogError(
            f"line {token.line}: unexpected token {token.text!r}"
        )


# ----------------------------------------------------------------------
# Elaboration onto the gate library
# ----------------------------------------------------------------------

class _Elaborator:
    def __init__(self, parsed: _Parser) -> None:
        self.parsed = parsed
        self.circuit = Circuit(parsed.module_name)
        self.bits: Dict[str, List[str]] = {}  # signal -> bit net names

    def run(self) -> Circuit:
        parsed = self.parsed
        clock = parsed.clock
        # Declare nets.  Inputs become primary inputs; regs become
        # registers with placeholder data nets; wires/outputs get their
        # values from assigns.
        for signal in parsed.signals.values():
            if signal.name == clock:
                continue
            names = self._bit_names(signal)
            if signal.kind == "input":
                for n in names:
                    self.circuit.add_input(n)
            elif signal.kind == "reg":
                for i, n in enumerate(names):
                    self.circuit.add_register(
                        f"{n}$next",
                        init=(signal.init >> i) & 1,
                        output=n,
                    )
            self.bits[signal.name] = names
        # Continuous assignments drive wire/output bits by name.
        for lhs, expr in parsed.assigns:
            signal = self._signal(lhs)
            if signal.kind not in ("wire", "output"):
                raise VerilogError(
                    f"assign target {lhs!r} must be a wire or output"
                )
            values = self._eval(expr, signal.width)
            for net, value in zip(self.bits[lhs], values):
                self.circuit.g_buf(value, output=net)
        # Non-blocking assignments drive the register data nets.
        driven = set()
        for lhs, expr in parsed.regs:
            signal = self._signal(lhs)
            if signal.kind != "reg":
                raise VerilogError(f"non-blocking target {lhs!r} is not a reg")
            if lhs in driven:
                raise VerilogError(f"register {lhs!r} assigned twice")
            driven.add(lhs)
            values = self._eval(expr, signal.width)
            for net, value in zip(self.bits[lhs], values):
                self.circuit.g_buf(value, output=f"{net}$next")
        for signal in parsed.signals.values():
            if signal.kind == "reg" and signal.name not in driven:
                raise VerilogError(f"register {signal.name!r} never assigned")
        for name in parsed.outputs:
            if name != clock:
                for net in self.bits.get(name, ()):
                    self.circuit.mark_output(net)
        self.circuit.validate()
        return self.circuit

    def _signal(self, name: str) -> _Signal:
        signal = self.parsed.signals.get(name)
        if signal is None:
            raise VerilogError(f"undeclared signal {name!r}")
        return signal

    def _bit_names(self, signal: _Signal) -> List[str]:
        if signal.width == 1:
            return [signal.name]
        return [f"{signal.name}[{i}]" for i in range(signal.width)]

    # -- expression evaluation to bit vectors ----------------------------

    def _eval(self, expr, expected_width: int) -> List[str]:
        values = self._eval_any(expr, expected_width)
        if len(values) != expected_width:
            raise VerilogError(
                f"width mismatch: expression is {len(values)} bits, "
                f"target needs {expected_width}"
            )
        return values

    def _eval_any(self, expr, hint: int) -> List[str]:
        c = self.circuit
        kind = expr[0]
        if kind == "sig":
            _, name, line = expr
            if name == self.parsed.clock:
                raise VerilogError(
                    f"line {line}: the clock cannot appear in expressions"
                )
            return list(self.bits[self._signal(name).name])
        if kind == "bit":
            _, name, index, line = expr
            signal = self._signal(name)
            if index >= signal.width:
                raise VerilogError(
                    f"line {line}: bit {index} out of range for {name!r}"
                )
            return [self.bits[name][index]]
        if kind == "const":
            _, size, value, line = expr
            width = size if size is not None else hint
            if value >= (1 << width):
                raise VerilogError(
                    f"line {line}: literal value {value} exceeds "
                    f"{width} bits"
                )
            return [c.g_const((value >> i) & 1) for i in range(width)]
        if kind == "~":
            operand = self._eval_any(expr[1], hint)
            return [c.g_not(b) for b in operand]
        if kind in ("&", "|", "^"):
            left = self._eval_any(expr[1], hint)
            right = self._eval_any(expr[2], len(left) or hint)
            if len(left) != len(right):
                raise VerilogError(
                    f"width mismatch in {kind!r}: {len(left)} vs "
                    f"{len(right)}"
                )
            op = {"&": c.g_and, "|": c.g_or, "^": c.g_xor}[kind]
            return [op(a, b) for a, b in zip(left, right)]
        if kind in ("red&", "red|", "red^"):
            operand = self._eval_any(expr[1], hint)
            op = {
                "red&": c.g_and, "red|": c.g_or, "red^": c.g_xor,
            }[kind]
            if len(operand) == 1:
                return [c.g_buf(operand[0])]
            return [op(*operand)]
        if kind == "==":
            left = self._eval_any(expr[1], hint)
            right = self._eval_any(expr[2], len(left))
            if len(left) != len(right):
                raise VerilogError("width mismatch in '=='")
            bits = [c.g_xnor(a, b) for a, b in zip(left, right)]
            return [c.g_and(*bits) if len(bits) > 1 else bits[0]]
        if kind == "ite":
            condition = self._eval_any(expr[1], 1)
            if len(condition) != 1:
                raise VerilogError("ternary condition must be 1 bit")
            then_vals = self._eval_any(expr[2], hint)
            else_vals = self._eval_any(expr[3], len(then_vals))
            if len(then_vals) != len(else_vals):
                raise VerilogError("ternary arm widths differ")
            return [
                c.g_mux(condition[0], e, t)
                for t, e in zip(then_vals, else_vals)
            ]
        raise VerilogError(f"unsupported expression {expr!r}")


def parse_verilog(source: str) -> Circuit:
    """Parse and elaborate a Verilog-subset module into a circuit."""
    return _Elaborator(_Parser(source).parse()).run()
