"""Recursive-descent parser for MiniLang.

Grammar sketch:

    program   := (fndecl | "extern" fndecl-header ";")*
    fndecl    := "fn" NAME "(" params? ")" "->" type ("errval" literal)? block
    type      := "int" | "bool" | "ref" | "unit" | "fn" "(" types? ")" "->" type
    block     := "{" stmt* "}"
    stmt      := "let" NAME ":" type "=" expr ";"
               | NAME "=" expr ";"
               | NAME "[" expr "]" "=" expr ";"
               | NAME "(" args? ")" ";"
               | "if" "(" expr ")" block ("else" block)?
               | "while" "(" expr ")" block
               | "return" expr? ";"  | "print" "(" expr ")" ";"
               | "assert" "(" expr ")" ";"

Expressions are int/bool arithmetic and comparison with `&&`, `||`, `!`,
array reads `a[i]`, calls `f(x)`, `alloc(n)`, `read_input()`, `nil`, and
function references `&name`. Comments run from `#` to end of line.

Nesting is limited to MAX_NESTING levels, counting blocks, subexpressions
(parenthesized or not), unary operators, function types, and each operator
after the first in a chain such as `a + b + c`: a deeper program is a
ParseError, never a RecursionError.
"""

from __future__ import annotations

from .nodes import (
    AllocExpr,
    ArrayWriteStmt,
    AssertStmt,
    AssignStmt,
    BinOp,
    BoolLit,
    CallExpr,
    ExprStmt,
    FuncDecl,
    FuncRefExpr,
    If,
    IndexExpr,
    IntLit,
    Let,
    Name,
    NilLit,
    ParseError,
    PrintStmt,
    ProgramTree,
    ReadInputExpr,
    ReturnStmt,
    UnaryOp,
    While,
)
from ..ir import BOOL, INT, REF, UNIT, FnType

KEYWORDS = {
    "fn", "extern", "let", "if", "else", "while", "return", "print",
    "assert", "true", "false", "nil", "alloc", "read_input", "errval",
    "int", "bool", "ref", "unit",
}

# A parenthesized expression costs eleven Python frames per level (from
# `parse_expr` down to `parse_primary`), and lowering about three frames per
# nested statement, so 64 levels stay well inside Python's default recursion
# limit of 1000 wherever the frontend is called from.
MAX_NESTING = 64

# binary operators by precedence, loosest first; a comparison does not chain
BINARY = (("||",), ("&&",), ("==", "!=", "<=", ">=", "<", ">"), ("+", "-"), ("*", "/", "%"))
COMPARISON = 2

TWO_CHAR = {"->", "==", "!=", "<=", ">=", "&&", "||"}
ONE_CHAR = set("(){}[],;:=<>+-*/%!&")


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind  # "int" | "name" | "kw" | "op" | "eof"
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.col})"


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            j = text.find("\n", i)
            j = n if j < 0 else j
            col += j - i
            i = j
            continue
        start_col = col
        # isdecimal, not isdigit: `int` rejects digits such as '²'
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(Token("int", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            tokens.append(Token("kw" if word in KEYWORDS else "name", word, line, start_col))
            col += j - i
            i = j
            continue
        pair = text[i : i + 2]
        if pair in TWO_CHAR:
            tokens.append(Token("op", pair, line, start_col))
            i += 2
            col += 2
            continue
        if ch in ONE_CHAR:
            tokens.append(Token("op", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


def _int(tok: Token) -> int:
    """The value of an integer token; Python converts at most
    `sys.get_int_max_str_digits()` digits (4300 by default)."""
    try:
        return int(tok.text)
    except ValueError:
        raise ParseError(
            f"integer literal of {len(tok.text)} digits is too long", tok.line, tok.col
        ) from None


class Parser:
    def __init__(self, text: str, path: str = "<memory>"):
        self.tokens = tokenize(text)
        self.pos = 0
        self.path = path
        self.depth = 0

    # --- token helpers ---

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.cur
        self.pos += 1
        return tok

    def check(self, text: str) -> bool:
        return self.cur.text == text and self.cur.kind in ("op", "kw")

    def accept(self, text: str) -> bool:
        if self.check(text):
            self.advance()
            return True
        return False

    def expect(self, text: str) -> Token:
        if not self.check(text):
            raise ParseError(
                f"expected {text!r}, found {self.cur.text or 'end of input'!r}",
                self.cur.line,
                self.cur.col,
            )
        return self.advance()

    def expect_name(self) -> Token:
        if self.cur.kind != "name":
            raise ParseError(
                f"expected a name, found {self.cur.text or 'end of input'!r}",
                self.cur.line,
                self.cur.col,
            )
        return self.advance()

    def at(self, operators) -> bool:
        return self.cur.kind == "op" and self.cur.text in operators

    def descend(self) -> None:
        """Go one nesting level deeper; past MAX_NESTING is a ParseError."""
        if self.depth == MAX_NESTING:
            raise ParseError(
                f"nesting deeper than {MAX_NESTING} levels", self.cur.line, self.cur.col
            )
        self.depth += 1

    def nested(self, parse):
        """`parse()` one nesting level deeper."""
        self.descend()
        node = parse()
        self.depth -= 1
        return node

    # --- declarations ---

    def parse_program(self) -> ProgramTree:
        functions: list[FuncDecl] = []
        seen: set[str] = set()
        while self.cur.kind != "eof":
            external = self.accept("extern")
            decl = self.parse_function(external=external)
            if decl.name in seen:
                raise ParseError(f"duplicate function {decl.name!r}", decl.line)
            seen.add(decl.name)
            functions.append(decl)
        return ProgramTree(functions=tuple(functions), path=self.path)

    def parse_function(self, external: bool = False) -> FuncDecl:
        start = self.expect("fn")
        name = self.expect_name()
        self.expect("(")
        params: list[tuple[str, object]] = []
        if not self.check(")"):
            while True:
                pname = self.expect_name()
                self.expect(":")
                ptype = self.parse_type()
                params.append((pname.text, ptype))
                if not self.accept(","):
                    break
        self.expect(")")
        self.expect("->")
        ret_tok = self.cur
        ret = self.parse_type()
        if isinstance(ret, FnType):
            raise ParseError(
                "functions return int, bool, ref or unit, not function types",
                ret_tok.line,
                ret_tok.col,
            )
        errval = None
        if self.accept("errval"):
            errval = self.parse_literal()
        if external:
            self.expect(";")
            body: tuple = ()
        else:
            body = self.parse_block()
        return FuncDecl(
            name=name.text,
            params=tuple(params),
            return_type=ret,
            body=body,
            line=start.line,
            error_return=errval,
            external=external,
        )

    def parse_type(self):
        tok = self.cur
        for prim in (INT, BOOL, REF, UNIT):
            if self.accept(prim):
                return prim
        if self.accept("fn"):
            self.expect("(")
            params = []
            if not self.check(")"):
                while True:
                    params.append(self.nested(self.parse_type))
                    if not self.accept(","):
                        break
            self.expect(")")
            self.expect("->")
            return FnType(params=tuple(params), ret=self.nested(self.parse_type))
        raise ParseError(f"expected a type, found {tok.text!r}", tok.line, tok.col)

    def parse_literal(self):
        # Signed integers, booleans and nil; used for errval annotations.
        tok = self.cur
        if self.accept("-"):
            num = self.advance()
            if num.kind != "int":
                raise ParseError("expected an integer literal", num.line, num.col)
            return IntLit(-_int(num), tok.line)
        if tok.kind == "int":
            self.advance()
            return IntLit(_int(tok), tok.line)
        if self.accept("true"):
            return BoolLit(True, tok.line)
        if self.accept("false"):
            return BoolLit(False, tok.line)
        if self.accept("nil"):
            return NilLit(tok.line)
        raise ParseError(f"expected a literal, found {tok.text!r}", tok.line, tok.col)

    # --- statements ---

    def parse_block(self) -> tuple:
        return self.nested(self._block)

    def _block(self) -> tuple:
        self.expect("{")
        stmts: list = []
        while not self.check("}"):
            if self.cur.kind == "eof":
                raise ParseError("unterminated block", self.cur.line, self.cur.col)
            stmts.append(self.parse_statement())
        self.expect("}")
        return tuple(stmts)

    def parse_statement(self):
        tok = self.cur
        if self.accept("let"):
            name = self.expect_name()
            self.expect(":")
            declared = self.parse_type()
            self.expect("=")
            value = self.parse_expr()
            self.expect(";")
            return Let(name.text, declared, value, tok.line)
        if self.accept("if"):
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then_body = self.parse_block()
            else_body = None
            if self.accept("else"):
                else_body = self.parse_block()
            return If(cond, then_body, else_body, tok.line)
        if self.accept("while"):
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            body = self.parse_block()
            return While(cond, body, tok.line)
        if self.accept("return"):
            value = None
            if not self.check(";"):
                value = self.parse_expr()
            self.expect(";")
            return ReturnStmt(value, tok.line)
        if self.accept("print"):
            self.expect("(")
            value = self.parse_expr()
            self.expect(")")
            self.expect(";")
            return PrintStmt(value, tok.line)
        if self.accept("assert"):
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            self.expect(";")
            return AssertStmt(cond, tok.line)
        name = self.expect_name()
        if self.accept("="):
            value = self.parse_expr()
            self.expect(";")
            return AssignStmt(name.text, value, tok.line)
        if self.accept("["):
            index = self.parse_expr()
            self.expect("]")
            self.expect("=")
            value = self.parse_expr()
            self.expect(";")
            return ArrayWriteStmt(name.text, index, value, tok.line)
        if self.accept("("):
            args = self.parse_args()
            self.expect(";")
            return ExprStmt(CallExpr(name.text, args, tok.line), tok.line)
        raise ParseError(
            f"expected a statement, found {name.text!r}", name.line, name.col
        )

    def parse_args(self) -> tuple:
        args: list = []
        if not self.check(")"):
            while True:
                args.append(self.parse_expr())
                if not self.accept(","):
                    break
        self.expect(")")
        return tuple(args)

    # --- expressions (precedence climbing) ---

    def parse_expr(self):
        return self.nested(self.parse_binary)

    def parse_binary(self, level: int = 0):
        """Binary operators from BINARY[level] down. A chain `a + b + c ...`
        nests one BinOp per operator, so every operator after the first
        parses its operand one level deeper: a long flat chain meets
        MAX_NESTING as deep parentheses do."""
        if level == len(BINARY):
            return self.parse_unary()
        depth = self.depth
        left = self.parse_binary(level + 1)
        while self.at(BINARY[level]):
            tok = self.advance()
            left = BinOp(tok.text, left, self.parse_binary(level + 1), tok.line)
            if level == COMPARISON:
                break
            if self.at(BINARY[level]):
                self.descend()
        self.depth = depth
        return left

    def parse_unary(self):
        tok = self.cur
        if self.accept("!"):
            return UnaryOp("!", self.nested(self.parse_unary), tok.line)
        if self.accept("-"):
            operand = self.nested(self.parse_unary)
            if isinstance(operand, IntLit):
                return IntLit(-operand.value, tok.line)  # fold negative literals
            return UnaryOp("-", operand, tok.line)
        return self.parse_postfix()

    def parse_postfix(self):
        expr = self.parse_primary()
        if isinstance(expr, Name):
            tok = self.cur
            if self.accept("["):
                index = self.parse_expr()
                self.expect("]")
                return IndexExpr(expr.name, index, tok.line)
            if self.accept("("):
                args = self.parse_args()
                return CallExpr(expr.name, args, tok.line)
        return expr

    def parse_primary(self):
        tok = self.cur
        if tok.kind == "int":
            self.advance()
            return IntLit(_int(tok), tok.line)
        if self.accept("true"):
            return BoolLit(True, tok.line)
        if self.accept("false"):
            return BoolLit(False, tok.line)
        if self.accept("nil"):
            return NilLit(tok.line)
        if self.accept("read_input"):
            self.expect("(")
            self.expect(")")
            return ReadInputExpr(tok.line)
        if self.accept("alloc"):
            self.expect("(")
            size = self.parse_expr()
            self.expect(")")
            return AllocExpr(size, tok.line)
        if self.accept("&"):
            name = self.expect_name()
            return FuncRefExpr(name.text, tok.line)
        if self.accept("("):
            expr = self.parse_expr()
            self.expect(")")
            return expr
        if tok.kind == "name":
            self.advance()
            return Name(tok.text, tok.line)
        raise ParseError(
            f"expected an expression, found {tok.text or 'end of input'!r}",
            tok.line,
            tok.col,
        )


def parse(text: str, path: str = "<memory>") -> ProgramTree:
    """Parse MiniLang source text into a syntax tree."""
    return Parser(text, path).parse_program()


def parse_file(path) -> ProgramTree:
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read(), path=str(path))
