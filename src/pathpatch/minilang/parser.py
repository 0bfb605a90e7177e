"""One-pass MiniLang frontend: a recursive-descent parser that checks types
and lowers each function to the CFG IR as it reads it.

Grammar sketch:

    program   := (fndecl | "extern" header ";")*
    fndecl    := header block
    header    := "fn" NAME "(" params? ")" "->" type ("errval" literal)?
    params    := NAME ":" type ("," NAME ":" type)*
    type      := "int" | "bool" | "ref" | "unit" | "fn" "(" types? ")" "->" type
    literal   := "-"? INT | "true" | "false" | "nil"
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

Before the pass proper, every header is read ahead, so a call may come
before its callee's declaration, and so is each body's `let NAME: type`
declarations, so a local may be used before its `let`. Each statement is
lowered as it is read (see `lower.py` for the shapes), and each expression
returns its pure IR expression and its type; an array read, call, alloc or
read_input comes back as `_Impure`, which its consumer stores into a
temporary or, as the whole right-hand side of a `let` or assignment,
straight into the variable. Statements after a `return` are parsed but
neither checked nor lowered.

Faults: a lexical fault first, then the first fault in source order. A
declaration's header is checked once its syntax is read: a duplicate
function, a repeated parameter, an errval of the wrong type, then main's
shape. A call's argument count is checked at its `)`, and a program
without `main` is reported at the end.

Nesting is limited to MAX_NESTING levels, counting blocks, subexpressions
(parenthesized or not), unary operators, function types, and each operator
after the first in a chain such as `a + b + c`: a deeper program is a
ParseError, never a RecursionError.
"""

from __future__ import annotations

from ..ir import (
    BOOL,
    INT,
    REF,
    UNIT,
    ArrayAlloc,
    ArrayRead,
    ArrayWrite,
    Assertion,
    Assign,
    Binary,
    BoolConst,
    Branch,
    Call,
    FnType,
    FuncRef,
    IntConst,
    IRFunction,
    IRProgram,
    Jump,
    NilConst,
    Print,
    ReadInput,
    Return,
    Unary,
    Var,
    const_type,
    validate_program,
)
from .lower import FunctionBuilder


class FrontendError(Exception):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", col {col}" if col is not None else "")
        super().__init__(message + where)


class ParseError(FrontendError):
    pass


class LoweringError(FrontendError):
    pass


KEYWORDS = {
    "fn", "extern", "let", "if", "else", "while", "return", "print",
    "assert", "true", "false", "nil", "alloc", "read_input", "errval",
    "int", "bool", "ref", "unit",
}

# A parenthesized expression costs nine Python frames per level (from
# `parse_expr` down to `parse_primary`), so 64 levels stay well inside
# Python's default recursion limit of 1000 wherever the frontend is called
# from.
MAX_NESTING = 64

# binary operators by precedence, loosest first; a comparison does not chain
BINARY = (("||",), ("&&",), ("==", "!=", "<=", ">=", "<", ">"), ("+", "-"), ("*", "/", "%"))
COMPARISON = 2
INT_OPS = {"+", "-", "*", "/", "%"}
CMP_OPS = {"<", "<=", ">", ">="}
EQ_OPS = {"==", "!="}

TWO_CHAR = {"->", "==", "!=", "<=", ">=", "&&", "||"}
ONE_CHAR = set("(){}[],;:=<>+-*/%!&")
IMPURE_CONDITION = "array reads, calls, alloc and read_input are not allowed in conditions"


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


class _Impure:
    """An array read, call, alloc or read_input that is read but not yet
    stored: `kind` is its IR statement class, built as
    `kind(id, target, *operands)`, and `line` is where a temporary holding
    it is made."""

    __slots__ = ("kind", "operands", "line")

    def __init__(self, kind, operands: tuple, line: int):
        self.kind = kind
        self.operands = operands
        self.line = line


class Parser:
    def __init__(self, text: str, path: str = "<memory>"):
        self.tokens = tokenize(text)
        self.pos = 0
        self.path = path
        self.depth = 0
        self.pure = False  # inside an `if` or `while` condition
        self.live = True  # false after a `return`: nothing is checked or lowered

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

    def fail(self, message: str, line: int) -> None:
        """A type or name fault: a LoweringError, except in dead code."""
        if self.live:
            raise LoweringError(message, line)

    # --- reading ahead ---

    def read_signatures(self) -> dict[str, FnType]:
        """Every function's signature, read ahead so that a call may come
        before its callee's declaration. Reading stops quietly at the first
        token that does not fit: the pass proper reports it in source order."""
        signatures: dict[str, FnType] = {}
        try:
            while self.cur.kind != "eof":
                external = self.accept("extern")
                _, name, params, ret, _ = self.parse_header()
                signatures.setdefault(name.text, FnType(tuple(t for _, t in params), ret))
                if external:
                    self.expect(";")
                elif self.check("{"):
                    self.read_block()
                else:
                    break
        except ParseError:
            pass
        self.pos = self.depth = 0
        return signatures

    def read_block(self) -> list[tuple[Token, object]]:
        """Read ahead over the block that starts at the current token, to its
        closing brace or the end of input. Returns its `let NAME: type`
        declarations, nested blocks included, as (name token, type) pairs;
        one whose type does not parse is left to the pass proper."""
        tokens = self.tokens
        lets = []
        depth, nesting = 0, self.depth
        while tokens[self.pos].kind != "eof":
            text = tokens[self.pos].text
            self.pos += 1
            if text == "{":
                depth += 1
            elif text == "}":
                depth -= 1
                if depth <= 0:
                    break
            elif text == "let" and tokens[self.pos].kind == "name":
                name = tokens[self.pos]
                if tokens[self.pos + 1].text != ":":
                    continue
                self.pos += 2
                self.depth = 0
                try:
                    lets.append((name, self.parse_type()))
                except ParseError:
                    pass
        self.depth = nesting
        return lets

    # --- declarations ---

    def parse_program(self) -> IRProgram:
        self.signatures = self.read_signatures()
        functions: dict[str, IRFunction] = {}
        source_map: dict[str, tuple[str, int]] = {}
        while self.cur.kind != "eof":
            external = self.accept("extern")
            self.parse_function(external, functions, source_map)
        if "main" not in functions:
            raise LoweringError("program has no main function")
        program = IRProgram(
            functions=functions,
            entry="main",
            source_map=source_map,
            executable=True,
        )
        validate_program(program)
        return program

    def parse_header(self):
        """`fn NAME(params) -> type errval?`: the `fn` token, the name token,
        the (name token, type) parameters, the return type and the errval
        constant or None."""
        start = self.expect("fn")
        name = self.expect_name()
        self.expect("(")
        params: list[tuple[Token, object]] = []
        if not self.check(")"):
            while True:
                pname = self.expect_name()
                self.expect(":")
                params.append((pname, self.parse_type()))
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
        errval = self.parse_literal() if self.accept("errval") else None
        return start, name, params, ret, errval

    def parse_function(self, external: bool, functions: dict, source_map: dict) -> None:
        start, name_tok, param_toks, ret, errval = self.parse_header()
        name = name_tok.text
        if name in functions:
            raise ParseError(f"duplicate function {name!r}", start.line)
        env: dict[str, object] = {}
        for pname, ptype in param_toks:
            if pname.text in env:
                raise LoweringError(f"{pname.text!r} declared twice in {name}", pname.line)
            env[pname.text] = ptype
        if errval is not None and const_type(errval) != ret:
            raise LoweringError(f"errval literal does not match return type {ret}", start.line)
        if name == "main":
            if external:  # a run starts in main's body
                raise LoweringError("main has no body", start.line)
            if param_toks:  # a run calls main with no arguments
                raise LoweringError("main takes no parameters", start.line)
        params = tuple(env.items())
        if external:
            self.expect(";")
            functions[name] = IRFunction(
                id=name,
                params=params,
                return_type=ret,
                blocks={},
                entry_block=None,
                declared_error_return=errval,
                external=True,
            )
            return
        body = self.pos
        lets = self.read_block()
        self.pos = body
        self.first_let: dict[str, Token] = {}
        local_types: dict[str, object] = {}
        for let_name, let_type in lets:
            if let_name.text not in env:
                env[let_name.text] = local_types[let_name.text] = let_type
                self.first_let[let_name.text] = let_name
        self.env, self.fn, self.ret = env, name, ret
        self.b = FunctionBuilder(name, self.path, local_types)
        self.parse_block()
        functions[name] = self.b.finish(params, ret, errval, start.line)
        source_map.update(self.b.source_map)

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
            return IntConst(-_int(num))
        if tok.kind == "int":
            self.advance()
            return IntConst(_int(tok))
        if self.accept("true"):
            return BoolConst(True)
        if self.accept("false"):
            return BoolConst(False)
        if self.accept("nil"):
            return NilConst()
        raise ParseError(f"expected a literal, found {tok.text!r}", tok.line, tok.col)

    # --- statements ---

    def parse_block(self) -> None:
        self.descend()
        self.expect("{")
        outer = None
        while not self.check("}"):
            if self.cur.kind == "eof":
                raise ParseError("unterminated block", self.cur.line, self.cur.col)
            if outer is None and self.b.current.terminator is not None:
                # after a `return`, the rest of the block is parsed into a
                # builder that is thrown away, and a repeated `let` is the
                # only lowering fault there
                outer = self.b, self.live
                self.b, self.live = FunctionBuilder(self.fn, self.path, {}), False
            self.parse_statement()
        self.expect("}")
        if outer is not None:
            self.b, self.live = outer
        self.depth -= 1

    def parse_statement(self) -> None:
        tok = self.cur
        line = tok.line
        if self.accept("let"):
            name = self.expect_name()
            self.expect(":")
            declared = self.parse_type()
            self.expect("=")
            if self.first_let.get(name.text) is not name:
                raise LoweringError(f"{name.text!r} declared twice in {self.fn}", line)
            self.parse_assignment(name.text, declared, line)
            return
        if self.accept("if"):
            self.parse_if(line)
            return
        if self.accept("while"):
            self.parse_while(line)
            return
        if self.accept("return"):
            self.parse_return(line)
            return
        if self.accept("print"):
            self.expect("(")
            value, vtype = self.value(self.parse_expr())
            self.expect(")")
            self.expect(";")
            if vtype not in (INT, BOOL):
                self.fail("print takes an int or bool", line)
            self.b.emit(Print(self.b.new_stmt_id(line), value), line)
            return
        if self.accept("assert"):
            self.expect("(")
            cond, ctype = self.value(self.parse_expr())
            self.expect(")")
            self.expect(";")
            if ctype != BOOL:
                self.fail("assert takes a bool", line)
            self.b.emit(Assertion(self.b.new_stmt_id(line), cond), line)
            return
        name = self.expect_name()
        if self.accept("="):
            self.parse_assignment(name.text, self.type_of(name.text, line), line)
            return
        if self.accept("["):
            if self.type_of(name.text, line) != REF:
                self.fail(f"{name.text!r} is not an array", line)
            index, itype = self.value(self.parse_expr())
            if itype != INT:
                self.fail("array index must be an int", line)
            self.expect("]")
            self.expect("=")
            value, vtype = self.value(self.parse_expr())
            self.expect(";")
            if vtype != INT:
                self.fail("array cells hold ints", line)
            self.b.emit(ArrayWrite(self.b.new_stmt_id(line), Var(name.text), index, value), line)
            return
        if self.accept("("):
            operands, _ = self.parse_call(name.text, line)
            self.expect(";")
            self.b.emit(Call(self.b.new_stmt_id(line), None, *operands), line)
            return
        raise ParseError(
            f"expected a statement, found {name.text!r}", name.line, name.col
        )

    def parse_assignment(self, name: str, declared, line: int) -> None:
        """The right-hand side of a `let` or assignment, from after its `=`."""
        value, vtype = self.parse_expr()
        self.expect(";")
        # an impure right-hand side is stored straight into the variable
        stored = type(value) is _Impure
        if stored:
            value, vtype = self.store(value, vtype, name, line)
        # nil is the null value for arrays and function references alike
        nil_as_fn = type(value) is NilConst and isinstance(declared, FnType)
        if vtype != declared and not nil_as_fn:
            self.fail(f"cannot assign {vtype} to {name!r} of type {declared}", line)
        if not stored:
            self.b.emit(Assign(self.b.new_stmt_id(line), name, value), line)

    def parse_return(self, line: int) -> None:
        ret = self.ret
        if self.accept(";"):
            if ret != UNIT:
                self.fail(f"{self.fn} must return a {ret}", line)
            value = None
        else:
            if ret == UNIT:
                self.fail(f"{self.fn} returns unit; no value allowed", line)
            value, vtype = self.value(self.parse_expr())
            self.expect(";")
            if vtype != ret:
                self.fail(f"return of {vtype} from function returning {ret}", line)
        self.b.terminate(Return(self.b.new_stmt_id(line), value), line)

    def parse_condition(self, keyword: str, line: int):
        self.expect("(")
        self.pure = True
        cond, ctype = self.value(self.parse_expr())
        self.pure = False
        self.expect(")")
        if ctype != BOOL:
            self.fail(f"{keyword} condition must be a bool", line)
        return cond

    def parse_if(self, line: int) -> None:
        cond = self.parse_condition("if", line)
        b = self.b
        cond_block = b.condition_block(line)
        branch_id = b.new_stmt_id(line)

        then_block = b.new_block()
        self.parse_block()
        then_end = b.current

        else_block = None
        else_end = None
        if self.accept("else"):
            else_block = b.new_block()
            self.parse_block()
            else_end = b.current

        join = b.new_block()
        if then_end.terminator is None:
            then_end.terminator = Jump(join.id)
        if else_block is not None:
            if else_end.terminator is None:
                else_end.terminator = Jump(join.id)
            else_target = else_block.id
        else:
            else_target = join.id
        cond_block.terminator = Branch(branch_id, cond, then_block.id, else_target)

    def parse_while(self, line: int) -> None:
        cond = self.parse_condition("while", line)
        b = self.b
        header = b.condition_block(line)
        branch_id = b.new_stmt_id(line)

        body = b.new_block()
        self.parse_block()
        if b.current.terminator is None:
            b.current.terminator = Jump(header.id)  # back edge

        after = b.new_block()
        header.terminator = Branch(branch_id, cond, body.id, after.id)

    # --- expressions (one function per precedence level) ---

    def type_of(self, name: str, line: int):
        vtype = self.env.get(name)
        if vtype is None:
            self.fail(f"unknown variable {name!r} in {self.fn}", line)
        return vtype

    def value(self, result):
        """`result` as a pure expression: an impure one is stored into a
        fresh temporary first."""
        if type(result[0]) is _Impure:
            return self.store(*result)
        return result

    def store(self, item: _Impure, vtype, target: str | None = None, line: int | None = None):
        """Emit the one statement that computes `item` into `target`, or into
        a fresh temporary; returns (Var of the result, its type).

        The statement is on `line` when given (a `let` or assignment storing
        straight into its variable), else on the item's own line; a call
        always keeps its own.
        """
        if item.kind is Call:
            if vtype == UNIT:
                callee_name, callee_ref, _ = item.operands
                name = callee_name or callee_ref
                self.fail(f"{name!r} returns unit and has no value", item.line)
            line = item.line
        elif line is None:
            line = item.line
        b = self.b
        if target is None:
            target = b.new_temp(vtype)
        b.emit(item.kind(b.new_stmt_id(line), target, *item.operands), line)
        return Var(target), vtype

    def parse_call(self, name: str, line: int) -> tuple[tuple, object]:
        """A call of `name`, from after its `(`: the `Call` operands (callee
        name, callee reference, arguments) and the callee's return type.
        Each argument is checked as it is read, and their count at the `)`."""
        callee_name = callee_ref = None
        sig = self.env.get(name)
        if sig is not None:
            if not isinstance(sig, FnType):
                self.fail(f"{name!r} is not callable", line)
                sig = None
            callee_ref = name
        else:
            sig = self.signatures.get(name)
            if sig is None:
                self.fail(f"call to unknown function {name!r}", line)
            callee_name = name
        wanted = sig.params if sig is not None else ()
        args = []
        if not self.check(")"):
            while True:
                value, vtype = self.value(self.parse_expr())
                if len(args) < len(wanted) and vtype != wanted[len(args)]:
                    self.fail(
                        f"argument of type {vtype} where {wanted[len(args)]} expected", line
                    )
                args.append(value)
                if not self.accept(","):
                    break
        self.expect(")")
        if sig is None:
            return (callee_name, callee_ref, tuple(args)), None
        if len(args) != len(wanted):
            self.fail(f"{name!r} expects {len(wanted)} arguments, got {len(args)}", line)
        return (callee_name, callee_ref, tuple(args)), sig.ret

    def parse_expr(self):
        self.descend()
        result = self.parse_binary()
        self.depth -= 1
        return result

    def parse_binary(self, level: int = 0):
        """Binary operators from BINARY[level] down. A chain `a + b + c ...`
        nests one operator per operator, so every operator after the first
        parses its operand one level deeper: a long flat chain meets
        MAX_NESTING as deep parentheses do."""
        if level == len(BINARY):
            return self.parse_unary()
        depth = self.depth
        left = self.parse_binary(level + 1)
        while self.at(BINARY[level]):
            tok = self.advance()
            left = self.value(left)
            right = self.value(self.parse_binary(level + 1))
            left = self.binary(tok, left, right)
            if level == COMPARISON:
                break
            if self.at(BINARY[level]):
                self.descend()
        self.depth = depth
        return left

    def binary(self, tok: Token, left, right):
        (lvalue, ltype), (rvalue, rtype) = left, right
        op = tok.text
        if op in INT_OPS or op in CMP_OPS:
            if ltype != INT or rtype != INT:
                self.fail(f"operator {op!r} needs int operands", tok.line)
            vtype = INT if op in INT_OPS else BOOL
        elif op in EQ_OPS:
            if ltype != rtype:
                self.fail(f"cannot compare {ltype} with {rtype}", tok.line)
            vtype = BOOL
        else:
            if ltype != BOOL or rtype != BOOL:
                self.fail(f"operator {op!r} needs bool operands", tok.line)
            vtype = BOOL
        return Binary(op, lvalue, rvalue), vtype

    def parse_unary(self):
        tok = self.cur
        if self.accept("!"):
            operand, otype = self.value(self.nested(self.parse_unary))
            if otype != BOOL:
                self.fail(f"operator '!' applied to {otype}", tok.line)
            return Unary("!", operand), BOOL
        if self.accept("-"):
            operand, otype = self.value(self.nested(self.parse_unary))
            if type(operand) is IntConst:
                return IntConst(-operand.value), INT  # fold negative literals
            if otype != INT:
                self.fail(f"operator '-' applied to {otype}", tok.line)
            return Unary("-", operand), INT
        return self.parse_primary()

    def parse_primary(self):
        tok = self.cur
        if tok.kind == "int":
            self.advance()
            return IntConst(_int(tok)), INT
        if tok.kind == "name":
            self.advance()
            name = tok.text
            after = self.cur
            if self.accept("["):
                if self.pure:
                    self.fail(IMPURE_CONDITION, after.line)
                if self.type_of(name, after.line) != REF:
                    self.fail(f"{name!r} is not an array", after.line)
                index, itype = self.value(self.parse_expr())
                if itype != INT:
                    self.fail("array index must be an int", after.line)
                self.expect("]")
                return _Impure(ArrayRead, (Var(name), index), after.line), INT
            if self.accept("("):
                if self.pure:
                    self.fail(IMPURE_CONDITION, after.line)
                operands, ret = self.parse_call(name, after.line)
                return _Impure(Call, operands, after.line), ret
            return Var(name), self.type_of(name, tok.line)
        if self.accept("true"):
            return BoolConst(True), BOOL
        if self.accept("false"):
            return BoolConst(False), BOOL
        if self.accept("nil"):
            return NilConst(), REF
        if self.accept("read_input"):
            if self.pure:
                self.fail(IMPURE_CONDITION, tok.line)
            self.expect("(")
            self.expect(")")
            return _Impure(ReadInput, (), tok.line), INT
        if self.accept("alloc"):
            if self.pure:
                self.fail(IMPURE_CONDITION, tok.line)
            self.expect("(")
            size, stype = self.value(self.parse_expr())
            if stype != INT:
                self.fail("alloc size must be an int", tok.line)
            self.expect(")")
            return _Impure(ArrayAlloc, (size,), tok.line), REF
        if self.accept("&"):
            name = self.expect_name().text
            sig = self.signatures.get(name)
            if sig is None:
                self.fail(f"reference to unknown function {name!r}", tok.line)
            return FuncRef(name), sig
        if self.accept("("):
            result = self.parse_expr()
            self.expect(")")
            return result
        raise ParseError(
            f"expected an expression, found {tok.text or 'end of input'!r}",
            tok.line,
            tok.col,
        )


def parse(text: str, path: str = "<memory>") -> IRProgram:
    """Parse, check and lower MiniLang source text into the IR."""
    return Parser(text, path).parse_program()


def parse_file(path) -> IRProgram:
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read(), path=str(path))
