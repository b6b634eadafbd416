"""Surface syntax for the analyzed language.

Programs are s-expressions over a unary lambda calculus with integer and
boolean literals and three primitive operations:

    e ::= x | l | (lambda (x) e) | (e0 e1) | (if e0 e1 e2)
    l ::= integer | #t | #f | zero? | add1 | sub1

Every AST node carries a preorder label (root = 0, then children left to
right).  Labels identify program points throughout the analyzers: allocation
of continuation and value addresses is keyed by them, and cross-engine graph
comparisons render nodes by their label skeletons.

``;`` starts a comment that runs to end of line.

The nodes derive from ``Term``, the base of every immutable term in the
analyzers (addresses, values, environments, continuations and contexts in
``domains`` too): a subclass lists its fields in ``__slots__`` and gets a
constructor, a cached hash and structural equality written from them.
"""

from __future__ import annotations

import re

PRIM_NAMES = ("zero?", "add1", "sub1")
KEYWORDS = ("lambda", "if")

_INT_RE = re.compile(r"[+-]?[0-9]+\Z")


class ParseError(ValueError):
    """Malformed source text; carries the 1-based line/column of the fault."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.reason = message
        self.line = line
        self.col = col


class Term:
    """An immutable term with structural equality and a cached hash.

    A subclass names its fields in ``__slots__``, and ``__init_subclass__``
    writes its ``__init__``, ``__eq__`` and ``__hash__`` from them, as
    ``dataclasses`` does, unless the class body writes its own.
    ``__init__`` takes the fields in slot order, assigns them and caches
    ``hash((<class name>, *fields))``: the name rather than the class
    object, because a class hashes by its id, and hashes must repeat from
    run to run under one ``PYTHONHASHSEED``.  ``__eq__`` holds for the term
    itself, or for a term of the same type with equal fields, compared in
    slot order; a field shared by both is taken as equal without a call.
    It does not compare the cached hashes first, because the dicts and sets
    that make nearly every call already have.  Each class gets its own
    ``__hash__``: the interpreter specialises attribute access per
    function, and one function shared by every class would run
    unspecialised."""

    __slots__ = ("_hash",)

    def __init_subclass__(cls, **kw):
        super().__init_subclass__(**kw)
        fields = cls.__dict__.get("__slots__", ())
        params = "".join(f", {f}" for f in fields)
        sets = "".join(f"    self.{f} = {f}\n" for f in fields)
        same = "".join(f" and (self.{f} is other.{f} or self.{f} == other.{f})"
                       for f in fields)
        src = (f"def __init__(self{params}):\n{sets}"
               f"    self._hash = hash(({cls.__name__!r}{params},))\n"
               f"def __eq__(self, other):\n"
               f"    return self is other or (type(other) is cls{same})\n"
               f"def __hash__(self):\n"
               f"    return self._hash\n")
        ns = {"cls": cls}
        exec(compile(src, f"<{cls.__qualname__} fields>", "exec"), ns)
        for name in ("__init__", "__eq__", "__hash__"):
            if name not in cls.__dict__:
                ns[name].__qualname__ = f"{cls.__qualname__}.{name}"
                setattr(cls, name, ns[name])

    def __hash__(self):
        # for a class that writes its own __eq__, which drops the hash
        # it would inherit
        return self._hash


class Var(Term):
    __slots__ = ("name", "label")

    def __repr__(self):
        return f"Var({self.name!r}, {self.label})"


class Lit(Term):
    """Literal expression; value is an int, a bool, or a primitive-op name.
    ``True`` and ``1`` are equal in Python but not as literals."""

    __slots__ = ("value", "label")

    def __eq__(self, other):
        return self is other or (
            type(other) is Lit
            and self.label == other.label
            and type(self.value) is type(other.value)
            and self.value == other.value
        )

    __hash__ = Term.__hash__

    def __repr__(self):
        return f"Lit({self.value!r}, {self.label})"


class Lam(Term):
    __slots__ = ("var", "body", "label")

    def __repr__(self):
        return f"Lam({self.var!r}, {self.body!r}, {self.label})"


class App(Term):
    __slots__ = ("fn", "arg", "label")

    def __repr__(self):
        return f"App({self.fn!r}, {self.arg!r}, {self.label})"


class If(Term):
    __slots__ = ("guard", "then", "els", "label")

    def __repr__(self):
        return f"If({self.guard!r}, {self.then!r}, {self.els!r}, {self.label})"


Expr = Var | Lit | Lam | App | If


# ---------------------------------------------------------------- tokenizer

class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(src: str) -> list[_Token]:
    toks = []
    line, col = 1, 1
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == ";":
            while i < n and src[i] != "\n":
                i += 1
        elif ch in "()":
            toks.append(_Token(ch, ch, line, col))
            col += 1
            i += 1
        else:
            start = i
            start_col = col
            while i < n and src[i] not in " \t\r\n();":
                i += 1
                col += 1
            toks.append(_Token("atom", src[start:i], line, start_col))
    return toks


def _read_sexpr(toks: list[_Token], pos: int):
    """Return (tree, next_pos); tree is a _Token or (list, open_token)."""
    if pos >= len(toks):
        last = toks[-1] if toks else None
        line = last.line if last else 1
        col = last.col if last else 1
        raise ParseError("unexpected end of input", line, col)
    tok = toks[pos]
    if tok.kind == "(":
        items = []
        pos += 1
        while True:
            if pos >= len(toks):
                raise ParseError("unclosed parenthesis", tok.line, tok.col)
            if toks[pos].kind == ")":
                return (items, tok), pos + 1
            item, pos = _read_sexpr(toks, pos)
            items.append(item)
    if tok.kind == ")":
        raise ParseError("unexpected ')'", tok.line, tok.col)
    return tok, pos + 1


def _is_identifier(text: str) -> bool:
    if text in KEYWORDS or text in PRIM_NAMES:
        return False
    if text.startswith("#") or _INT_RE.match(text):
        return False
    return True


class _Builder:
    def __init__(self):
        self.next_label = 0

    def fresh(self) -> int:
        lbl = self.next_label
        self.next_label += 1
        return lbl

    def build(self, tree) -> Expr:
        if isinstance(tree, _Token):
            return self._atom(tree)
        items, open_tok = tree
        if not items:
            raise ParseError("empty application", open_tok.line, open_tok.col)
        head = items[0]
        if isinstance(head, _Token) and head.text == "lambda":
            return self._lambda(items, open_tok)
        if isinstance(head, _Token) and head.text == "if":
            return self._if(items, open_tok)
        if len(items) != 2:
            raise ParseError(
                f"application takes exactly one argument, got {len(items) - 1}",
                open_tok.line,
                open_tok.col,
            )
        lbl = self.fresh()
        fn = self.build(items[0])
        arg = self.build(items[1])
        return App(fn, arg, lbl)

    def _atom(self, tok: _Token) -> Expr:
        text = tok.text
        if _INT_RE.match(text):
            return Lit(int(text), self.fresh())
        if text == "#t":
            return Lit(True, self.fresh())
        if text == "#f":
            return Lit(False, self.fresh())
        if text.startswith("#"):
            raise ParseError(f"unknown literal {text!r}", tok.line, tok.col)
        if text in PRIM_NAMES:
            return Lit(text, self.fresh())
        if text in KEYWORDS:
            raise ParseError(f"keyword {text!r} is not an expression", tok.line, tok.col)
        return Var(text, self.fresh())

    def _lambda(self, items, open_tok) -> Expr:
        if len(items) != 3:
            raise ParseError("lambda takes a parameter list and one body", open_tok.line, open_tok.col)
        params = items[1]
        if isinstance(params, _Token):
            raise ParseError("lambda parameter list must be parenthesized", params.line, params.col)
        plist, ptok = params
        if len(plist) != 1:
            raise ParseError(
                f"lambda takes exactly one parameter, got {len(plist)}", ptok.line, ptok.col
            )
        ptoken = plist[0]
        if not isinstance(ptoken, _Token) or not _is_identifier(ptoken.text):
            where = ptoken if isinstance(ptoken, _Token) else _Token("(", "(", ptok.line, ptok.col)
            raise ParseError("lambda parameter must be an identifier", where.line, where.col)
        lbl = self.fresh()
        body = self.build(items[2])
        return Lam(ptoken.text, body, lbl)

    def _if(self, items, open_tok) -> Expr:
        if len(items) != 4:
            raise ParseError("if takes a guard and two branches", open_tok.line, open_tok.col)
        lbl = self.fresh()
        guard = self.build(items[1])
        then = self.build(items[2])
        els = self.build(items[3])
        return If(guard, then, els, lbl)


def parse(src: str) -> Expr:
    """Parse one program, assigning preorder labels starting at 0."""
    toks = _tokenize(src)
    if not toks:
        raise ParseError("empty input", 1, 1)
    tree, pos = _read_sexpr(toks, 0)
    if pos != len(toks):
        extra = toks[pos]
        raise ParseError("trailing input after program", extra.line, extra.col)
    return _Builder().build(tree)


def unparse(e: Expr) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Lit):
        if e.value is True:
            return "#t"
        if e.value is False:
            return "#f"
        return str(e.value)
    if isinstance(e, Lam):
        return f"(lambda ({e.var}) {unparse(e.body)})"
    if isinstance(e, App):
        return f"({unparse(e.fn)} {unparse(e.arg)})"
    if isinstance(e, If):
        return f"(if {unparse(e.guard)} {unparse(e.then)} {unparse(e.els)})"
    raise TypeError(f"not an expression: {e!r}")


def children(e: Expr) -> tuple[Expr, ...]:
    if isinstance(e, Lam):
        return (e.body,)
    if isinstance(e, App):
        return (e.fn, e.arg)
    if isinstance(e, If):
        return (e.guard, e.then, e.els)
    return ()


def free_vars(e: Expr) -> frozenset[str]:
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Lit):
        return frozenset()
    if isinstance(e, Lam):
        return free_vars(e.body) - {e.var}
    acc: set[str] = set()
    for c in children(e):
        acc |= free_vars(c)
    return frozenset(acc)


def node_count(e: Expr) -> int:
    return 1 + sum(node_count(c) for c in children(e))


def label_table(e: Expr) -> dict[int, Expr]:
    """Map every label in the program to its AST node."""
    table: dict[int, Expr] = {}

    def walk(node):
        table[node.label] = node
        for c in children(node):
            walk(c)

    walk(e)
    return table


def descendant_labels(e: Expr) -> dict[int, frozenset[int]]:
    """Map each label to the labels of its strict descendants."""
    out: dict[int, frozenset[int]] = {}

    def walk(node) -> frozenset[int]:
        acc: frozenset[int] = frozenset()
        for c in children(node):
            acc |= walk(c) | {c.label}
        out[node.label] = acc
        return acc

    walk(e)
    return out


def same_shape(a: Expr, b: Expr) -> bool:
    """Structural equality that ignores labels (round-trip testing)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Var):
        return a.name == b.name
    if isinstance(a, Lit):
        return type(a.value) is type(b.value) and a.value == b.value
    if isinstance(a, Lam):
        return a.var == b.var and same_shape(a.body, b.body)
    if isinstance(a, App):
        return same_shape(a.fn, b.fn) and same_shape(a.arg, b.arg)
    if isinstance(a, If):
        return (
            same_shape(a.guard, b.guard)
            and same_shape(a.then, b.then)
            and same_shape(a.els, b.els)
        )
    return False
