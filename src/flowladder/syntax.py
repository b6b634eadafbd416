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
``domains`` makes every term print as its label skeleton, so an
expression prints as ``e<label>``; ``unparse`` gives the program text.
"""

from __future__ import annotations

import re
from itertools import islice

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


# a cached hash is kept below 2 ** 30, where CPython holds an int in one
# 30-bit digit: 28 bytes rather than the 36 of a full-width hash
HASH_MASK = (1 << 30) - 1


class Term:
    """An immutable term with structural equality and a cached hash.

    A subclass names its fields in ``__slots__``, and ``__init_subclass__``
    writes its ``__init__``, ``__eq__`` and ``__hash__`` from them, as
    ``dataclasses`` does, unless the class body writes its own.  A class
    that writes ``__eq__`` alone has its ``__hash__`` set to None by
    Python, and gets the written one all the same.
    ``__init__`` takes the fields in slot order, assigns them and caches
    ``hash((<class name>, *fields)) & HASH_MASK``: the name rather than the
    class object, because a class hashes by its id, and hashes must repeat
    from run to run under one ``PYTHONHASHSEED``; the mask keeps the cached
    int to one 28-byte digit, and a run holds one per term.  ``__eq__``
    holds for the term itself, or for a term of the same type with equal
    fields, compared in slot order; a field shared by both is taken as
    equal without a call.
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
               f"    self._hash = (hash(({cls.__name__!r}{params},))"
               f" & {HASH_MASK})\n"
               f"def __eq__(self, other):\n"
               f"    return self is other or (type(other) is cls{same})\n"
               f"def __hash__(self):\n"
               f"    return self._hash\n")
        ns = {"cls": cls}
        exec(compile(src, f"<{cls.__qualname__} fields>", "exec"), ns)
        for name in ("__init__", "__eq__", "__hash__"):
            if cls.__dict__.get(name) is None:
                ns[name].__qualname__ = f"{cls.__qualname__}.{name}"
                setattr(cls, name, ns[name])


class Var(Term):
    __slots__ = ("name", "label")


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


class Lam(Term):
    __slots__ = ("var", "body", "label")


class App(Term):
    __slots__ = ("fn", "arg", "label")


class If(Term):
    __slots__ = ("guard", "then", "els", "label")


Expr = Var | Lit | Lam | App | If


# ------------------------------------------------------------------- parser

# A token is a parenthesis or an atom: a run of anything but a space, tab,
# CR, LF, parenthesis or ``;``.  A comment, from ``;`` to the end of its
# line, matches as a token too and is dropped.
_TOKEN_RE = re.compile(r"[()]|[^ \t\r\n();]+|;[^\n]*")
_CONSTANTS = {"#t": True, "#f": False, **{p: p for p in PRIM_NAMES}}


def _tokens(src: str) -> list[str]:
    toks = _TOKEN_RE.findall(src)
    if ";" in src:
        toks = [t for t in toks if t[0] != ";"]
    return toks


def _error(reason: str, src: str, index: int) -> ParseError:
    """The error at the ``index``-th token of ``src``.  Tokens carry no
    positions; only a fault needs one, so the source is scanned again.  A
    column counts characters, a tab or a CR as one."""
    starts = (m.start() for m in _TOKEN_RE.finditer(src) if m[0][0] != ";")
    start = next(islice(starts, index, None))
    line = src.count("\n", 0, start) + 1
    return ParseError(reason, line, start - src.rfind("\n", 0, start))


def _read(toks: list[str], src: str) -> list[int]:
    """Check that the tokens hold exactly one s-expression and return, at
    the index of each ``(``, the number of items in its list.  Raises the
    reader's errors, which come before any error in what the lists hold."""
    sizes = [0] * len(toks)
    first = toks[0]
    end = 1
    if first == ")":
        raise _error("unexpected ')'", src, 0)
    if first == "(":
        opens = [0]
        for i in range(1, len(toks)):
            t = toks[i]
            if t == ")":
                opens.pop()
                if not opens:
                    end = i + 1
                    break
            else:
                sizes[opens[-1]] += 1
                if t == "(":
                    opens.append(i)
        else:
            raise _error("unclosed parenthesis", src, opens[-1])
    if end != len(toks):
        raise _error("trailing input after program", src, end)
    return sizes


def _is_identifier(text: str) -> bool:
    return not (text in KEYWORDS or text in _CONSTANTS
                or text[0] == "#" or _INT_RE.match(text))


def _build(toks: list[str], sizes: list[int], src: str) -> Expr:
    """The tree of a program that ``_read`` accepted.  Tokens come in
    preorder, so a node takes the next label when its first token is
    reached; a compound node is made when its ``)`` is, from the nodes
    its children left on ``done``.  No recursion: a program nested
    thousands deep builds like a flat one."""
    done: list[Expr] = []   # finished nodes whose parent is still open
    opens = []              # (class, label, bound variable) of open nodes
    label = 0
    i, n = 0, len(toks)
    while i < n:
        t = toks[i]
        if t == "(":
            size = sizes[i]
            if size == 0:
                raise _error("empty application", src, i)
            head = toks[i + 1]
            if head == "lambda":
                if size != 3:
                    raise _error("lambda takes a parameter list and one body",
                                 src, i)
                p = i + 2
                if toks[p] != "(":
                    raise _error("lambda parameter list must be parenthesized",
                                 src, p)
                if sizes[p] != 1:
                    raise _error("lambda takes exactly one parameter, "
                                 f"got {sizes[p]}", src, p)
                var = toks[p + 1]
                if var == "(" or not _is_identifier(var):
                    raise _error("lambda parameter must be an identifier",
                                 src, p if var == "(" else p + 1)
                opens.append((Lam, label, var))
                i = p + 3
            elif head == "if":
                if size != 4:
                    raise _error("if takes a guard and two branches", src, i)
                opens.append((If, label, None))
                i += 2
            elif size != 2:
                raise _error("application takes exactly one argument, "
                             f"got {size - 1}", src, i)
            else:
                opens.append((App, label, None))
                i += 1
            label += 1
            continue
        if t == ")":
            cls, lbl, var = opens.pop()
            if cls is App:
                arg = done.pop()
                done[-1] = App(done[-1], arg, lbl)
            elif cls is Lam:
                done[-1] = Lam(var, done[-1], lbl)
            else:
                els, then = done.pop(), done.pop()
                done[-1] = If(done[-1], then, els, lbl)
            i += 1
            continue
        if t in _CONSTANTS:
            done.append(Lit(_CONSTANTS[t], label))
        elif t[0] == "#":
            raise _error(f"unknown literal {t!r}", src, i)
        elif t in KEYWORDS:
            raise _error(f"keyword {t!r} is not an expression", src, i)
        elif t[0] in "+-0123456789" and _INT_RE.match(t):
            done.append(Lit(int(t), label))
        else:
            done.append(Var(t, label))
        label += 1
        i += 1
    return done[0]


def parse(src: str) -> Expr:
    """Parse one program, assigning preorder labels starting at 0."""
    toks = _tokens(src)
    if not toks:
        raise ParseError("empty input", 1, 1)
    return _build(toks, _read(toks, src), src)


def unparse(e: Expr) -> str:
    """The text of ``e``, which ``parse`` reads back to ``e``.  The stack
    holds the nodes still to write and the text between them."""
    out = []
    work: list = [e]
    while work:
        n = work.pop()
        if type(n) is str:
            out.append(n)
        elif isinstance(n, Var):
            out.append(n.name)
        elif isinstance(n, Lit):
            v = n.value
            out.append("#t" if v is True else "#f" if v is False else str(v))
        elif isinstance(n, Lam):
            out.append(f"(lambda ({n.var}) ")
            work += (")", n.body)
        elif isinstance(n, App):
            out.append("(")
            work += (")", n.arg, " ", n.fn)
        elif isinstance(n, If):
            out.append("(if ")
            work += (")", n.els, " ", n.then, " ", n.guard)
        else:
            raise TypeError(f"not an expression: {n!r}")
    return "".join(out)


def children(e: Expr) -> tuple[Expr, ...]:
    if isinstance(e, Lam):
        return (e.body,)
    if isinstance(e, App):
        return (e.fn, e.arg)
    if isinstance(e, If):
        return (e.guard, e.then, e.els)
    return ()


def subterms(e: Expr):
    """Every node under ``e``, ``e`` first, in preorder: label order for a
    parsed tree."""
    work = [e]
    while work:
        n = work.pop()
        yield n
        work += reversed(children(n))


def free_vars(e: Expr) -> frozenset[str]:
    """The names ``e`` reads outside every lambda binding them.  ``bound``
    counts the enclosing lambdas that bind each name; a lambda leaves its
    name on the stack under its body, and popping it leaves the scope."""
    bound: dict[str, int] = {}
    free = set()
    work: list = [e]
    while work:
        n = work.pop()
        if type(n) is str:
            bound[n] -= 1
        elif isinstance(n, Var):
            if not bound.get(n.name):
                free.add(n.name)
        elif isinstance(n, Lam):
            bound[n.var] = bound.get(n.var, 0) + 1
            work += (n.var, n.body)
        else:
            work += children(n)
    return frozenset(free)


def node_count(e: Expr) -> int:
    count = 0
    work = [e]
    while work:
        work += children(work.pop())
        count += 1
    return count
