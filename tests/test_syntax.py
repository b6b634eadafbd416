"""Parser, labeling, and syntax utilities."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowladder.syntax import (
    PRIM_NAMES,
    App,
    If,
    Lam,
    Lit,
    ParseError,
    Var,
    children,
    free_vars,
    node_count,
    parse,
    subterms,
    unparse,
)
from flowladder.precision import binders
from tests.reference import descendant_labels, label_table, recursive_free_vars
from tests.support import random_program, random_source


def test_labels_identity_application():
    e = parse("((lambda (x) x) 5)")
    assert isinstance(e, App) and e.label == 0
    assert isinstance(e.fn, Lam) and e.fn.label == 1
    assert isinstance(e.fn.body, Var) and e.fn.body.label == 2
    assert e.fn.body.name == "x"
    assert isinstance(e.arg, Lit) and e.arg.label == 3 and e.arg.value == 5


def test_labels_if_with_primitive_guard():
    e = parse("(if (zero? 0) 1 2)")
    assert isinstance(e, If) and e.label == 0
    g = e.guard
    assert isinstance(g, App) and g.label == 1
    assert isinstance(g.fn, Lit) and g.fn.value == "zero?" and g.fn.label == 2
    assert isinstance(g.arg, Lit) and g.arg.value == 0 and g.arg.label == 3
    assert e.then.label == 4 and e.els.label == 5


def test_labels_are_preorder_everywhere(corpus):
    for _, _, e in corpus:
        labels = [n.label for n in subterms(e)]
        assert labels == list(range(node_count(e)))


def test_label_table_is_total(corpus):
    for _, _, e in corpus:
        table = label_table(e)
        assert sorted(table) == list(range(node_count(e)))
        for lbl, node in table.items():
            assert node.label == lbl


def test_descendant_labels_strict():
    e = parse("((lambda (x) x) 5)")
    d = descendant_labels(e)
    assert d[0] == frozenset({1, 2, 3})
    assert d[1] == frozenset({2})
    assert d[2] == frozenset()
    assert d[3] == frozenset()


def test_bool_literals():
    t = parse("#t")
    f = parse("#f")
    assert isinstance(t, Lit) and t.value is True
    assert isinstance(f, Lit) and f.value is False


def test_bool_and_int_literal_not_confused():
    # Python's True == 1; the AST must still keep them apart
    assert parse("#t") != parse("1")


def test_negative_integer_literal():
    e = parse("-3")
    assert isinstance(e, Lit) and e.value == -3


def test_primitives_parse_as_literals():
    for name in ("zero?", "add1", "sub1"):
        e = parse(name)
        assert isinstance(e, Lit) and e.value == name


def test_comments_ignored():
    e = parse("; leading comment\n(add1 ; inline\n 1) ; trailing")
    assert isinstance(e, App)
    assert e.fn.value == "add1" and e.arg.value == 1


def test_unparse_round_trip_corpus(corpus):
    for name, _, e in corpus:
        again = parse(unparse(e))
        assert again == e, name  # labels are reassigned identically in preorder


def test_unparse_round_trip_random():
    rng = random.Random(11)
    for _ in range(200):
        e = parse(random_source(rng, budget=rng.randrange(2, 30)))
        assert parse(unparse(e)) == e


# ------------------------------------------------- generated round trips

_NAMES = ("x", "y", "f", "acc", "n1")
_SEPARATORS = (" ", "\t", "\n", "\r\n", " \t ", "; note\n",
               "\r\n;(x) ;)\r\n\t")


@st.composite
def closed_shapes(draw, scope=(), depth=0):
    """A closed program as nested tuples: ("var", name), ("lit", value),
    ("lam", name, body), ("app", fn, arg), ("if", guard, then, els)."""
    leaves = [st.tuples(st.just("lit"), st.integers(-999, 999)
                        | st.booleans() | st.sampled_from(PRIM_NAMES))]
    if scope:
        leaves.append(st.tuples(st.just("var"), st.sampled_from(scope)))
    kinds = ["leaf"] + (["lam", "app", "if"] if depth < 4 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "leaf":
        return draw(st.one_of(leaves))
    if kind == "lam":
        x = draw(st.sampled_from(_NAMES))
        return ("lam", x, draw(closed_shapes(scope + (x,), depth + 1)))
    arity = 2 if kind == "app" else 3
    return (kind, *(draw(closed_shapes(scope, depth + 1))
                    for _ in range(arity)))


def labeled(shape):
    """The expression of a shape, labeled in preorder from 0."""
    next_label = 0

    def build(sh):
        nonlocal next_label
        label = next_label
        next_label += 1
        kind = sh[0]
        if kind == "var":
            return Var(sh[1], label)
        if kind == "lit":
            return Lit(sh[1], label)
        if kind == "lam":
            return Lam(sh[1], build(sh[2]), label)
        parts = [build(c) for c in sh[1:]]
        return App(*parts, label) if kind == "app" else If(*parts, label)

    return build(shape)


@settings(max_examples=200, deadline=None)
@given(closed_shapes(), st.data())
def test_unparse_round_trip_generated(shape, data):
    e = labeled(shape)
    text = unparse(e)
    assert parse(text) == e
    # any run of spaces, tabs, CRLF or LF line ends and comments between
    # tokens leaves the tree and its labels as they were
    tokens = re.findall(r"[()]|[^ ()]+", text)
    seps = data.draw(st.lists(st.sampled_from(_SEPARATORS),
                              min_size=len(tokens) + 1,
                              max_size=len(tokens) + 1))
    spaced = seps[0] + "".join(t + sep for t, sep in zip(tokens, seps[1:]))
    assert parse(spaced) == e
    assert parse(spaced + "; no newline at the end") == e


def test_deep_program_parses_without_recursion():
    depth = 3000
    e = parse("((lambda (x) " + "(add1 " * depth + "x" + ")" * depth
              + ") 5)")
    assert isinstance(e, App) and e.label == 0 and e.fn.label == 1
    node = e.fn.body
    for i in range(depth):
        assert isinstance(node, App) and node.label == 2 + 2 * i
        assert node.fn.value == "add1" and node.fn.label == 3 + 2 * i
        node = node.arg
    assert isinstance(node, Var) and node.name == "x"
    assert node.label == 2 + 2 * depth
    assert e.arg.value == 5 and e.arg.label == 3 + 2 * depth


def test_every_walk_takes_any_depth():
    # a chain 10,000 deep and 3,000 nested lambdas; trees this deep are
    # compared as text, since Term.__eq__ still recurses
    depth = 10_000
    chain = ("((lambda (x) " + "(add1 " * depth + "x" + ")" * depth
             + ") 5)")
    e = parse(chain)
    assert node_count(e) == 2 * depth + 4
    assert free_vars(e) == frozenset()
    assert free_vars(e.fn.body) == frozenset({"x"})
    assert binders(e) == (("x", 1),)
    assert unparse(e) == chain
    assert repr(e) == "e0"

    depth = 3000
    nest = ("".join(f"(lambda (x{i % 7}) " for i in range(depth))
            + "(x0 y)" + ")" * depth)
    e = parse(nest)
    assert node_count(e) == depth + 3
    assert free_vars(e) == frozenset({"y"})
    assert binders(e) == tuple((f"x{i % 7}", i) for i in range(depth))
    assert [n.label for n in subterms(e)] == list(range(depth + 3))
    assert unparse(e) == nest


def test_free_vars():
    assert free_vars(parse("(lambda (x) (x y))")) == frozenset({"y"})
    assert free_vars(parse("(lambda (x) (lambda (y) (x y)))")) == frozenset()
    assert free_vars(parse("(if a b c)")) == frozenset({"a", "b", "c"})
    assert free_vars(parse("5")) == frozenset()


def test_corpus_is_closed_and_small(corpus):
    assert len(corpus) >= 30
    for name, _, e in corpus:
        assert free_vars(e) == frozenset(), name
        assert node_count(e) <= 60, name


def test_shadowing_free_vars():
    e = parse("((lambda (x) ((lambda (x) x) 1)) 2)")
    assert free_vars(e) == frozenset()
    # a use beside a lambda binding its name is free, on either side of
    # it; inside an outer lambda binding the name too, it stays bound
    for src in ("((lambda (x) x) x)", "(x (lambda (x) x))",
                "(if x (lambda (x) (lambda (x) x)) 1)"):
        assert free_vars(parse(src)) == frozenset({"x"}), src
    for src in ("(lambda (x) ((lambda (x) x) x))",
                "(lambda (x) (x (lambda (x) x)))"):
        assert free_vars(parse(src)) == frozenset(), src


def test_free_vars_matches_the_recursive_definition(corpus):
    # every subterm, so open terms and shadowed names are checked too
    rng = random.Random(5)
    programs = [e for _, _, e in corpus]
    programs += [random_program(rng, rng.randrange(2, 40)) for _ in range(300)]
    for e in programs:
        for n in subterms(e):
            assert free_vars(n) == recursive_free_vars(n), unparse(n)


ONE_ARG = "application takes exactly one argument, got {}"
ONE_PARAM = "lambda takes exactly one parameter, got {}"
NOT_IDENT = "lambda parameter must be an identifier"
LAMBDA_ARITY = "lambda takes a parameter list and one body"
IF_ARITY = "if takes a guard and two branches"
UNCLOSED = "unclosed parenthesis"
TRAILING = "trailing input after program"


PARSE_ERRORS = [
    ("", "empty input", 1, 1),
    ("   ; only a comment", "empty input", 1, 1),
    ("(", UNCLOSED, 1, 1),
    (")", "unexpected ')'", 1, 1),
    (") (", "unexpected ')'", 1, 1),
    ("()", "empty application", 1, 1),
    ("(f 1 2)", ONE_ARG.format(2), 1, 1),
    ("(f)", ONE_ARG.format(0), 1, 1),
    ("(lambda (x))", LAMBDA_ARITY, 1, 1),
    ("(lambda (x) 1 2)", LAMBDA_ARITY, 1, 1),
    ("(lambda x 1)", "lambda parameter list must be parenthesized", 1, 9),
    ("(lambda (x y) x)", ONE_PARAM.format(2), 1, 9),
    ("(lambda () 1)", ONE_PARAM.format(0), 1, 9),
    ("(lambda (5) 1)", NOT_IDENT, 1, 10),
    ("(lambda (lambda) 1)", NOT_IDENT, 1, 10),
    ("(lambda (zero?) 1)", NOT_IDENT, 1, 10),
    # a parameter that is a list is reported at the parameter list
    ("(lambda ((x)) x)", NOT_IDENT, 1, 9),
    ("(lambda ((x) y) x)", ONE_PARAM.format(2), 1, 9),
    ("(if 1 2)", IF_ARITY, 1, 1),
    ("(if 1 2 3 4)", IF_ARITY, 1, 1),
    ("(lambda (x) (if x))", IF_ARITY, 1, 13),
    ("lambda", "keyword 'lambda' is not an expression", 1, 1),
    ("if", "keyword 'if' is not an expression", 1, 1),
    ("#q", "unknown literal '#q'", 1, 1),
    ("(#q (f 1 2))", "unknown literal '#q'", 1, 2),
    ("(add1 1) extra", TRAILING, 1, 10),
    ("(add1 1) )", TRAILING, 1, 10),
    ("((add1 1)", UNCLOSED, 1, 1),
    ("((add1 1", UNCLOSED, 1, 2),
    # the reader's errors come before the builder's
    ("((lambda (x y) x) 1", UNCLOSED, 1, 1),
    ("(f 1 2", UNCLOSED, 1, 1),
    # the builder's come in preorder: a list's arity before its items
    ("((lambda (x) x)\n  (f #q 2))", ONE_ARG.format(2), 2, 3),
    # comments, up to the end of input
    ("(add1 1 ; unclosed", UNCLOSED, 1, 1),
    ("(f ; )\n 1 2)", ONE_ARG.format(2), 1, 1),
    ("(add1\n #q) ; trailing comment", "unknown literal '#q'", 2, 2),
    ("(add1 1) ; c\nextra", TRAILING, 2, 1),
    ("(add1 1)\n#q ; c", TRAILING, 2, 1),
    # a CR is a column of its line, at a CRLF line end too
    ("(add1\r#q)", "unknown literal '#q'", 1, 7),
    ("(add1\r\n  (f 1 2))", ONE_ARG.format(2), 2, 3),
    ("(add1 1)\r\n)", TRAILING, 2, 1),
    ("(if #t 1 #q)\r\n; end", "unknown literal '#q'", 1, 10),
    ("; c\n(lambda\t(x)\r\n #t #f)", LAMBDA_ARITY, 2, 1),
    # a tab is one column
    ("\t(add1\t#q)", "unknown literal '#q'", 1, 8),
    ("(lambda (x)\r\n\t(x x x))", ONE_ARG.format(2), 2, 2),
    # only space, tab, CR and LF separate atoms
    ("(add1\xa01)", ONE_ARG.format(0), 1, 1),
]


@pytest.mark.parametrize("src, reason, line, col", PARSE_ERRORS,
                         ids=[case[0] for case in PARSE_ERRORS])
def test_parse_errors(src, reason, line, col):
    with pytest.raises(ParseError) as ei:
        parse(src)
    err = ei.value
    assert (err.reason, err.line, err.col) == (reason, line, col)
    assert str(err) == f"{reason} (line {line}, column {col})"


def test_parse_error_positions():
    with pytest.raises(ParseError) as ei:
        parse("(add1\n  (f 1 2))")
    assert ei.value.line == 2 and ei.value.col == 3
    assert "exactly one argument" in ei.value.reason

    with pytest.raises(ParseError) as ei:
        parse("(add1 1")
    assert ei.value.reason == "unclosed parenthesis"
    assert ei.value.line == 1 and ei.value.col == 1

    with pytest.raises(ParseError) as ei:
        parse("1 2")
    assert ei.value.reason == "trailing input after program"
    assert ei.value.col == 3


def test_node_count_matches_children():
    e = parse("(if (zero? 0) (lambda (x) x) 2)")
    assert node_count(e) == 7
    assert len(children(e)) == 3
    assert children(parse("5")) == ()


def test_expr_equality_is_label_sensitive():
    a = parse("(add1 1)")
    b = parse("(sub1 1)")
    assert a != b
    # same shape embedded at different labels compares unequal
    outer = parse("(add1 (add1 1))")
    assert outer.arg != a
