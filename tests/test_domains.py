"""Times, addresses, values, environments, stores, policies, delta."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowladder.domains import (
    ARG_SLOT,
    AnalysisBugError,
    BindAddr,
    BoolVal,
    Closure,
    ConcreteAddr,
    DelayedAddr,
    EMPTY_ENV,
    EMPTY_STORE,
    EPOCH,
    Env,
    FF,
    FN_SLOT,
    IntVal,
    KontAddr,
    MutStore,
    PrimVal,
    Store,
    TT,
    ValAddr,
    ZINT,
    concrete_policy,
    delta,
    kcfa_policy,
    lit_value,
    skeleton,
)
from flowladder.engine import STAGES, Config, run
from flowladder.syntax import parse
from tests.support import load_corpus


# ---------------------------------------------------------------- times

def test_truncate_examples():
    # the k-CFA tick prepends the call site and keeps the first k labels
    assert kcfa_policy(0).tick_ap(1, (2, 3)) == ()
    assert kcfa_policy(1).tick_ap(1, (2, 3)) == (1,)
    assert kcfa_policy(3).tick_ap(1, (2, 3)) == (1, 2, 3)
    assert kcfa_policy(9).tick_ap(1, (2, 3)) == (1, 2, 3)
    assert kcfa_policy(0).tick_ap(1, EPOCH) == ()


@given(st.integers(0, 50), st.lists(st.integers(0, 50), max_size=8),
       st.integers(0, 8))
def test_truncate_is_prefix_of_bounded_length(label, xs, k):
    t = (label,) + tuple(xs)
    out = kcfa_policy(k).tick_ap(label, tuple(xs))
    assert len(out) == min(k, len(t))
    assert out == t[: len(out)]


# ------------------------------------------------------------- addresses

def test_address_identity():
    assert BindAddr("x", (1,)) == BindAddr("x", (1,))
    assert BindAddr("x", (1,)) != BindAddr("x", (2,))
    assert BindAddr("x", ()) != BindAddr("y", ())
    assert KontAddr(3, (1,)) == KontAddr(3, (1,))
    assert KontAddr(3, (1,)) != KontAddr(4, (1,))
    assert ConcreteAddr(0) == ConcreteAddr(0) != ConcreteAddr(1)


def test_value_cells_distinguish_operator_and_operand():
    f = ValAddr(5, (), FN_SLOT)
    a = ValAddr(5, (), ARG_SLOT)
    assert f != a
    assert len({f, a}) == 2


def test_addresses_usable_as_dict_keys():
    d = {BindAddr("x", ()): 1, KontAddr(0, ()): 2, ValAddr(0, (), 0): 3}
    assert d[BindAddr("x", ())] == 1
    assert d[KontAddr(0, ())] == 2


# ---------------------------------------------------------------- values

def test_bool_int_wrappers_are_distinct():
    # hash(True) == hash(1) in Python; the wrappers must not collapse
    assert IntVal(1) != BoolVal(True)
    assert IntVal(0) != BoolVal(False)
    assert len({IntVal(1), TT, IntVal(0), FF}) == 4


def test_lit_value():
    assert lit_value(7) == IntVal(7)
    assert lit_value(True) is TT
    assert lit_value(False) is FF
    assert lit_value("add1") == PrimVal("add1")


def test_abstract_int_singleton():
    assert ZINT == ZINT
    assert ZINT != IntVal(0)
    assert len({ZINT, ZINT}) == 1


def test_closure_equality():
    e = parse("(lambda (x) x)")
    c1 = Closure("x", e.body, EMPTY_ENV)
    c2 = Closure("x", e.body, EMPTY_ENV)
    assert c1 == c2 and hash(c1) == hash(c2)
    env2 = EMPTY_ENV.extend("y", BindAddr("y", ()))
    assert c1 != Closure("x", e.body, env2)


def test_delayed_addr_identity():
    a = BindAddr("x", ())
    assert DelayedAddr(a) == DelayedAddr(a)
    assert DelayedAddr(a) != DelayedAddr(BindAddr("y", ()))


# ----------------------------------------------------------- environments

def test_env_lookup_extend():
    a = BindAddr("x", ())
    b = BindAddr("y", ())
    env = EMPTY_ENV.extend("x", a)
    assert env.lookup("x") == a
    assert env.lookup("y") is None
    env2 = env.extend("y", b)
    assert env2.lookup("x") == a and env2.lookup("y") == b
    assert env.lookup("y") is None  # persistence
    assert dict(env2.items()) == {"x": a, "y": b}


def test_env_equality_order_independent():
    a = BindAddr("x", ())
    b = BindAddr("y", ())
    e1 = EMPTY_ENV.extend("x", a).extend("y", b)
    e2 = EMPTY_ENV.extend("y", b).extend("x", a)
    assert e1 == e2 and hash(e1) == hash(e2)


def test_env_shadowing():
    a0 = BindAddr("x", ())
    a1 = BindAddr("x", (3,))
    env = EMPTY_ENV.extend("x", a0).extend("x", a1)
    assert env.lookup("x") == a1
    assert len(env) == 1


# ---------------------------------------------------------------- stores

def test_store_join_and_deref():
    a = ConcreteAddr(0)
    s1 = EMPTY_STORE.join(a, (IntVal(1),))
    assert s1.deref(a) == frozenset({IntVal(1)})
    s2 = s1.join(a, (IntVal(2),))
    assert s2.deref(a) == frozenset({IntVal(1), IntVal(2)})
    assert s1.deref(a) == frozenset({IntVal(1)})  # persistence
    assert EMPTY_STORE.get(a) is None


def test_store_deref_absent_raises():
    with pytest.raises(AnalysisBugError):
        EMPTY_STORE.deref(ConcreteAddr(9))


def test_store_join_no_growth_returns_self():
    a = ConcreteAddr(0)
    s1 = EMPTY_STORE.join(a, (IntVal(1), IntVal(2)))
    assert s1.join(a, (IntVal(2),)) is s1
    assert s1.join(a, (IntVal(3),)) is not s1


def test_store_equality_and_hash():
    a, b = ConcreteAddr(0), ConcreteAddr(1)
    s1 = EMPTY_STORE.join(a, (TT,)).join(b, (FF,))
    s2 = EMPTY_STORE.join(b, (FF,)).join(a, (TT,))
    assert s1 == s2 and hash(s1) == hash(s2)
    assert s1 != s1.join(a, (FF,))
    assert a in s1 and ConcreteAddr(7) not in s1
    assert len(s1) == 2


def test_mut_store_updates_in_place():
    s = MutStore()
    a = ConcreteAddr(0)
    assert s.join(a, (IntVal(1),)) is s
    s.join(a, (IntVal(2),))
    assert s.deref(a) == frozenset({IntVal(1), IntVal(2)})
    assert s == Store({a: frozenset({IntVal(1), IntVal(2)})})


_vals = st.sampled_from([IntVal(0), IntVal(1), IntVal(2), TT, FF, ZINT])
_addrs = st.integers(0, 3).map(ConcreteAddr)


@st.composite
def stores(draw):
    s = EMPTY_STORE
    for _ in range(draw(st.integers(0, 4))):
        s = s.join(draw(_addrs), draw(st.frozensets(_vals, min_size=1, max_size=3)))
    return s


@settings(max_examples=200)
@given(stores(), stores(), stores())
def test_store_join_is_a_join(x, y, z):
    def leq(p, q):
        return all(vs <= q.get(a, frozenset()) for a, vs in p.items())

    j = x.join_store(y)
    assert leq(x, j) and leq(y, j)
    assert x.join_store(y) == y.join_store(x)
    assert x.join_store(x) == x
    assert x.join_store(y).join_store(z) == x.join_store(y.join_store(z))


# -------------------------------------------------------------- policies

def test_kcfa_tick_truncates():
    p = kcfa_policy(1)
    assert p.tick_ap(7, ()) == (7,)
    assert p.tick_ap(9, (7,)) == (9,)
    p0 = kcfa_policy(0)
    assert p0.tick_ap(7, ()) == ()
    p2 = kcfa_policy(2)
    assert p2.tick_ap(9, (7, 3)) == (9, 7)


def test_kcfa_addresses():
    p = kcfa_policy(0)
    assert p.bind_addr("x", 4, (), EMPTY_STORE) == BindAddr("x", ())
    assert p.kont_addr(4, (), EMPTY_STORE, None) == KontAddr(4, ())
    assert p.fnval_addr(4, (), EMPTY_STORE) == ValAddr(4, (), FN_SLOT)
    assert p.argval_addr(4, (), EMPTY_STORE) == ValAddr(4, (), ARG_SLOT)
    p1 = kcfa_policy(1)
    assert p1.bind_addr("x", 4, (2,), EMPTY_STORE) == BindAddr("x", (4,))


def test_kcfa_rejects_negative_k():
    with pytest.raises(ValueError):
        kcfa_policy(-1)


def test_concrete_policy_fresh():
    p = concrete_policy()
    a0 = p.bind_addr("x", 0, (), EMPTY_STORE)
    a1 = p.kont_addr(0, (), EMPTY_STORE, None)
    a2 = p.fnval_addr(0, (), EMPTY_STORE)
    assert len({a0, a1, a2}) == 3
    assert p.tick_ap(5, (1, 2)) == (1, 2)
    assert not p.finite and kcfa_policy(0).finite


# ------------------------------------------------------------------ delta

def test_delta_concrete():
    assert delta("add1", IntVal(4), "concrete") == frozenset({IntVal(5)})
    assert delta("sub1", IntVal(4), "concrete") == frozenset({IntVal(3)})
    assert delta("sub1", IntVal(0), "concrete") == frozenset({IntVal(-1)})
    assert delta("zero?", IntVal(0), "concrete") == frozenset({TT})
    assert delta("zero?", IntVal(4), "concrete") == frozenset({FF})


def test_delta_abstract():
    assert delta("add1", IntVal(4), "abstract") == frozenset({ZINT})
    assert delta("sub1", IntVal(0), "abstract") == frozenset({ZINT})
    assert delta("add1", ZINT, "abstract") == frozenset({ZINT})
    assert delta("zero?", IntVal(0), "abstract") == frozenset({TT})
    assert delta("zero?", IntVal(2), "abstract") == frozenset({FF})
    assert delta("zero?", ZINT, "abstract") == frozenset({TT, FF})


@pytest.mark.parametrize("op", ["add1", "sub1", "zero?"])
@pytest.mark.parametrize("mode", ["concrete", "abstract"])
def test_delta_type_errors(op, mode):
    e = parse("(lambda (x) x)")
    for bad in (TT, FF, PrimVal("add1"), Closure("x", e.body, EMPTY_ENV)):
        assert delta(op, bad, mode) is None


def test_delta_unknown_op():
    with pytest.raises(ValueError):
        delta("mul", IntVal(1), "concrete")


# --------------------------------------------------------------- skeleton

def test_skeleton_memo_matches_plain_rendering():
    # one memo shared across a whole result renders every context and halt
    # value exactly as a call without one does
    for name, src, e in load_corpus():
        for k in (0, 1):
            for stage in STAGES:
                r = run(Config(stage=stage, k=k), e)
                memo = {}
                for n in r.contexts:
                    c = n[0] if stage == "naive" else n
                    assert skeleton(c, memo) == skeleton(c), (name, k, stage)
                for v in r.values:
                    assert skeleton(v, memo) == skeleton(v), (name, k, stage)
                assert memo, (name, k, stage)


def test_skeleton_memo_renders_equal_sub_terms_once():
    # two equal environments built apart are one memo entry
    e = parse("(lambda (y) (lambda (z) y))")
    a = Env({"x": BindAddr("x", ())})
    b = EMPTY_ENV.extend("x", BindAddr("x", ()))
    assert a is not b
    memo = {}
    skeleton(Closure("y", e.body, a), memo)
    skeleton(Closure("z", e.body.body, b), memo)
    assert [type(t) for t in memo].count(Env) == 1
