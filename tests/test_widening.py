"""Global-store widening baseline."""

from flowladder.domains import (
    ARG_SLOT,
    FN_SLOT,
    ApC,
    ArK,
    BindAddr,
    Closure,
    CoC,
    EMPTY_ENV,
    EMPTY_STORE,
    EvC,
    FnK,
    HALT,
    IntVal,
    KontAddr,
    ValAddr,
    kcfa_policy,
)
from flowladder.syntax import node_count, parse
from flowladder.naive import explore
from flowladder.widening import analyze_baseline, inject_context, step_context

from tests.support import ctx_leq, store_leq


P0 = kcfa_policy(0)


def test_identity_final_store():
    run = analyze_baseline(parse("((lambda (x) x) 5)"), P0)
    assert run.status == "fixpoint"
    expected = {
        BindAddr("x", ()): frozenset({IntVal(5)}),
        KontAddr(0, ()): frozenset({HALT}),
        ValAddr(0, (), FN_SLOT): frozenset({Closure("x", parse("((lambda (x) x) 5)").fn.body, EMPTY_ENV)}),
        ValAddr(0, (), ARG_SLOT): frozenset({IntVal(5)}),
    }
    assert dict(run.store.items()) == expected
    assert run.values == frozenset({IntVal(5)})


def _stop_at(g):
    """A cap_check that ends a baseline run after g widening iterations."""
    return lambda n, generation: "time-cap" if generation >= g else None


def test_literal_one_step():
    e = parse("5")
    run = analyze_baseline(e, P0, cap_check=_stop_at(1))
    assert run.generations == 1
    assert run.contexts == {inject_context(e), CoC(HALT, IntVal(5))}
    assert run.store == EMPTY_STORE


def test_terminal_context_is_fixpoint():
    succs, store = step_context(CoC(HALT, IntVal(3)), EMPTY_STORE, P0)
    assert succs == []
    assert store is EMPTY_STORE


def test_fn_frame_holds_value_address():
    # co<ar<e,rho,ka>, v> allocates a_f, writes {v} there, and the new
    # fn frame carries the address, not the value
    e = parse("((lambda (x) x) 5)")
    clo = Closure("x", e.fn.body, EMPTY_ENV)
    ka = KontAddr(0, ())
    store = EMPTY_STORE.join(ka, (HALT,))
    c = CoC(ArK(e.arg, EMPTY_ENV, ka, 0, ()), clo)
    succs, store2 = step_context(c, store, P0)
    (nxt,) = succs
    af = ValAddr(0, (), FN_SLOT)
    assert isinstance(nxt, EvC)
    assert isinstance(nxt.kont, FnK)
    assert nxt.kont.fv == af
    assert store2.deref(af) == frozenset({clo})


def test_fn_address_with_two_closures_fans_out():
    e1 = parse("(lambda (a) a)")
    e2 = parse("(lambda (b) b)")
    clo1 = Closure("a", e1.body, EMPTY_ENV)
    clo2 = Closure("b", e2.body, EMPTY_ENV)
    af = ValAddr(7, (), FN_SLOT)
    ka = KontAddr(7, ())
    store = EMPTY_STORE.join(af, (clo1, clo2)).join(ka, (HALT,))
    c = CoC(FnK(af, ka, 7, ()), IntVal(1))
    succs, _ = step_context(c, store, P0)
    aps = [s for s in succs if isinstance(s, ApC)]
    assert len(aps) == 2
    assert {s.fn for s in aps} == {clo1, clo2}


def test_store_grows_monotonically(small_corpus):
    for name, src, e in small_corpus:
        final = analyze_baseline(e, P0)
        assert final.status == "fixpoint", name
        before = analyze_baseline(e, P0, cap_check=_stop_at(0))
        for g in range(final.generations + 1):
            after = analyze_baseline(e, P0, cap_check=_stop_at(g + 1))
            for addr, vals in before.store.items():
                assert vals <= after.store.deref(addr), (name, g, addr)
            assert before.contexts <= after.contexts, (name, g)
            before = after
        assert before.contexts == final.contexts, name
        assert before.store == final.store, name


def test_sound_for_naive_small_programs(corpus):
    for name, src, e in corpus:
        if node_count(e) > 25:
            continue
        naive = explore(e, P0, "abstract")
        wide = analyze_baseline(e, P0)
        assert wide.status == "fixpoint"
        for (c, store) in naive.contexts:
            assert any(ctx_leq(c, c2, wide.store) for c2 in wide.contexts), (name, c)
            assert store_leq(store, wide.store), name


def test_church_program_reaches_finite_fixpoint(corpus):
    table = {name: e for name, src, e in corpus}
    run = analyze_baseline(table["22_church_mult"], P0)
    assert run.status == "fixpoint"
    # regression pin for the monovariant context count
    assert len(run.contexts) == 86


def test_monovariant_continuation_count_linear(corpus):
    for name, src, e in corpus:
        run = analyze_baseline(e, P0)
        konts = set()
        for c in run.contexts:
            if isinstance(c, (EvC, ApC)):
                konts.add(c.kont)
            elif isinstance(c, CoC):
                konts.add(c.kont)
        for _, vals in run.store.items():
            for v in vals:
                if isinstance(v, (ArK, FnK)) or v is HALT:
                    konts.add(v)
        assert len(konts) <= 3 * node_count(e) + 4, name


def test_fanout_diamond_in_edge_set(corpus):
    # some application state has >= 2 out-edges that later reconverge
    table = {name: e for name, src, e in corpus}
    run = analyze_baseline(table["23_fanout"], P0)
    out = {}
    for s, d, _ in run.edges:
        out.setdefault(s, set()).add(d)
    branch_points = {s: ds for s, ds in out.items() if len(ds) >= 2}
    assert branch_points
    # breadth-first reconvergence: two distinct successors reach a common node
    def reach(x, limit=2000):
        seen = {x}
        work = [x]
        while work:
            y = work.pop()
            for z in out.get(y, ()):
                if z not in seen:
                    seen.add(z)
                    if len(seen) < limit:
                        work.append(z)
        return seen
    assert any(
        len(set.intersection(*(reach(d) for d in list(ds)[:2]))) > 0
        for ds in branch_points.values()
    )


def test_analyze_deterministic(corpus):
    for name, src, e in corpus[:8]:
        r1 = analyze_baseline(e, P0)
        r2 = analyze_baseline(e, P0)
        assert r1.contexts == r2.contexts
        assert r1.store == r2.store
        assert r1.edges == r2.edges
        assert r1.generations == r2.generations


def test_cap_check_stops_early():
    e = parse("((lambda (x) (x x)) (lambda (y) (y y)))")
    run = analyze_baseline(e, P0, cap_check=lambda n, g: "time-cap" if g >= 2 else None)
    assert run.status == "time-cap"
    assert run.generations == 2


def test_k1_is_finite_on_omega():
    e = parse("((lambda (x) (x x)) (lambda (y) (y y)))")
    run = analyze_baseline(e, kcfa_policy(1))
    assert run.status == "fixpoint"


def test_stuck_contexts_are_retained():
    run = analyze_baseline(parse("(5 1)"), P0)
    kinds = {type(c).__name__ for c in run.contexts}
    assert "StuckC" in kinds
    assert run.status == "fixpoint"
