"""Imperative value-stack store, transfer-function iteration, preallocation.

Every store cell is a stack of timestamped value sets, newest first.  A
write during generation t lands in an entry stamped t+1, invisible to the
time-filtered lookup the current generation uses, so the store can be
updated in place while it is being read: a generation always sees the
snapshot it started with.  The stacks record the whole widening history;
snapshotting them at each timestamp reproduces the store chain of the
persistent stages entry for entry.  The machine is this in-place sweep
under the frontier driver (``frontier.drive``).

Preallocation puts the machine on dense integer addresses: for a uniform
k-CFA policy an address table gives each address the next free ordinal the
first time the policy allocates it, the store becomes a flat list indexed
by ordinal that grows one cell per new ordinal, and the machine runs on
plain ints instead of structured address objects.  Only addresses the run
reaches get an ordinal, so the table grows with the analysis, under the
same per-generation caps, whatever k is.  Results are decoded back to
structured addresses when the run is packaged, by one decoder per run that
decodes each raw object once, so decoded contexts, edges and the final
store share their environments and continuations.
"""

from __future__ import annotations

from .domains import (
    AnalysisBugError,
    AnalysisResult,
    ApC,
    ArK,
    BindAddr,
    Closure,
    CoC,
    DelayedAddr,
    Env,
    FnK,
    IfK,
    KontAddr,
    Store,
    ValAddr,
    FN_SLOT,
    ARG_SLOT,
    halt_values,
)
from .syntax import Expr
from .compiled import inject_compiled, step_compiled
from .frontier import drive, newest_first


class UnsupportedPolicyError(ValueError):
    """Raised when preallocation is asked for an unbounded address space."""


# ----------------------------------------------------------- value stacks

def lookup(stack, t):
    """Value set visible at time t: the top entry unless it is stamped in
    the future, then the one below it.  The machine never creates more than
    one future entry, so deeper inspection would indicate a broken engine."""
    if not stack:
        raise AnalysisBugError("lookup on an empty value stack")
    stamp, vs = stack[0]
    if stamp <= t:
        return vs
    if len(stack) < 2:
        raise AnalysisBugError("value stack holds only a future entry")
    stamp2, vs2 = stack[1]
    if stamp2 > t:
        raise AnalysisBugError("two future entries on one value stack")
    return vs2


def join_at_stack(stack, vs, t):
    """Merge vs into a non-empty stack in place at time t.  Returns whether
    anything grew.  New material becomes visible at t+1."""
    stamp, top = stack[0]
    if vs <= top:
        return False
    if stamp > t:
        stack[0] = (stamp, top | vs)
    else:
        stack.insert(0, (t + 1, top | vs))
    return True


def check_stack(stack, t=None):
    """Invariant probe: stamps strictly decrease downward, value sets grow
    toward the top, and at most one entry sits in the future of t."""
    for (s1, v1), (s2, v2) in zip(stack, stack[1:]):
        if s1 <= s2:
            return False
        if not v2 <= v1:
            return False
    if t is not None:
        if sum(1 for s, _ in stack if s > t) > 1:
            return False
        if stack and stack[0][0] > t + 1:
            return False
    return True


class HashValueStore:
    """Addr -> ValStack as a plain dict."""

    __slots__ = ("cells",)

    def __init__(self):
        self.cells = {}

    def join_at(self, a, vs, t):
        stack = self.cells.get(a)
        if stack is None:
            self.cells[a] = [(t, frozenset(vs))]
            return True
        return join_at_stack(stack, vs, t)

    def get_stack(self, a):
        return self.cells.get(a)

    def addresses(self):
        return self.cells.keys()

    def items(self):
        return self.cells.items()


class DenseValueStore:
    """Ordinal -> ValStack as a flat list, one cell per minted ordinal."""

    __slots__ = ("cells",)

    def __init__(self):
        self.cells = []

    def join_at(self, a, vs, t):
        stack = self.cells[a]
        if stack is None:
            self.cells[a] = [(t, frozenset(vs))]
            return True
        return join_at_stack(stack, vs, t)

    def get_stack(self, a):
        return self.cells[a]

    def addresses(self):
        return (i for i, s in enumerate(self.cells) if s is not None)

    def items(self):
        return ((i, s) for i, s in enumerate(self.cells) if s is not None)


class SnapshotView:
    """Read-only store facade fixing the observation time.  What the
    compiled stepper sees during one generation.  The hot paths repeat
    lookup's two-entry scan inline."""

    __slots__ = ("_fetch", "t")

    def __init__(self, vstore, t):
        cells = vstore.cells
        # dense lists hold None placeholders, so plain indexing matches
        # dict.get's absent-is-None contract
        self._fetch = cells.__getitem__ if isinstance(cells, list) else cells.get
        self.t = t

    def deref(self, a):
        stack = self._fetch(a)
        if stack is None:
            raise AnalysisBugError(f"lookup of absent address {a!r}")
        entry = stack[0]
        if entry[0] <= self.t:
            return entry[1]
        return stack[1][1]

    def get(self, a, default=None):
        stack = self._fetch(a)
        if stack is None:
            return default
        entry = stack[0]
        if entry[0] <= self.t:
            return entry[1]
        return stack[1][1]


# ------------------------------------------------- snapshot/chain algebra

def _effective(stack):
    """(effective stamp, vs) pairs, newest first.  The bottom entry records
    the address's first write, performed during the generation one before
    its visibility, so its effective stamp is stamp + 1; every other entry
    is already stamped with its visibility time."""
    n = len(stack)
    return [(s + 1 if i == n - 1 else s, vs) for i, (s, vs) in enumerate(stack)]


def snapshot(vstore, tau, decode_addr=None, decode_value=None):
    """The plain store visible at timestamp tau."""
    m = {}
    for a, stack in vstore.items():
        for s, vs in _effective(stack):
            if s <= tau:
                if decode_value is not None:
                    vs = frozenset(decode_value(v) for v in vs)
                m[a if decode_addr is None else decode_addr(a)] = vs
                break
    return Store(m)


def stacks_to_chain(vstore, t, decode_addr=None, decode_value=None):
    """Snapshots at t, t-1, ..., 0, the persistent store chain, newest
    first."""
    return tuple(
        snapshot(vstore, tau, decode_addr, decode_value)
        for tau in range(t, -1, -1)
    )


def chain_to_stacks(chain):
    """Rebuild value stacks denoting the given chain (newest first).  The
    result is canonical: snapshotting it at each timestamp reproduces the
    chain entry for entry.  Live stacks can carry one extra shade the chain
    cannot record, a fresh cell written twice within a single generation,
    so the faithful comparison is through snapshots, not raw entries."""
    oldest_first = list(reversed(chain))
    stacks = {}
    for i, store in enumerate(oldest_first):
        for a, vs in store.items():
            stack = stacks.get(a)
            if stack is None:
                stacks[a] = [(i - 1, vs)]
            elif stack[0][1] != vs:
                stack.insert(0, (i, vs))
    return stacks


# ----------------------------------------------------------- preallocation

class AddressTable:
    """Dense ordinals for the addresses a uniform k-CFA policy mints, handed
    out in order of first allocation, and the allocation policy that mints
    them.  Each allocation is looked up by a plain tuple of the policy's
    arguments, (var, label, time) for a binding and (label, time) for a
    continuation or value cell; only the first time a tuple is seen is the
    structured address built and given an ordinal, or the ordinal it already
    has when another tuple named it first.  Every new ordinal adds one empty
    cell to ``store``."""

    __slots__ = ("k", "store", "_addr", "_ordinal", "_bind", "_kont", "_fn", "_arg")

    def __init__(self, k: int):
        self.k = k
        self.store = DenseValueStore()
        self._addr = []
        self._ordinal = {}
        self._bind = {}
        self._kont = {}
        self._fn = {}
        self._arg = {}

    @property
    def size(self) -> int:
        return len(self._addr)

    def _mint(self, addr) -> int:
        i = self._ordinal.get(addr)
        if i is None:
            i = self._ordinal[addr] = len(self._addr)
            self._addr.append(addr)
            self.store.cells.append(None)
        return i

    def ordinal_of(self, addr) -> int:
        return self._ordinal[addr]

    def addr_of(self, ordinal: int):
        return self._addr[ordinal]

    def tick_ap(self, label, time):
        # KCfaPolicy's tick: the call string cut to its first k entries
        return ((label,) + time)[:self.k]

    def bind_addr(self, var, label, time, store):
        key = (var, label, time)
        try:
            return self._bind[key]
        except KeyError:
            i = self._bind[key] = self._mint(
                BindAddr(var, self.tick_ap(label, time)))
            return i

    def fnval_addr(self, label, time, store):
        key = (label, time)
        try:
            return self._fn[key]
        except KeyError:
            i = self._fn[key] = self._mint(ValAddr(label, time, FN_SLOT))
            return i

    def argval_addr(self, label, time, store):
        key = (label, time)
        try:
            return self._arg[key]
        except KeyError:
            i = self._arg[key] = self._mint(ValAddr(label, time, ARG_SLOT))
            return i

    def kont_addr(self, label, time, store, kont):
        key = (label, time)
        try:
            return self._kont[key]
        except KeyError:
            i = self._kont[key] = self._mint(KontAddr(label, time))
            return i


def preallocate(policy) -> AddressTable:
    """An empty address table for the policy.  Only finite uniform policies
    qualify; the concrete freshness policy has no bound."""
    if not getattr(policy, "finite", False):
        raise UnsupportedPolicyError(
            f"cannot preallocate for {policy!r}: unbounded address space")
    return AddressTable(policy.k)


# ------------------------------------------------------- ordinal decoding

def decoder(layout):
    """One run's decoder from ordinals back to structured addresses.  It
    memoizes by raw object, so each raw context, environment, closure,
    delayed address and continuation is decoded once, and raw objects that
    are equal, such as the two ends of an edge and the seen context they
    name, or contexts that share an environment, decode to one shared
    object.  Whatever holds no address (halt, stuck contexts, base values)
    passes through unchanged."""
    addr = layout.addr_of
    memo = {}

    def decode(obj):
        out = memo.get(obj)
        if out is not None:
            return out
        cls = type(obj)
        if cls is Env:
            out = Env({x: addr(a) for x, a in obj.items()})
        elif cls is CoC:
            out = CoC(decode(obj.kont), decode(obj.val))
        elif cls is ApC:
            out = ApC(decode(obj.fn), addr(obj.arg), decode(obj.kont),
                      obj.label, obj.time)
        elif cls is Closure:
            out = Closure(obj.var, obj.body, decode(obj.env))
        elif cls is ArK:
            out = ArK(obj.expr, decode(obj.env), addr(obj.kaddr), obj.label,
                      obj.time)
        elif cls is FnK:
            out = FnK(addr(obj.fv), addr(obj.kaddr), obj.label, obj.time)
        elif cls is IfK:
            out = IfK(obj.then, obj.els, decode(obj.env), addr(obj.kaddr),
                      obj.time)
        elif cls is DelayedAddr:
            out = DelayedAddr(addr(obj.addr))
        else:
            out = obj
        memo[obj] = out
        return out

    return decode


# ------------------------------------------------------------ the machine

def snapshot_chain(vstore, t, layout=None):
    """All snapshots newest first, index i being the store at time t-i;
    ordinals are decoded through the address table ``layout`` when the
    stacks are dense."""
    if layout is None:
        return stacks_to_chain(vstore, t)
    return stacks_to_chain(vstore, t, layout.addr_of, decoder(layout))


def run_imperative(e: Expr, policy, mode: str = "abstract", cap_check=None,
                   prealloc: bool = False, trace=None) -> AnalysisResult:
    """Iterate the transfer function to an empty frontier.

    ``trace``, if a list, receives per generation a tuple (t, frontier,
    snapshot-at-t before the sweep, snapshot-at-t after, snapshot-at-t+1
    after, changed): in-place writes during a generation must never alter
    the snapshot the generation reads, and the changed flag must coincide
    with growth from the t snapshot to the t+1 one."""
    return run_machine(e, policy, mode, cap_check, prealloc, trace)[0]


def run_machine(e: Expr, policy, mode: str = "abstract", cap_check=None,
                prealloc: bool = False, trace=None):
    """run_imperative's result next to the machine it leaves: (result,
    seen, vstore, layout, t).  seen maps each decoded context to its stamps,
    newest first; vstore holds the raw value stacks; layout is the address
    table, None for the hash store; t is the final clock."""
    layout = None
    pol = policy
    if prealloc:
        layout = pol = preallocate(policy)
        vstore = layout.store
        dec_a = layout.addr_of
        dec = decoder(layout)
    else:
        vstore = HashValueStore()
        dec_a = dec = None

    first, log0 = inject_compiled(e, pol)
    for a, vs in log0:
        vstore.join_at(a, vs, -1)

    def sweep(order, t):
        if trace is not None:
            before = snapshot(vstore, t, dec_a, dec)
        view = SnapshotView(vstore, t)
        join_at = vstore.join_at
        changed = False
        produced = []
        for c in order:
            for c2, log in step_compiled(c, view, pol, mode):
                produced.append((c, c2))
                for a, vs in log:
                    if join_at(a, vs, t):
                        changed = True
        if trace is not None:
            trace.append((t, tuple(order), before, snapshot(vstore, t, dec_a, dec),
                          snapshot(vstore, t + 1, dec_a, dec), changed))
        return produced, changed

    seen, edges, generations, status, t = drive(first, sweep, cap_check)
    store = snapshot(vstore, t, dec_a, dec)
    seen = newest_first(seen)
    initial = first[0]
    if layout is not None:
        seen = {dec(c): stamps for c, stamps in seen.items()}
        edges = frozenset((dec(s), dec(d), g) for s, d, g in edges)
        initial = dec(initial)
    contexts = frozenset(seen)
    result = AnalysisResult(
        program=e, contexts=contexts, edges=edges, store=store, chain=None,
        status=status, generations=generations, initial=initial,
        values=halt_values(contexts, store))
    return result, seen, vstore, layout, t
