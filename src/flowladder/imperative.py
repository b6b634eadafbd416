"""Imperative value store, transfer-function iteration, preallocation.

Every store cell is a plain value set.  A generation's sweep reads the
store in place and keeps the writes of every step in one list; once the
last context has stepped, they are joined into the cells.  So the sweep
reads the store it started with, as the ``deltas`` replay does, and each
cell keeps one version.  The machine is this sweep under the frontier
driver, packaged and traced by ``frontier.run_driven`` as every
timestamped rung is, the trace from snapshots of the cells.

A step is a function of its context and the cells it read: it sees the
store only through ``SnapshotView.deref`` and ``get``.  An allocation is
handed no store, only a label, a time and, for a binding, the variable, and
the uniform k-CFA policies build the address from those alone (the machine,
like every rung past ``naive``, is abstract and runs only under them).  No
cell changes during a sweep.  So while no cell a step read has grown,
stepping its context again would yield the same successors and the same
writes, which are already in the store.  The sweep leaves each step's
successors in the driver's memo, where the driver replays them, and files
the step under every address it read in a reverse read index.  When a cell
grows after a sweep, the steps filed under it lose their memos, and those
contexts step again the next time they come round.  This is the dependency
tracking of chaotic iteration, per cell, and leaves the timestamped
fixpoint exactly as it was.  The replay is shared: the sweep is
``frontier.replaying_sweep``, which the logged rungs (``deltas``, ``lazy``,
``compiled``) run over their persistent store as well; here it joins a
generation's writes into the value cells in place.

Preallocation puts the machine on dense integer addresses: for a uniform
k-CFA policy an address table gives each address the next free ordinal the
first time the policy allocates it, the store becomes a flat list indexed
by ordinal that grows one cell per new ordinal, and the machine runs on
plain ints instead of structured address objects.  Only addresses the run
reaches get an ordinal, so the table grows with the analysis, under the
same per-generation caps, whatever k is.  Results are decoded back to
structured addresses when the run is packaged or traced, by one decoder
per run that decodes each raw object once, so decoded contexts, edges and
the final store share their environments and continuations.
"""

from __future__ import annotations

from .domains import (
    AnalysisResult,
    ApC,
    ArK,
    Closure,
    CoC,
    DelayedAddr,
    Env,
    FnK,
    IfK,
    Store,
    UnsupportedPolicyError,
    require_abstract,
)
from .syntax import Expr
from .compiled import inject_compiled, step_compiled
from .frontier import SnapshotView, replaying_sweep, run_driven


# ------------------------------------------------------------ value cells

class HashValueStore:
    """Addr -> value set as a plain dict."""

    __slots__ = ("cells",)

    def __init__(self):
        self.cells = {}

    def join_at(self, a, vs):
        """Join vs into a's cell; returns whether the cell grew."""
        cur = self.cells.get(a)
        if cur is None:
            self.cells[a] = frozenset(vs)
            return True
        if vs <= cur:
            return False
        self.cells[a] = cur | vs
        return True

    def items(self):
        return self.cells.items()


class DenseValueStore:
    """Ordinal -> value set as a flat list, one cell per minted ordinal."""

    __slots__ = ("cells",)

    def __init__(self):
        self.cells = []

    def join_at(self, a, vs):
        """Join vs into cell a; returns whether the cell grew."""
        cur = self.cells[a]
        if cur is None:
            self.cells[a] = frozenset(vs)
            return True
        if vs <= cur:
            return False
        self.cells[a] = cur | vs
        return True

    def items(self):
        return ((i, c) for i, c in enumerate(self.cells) if c is not None)


def snapshot(vstore, decode_addr=None, decode_value=None):
    """The plain store the value cells hold."""
    m = {}
    for a, vs in vstore.items():
        if decode_value is not None:
            vs = frozenset(decode_value(v) for v in vs)
        m[a if decode_addr is None else decode_addr(a)] = vs
    return Store(m)


# ----------------------------------------------------------- preallocation

class AddressTable:
    """Dense ordinals for the addresses a uniform k-CFA policy mints, handed
    out in order of first allocation, and the allocation policy that mints
    them: each allocation asks the wrapped policy for the structured
    address and returns its ordinal, a new one the first time the address
    is seen.  Every new ordinal adds one empty cell to ``store``."""

    __slots__ = ("policy", "tick_ap", "store", "_addr", "_ordinal")

    def __init__(self, policy):
        self.policy = policy
        self.tick_ap = policy.tick_ap
        self.store = DenseValueStore()
        self._addr = []
        self._ordinal = {}

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

    def addr_of(self, ordinal: int):
        return self._addr[ordinal]

    def bind_addr(self, var, label, time):
        return self._mint(self.policy.bind_addr(var, label, time))

    def fnval_addr(self, label, time):
        return self._mint(self.policy.fnval_addr(label, time))

    def argval_addr(self, label, time):
        return self._mint(self.policy.argval_addr(label, time))

    def kont_addr(self, label, time):
        return self._mint(self.policy.kont_addr(label, time))


def preallocate(policy) -> AddressTable:
    """An empty address table for the policy.  Only finite uniform policies
    qualify; the concrete freshness policy has no bound."""
    if not getattr(policy, "finite", False):
        raise UnsupportedPolicyError(
            f"cannot preallocate for {policy!r}: unbounded address space")
    return AddressTable(policy)


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

def run_imperative(e: Expr, policy, mode: str = "abstract", cap_check=None,
                   prealloc: bool = False, trace=None) -> AnalysisResult:
    """Iterate the transfer function to an empty frontier.  ``trace`` is
    ``frontier.run_driven``'s, decoded under preallocation."""
    require_abstract(mode, policy)
    return run_machine(e, policy, cap_check, prealloc, trace)[0]


def run_machine(e: Expr, policy, cap_check=None, prealloc: bool = False,
                trace=None):
    """run_imperative's result next to the machine it leaves: (result,
    vstore, layout).  vstore holds the raw value cells; layout is the
    address table, None for the hash store."""
    layout = dec_a = dec = None
    pol = policy
    if prealloc:
        layout = pol = preallocate(policy)
        vstore = layout.store
        dec_a, dec = layout.addr_of, decoder(layout)
    else:
        vstore = HashValueStore()

    first, log0 = inject_compiled(e, pol)
    for a, vs in log0:
        vstore.join_at(a, vs)

    def join(writes):
        # in place, so the view already reads the cells the writes leave
        join_at = vstore.join_at
        grown = []
        for a, vs in writes:
            if join_at(a, vs):
                grown.append(a)
        return grown

    result = run_driven(
        e, first,
        replaying_sweep(step_compiled, pol, SnapshotView(vstore.cells), join),
        lambda: snapshot(vstore, dec_a, dec), cap_check, trace, dec)
    return result, vstore, layout
