"""Imperative value store, transfer-function iteration, preallocation.

Every store cell is a plain value set.  A generation's sweep reads the
store in place and keeps the writes of every step in one list; once the
last context has stepped, they are joined into the cells.  So the sweep
reads the store it started with, as the ``deltas`` replay does, and each
cell keeps one version.  The machine is this sweep under the frontier
driver, run and traced by ``frontier.run_driven`` as every
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

Preallocation interns the machine's addresses: the preallocated store is
the hash store that is also the allocation policy, and for a uniform k-CFA
policy it keeps each structured address the first time the policy
allocates it and returns that object for every later equal allocation.
The address gets its cell at its first join, as in the hash store, keyed
by the kept object, so a cell is found by identity.  Only addresses the
run joins into get a cell, so the store grows with the analysis, under
the same per-generation caps, whatever k is.  The contexts, environments,
continuations and closures the steps build hold the store's own
addresses, so the fixpoint is kept and traced as it stands, with no pass
to translate it back.
"""

from __future__ import annotations

from .domains import (
    AnalysisResult,
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

    @property
    def size(self) -> int:
        return len(self.cells)

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


def snapshot(vstore):
    """The plain store the value cells hold: a copy of the cells' dict,
    which reuses its stored hashes."""
    return Store(vstore.cells.copy())


# ----------------------------------------------------------- preallocation

class DenseValueStore(HashValueStore):
    """The preallocated store, which is also the allocation policy: each
    allocation asks the wrapped uniform k-CFA policy for the structured
    address and returns the store's own object for it, kept the first time
    the address is seen.  Every later equal allocation returns the kept
    object, so ``cells`` finds each cell, made at the address's first
    join, by identity."""

    __slots__ = ("policy", "tick_ap", "_kept")

    def __init__(self, policy):
        super().__init__()
        self.policy = policy
        self.tick_ap = policy.tick_ap
        self._kept = {}

    # perfbench/layers.py wraps join_at in each class's own __dict__, so
    # each write is counted once under the class that made it; the
    # inherited method is named here for that
    join_at = HashValueStore.join_at

    def _intern(self, addr):
        return self._kept.setdefault(addr, addr)

    def bind_addr(self, var, label, time):
        return self._intern(self.policy.bind_addr(var, label, time))

    def fnval_addr(self, label, time):
        return self._intern(self.policy.fnval_addr(label, time))

    def argval_addr(self, label, time):
        return self._intern(self.policy.argval_addr(label, time))

    def kont_addr(self, label, time):
        return self._intern(self.policy.kont_addr(label, time))


def preallocate(policy) -> DenseValueStore:
    """An empty preallocated store for the policy.  Only finite uniform
    policies qualify; the concrete freshness policy has no bound."""
    if not getattr(policy, "finite", False):
        raise UnsupportedPolicyError(
            f"cannot preallocate for {policy!r}: unbounded address space")
    return DenseValueStore(policy)


# ------------------------------------------------------------ the machine

def run_imperative(e: Expr, policy, mode: str = "abstract", cap_check=None,
                   prealloc: bool = False, trace=None) -> AnalysisResult:
    """Iterate the transfer function to an empty frontier.  ``trace`` is
    ``frontier.run_driven``'s."""
    require_abstract(mode, policy)
    return run_machine(e, policy, cap_check, prealloc, trace)[0]


def run_machine(e: Expr, policy, cap_check=None, prealloc: bool = False,
               trace=None):
    """run_imperative's result next to the value store it leaves: (result,
    vstore).  Under preallocation vstore is also the allocation policy, and
    it holds a cell for each address a write reached."""
    if prealloc:
        vstore = pol = preallocate(policy)
    else:
        vstore, pol = HashValueStore(), policy
    view = SnapshotView(vstore.cells)

    def join(writes):
        # in place, so the view already reads the cells the writes leave
        join_at = vstore.join_at
        grown = []
        for a, vs in writes:
            if join_at(a, vs):
                grown.append(a)
        return grown

    first, log0 = inject_compiled(e, pol)
    join(log0)
    result = run_driven(e, first,
                        replaying_sweep(step_compiled, pol, view, join),
                        lambda: snapshot(vstore), cap_check, trace)
    return result, vstore
