"""Deterministic fault injection for crash-consistency testing.

Mutation paths through the system carry named *fault points*
(:func:`fault_point` calls).  A test arms a :class:`FaultPlan` for a site;
the Nth time execution reaches that site, :class:`InjectedFault` is raised.
Everything is deterministic — the same program with the same plan fails at
exactly the same operation — so rollback behavior can be asserted
statement by statement.

When nothing is armed, a fault point is a single global load and an early
return; the hooks are compiled into the production code paths permanently.

The registered sites (``FAULT_SITES``) span every layer that mutates
database state:

========================  ====================================================
site                      fires on
========================  ====================================================
``btree.insert``          every ``BTree.insert`` (so the Nth tuple of a bulk
                          ``stream_insert`` can fail mid-stream)
``btree.delete``          every ``BTree.delete``
``btree.modify``          each in-situ replacement of ``modify_tuples``
``btree.re_insert``       each delete+reinsert pair of ``re_insert_tuples``
``lsdtree.insert``        every ``LSDTree.insert``
``lsdtree.delete``        every ``LSDTree.delete``
``tidrel.insert``         every ``TidRelation.insert``
``tidrel.delete``         every ``TidRelation.delete``
``tidrel.replace``        every ``TidRelation.replace``
``srel.append``           every ``SRel.append``
``catalog.insert``        every ``CatalogValue.insert``
``catalog.remove``        every ``CatalogValue.remove``
``rel.insert``            model-level relation inserts
``rel.delete``            model-level relation deletes
``rel.modify``            model-level relation modifies
``evaluator.apply``       every operator application in the evaluator
``database.set_value``    every object (re)binding in the catalog
``optimizer.rule``        every accepted rewrite in the rule engine
``wal.append``            mid-frame in every WAL record append (the first
                          half of the frame is flushed, the rest is not —
                          a genuine torn write)
``wal.fsync``             before every WAL fsync
``wal.checkpoint.write``  mid-write of the checkpoint temp file
``wal.checkpoint.swap``   on both sides of the atomic checkpoint rename
``recovery.replay``       before each committed WAL statement replayed
                          during recovery
``mvcc.commit``           at MVCC transaction commit, after the
                          first-committer-wins check but before anything
                          is published or logged
``mvcc.publish``          after the write set is published to the shared
                          committed store, before its WAL records are
                          written (a crash here loses the transaction)
``server.ack``            in the socket server, before the success
                          response for an executed statement is written
                          to the client
========================  ====================================================

When an armed site fires while metric collection is on, the
``fault.injected`` and ``fault.<site>`` observe counters are bumped, so
traces and ``explain(analyze=True)`` reports show the injected fault
rather than a bare exception.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro import observe
from repro.errors import SOSError

FAULT_SITES: tuple[str, ...] = (
    "btree.insert",
    "btree.delete",
    "btree.modify",
    "btree.re_insert",
    "lsdtree.insert",
    "lsdtree.delete",
    "tidrel.insert",
    "tidrel.delete",
    "tidrel.replace",
    "srel.append",
    "catalog.insert",
    "catalog.remove",
    "rel.insert",
    "rel.delete",
    "rel.modify",
    "evaluator.apply",
    "database.set_value",
    "optimizer.rule",
    "wal.append",
    "wal.fsync",
    "wal.checkpoint.write",
    "wal.checkpoint.swap",
    "recovery.replay",
    "mvcc.commit",
    "mvcc.publish",
    "server.ack",
)

MVCC_FAULT_SITES: tuple[str, ...] = (
    "mvcc.commit",
    "mvcc.publish",
    "server.ack",
)
"""The multi-session server sites — the server crash matrix iterates these."""

WAL_FAULT_SITES: tuple[str, ...] = (
    "wal.append",
    "wal.fsync",
    "wal.checkpoint.write",
    "wal.checkpoint.swap",
    "recovery.replay",
)
"""The durability-layer sites — the crash matrix iterates exactly these."""


class InjectedFault(SOSError):
    """The error raised when an armed fault point fires."""


@dataclass
class FaultPlan:
    """Fail the ``at``-th time execution reaches ``site`` (1-based).

    ``hits`` counts every arrival at the site while the plan is armed,
    whether or not it triggers, so a test can verify the site was actually
    exercised; ``triggered`` records whether the fault fired.
    """

    site: str
    at: int = 1
    hits: int = field(default=0, init=False)
    triggered: bool = field(default=False, init=False)

    def hit(self) -> None:
        self.hits += 1
        if self.hits == self.at:
            self.triggered = True
            if observe.ENABLED:
                observe.incr("fault.injected")
                observe.incr(f"fault.{self.site}")
            raise InjectedFault(
                f"injected fault at {self.site} (hit {self.at})"
            )


# The armed plans, keyed by site.  ``None`` (the common case) lets
# :func:`fault_point` return after a single global load, and lets a
# ``repro.core.algebra.Closure`` run its fused function, which has no
# fault points.
_ARMED: Optional[dict[str, FaultPlan]] = None


def fault_point(site: str) -> None:
    """Mark a fault site; raises :class:`InjectedFault` when an armed plan
    for ``site`` reaches its trigger count."""
    if _ARMED is None:
        return
    plan = _ARMED.get(site)
    if plan is not None:
        plan.hit()


def arm(plan: FaultPlan) -> FaultPlan:
    """Arm a plan (replacing any previous plan for the same site)."""
    global _ARMED
    if plan.site not in FAULT_SITES:
        raise ValueError(f"unknown fault site: {plan.site}")
    if _ARMED is None:
        _ARMED = {}
    _ARMED[plan.site] = plan
    return plan


def disarm(site: str) -> None:
    """Remove the plan for ``site``, if any."""
    global _ARMED
    if _ARMED is not None:
        _ARMED.pop(site, None)
        if not _ARMED:
            _ARMED = None


def clear_faults() -> None:
    """Disarm every fault plan."""
    global _ARMED
    _ARMED = None


@contextmanager
def inject(site: str, at: int = 1) -> Iterator[FaultPlan]:
    """Context manager: arm ``site`` to fail on its ``at``-th hit, disarm on
    exit.  Yields the plan so the caller can inspect ``hits``/``triggered``."""
    plan = arm(FaultPlan(site, at))
    try:
        yield plan
    finally:
        disarm(site)
