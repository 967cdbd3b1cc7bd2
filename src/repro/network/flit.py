"""Event-driven flit-level wormhole network microsimulator.

This is the ProcSimity-style substrate ("ProcSimity models communication at
the flit level, allowing it to measure how network contention affects
machine throughput", Section 3).  It simulates:

* x-y (dimension-ordered) routing over directed links,
* wormhole switching: a message's header advances hop by hop, holding every
  link it has acquired; body flits pipeline behind it,
* per-link FIFO arbitration of blocked headers,
* per-hop router latency and per-flit link transfer time.

Simplification (docs/substitutions.md substitution #6): a message releases all of its
links when its tail reaches the destination, rather than releasing each link
as the tail passes.  This slightly lengthens hold times on early links but
keeps the event count at O(hops + 1) per message.  Deadlock freedom is
preserved: every message acquires links in x-then-y order and the four link
directions are independent resources, so the wait-for graph is acyclic (the
standard dimension-ordered-routing argument).

Two front ends are provided:

* :meth:`FlitNetwork.deliver` -- simulate a batch of timestamped messages,
  returning per-message delivery times.
* :meth:`FlitNetwork.run_bsp` -- run several jobs concurrently, each
  executing a sequence of bulk-synchronous communication rounds (the shape
  of the Cplant test suite behind Fig 1: all-to-all broadcast, all-pairs
  ping-pong, ring).  Returns each job's finish time.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.mesh.topology import Mesh
from repro.network.links import LinkSpace

__all__ = ["FlitNetwork", "Message", "FlitParams"]


@dataclass(frozen=True)
class FlitParams:
    """Timing parameters of the wormhole simulator.

    ``flit_time`` is the per-flit link transfer time (seconds); a message of
    ``F`` flits occupies its path for ``F * flit_time`` after the header
    arrives.  ``router_delay`` is the header's per-hop routing
    decision/arbitration latency.  Defaults model a slow commodity network
    in the Cplant spirit; absolute values only set the time scale.
    """

    flit_time: float = 1e-3
    router_delay: float = 2e-3

    def __post_init__(self) -> None:
        if self.flit_time <= 0 or self.router_delay < 0:
            raise ValueError("flit_time > 0 and router_delay >= 0 required")


@dataclass
class Message:
    """A single message in flight (or delivered)."""

    msg_id: int
    src: int
    dst: int
    flits: int
    issue_time: float
    links: list[int] = field(default_factory=list)
    acquired: int = 0
    delivered_at: float = -1.0

    @property
    def latency(self) -> float:
        """Delivery latency (valid once delivered)."""
        return self.delivered_at - self.issue_time


# Event kinds (heap entries are (time, seq, kind, msg)).
_TRY = 0
_DELIVER = 1


class FlitNetwork:
    """Wormhole mesh simulator.  See module docstring."""

    def __init__(self, mesh: Mesh, params: FlitParams | None = None):
        self.mesh = mesh
        self.params = params or FlitParams()
        self.space = LinkSpace.for_mesh(mesh)

    # ------------------------------------------------------------------
    # Core event loop over a batch of messages
    # ------------------------------------------------------------------
    def deliver(
        self,
        messages: list[tuple[float, int, int, int]],
        on_delivered=None,
    ) -> list[Message]:
        """Simulate ``(issue_time, src, dst, flits)`` messages to completion.

        ``on_delivered(msg, push)`` -- optional callback fired at each
        delivery; it may inject follow-up messages by calling
        ``push(issue_time, src, dst, flits)``, which returns the new
        :class:`Message` (used by the BSP driver).

        Returns the list of all :class:`Message` objects (including injected
        ones) with ``delivered_at`` filled in.  Message ids are assigned in
        submission order, the initial batch first.
        """
        heap: list[tuple[float, int, int, Message]] = []
        seq = 0
        all_msgs: list[Message] = []
        holder: dict[int, Message] = {}
        waiters: dict[int, deque[Message]] = {}
        p = self.params

        def push_message(issue_time: float, src: int, dst: int, flits: int) -> Message:
            nonlocal seq
            if flits < 1:
                raise ValueError("messages must have at least one flit")
            msg = Message(
                msg_id=len(all_msgs),
                src=src,
                dst=dst,
                flits=flits,
                issue_time=issue_time,
                links=self.space.links_on_route(src, dst),
            )
            all_msgs.append(msg)
            heapq.heappush(heap, (issue_time, seq, _TRY, msg))
            seq += 1
            return msg

        def schedule(time: float, kind: int, msg: Message) -> None:
            nonlocal seq
            heapq.heappush(heap, (time, seq, kind, msg))
            seq += 1

        for issue_time, src, dst, flits in messages:
            push_message(issue_time, src, dst, flits)

        while heap:
            now, _, kind, msg = heapq.heappop(heap)
            if kind == _TRY:
                self._advance_header(msg, now, holder, waiters, schedule)
                continue
            # _DELIVER: free the whole path, wake one waiter per link.
            msg.delivered_at = now
            for link in msg.links:
                del holder[link]
            for link in msg.links:
                queue = waiters.get(link)
                if queue:
                    schedule(now, _TRY, queue.popleft())
            if on_delivered is not None:
                on_delivered(msg, push_message)
        return all_msgs

    def _advance_header(self, msg, now, holder, waiters, schedule) -> None:
        """Header tries to acquire successive links starting at ``now``."""
        p = self.params
        while msg.acquired < len(msg.links):
            link = msg.links[msg.acquired]
            current = holder.get(link)
            if current is None:
                holder[link] = msg
                msg.acquired += 1
                if msg.acquired < len(msg.links):
                    # Per-hop router latency before the next acquisition.
                    schedule(now + p.router_delay, _TRY, msg)
                    return
            else:
                waiters.setdefault(link, deque()).append(msg)
                return
        # Full path acquired (or self-message): tail arrives flit-pipelined
        # behind the header's final router pass.
        arrival = now + p.router_delay + msg.flits * p.flit_time
        schedule(arrival, _DELIVER, msg)

    # ------------------------------------------------------------------
    # Bulk-synchronous multi-job driver (Cplant test-suite shape)
    # ------------------------------------------------------------------
    def run_bsp(
        self,
        jobs: dict[int, tuple[np.ndarray, list[np.ndarray]]],
        message_flits: int = 64,
        start_time: float = 0.0,
        compute_time: float = 0.0,
    ) -> dict[int, float]:
        """Run jobs of bulk-synchronous rounds concurrently; return finish times.

        Parameters
        ----------
        jobs:
            ``{job_id: (nodes, rounds)}`` where ``nodes`` is the allocation
            in rank order and ``rounds`` is a list of ``(m, 2)`` rank-pair
            arrays.  All messages of a round are injected together; a job
            starts its next round when every message of the previous round
            has been delivered.
        message_flits:
            Flits per message.
        start_time:
            Injection time of every job's first round.
        compute_time:
            Optional think time inserted between a job's rounds.

        Returns
        -------
        ``{job_id: finish_time}`` -- when the job's last round completed
        (``start_time`` for jobs with no messages at all).
        """

        def node_pairs(jid: int, ridx: int) -> list[tuple[int, int]]:
            nodes, rounds = jobs[jid]
            pairs = np.asarray(rounds[ridx], dtype=np.int64)
            if pairs.size == 0:
                return []
            return [(int(nodes[s]), int(nodes[d])) for s, d in pairs if s != d]

        def next_nonempty(jid: int, start: int) -> tuple[int, list[tuple[int, int]]] | None:
            _, rounds = jobs[jid]
            for ridx in range(start, len(rounds)):
                msgs = node_pairs(jid, ridx)
                if msgs:
                    return ridx, msgs
            return None

        msg_meta: dict[int, int] = {}  # msg_id -> job_id
        remaining: dict[int, int] = {}
        current_round: dict[int, int] = {}
        finish: dict[int, float] = {}
        initial: list[tuple[float, int, int, int]] = []
        initial_meta: list[int] = []

        for jid in jobs:
            first = next_nonempty(jid, 0)
            if first is None:
                finish[jid] = start_time
                continue
            ridx, msgs = first
            current_round[jid] = ridx
            remaining[jid] = len(msgs)
            for src, dst in msgs:
                initial.append((start_time, src, dst, message_flits))
                initial_meta.append(jid)

        for i, jid in enumerate(initial_meta):
            msg_meta[i] = jid

        def on_delivered(msg: Message, push) -> None:
            jid = msg_meta[msg.msg_id]
            remaining[jid] -= 1
            if remaining[jid] > 0:
                return
            nxt = next_nonempty(jid, current_round[jid] + 1)
            if nxt is None:
                finish[jid] = msg.delivered_at
                return
            ridx, msgs = nxt
            current_round[jid] = ridx
            remaining[jid] = len(msgs)
            issue = msg.delivered_at + compute_time
            for src, dst in msgs:
                new = push(issue, src, dst, message_flits)
                msg_meta[new.msg_id] = jid

        self.deliver(initial, on_delivered=on_delivered)
        return finish
