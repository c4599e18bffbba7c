"""Deterministic discrete-event simulation of the microservice mesh.

Closed-loop users (``drive``) cycle through a lognormal think pause and one
request, waiting for its completion or the client timeout; at most one
request per user is outstanding, and user start times are staggered across
the ramp-up interval. Requests fan out along the call graph: a service
queues an incoming call (FIFO, ``workers`` parallel slots), processes it for
a lognormal service time, then issues its outgoing calls in parallel and
completes once they all return. Faults act as revertible modifiers on this
loop: latency add-ons and retransmit penalties on the edges into the target,
which holds them while they act, so other edges pay nothing for them,
processing suspension (pause), instant failure (kill) and service-time/CPU
inflation (stress).

All timing is integer milliseconds and every random draw comes from a named,
seed-derived stream (durations and an edge's extra calls in blocks,
``_BlockDraws``), so the services, edges, workload, seed and faults, all a
simulation is given, reproduce the same event trace bit for bit on any
platform; instrumentation acts only on the finished log (``telemetry``). The
state is plain data (heap events carry records and ids, never callables, and
a block stream is its generator's state), so a running ``SimState`` can be
deep-copied or pickled and either copy runs on identically. The raw events go to the typed
columns of ``RawEventLog`` and the finished requests to those of
``RequestTable``; each ok span close is one request-counter increment.

A service is stored as its index, in the narrowest unsigned type that holds
the run's largest index (one byte up to 256 services, two up to 65,536), so
a six-service mesh's service columns take an eighth of int64 columns' bytes.
Times, ids and parents stay int64: the lognormal tails and the run length
have no bound.

The log is written in chunks of about ``_CHUNK_ROWS`` rows and read as such:
after a process's first run frees multi-MB columns, glibc raises its dynamic
mmap threshold, so columns each grown as one array would grow side by side
by ``realloc`` in the brk heap in later runs, and fragment it. The open
chunk is staged in Python lists while ``run_until`` runs and sealed into its
typed arrays when a new chunk starts and when ``run_until`` returns or
raises, so a caller, ``fork`` and pickle only ever see typed arrays.

Faults are added with ``add_fault``, whose boundary events take negative
sequence numbers in the order the faults were added (-2,000,000 + 2i for the
i-th fault's start, one more for its end), so they precede every simulation
event of the same millisecond. A fault-free state run to ``start_ms - 1`` is
therefore a fork point: a copy given the fault there runs on to the same
event log and records as a state that held the fault from the start. The
runner simulates each repetition's fault-free prefix once and forks it so,
with ``fork``: a pickle round trip.

Arrivals and completions, the two events behind almost every span, are
handled in the ``run_until`` loop body; rarer events have handler methods.
Each step of a call's life is written once: a call starts processing at the
loop's tail, which then starts queued calls while a worker is free; it
closes in ``_close_up``, with each ancestor whose last open child it is; and
its request is finished once, by the root's close or the client timeout,
whichever comes first.

The heap holds only events that can still act, and is about as deep as the
work in flight. A completion event carries its call, and a pause or a kill
takes its service's completions off the heap. Client timeouts, nearly all of
which fall after their request has finished, wait in a FIFO of which only
the first is on the heap. Users' wake-ups (each thinking user holds one)
wait in a heap of their own, and the loop pops whichever of the two heads
has the smaller ``(t, seq)`` key, so events pop in the same order as from
one heap; each heap holds a sentinel past every time the loop may reach, so
neither head is ever missing. The cyclic garbage collector is paused while
``run_until`` runs: the run creates no reference cycles, so a collection
would only re-scan the live calls.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import heapq
import pickle
import struct
from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import (
    CallEdge,
    Fault,
    Kill,
    LognormalSpec,
    NetworkDelay,
    PacketCorruption,
    PacketLoss,
    Pause,
    SPAN_BITS,
    ServiceSpec,
    Stress,
    WorkloadSpec,
)

CLIENT_TIMEOUT_MS = 10_000
# Retransmission storms are truncated so a probability of 1.0 cannot hang the loop.
MAX_RETRANSMITS = 100
# Application-layer manifestation of transport-level packet loss: each lost
# packet costs one retransmission round-trip and some receiver-side stack work.
RETRANSMIT_PENALTY_MS = 200
RETRANSMIT_CPU_MS = 100.0

# Both log tables start a new chunk at a root arrival once either's last chunk
# holds this many rows, so a chunk may pass it by the rows before the next root.
# It bounds the lists staging the open chunk in ``run_until``: about 1 MB of ints.
_CHUNK_ROWS = 4096

_MASK64 = (1 << 64) - 1
# Values drawn per refill of a ``_BlockDraws`` stream: doubling from the first to
# the last, so a stream that draws little holds few unused values. A refill
# has a fixed cost (it loads and stores the stream's state), and a
# closed-loop user draws at most 54 think times per run in every checked-in
# experiment and workload file (seeds 0 and 1), so the first block of 64 is
# its only refill; the block holds 512 bytes per user.
_BLOCK_MIN = 64
_BLOCK_MAX = 1024

# Heap event kinds
_EV_ARRIVAL = 0
_EV_PROC_DONE = 1
_EV_EDGE_RESULT = 2
_EV_FAULT_START = 3
_EV_FAULT_END = 4
_EV_TIMEOUT = 5
_EV_USER = 6
# Later than any event: the span and CPU columns hold times as int64.
_END_OF_TIME = (1 << 63) - 1
# Last on both heaps, past every time the loop may reach; seq 0 is no event's.
_SENTINEL = (_END_OF_TIME + 1, 0, -1, None)


def rng_stream(seed: int, label: str) -> np.random.Generator:
    """Independent generator derived from (seed, label); stable across platforms.

    Its ``SeedSequence`` entropy is a uint32 array: the low word of ``seed``
    modulo 2**64, its high word only where that word is nonzero, then the
    first four little-endian words of the label's SHA-256. These are the words
    numpy makes of the list ``[seed % 2**64, *label_words]``, so the state is
    the list's, without numpy's slower coercion of a Python list."""
    seed &= _MASK64
    label_words = struct.unpack_from("<4I", hashlib.sha256(label.encode("utf-8")).digest())
    seed_words = (seed & 0xFFFFFFFF, seed >> 32) if seed >> 32 else (seed,)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(np.array(seed_words + label_words, np.uint32))))


# The generator into which ``_BlockDraws`` loads a stream's state to draw a
# block; built at the first refill, so importing oxn does not load numpy.random.
_scratch_generator = functools.cache(lambda: np.random.Generator(np.random.PCG64(0)))


class _BlockDraws:
    """Values of one stream, drawn in blocks that double from ``_BLOCK_MIN`` =
    64 to ``_BLOCK_MAX`` = 1024, so a stream ends the run having drawn more
    than it handed out. A subclass's ``_values`` draws ``block`` values as an
    ``array``, held in ``values`` (a value takes its typecode's bytes, not a
    Python int object) and handed out by the iterator ``it`` over it. The
    stream is held as its generator's state, which a refill loads into one
    shared scratch generator and stores back, so its state is plain data: a
    deep copy or a pickle fork copies it with the block (both memoise the
    array, so the copy's ``it`` reads the copy's ``values``), and runs on to
    the same values.
    """

    __slots__ = ("state", "values", "it", "block")

    def __init__(self, rng: np.random.Generator):
        self.state = rng.bit_generator.state
        self.values = array("q")
        self.it = iter(self.values)  # hands out ``values`` in order
        self.block = _BLOCK_MIN

    def draw(self) -> int:
        value = next(self.it, None)
        if value is None:
            rng = _scratch_generator()
            rng.bit_generator.state = self.state
            self.values = self._values(rng)
            self.state = rng.bit_generator.state
            self.it = iter(self.values)
            self.block = min(2 * self.block, _BLOCK_MAX)
            value = next(self.it)
        return value


class LognormalDraws(_BlockDraws):
    """Lognormal durations of one stream, in whole milliseconds, in an
    ``array("q")``. Each equals the scalar draw, in the same order,
    ``max(0, int(round(median * float(np.exp(sigma * rng.standard_normal())))))``,
    sigma=0 too, whose values are the median rounded half to even. A value
    of 2**63 ms or more, past the int64 times of the log, is refused."""

    __slots__ = ("median_ms", "sigma")

    def __init__(self, rng: np.random.Generator, spec: LognormalSpec):
        super().__init__(rng)
        self.median_ms = spec.median_ms
        self.sigma = spec.sigma

    def _values(self, rng: np.random.Generator) -> array:
        with np.errstate(over="ignore"):  # an overflow gives inf, which the check below refuses
            block = np.maximum(np.rint(self.median_ms * np.exp(self.sigma * rng.standard_normal(self.block))), 0.0)
        if not (block < 2.0**63).all():
            raise ValueError(f"simulated time passed 2**63 - 1 ms: a duration of median {self.median_ms:g} ms "
                             f"and sigma {self.sigma:g} drew {block.max():g} ms")
        return array("q", block.astype(np.int64).tobytes())


class BernoulliDraws(_BlockDraws):
    """0/1 decisions of one stream, in an ``array("b")``. Each equals the scalar
    ``rng.random() < probability``, in the same order: ``random(n)`` yields
    the doubles of ``n`` scalar ``random()`` calls."""

    __slots__ = ("probability",)

    def __init__(self, rng: np.random.Generator, probability: float):
        super().__init__(rng)
        self.probability = probability

    def _values(self, rng: np.random.Generator) -> array:
        return array("b", (rng.random(self.block) < self.probability).tobytes())


Column = array | np.ndarray


@dataclass
class SpanTable:
    """One row per span, in open order; a service is its index in the
    services the simulation was built from. A span id is ``(request <<
    SPAN_BITS) | n`` for its request's n-th span, ``n == 0`` exactly for a
    root, so ``span_id >> SPAN_BITS`` is its trace id. The simulator appends rows (to lists
    while it runs) and closes a row in place; between runs the columns are
    ``array``s, services in their run's narrow unsigned type (see the module
    docstring); a selection of rows holds numpy arrays."""

    span_id: Column = field(default_factory=lambda: array("q"))
    parent: Column = field(default_factory=lambda: array("q"))  # parent's span id, -1 for a root
    service: Column = field(default_factory=lambda: array("q"))
    start_ms: Column = field(default_factory=lambda: array("q"))
    end_ms: Column = field(default_factory=lambda: array("q"))  # -1 while open
    ok: Column = field(default_factory=lambda: array("b"))  # 1 once closed ok, else 0

    def take(self, rows) -> SpanTable:
        """The rows selected by a mask or an index array, as numpy arrays."""
        return SpanTable(*(np.asarray(column)[rows] for column in vars(self).values()))

    @staticmethod
    def concat(tables) -> SpanTable:
        """The rows of ``tables`` in order, as numpy arrays."""
        return SpanTable(*map(np.concatenate, zip(*(vars(table).values() for table in tables))))


class RequestRecord(NamedTuple):
    request_id: int
    user: int
    start_ms: int
    end_ms: int
    outcome: str  # ok | error | timeout


OUTCOMES = ("ok", "error", "timeout")  # a request table's outcome codes
_OK, _ERROR, _TIMEOUT = range(3)


@dataclass
class RequestTable:
    """Finished requests in finish order; ``outcome`` indexes ``OUTCOMES``."""

    request_id: array = field(default_factory=lambda: array("q"))
    user: array = field(default_factory=lambda: array("q"))
    start_ms: array = field(default_factory=lambda: array("q"))
    end_ms: array = field(default_factory=lambda: array("q"))
    outcome: array = field(default_factory=lambda: array("b"))

    def __len__(self) -> int:
        return len(self.request_id)

    def __iter__(self):  # the rows as ``RequestRecord``s
        return (RequestRecord(*row, OUTCOMES[outcome]) for *row, outcome in zip(*vars(self).values()))


def _cpu_chunk(service_code: str) -> tuple[array, array, array]:
    return array(service_code), array("q"), array("d")


@dataclass
class RawEventLog:
    """Raw instrumentation events of one run, each table a list of chunks in
    row order: the span table, a root before the rest of its trace, and the
    CPU table, one busy slice per row in timestamp order, as ``(service,
    t_ms, ms)`` columns. Each table holds one chunk, empty, before the run.
    A simulation's chunks all hold services in one narrow unsigned type."""

    spans: list[SpanTable]
    cpu: list[tuple[array, array, array]]

    def span_count(self) -> int:
        return sum(len(chunk.span_id) for chunk in self.spans)


class _Request:
    __slots__ = ("index", "user", "start", "done", "next_span")

    def __init__(self, index: int, user: int, start: int):
        self.index = index
        self.user = user
        self.start = start
        self.done = False
        self.next_span = 0


class _Call:
    # Built by ``_new_call``; ``chunk`` is set with ``row`` on arrival, ``cpu_ms`` on processing.
    __slots__ = ("request", "svc", "parent", "chunk", "row", "pending", "failed", "inbound_cpu_ms", "cpu_ms")


def _new_call(request: _Request, svc: _ServiceState, parent: _Call | None) -> _Call:
    """A call of ``request`` to ``svc`` from ``parent``; no ``__init__`` frame sets its slots."""
    call = _Call()
    call.request = request
    call.svc = svc
    call.parent = parent
    call.row = -1  # its span's row in ``chunk`` once the call arrives
    call.pending = 0
    call.failed = False
    call.inbound_cpu_ms = 0.0
    return call


class _ServiceState:
    __slots__ = (
        "spec", "index", "workers", "edges", "busy", "queue", "paused", "killed", "stress_factor", "frozen",
        "service_times", "inbound_faults",
    )

    def __init__(self, spec: ServiceSpec, index: int, seed: int):
        self.spec = spec
        self.index = index
        self.workers = spec.workers
        self.edges: list[_EdgeState] = []  # outbound, in the order given
        self.busy = 0
        self.queue: deque[_Call] = deque()
        self.paused = False
        self.killed = False
        self.stress_factor = 1.0
        self.frozen: list[tuple[_Call, int]] = []  # (call, remaining_ms)
        self.service_times = LognormalDraws(rng_stream(seed, f"service:{spec.id}"), spec.service_time)
        # Its active delay, loss and corruption faults, in start order: they act on its inbound edges.
        self.inbound_faults: list[NetworkDelay | PacketLoss] = []


class _EdgeState:
    __slots__ = ("callee", "whole", "latency_ms", "label", "extra_calls")

    def __init__(self, edge: CallEdge, callee: _ServiceState, seed: int):
        self.label = f"edge:{edge.caller}->{edge.callee}"
        self.callee = callee
        # calls_per_request = whole + fraction; the fraction is one more call's chance, drawn by ``extra_calls``
        self.whole = int(edge.calls_per_request)
        fraction = edge.calls_per_request - self.whole
        self.latency_ms = edge.latency_ms
        self.extra_calls = BernoulliDraws(rng_stream(seed, f"{self.label}:calls"), fraction) if fraction > 0.0 else None
        # The fault streams (``<label>:delay``, ``:loss``, ``:corrupt``) are scalar
        # ``SimState.stream``s, built on first use: only a fault's inbound edges draw.


class SimState:
    """Single-owner simulation state; see ``init_sim``."""

    def __init__(self, services: tuple[ServiceSpec, ...], edges: tuple[CallEdge, ...], seed: int):
        self.seed = seed
        # Between runs every event at or before ``now`` has been handled; a
        # fresh state has handled none, so a fault may start at 0.
        self.now = -1
        self._heap: list[tuple[int, int, int, object]] = [_SENTINEL]
        self._seq = 0
        # Pending wake-ups (see ``wake``), on a heap of their own.
        self._wakeups: list[tuple[int, int, int, object]] = [_SENTINEL]
        # Client timeouts of the handled root arrivals in (t, seq) order; only the
        # first is also on the heap, and those of finished requests are dropped.
        self._timeouts: deque[tuple[int, int, int, _Request]] = deque()
        # The array typecode of the log's service columns: the narrowest
        # unsigned type that holds every service index.
        self._service_code = np.min_scalar_type(len(services) - 1).char
        self.log = RawEventLog([], [])
        self._add_chunks()
        self.records = RequestTable()  # finished requests, in finish order
        self._request_count = 0
        self._streams: dict[str, np.random.Generator] = {}
        self._think_times: dict[int, LognormalDraws] = {}  # by user
        self.services = {s.id: _ServiceState(s, i, seed) for i, s in enumerate(services)}
        for edge in edges:
            self.services[edge.caller].edges.append(_EdgeState(edge, self.services[edge.callee], seed))
        callees = {e.callee for e in edges}
        roots = [s.id for s in services if s.id not in callees]
        if len(roots) != 1:
            raise ValueError(f"call graph must have exactly one entry service, found {roots}")
        self.entry = roots[0]
        self.workload: WorkloadSpec | None = None  # set by ``drive``
        self._fault_count = 0

    # -- plumbing ----------------------------------------------------------

    def stream(self, label: str) -> np.random.Generator:
        """Memoized named RNG stream derived from the run seed."""
        if label not in self._streams:
            self._streams[label] = rng_stream(self.seed, label)
        return self._streams[label]

    def wake(self, t: int, kind: int, payload: object) -> None:
        """Push a user's wake-up, a root arrival or a user's start, with the next sequence number."""
        self._seq += 1
        heapq.heappush(self._wakeups, (t, self._seq, kind, payload))

    # -- public operations --------------------------------------------------

    def fork(self) -> SimState:
        """A copy of the state, by a pickle round trip, that runs on independently."""
        return pickle.loads(pickle.dumps(self))

    def add_fault(self, fault: Fault) -> None:
        """Schedule ``fault``'s window boundaries (see the module docstring
        for their sequence numbers). A fault that starts at or before ``now``
        is refused: events it should have preceded have been handled."""
        if fault.start_ms <= self.now:
            raise ValueError(f"fault '{fault.name}' starts at {fault.start_ms} ms, not after now ({self.now} ms)")
        seq = -2_000_000 + 2 * self._fault_count
        self._fault_count += 1
        heapq.heappush(self._heap, (fault.start_ms, seq, _EV_FAULT_START, fault))
        heapq.heappush(self._heap, (fault.end_ms, seq + 1, _EV_FAULT_END, fault))

    def issue_request(self, user: int, at: int) -> int:
        """Schedule a user request entering the call graph at time ``at``.

        The request is recorded in ``records`` when its whole call tree
        completes or at the client timeout, whichever comes first.
        """
        if at < self.now:
            raise ValueError(f"cannot issue a request in the past ({at} < {self.now})")
        request = _Request(self._request_count, user, at)
        self._request_count += 1
        self.wake(at, _EV_ARRIVAL, _new_call(request, self.services[self.entry], None))
        self._seq += 1  # the client timeout's, queued when the arrival is handled
        return request.index

    def run_until(self, t: int | None) -> None:
        """Process all events up to and including time ``t`` (everything, if None).

        Fault effects are applied and reverted exactly at their window
        boundaries, ahead of same-timestamp simulation events. ``self.now``
        is brought up to date before anything that may issue a request, and
        when the loop exits. The cyclic garbage collector is paused meanwhile
        and then left as it was found, and the log's last chunks are staged
        as lists, sealed on the way out however the run ends. Run to the end,
        a state that holds events besides its sentinels has passed the int64
        times of the log, and is refused.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._run(t)
        finally:
            self._seal()
            if enabled:
                gc.enable()
        if t is None and len(self._heap) + len(self._wakeups) > 2:
            raise ValueError("simulated time passed 2**63 - 1 ms: events are left after it")

    def _run(self, t: int | None) -> None:
        heap = self._heap
        wakeups = self._wakeups
        heappush = heapq.heappush
        heappop = heapq.heappop
        timeouts = self._timeouts
        (chunk, cpu_chunk, span_id_append, parent_append, service_append, start_append, end_append, ok_append,
         cpu_service_append, cpu_t_append, cpu_ms_append) = self._stage()
        span_bits = SPAN_BITS
        limit = _END_OF_TIME if t is None else t
        when = self.now
        while True:
            # Seq numbers are unique (the one sentinel aside), so the two heads never compare past them.
            queue = wakeups if wakeups[0] < heap[0] else heap
            if queue[0][0] > limit:
                break
            when, seq, kind, payload = heappop(queue)
            if kind == _EV_ARRIVAL:
                call = payload
                svc = call.svc
                parent = call.parent
                if parent is None:
                    # Root arrivals come in (t, seq) order, so the FIFO stays sorted.
                    timeouts.append((when + CLIENT_TIMEOUT_MS, seq + 1, _EV_TIMEOUT, call.request))
                    if len(timeouts) == 1:
                        heappush(heap, timeouts[0])
                    if len(chunk.span_id) >= _CHUNK_ROWS or len(cpu_chunk[0]) >= _CHUNK_ROWS:
                        self._seal()
                        self._add_chunks()
                        (chunk, cpu_chunk, span_id_append, parent_append, service_append, start_append, end_append,
                         ok_append, cpu_service_append, cpu_t_append, cpu_ms_append) = self._stage()
                if svc.killed:
                    # A dead process emits nothing; the caller observes a late error.
                    call.inbound_cpu_ms = 0.0
                    self._seq = seq = self._seq + 1
                    heappush(heap, (when + svc.spec.error_response_time_ms, seq, _EV_EDGE_RESULT, call))
                    continue
                if call.inbound_cpu_ms > 0.0:
                    # Receiver-side network-stack work for retransmitted packets.
                    cpu_service_append(svc.index)
                    cpu_t_append(when)
                    cpu_ms_append(call.inbound_cpu_ms)
                request = call.request
                call.chunk = chunk
                call.row = len(chunk.span_id)
                span_id_append((request.index << span_bits) | request.next_span)
                parent_append(-1 if parent is None else parent.chunk.span_id[parent.row])
                service_append(svc.index)
                start_append(when)
                end_append(-1)
                ok_append(0)
                request.next_span += 1
                if svc.busy >= svc.workers or svc.paused:
                    svc.queue.append(call)
                    continue
            elif kind == _EV_PROC_DONE:
                call = payload
                svc = call.svc
                svc.busy -= 1
                cpu_service_append(svc.index)
                cpu_t_append(when)
                cpu_ms_append(call.cpu_ms)
                children = 0
                for edge in svc.edges:
                    count = edge.whole
                    if edge.extra_calls is not None:
                        count += edge.extra_calls.draw()
                    for _ in range(count):
                        child = _new_call(call.request, edge.callee, call)
                        self._seq = seq = self._seq + 1
                        if not edge.callee.inbound_faults:
                            heappush(heap, (when + edge.latency_ms, seq, _EV_ARRIVAL, child))
                        else:
                            transit, child.inbound_cpu_ms, corrupted = self._transit(edge)
                            # A corrupted payload never survives transit; the callee rejects it unprocessed.
                            heappush(heap, (when + transit, seq, _EV_EDGE_RESULT if corrupted else _EV_ARRIVAL, child))
                    children += count
                if children:
                    call.pending += children
                else:
                    self.now = when
                    self._close_up(call, when)
                # One worker is free: the queue holds calls only while every
                # worker is busy or the service is paused.
                if not svc.queue or svc.paused:
                    continue
                call = svc.queue.popleft()
            elif kind == _EV_FAULT_END:
                self.now = when
                call = self._fault_end(payload, when)
                if call is None:
                    continue
                svc = call.svc
            else:
                self.now = when
                if kind == _EV_EDGE_RESULT:
                    # ``payload`` failed in transit or at a killed service.
                    if payload.inbound_cpu_ms > 0.0:
                        cpu_service_append(payload.svc.index)
                        cpu_t_append(when)
                        cpu_ms_append(payload.inbound_cpu_ms)
                    payload.failed = True
                    self._close_up(payload, when)
                elif kind == _EV_TIMEOUT:
                    timeouts.popleft()  # this event
                    if not payload.done:
                        self._finish_request(payload, _TIMEOUT, when)
                    while timeouts and timeouts[0][3].done:
                        timeouts.popleft()
                    if timeouts:
                        heappush(heap, timeouts[0])
                elif kind == _EV_USER:
                    self._think(payload, when)
                else:
                    self._fault_start(payload, when)
                continue
            # The one place a call starts processing: ``call`` starts at
            # ``svc``, and so do queued calls while a worker is free.
            while True:
                svc.busy += 1
                duration = svc.service_times.draw()
                cpu = svc.spec.cpu_per_request_ms
                if svc.stress_factor != 1.0:
                    duration = int(round(duration * svc.stress_factor))
                    cpu = cpu * svc.stress_factor
                call.cpu_ms = cpu
                self._seq = seq = self._seq + 1
                heappush(heap, (when + duration, seq, _EV_PROC_DONE, call))
                if not svc.queue or svc.busy >= svc.workers:
                    break
                call = svc.queue.popleft()
        self.now = when if t is None or when >= t else t

    # -- helpers of the loop ---------------------------------------------------

    def _add_chunks(self) -> None:
        """Start a new, empty chunk of each log table."""
        self.log.spans.append(SpanTable(service=array(self._service_code)))
        self.log.cpu.append(_cpu_chunk(self._service_code))

    def _stage(self) -> tuple:
        """Stage the log's last chunks as lists, whose appends are cheaper than
        arrays'; return them, then their columns' appends in order."""
        chunk, cpu = vars(self.log.spans[-1]), tuple(column.tolist() for column in self.log.cpu[-1])
        chunk.update({name: column.tolist() for name, column in chunk.items()})
        self.log.cpu[-1] = cpu
        return self.log.spans[-1], cpu, *(column.append for column in (*chunk.values(), *cpu))

    def _seal(self) -> None:
        """Seal the staged rows into a new chunk's typed arrays, in place: the span chunk keeps its identity."""
        spans, cpu = SpanTable(service=array(self._service_code)), _cpu_chunk(self._service_code)
        for column, rows in zip((*vars(spans).values(), *cpu), (*vars(self.log.spans[-1]).values(), *self.log.cpu[-1])):
            column.fromlist(rows)
        vars(self.log.spans[-1]).update(vars(spans))
        self.log.cpu[-1] = cpu

    def _transit(self, edge: _EdgeState) -> tuple[int, float, bool]:
        """Transit time, receiver-side CPU ms and corruption of one call on
        ``edge`` under the active faults that act on its callee."""
        transit = edge.latency_ms
        corrupted = False
        extra_cpu = 0.0
        for fault in edge.callee.inbound_faults:
            if type(fault) is NetworkDelay:
                delay = self.stream(f"{edge.label}:delay")
                transit += int(delay.integers(fault.delay_min_ms, fault.delay_max_ms, endpoint=True))
            else:  # PacketLoss; PacketCorruption also draws a per-hop failure
                loss = self.stream(f"{edge.label}:loss")
                retransmits = 0
                while retransmits < MAX_RETRANSMITS and loss.random() < fault.probability:
                    retransmits += 1
                transit += retransmits * RETRANSMIT_PENALTY_MS
                extra_cpu += retransmits * RETRANSMIT_CPU_MS
                if type(fault) is PacketCorruption and self.stream(f"{edge.label}:corrupt").random() < fault.probability:
                    corrupted = True
        return transit, extra_cpu, corrupted

    def _close_up(self, call: _Call, t: int) -> None:
        """Close ``call``, whose work is over or which failed, and each
        ancestor whose last open child it is; a root's close finishes its
        request unless the client timeout already has. A call that failed
        before it opened a span (``row == -1``) only tells its parent."""
        while True:
            if call.row >= 0:
                call.chunk.end_ms[call.row] = t
                call.chunk.ok[call.row] = not call.failed
            parent = call.parent
            if parent is None:
                if not call.request.done:
                    self._finish_request(call.request, _ERROR if call.failed else _OK, t)
                return
            if call.failed:
                parent.failed = True
            parent.pending -= 1
            if parent.pending:
                return
            call = parent

    def _take_completions(self, svc: _ServiceState) -> list[tuple[int, int, int, _Call]]:
        """Take the completion events of ``svc`` off the heap, in seq order:
        the order in which their calls started processing."""
        heap = self._heap  # changed in place: ``run_until`` holds the list
        taken = [e for e in heap if e[2] == _EV_PROC_DONE and e[3].svc is svc]
        heap[:] = [e for e in heap if e[2] != _EV_PROC_DONE or e[3].svc is not svc]
        heapq.heapify(heap)
        return sorted(taken, key=lambda e: e[1])

    # -- rare events -----------------------------------------------------------

    def _finish_request(self, request: _Request, outcome: int, t: int) -> None:
        """Record ``request``, which is not yet done; its user thinks next."""
        request.done = True
        self.records.request_id.append(request.index)
        self.records.user.append(request.user)
        self.records.start_ms.append(request.start)
        self.records.end_ms.append(t)
        self.records.outcome.append(outcome)
        if self.workload is not None:
            self._think(request.user, t)

    def _think(self, user: int, t: int) -> None:
        """A closed-loop user thinks from ``t`` on, then issues its next
        request unless the workload duration has elapsed by then."""
        think_times = self._think_times.get(user)
        if think_times is None:
            think_times = LognormalDraws(rng_stream(self.seed, f"user:{user}"), self.workload.think_time)
            self._think_times[user] = think_times
        at = t + think_times.draw()
        if at < self.workload.duration_ms:
            self.issue_request(user, at)

    def _fault_start(self, fault: Fault, t: int) -> None:
        if type(fault) is Pause:
            svc = self.services[fault.target]
            svc.paused = True
            for end_t, _, _, call in self._take_completions(svc):
                svc.frozen.append((call, max(0, end_t - t)))
        elif type(fault) is Kill:
            svc = self.services[fault.target]
            svc.killed = True
            dropped = [call for _, _, _, call in self._take_completions(svc)]
            dropped.extend(svc.queue)
            svc.queue.clear()
            svc.busy = 0
            for call in dropped:
                call.failed = True
                self._close_up(call, t)
        elif type(fault) is Stress:
            self.services[fault.target].stress_factor = fault.factor
        else:
            self.services[fault.target].inbound_faults.append(fault)

    def _fault_end(self, fault: Fault, t: int) -> _Call | None:
        """Revert ``fault``. A pause's end resumes its service's frozen calls
        and returns the first queued call if a worker is free for it: the
        loop starts that call and the queued calls behind it."""
        if type(fault) is Pause:
            svc = self.services[fault.target]
            svc.paused = False
            for call, remaining in svc.frozen:
                self._seq += 1
                heapq.heappush(self._heap, (t + remaining, self._seq, _EV_PROC_DONE, call))
            svc.frozen.clear()
            if svc.queue and svc.busy < svc.workers:
                return svc.queue.popleft()
        elif type(fault) is Kill:
            svc = self.services[fault.target]
            svc.killed = False
        elif type(fault) is Stress:
            self.services[fault.target].stress_factor = 1.0
        else:
            self.services[fault.target].inbound_faults.remove(fault)
        return None


def init_sim(services: tuple[ServiceSpec, ...], edges: tuple[CallEdge, ...], seed: int) -> SimState:
    """Fresh idle, fault-free simulation of the call graph with per-service
    and per-user RNG streams derived from ``seed``; ``add_fault`` adds faults."""
    return SimState(services, edges, seed)


def drive(sim: SimState, workload: WorkloadSpec) -> None:
    """Start the workload's closed-loop users, staggered across the ramp-up;
    they stop issuing requests once the workload duration elapses."""
    sim.workload = workload
    for uid in range(workload.users):
        sim.wake((workload.ramp_up_ms * uid) // workload.users, _EV_USER, uid)
