"""Tests for the event queue, virtual clock and simulator core."""

import gc
import heapq
import itertools
import math
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.des import DESRuntime
from repro.sim.clock import VirtualClock
from repro.sim.events import BUCKET_SECONDS, EventQueue, bucket_of
from repro.sim.network import Network, NetworkStats
from repro.sim.node import Node
from repro.sim.simulator import Simulator
from repro.sim.trace import TraceRecorder


class _TimerNode(Node):
    def on_message(self, sender, message):  # pragma: no cover - never sent to
        pass


class _Row:
    """A handler row with a slot for every index: slot ``b`` calls
    ``handler(a, b, c)``, so a delivery entry names its own receiver."""

    def __init__(self, handler):
        self.handler = handler

    def __getitem__(self, b):
        return lambda a, c: self.handler(a, b, c)


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now() == 0.0

    def test_custom_start(self):
        assert VirtualClock(5.0).now() == 5.0

    def test_advances(self):
        clock = VirtualClock()
        clock.advance_to(3.5)
        assert clock.now() == 3.5

    def test_rejects_backwards(self):
        clock = VirtualClock(2.0)
        with pytest.raises(ValueError):
            clock.advance_to(1.0)


class TestEventQueue:
    def test_pop_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.push(2.0, lambda: order.append("b"))
        queue.push(1.0, lambda: order.append("a"))
        queue.push(3.0, lambda: order.append("c"))
        while queue:
            queue.pop().callback()
        assert order == ["a", "b", "c"]

    def test_same_time_fifo(self):
        queue = EventQueue()
        order = []
        queue.push(1.0, lambda: order.append(1))
        queue.push(1.0, lambda: order.append(2))
        queue.push(1.0, lambda: order.append(3))
        while queue:
            queue.pop().callback()
        assert order == [1, 2, 3]

    def test_cancel_skips_event(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        queue.cancel(event)
        assert len(queue) == 1
        popped = queue.pop()
        assert popped.time == 2.0

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(5.0, lambda: None)
        queue.cancel(event)
        assert queue.peek_time() == 5.0

    def test_empty_queue(self):
        queue = EventQueue()
        assert queue.pop() is None
        assert queue.peek_time() is None
        assert not queue

    def test_cancel_after_pop_does_not_corrupt_live_count(self):
        # Regression: a late cancel() on an already-popped event used to
        # decrement the live count a second time, driving it negative and
        # making the queue report empty while events remained.
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        popped = queue.pop()
        assert popped is event
        queue.cancel(event)  # late cancel of the delivered event
        assert len(queue) == 1
        assert queue  # the t=2.0 event is still live
        assert queue.pop().time == 2.0

    def test_cancel_twice_decrements_once(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        queue.cancel(event)
        queue.cancel(event)
        assert len(queue) == 1


class TestSimulator:
    def test_schedule_and_run(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(sim.now()))
        sim.schedule_after(0.5, lambda: fired.append(sim.now()))
        sim.run()
        assert fired == [0.5, 1.0]

    def test_run_until_stops_clock_at_bound(self):
        sim = Simulator()
        sim.schedule_at(10.0, lambda: None)
        end = sim.run(until=2.0)
        assert end == 2.0
        assert len(sim.queue) == 1  # future event still pending

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: sim.schedule_at(0.5, lambda: None))
        with pytest.raises(ValueError):
            sim.run()

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule_after(-1.0, lambda: None)

    def test_events_scheduled_during_run_are_processed(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.schedule_after(1.0, lambda: fired.append("second"))

        sim.schedule_at(1.0, first)
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now() == 2.0

    def test_run_until_fast_forwards_when_drained(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        end = sim.run(until=10.0)
        assert end == 10.0

    def test_direct_event_cancel_still_fast_forwards(self):
        # Timers cancel their events directly (Event.cancel), bypassing
        # EventQueue.cancel; the live count must reconcile lazily so
        # run(until=...) still recognises a drained queue and fast-forwards.
        sim = Simulator()
        event = sim.schedule_at(1.0, lambda: None)
        event.cancel()
        assert sim.run(until=10.0) == 10.0
        assert len(sim.queue) == 0

    def test_direct_then_queue_cancel_counts_once(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        event.cancel()  # direct cancel: reconciled lazily
        queue.cancel(event)  # then the queue-level cancel must not double count
        assert queue.peek_time() == 2.0
        assert len(queue) == 1

    def test_late_cancel_does_not_end_run_early(self):
        # Regression companion to the EventQueue fix: cancelling an event
        # that already fired must not make the run loop believe the queue
        # drained while live events remain.
        sim = Simulator()
        fired = []
        first = sim.schedule_at(1.0, lambda: fired.append("first"))
        sim.schedule_at(2.0, lambda: (sim.cancel(first), fired.append("second")))
        sim.schedule_at(3.0, lambda: fired.append("third"))
        sim.run()
        assert fired == ["first", "second", "third"]

    def test_step(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        assert sim.step() is True
        assert sim.step() is False

    def test_deterministic_rng(self):
        a = Simulator(seed=42).rng.random()
        b = Simulator(seed=42).rng.random()
        assert a == b

    def test_cancel_event(self):
        sim = Simulator()
        fired = []
        event = sim.schedule_at(1.0, lambda: fired.append(1))
        sim.cancel(event)
        sim.run()
        assert fired == []


# ------------------------------------------------- calendar-queue equivalence
#: times that stress the tiers: exact ties, neighbours inside one bucket,
#: bucket boundaries, a dense cluster, and the whole 0 … 1e6 s range
_TIMES = st.one_of(
    st.sampled_from([0.0, 0.5, 0.5, 2 * BUCKET_SECONDS, 3 * BUCKET_SECONDS, 1e6]),
    st.floats(min_value=0.0, max_value=3 * BUCKET_SECONDS),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1e6),
)
_QUEUE_OPS = st.one_of(
    st.tuples(st.just("push"), _TIMES),
    st.tuples(st.just("push_calls"), st.lists(_TIMES, max_size=5)),
    # a push into the bucket being drained (or just below it): the side heap
    st.tuples(st.just("push_current"), st.floats(min_value=-0.5, max_value=0.999)),
    st.tuples(st.sampled_from(["cancel", "cancel_direct"]), st.integers(min_value=0)),
    # a push at the exact time of an earlier handle: often a bucket that a
    # queue-level cancel has just emptied
    st.tuples(st.just("repush"), st.integers(min_value=0)),
    st.tuples(st.just("cancel_all"), st.none()),
    st.tuples(st.just("pop"), st.none()),
    st.tuples(st.just("peek"), st.none()),
)


class _CheckedQueue(EventQueue):
    """An :class:`EventQueue` that checks its tier invariants on every refill."""

    def _refill(self):
        assert not self._near and not self._side  # only an exhausted bucket is replaced
        before = self._current
        loaded = super()._refill()
        if loaded:
            # _current only ever lands on a bucket that still has entries
            assert self._near and self._current > before
        else:
            assert self._current == before and not self._far and not self._far_buckets
        return loaded


def _assert_tiers(queue):
    """Far lists are non-empty, lie above ``_current``, are indexed, and hold
    no entry cancelled through :meth:`EventQueue.cancel`; the run and the
    side heap lie at or below ``_current``, the run sorted descending and
    the side heap a heap."""
    for bucket, entries in queue._far.items():
        assert entries and bucket > queue._current and bucket in queue._far_buckets
        for entry in entries:
            assert not (entry[2] is None and entry[3].cancelled and not entry[3].live)
    near, side = queue._near, queue._side
    assert all(bucket_of(entry[0]) <= queue._current for entry in near + side)
    assert near == sorted(near, reverse=True)
    assert all(side[(i - 1) // 2] <= side[i] for i in range(1, len(side)))


class TestCalendarQueueOrder:
    """The two-tier queue pops in exactly the order of one ``(time, seq)`` heap."""

    @given(st.lists(_QUEUE_OPS, max_size=120))
    @settings(max_examples=300, deadline=None)
    def test_interleaved_ops_match_reference_heap(self, ops):
        queue = _CheckedQueue()
        reference = []  # heapq of (time, id): ids rise with push order, like seq
        ids = itertools.count()
        handles = {}  # id -> Event, for pushes that can be cancelled
        gone = set()  # ids cancelled or popped
        lazily_counted = 0  # direct cancels the queue has not noticed yet
        fired = []

        row = _Row(lambda _a, ident, _c: fired.append(ident))

        def reference_head():
            while reference and reference[0][1] in gone:
                heapq.heappop(reference)
            return reference[0] if reference else None

        def check_pop():
            expected = reference_head()
            event = queue.pop()
            if expected is None:
                assert event is None
                return False
            heapq.heappop(reference)
            gone.add(expected[1])
            assert event.time == expected[0]
            event.callback()
            assert fired[-1] == expected[1]
            return True

        def push(time):
            ident = next(ids)
            handles[ident] = queue.push(time, lambda ident=ident: fired.append(ident))
            heapq.heappush(reference, (time, ident))

        for kind, arg in ops:
            if kind == "push":
                push(arg)
            elif kind == "repush":
                if handles:
                    push(handles[sorted(handles)[arg % len(handles)]].time)
            elif kind == "cancel_all":
                for ident, handle in handles.items():
                    queue.cancel(handle)
                    gone.add(ident)
            elif kind == "push_current":
                time = max(0.0, (max(queue._current, 0) + arg) * BUCKET_SECONDS)
                if arg < 0.5:
                    push(time)
                else:
                    ident = next(ids)
                    queue.push_calls([time], row, None, [ident], None)
                    heapq.heappush(reference, (time, ident))
            elif kind == "push_calls":
                batch = [next(ids) for _ in arg]
                queue.push_calls(arg, row, None, batch, None)
                for time, ident in zip(arg, batch):
                    heapq.heappush(reference, (time, ident))
            elif kind in ("cancel", "cancel_direct"):
                if not handles:
                    continue
                ident = sorted(handles)[arg % len(handles)]
                if kind == "cancel":
                    queue.cancel(handles[ident])  # no-op when popped/cancelled
                elif ident not in gone:
                    handles[ident].cancel()  # what timers do: bypasses the queue
                    lazily_counted += 1
                gone.add(ident)
            elif kind == "pop":
                check_pop()
            else:
                head = reference_head()
                assert queue.peek_time() == (None if head is None else head[0])
            live = sum(1 for _time, ident in reference if ident not in gone)
            assert live <= len(queue) <= live + lazily_counted
            assert bool(queue) == (len(queue) > 0)
            _assert_tiers(queue)
        while check_pop():
            _assert_tiers(queue)
        assert len(queue) == 0 and not queue and queue.peek_time() is None

    def test_push_into_the_bucket_being_drained(self):
        queue = EventQueue()
        order = []
        for time in (0.0101, 0.0109, 0.0105):
            queue.push(time, lambda time=time: order.append(time))
        queue.pop().callback()  # loads the bucket, pops 0.0101
        queue.push(0.0103, lambda: order.append(0.0103))  # same bucket, before the rest
        queue.push(0.0100, lambda: order.append(0.0100))  # earlier than anything left
        queue.push(0.0105, lambda: order.append("tie"))  # equal time: FIFO by seq
        while queue:
            queue.pop().callback()
        assert order == [0.0101, 0.0100, 0.0103, 0.0105, "tie", 0.0109]

    def test_peek_time_reads_both_heads_and_skips_a_cancelled_one_in_each(self):
        queue = _CheckedQueue()
        run = {time: queue.push(time, lambda: None) for time in (0.0101, 0.0104, 0.0106, 0.0109)}
        assert queue.pop().time == 0.0101
        assert queue.peek_time() == 0.0104  # the run's earliest entry is its last
        side = queue.push(0.0103, lambda: None)  # the side heap's head is earlier
        assert queue.peek_time() == 0.0103
        side.cancel()  # a cancelled side-heap head
        assert queue.peek_time() == 0.0104 and not queue._side
        run[0.0104].cancel()  # a cancelled run head, with a live side head behind it
        queue.push(0.0107, lambda: None)
        assert queue.peek_time() == 0.0106 and queue._near[-1][0] == 0.0106
        _assert_tiers(queue)
        assert [queue.pop().time for _ in range(3)] == [0.0106, 0.0107, 0.0109]
        assert len(queue) == 0 and queue.peek_time() is None

    def test_peek_time_looks_past_a_cancelled_bucket(self):
        queue = EventQueue()
        queue.push(0.0101, lambda: None)
        same_bucket = queue.push(0.0102, lambda: None)
        next_bucket = queue.push(0.0115, lambda: None)
        queue.push(7.0, lambda: None)
        assert queue.pop().time == 0.0101
        same_bucket.cancel()
        next_bucket.cancel()
        assert queue.peek_time() == 7.0
        assert len(queue) == 1
        assert queue.pop().time == 7.0

    def test_queue_cancel_takes_a_far_entry_out_and_its_bucket_can_refill(self):
        queue = _CheckedQueue()
        order = []
        handles = {
            time: queue.push(time, lambda time=time: order.append(time))
            for time in (0.0101, 0.5001, 0.5002, 0.7001)
        }
        queue.pop().callback()  # bucket 10 is current; 500 and 700 are far
        queue.cancel(handles[0.5001])
        queue.cancel(handles[0.7001])  # the only entry of bucket 700
        assert [entry[0] for entry in queue._far[500]] == [0.5002]
        assert 700 not in queue._far and 700 in queue._far_buckets  # index left behind
        assert len(queue) == 1 and queue.peek_time() == 0.5002
        queue.push(0.7003, lambda: order.append(0.7003))  # re-push into the emptied bucket
        queue.push(0.7002, lambda: order.append(0.7002))
        _assert_tiers(queue)
        while queue:
            queue.pop().callback()
            _assert_tiers(queue)
        assert order == [0.0101, 0.5002, 0.7002, 0.7003]
        assert queue.pop() is None and not queue._far_buckets

    def test_cancelling_every_far_entry_then_pushing_near_future_events(self):
        queue = _CheckedQueue()
        queue.push(0.0101, lambda: None)
        assert queue.pop().time == 0.0101  # bucket 10 is current
        far = [queue.push(time, lambda: None) for time in (0.02, 0.02, 0.35, 10.0, 10.0005)]
        for event in far:
            queue.cancel(event)
        assert not queue._far and len(queue) == 0 and queue.peek_time() is None
        assert queue._current == 10  # nothing to land on: the queue stayed put
        order = []
        for time in (0.0115, 0.0105, 0.0200):  # next bucket, current bucket, emptied bucket
            queue.push(time, lambda time=time: order.append(time))
        assert queue.peek_time() == 0.0105
        while queue:
            queue.pop().callback()
            _assert_tiers(queue)
        assert order == [0.0105, 0.0115, 0.0200]

    def test_run_with_growing_horizons_past_emptied_buckets(self):
        sim = Simulator()
        sim.queue = _CheckedQueue()
        fired = []
        timers = [sim.schedule_at(time, lambda: fired.append("dead")) for time in (0.004, 0.0045, 2.0)]
        sim.schedule_at(0.001, lambda: [sim.cancel(timer) for timer in timers])
        # re-push into bucket 4 while it is still far, after the cancels emptied it
        sim.schedule_at(0.002, lambda: sim.schedule_at(0.0041, lambda: fired.append(sim.now())))
        sim.schedule_at(0.0052, lambda: fired.append(sim.now()))
        assert sim.run(until=0.0015) == 0.0015
        assert 4 not in sim.queue._far and 2000 not in sim.queue._far and len(sim.queue) == 2
        assert sim.run(until=0.0045) == 0.0045 and fired == [0.0041]
        assert sim.run(until=1.0) == 1.0 and fired == [0.0041, 0.0052]
        assert sim.run(until=3.0) == 3.0 and not sim.queue and not sim.queue._far_buckets
        assert sim.events_processed == 4

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_times_are_a_named_error(self, bad):
        queue = EventQueue()
        with pytest.raises(ValueError, match="finite"):
            queue.push(bad, lambda: None)
        with pytest.raises(ValueError, match="finite"):
            queue.push_calls([bad], [print], 1, [0], 4)
        with pytest.raises(ValueError, match="finite"):
            queue.push_calls([0.5, bad], [print], 1, [0, 0], 4)
        assert len(queue) == 0 and queue.pop() is None
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        with pytest.raises(ValueError, match="finite"):
            sim.run(until=bad)
        assert sim.run() == 1.0


class _HeapSimulator:
    """Reference: the single-binary-heap run loop the calendar queue replaced."""

    def __init__(self):
        self.heap = []
        self.seq = itertools.count()
        self.time = 0.0
        self.delivery_stats = NetworkStats()

    def now(self):
        return self.time

    def schedule_after(self, delay, callback):
        entry = [self.time + delay, next(self.seq), callback, False]
        heapq.heappush(self.heap, entry)
        return entry

    def push_calls(self, times, row, a, bs, c):
        for time, b in zip(times, bs):
            heapq.heappush(self.heap, [time, next(self.seq), lambda b=b: self._deliver(row, a, b, c), False])

    def _deliver(self, row, a, b, c):
        self.delivery_stats.messages_delivered += 1
        row[b](a, c)

    def cancel(self, entry):
        entry[3] = True

    def run(self, until=None):
        while self.heap:
            if self.heap[0][3]:
                heapq.heappop(self.heap)
                continue
            if until is not None and self.heap[0][0] > until:
                self.time = until
                return until
            self.time, _seq, callback, _cancelled = heapq.heappop(self.heap)
            callback()
        if until is not None and self.time < until:
            self.time = until
        return self.time

    def step(self):
        while self.heap:
            time, _seq, callback, cancelled = heapq.heappop(self.heap)
            if not cancelled:
                self.time = time
                callback()
                return True
        return False


#: zero delay, same bucket, bucket neighbours, a WAN hop, far timers
_DELAYS = (0.0, 0.0, 1e-5, 4e-4, BUCKET_SECONDS, 2.5 * BUCKET_SECONDS, 0.04, 1.5, 1e6)


def _edge(until, side):
    """The first bucket edge above ``until``, moved ``side`` ulps (-1, 0, 1)."""
    edge = (bucket_of(until) + 1) * BUCKET_SECONDS
    if side < 0:
        return math.nextafter(edge, 0.0)
    return math.nextafter(edge, math.inf) if side > 0 else edge


def _drive(sim, seed, steps, edges=False):
    """A self-scheduling workload; returns everything observable about it.

    ``steps`` are ``("run", advance, snap)`` — run to a horizon
    ``advance`` past the last one, snapped to the next bucket edge or one
    ulp either side of it when ``snap`` is not None — and ``("step", k)``,
    ``k`` calls of ``step()``.  ``edges`` adds roots at bucket edges and one
    ulp either side of them.
    """
    rng = random.Random(seed)
    log = []
    pending = []
    budget = [300]
    row = _Row(lambda parent, child, _c: log.append((parent, child, sim.now())))

    def fire(ident):
        log.append((ident, sim.now()))
        if pending and rng.random() < 0.3:
            sim.cancel(pending.pop(rng.randrange(len(pending))))
        if rng.random() < 0.05:  # cancel everything pending, far tier included
            for handle in pending:
                sim.cancel(handle)
            pending.clear()
        for child in range(rng.randrange(4)):
            if budget[0] <= 0:
                return
            budget[0] -= 1
            delay = rng.choice(_DELAYS)
            if rng.random() < 0.5:
                sim.push_calls([sim.now() + delay], row, ident, [child], None)
            else:
                name = (ident, child)
                pending.append(sim.schedule_after(delay, lambda name=name: fire(name)))

    for root in range(5):
        sim.schedule_after(rng.choice(_DELAYS), lambda root=root: fire(root))
    if edges:
        for bucket in (1, 2, 3, 40):
            for side in (-1, 0, 1):
                time = _edge((bucket - 0.5) * BUCKET_SECONDS, side)
                sim.schedule_after(time, lambda name=("edge", bucket, side): fire(name))
    returned = []
    until = 0.0
    for step in steps:
        if step[0] == "step":
            returned.append([(sim.step(), sim.now()) for _ in range(step[1])])
            continue
        _kind, advance, snap = step
        until = max(until + advance, sim.now())
        if snap is not None:
            until = _edge(until, snap)
        returned.append((sim.run(until=until), sim.now()))
    returned.append((sim.run(), sim.now()))
    return log, returned, sim.delivery_stats.messages_delivered


_RUN_STEPS = st.tuples(
    st.just("run"),
    # horizons that land mid-bucket, on a boundary, and far out
    st.one_of(
        st.floats(min_value=0.0, max_value=4 * BUCKET_SECONDS),
        st.sampled_from([0.0, BUCKET_SECONDS, 0.04, 2.0]),
    ),
    st.sampled_from([None, None, -1, 0, 1]),
)
_STEP_STEPS = st.tuples(st.just("step"), st.integers(min_value=1, max_value=6))


class TestRunLoopEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        steps=st.lists(st.one_of(_RUN_STEPS, _STEP_STEPS), max_size=12),
        edges=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_run_matches_single_heap_reference(self, seed, steps, edges):
        sim = Simulator()
        sim.queue = _CheckedQueue()
        sim.push_calls = sim.queue.push_calls
        sim.delivery_stats = NetworkStats()
        assert _drive(sim, seed, steps, edges) == _drive(_HeapSimulator(), seed, steps, edges)
        _assert_tiers(sim.queue)

    def test_run_is_reentrant_with_a_growing_horizon(self):
        sim = Simulator()
        fired = []
        times = [0.0102, 0.0104, 0.0104, 0.0108, 0.0131, 0.5]
        for index, time in enumerate(times):
            sim.schedule_at(time, lambda index=index: fired.append((index, sim.now())))
        assert sim.run(until=0.0050) == 0.0050  # whole near tier past the horizon
        assert fired == [] and len(sim.queue) == 6
        assert sim.run(until=0.0104) == 0.0104  # lands mid-bucket, ties included
        assert fired == [(0, 0.0102), (1, 0.0104), (2, 0.0104)]
        assert sim.run(until=0.0104) == 0.0104  # same horizon again: nothing to do
        assert sim.run(until=0.0120) == 0.0120  # rest of the bucket, not the next one
        assert [index for index, _ in fired] == [0, 1, 2, 3]
        assert sim.run(until=1.0) == 1.0
        assert fired[4:] == [(4, 0.0131), (5, 0.5)]
        assert sim.events_processed == 6 and not sim.queue

    def test_step_and_run_share_the_tiers(self):
        sim = Simulator()
        fired = []
        for time in (0.0101, 0.0102, 0.3):
            sim.schedule_at(time, lambda time=time: fired.append(time))
        assert sim.step() and fired == [0.0101]
        assert sim.run(until=0.2) == 0.2 and fired == [0.0101, 0.0102]
        assert sim.step() and sim.now() == 0.3
        assert not sim.step()

    def test_horizon_stop_then_resume_with_both_tiers_live(self):
        sim = Simulator()
        sim.delivery_stats = NetworkStats()
        fired = []
        row = _Row(lambda a, b, _c: fired.append((a, b)))
        sim.push_calls([0.0101, 0.0103, 0.0107], row, "run", [0, 1, 2], None)

        def first():
            fired.append("timer")
            # into the bucket being drained, around what is left of the run
            sim.push_calls([0.0102, 0.0108], row, "side", [3, 4], None)

        sim.schedule_at(0.0100, first)
        assert sim.run(until=0.01015) == 0.01015
        assert fired == ["timer", ("run", 0)] and len(sim.queue) == 4
        assert sim.run(until=0.0105) == 0.0105
        assert fired[2:] == [("side", 3), ("run", 1)]
        assert sim.run() == 0.0108
        assert fired[4:] == [("run", 2), ("side", 4)]
        assert sim.delivery_stats.messages_delivered == 5 and sim.events_processed == 6


class TestBucketRule:
    """:func:`bucket_of` places every entry: ``push`` and ``push_calls`` file
    each time under it, and the run loop's horizon test agrees with it at
    every bucket edge."""

    TIMES = sorted(
        {
            math.nextafter(edge, direction)
            for bucket in (0, 1, 2, 3, 7, 10, 999, 1000, 40_000, 10**9)
            for edge in (bucket * BUCKET_SECONDS,)
            for direction in (0.0, edge, math.inf)
        }
        | {0.0, 0.0105, 0.2, 1.5}
    )

    @staticmethod
    def _filed_under(queue):
        """``{time: bucket}`` as the queue holds them, current bucket included."""
        filed = {entry[0]: queue._current for entry in queue._side}
        for bucket, entries in queue._far.items():
            filed.update((entry[0], bucket) for entry in entries)
        return filed

    @pytest.mark.parametrize("current", [-1, 2, 1000])
    def test_push_and_push_calls_file_each_time_under_bucket_of(self, current):
        expected = {time: max(bucket_of(time), current) for time in self.TIMES}
        for how in ("push", "push_calls"):
            queue = EventQueue()
            queue._current = current
            for time in self.TIMES:
                if how == "push":
                    queue.push(time, lambda: None)
                else:
                    queue.push_calls([time], [print], None, [0], None)
            assert self._filed_under(queue) == expected, how

    @pytest.mark.parametrize("until", TIMES)
    def test_run_fires_exactly_the_entries_at_or_below_the_horizon(self, until):
        sim = Simulator()
        fired = []
        for time in self.TIMES:
            sim.schedule_at(time, lambda time=time: fired.append(time))
        assert sim.run(until=until) == until
        assert fired == [time for time in self.TIMES if time <= until]


class TestRunLoopGarbageCollector:
    """run() quiesces the cyclic collector and always puts it back."""

    @pytest.fixture(autouse=True)
    def _restore_gc(self):
        enabled, threshold = gc.isenabled(), gc.get_threshold()
        yield
        gc.set_threshold(*threshold)
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_gc_state_survives_run_and_a_raising_callback(self, enabled):
        gc.set_threshold(701, 11, 12)
        (gc.enable if enabled else gc.disable)()
        seen = []
        sim = Simulator()
        sim.schedule_at(1.0, lambda: seen.append(gc.isenabled()))
        sim.run(until=2.0)
        assert seen == [False]  # off while events run
        assert gc.isenabled() is enabled and gc.get_threshold() == (701, 11, 12)

        def boom():
            raise RuntimeError("callback failed")

        sim.schedule_at(3.0, boom)
        with pytest.raises(RuntimeError, match="callback failed"):
            sim.run()
        assert gc.isenabled() is enabled and gc.get_threshold() == (701, 11, 12)


class TestCancelReleasesCallback:
    """A directly cancelled event, or one in the near tier, stays queued until
    the queue reaches it, so cancelling must let go of the callback — the
    closure and everything it captured — right away, however it was
    cancelled."""

    @pytest.fixture(autouse=True)
    def _no_cyclic_gc(self):
        # As inside Simulator.run: only reference counting may free things.
        enabled = gc.isenabled()
        gc.disable()
        yield
        if enabled:
            gc.enable()

    @staticmethod
    def _callback():
        class Captured:
            pass

        captured = Captured()
        return (lambda: captured), weakref.ref(captured)

    @pytest.mark.parametrize("time", [0.0, 10.0], ids=["near", "far"])
    @pytest.mark.parametrize("how", ["queue", "event"])
    def test_cancelled_callback_is_collectable_at_once(self, time, how):
        queue = EventQueue()
        queue.push(0.0, lambda: None)
        queue.pop()  # bucket 0 is current: time 0.0 is near, 10.0 is far
        callback, captured = self._callback()
        event = queue.push(time, callback)
        del callback
        assert captured() is not None
        queue.cancel(event) if how == "queue" else event.cancel()
        assert captured() is None
        assert event.callback is None and event.cancelled

    def test_node_timer_releases_its_closure_on_cancel_and_rearm(self):
        sim = Simulator()
        node = _TimerNode(0, DESRuntime(simulator=sim, network=Network(sim)))
        callback, first = self._callback()
        node.set_timer("t", 10.0, callback)
        callback, second = self._callback()
        node.set_timer("t", 10.0, callback)  # re-arming cancels the first
        del callback
        assert first() is None and second() is not None
        node.cancel_timer("t")
        assert second() is None
        assert len(sim.queue) == 0
        assert not sim.queue._far  # node timers cancel through the queue
        assert sim.run(until=20.0) == 20.0

    @pytest.mark.parametrize("time", [0.0005, 0.25], ids=["near", "far"])
    def test_no_entry_point_trips_over_a_released_entry(self, time):
        """run/step/pop/peek_time skip a cancelled, callback-less entry in
        either tier, however it was cancelled."""
        for drive in ("run", "step", "pop", "peek_time"):
            sim = Simulator()
            fired = []
            sim.schedule_at(0.0001, lambda: fired.append("first"))
            assert sim.step()  # current bucket is now 0
            dead = [sim.schedule_at(time, lambda: fired.append("dead")) for _ in range(3)]
            sim.schedule_at(time, lambda: fired.append("live"))
            dead[0].cancel()
            sim.cancel(dead[1])
            sim.queue.cancel(dead[2])
            assert all(event.callback is None for event in dead)
            if drive == "run":
                sim.run()
            elif drive == "step":
                assert sim.step() and not sim.step()
            elif drive == "pop":
                event = sim.queue.pop()
                event.callback()
                assert sim.queue.pop() is None
            else:
                assert sim.queue.peek_time() == time
                sim.run()
            assert fired == ["first", "live"], drive
            assert len(sim.queue) == 0

    def test_simulator_cancel_traces_label_and_time_before_the_release(self):
        trace = TraceRecorder(enabled=True)
        sim = Simulator(trace=trace)
        event = sim.schedule_at(4.0, lambda: None, label="inst3:pbft-round:3:7")
        sim.schedule_at(1.0, lambda: sim.cancel(event))
        sim.run()
        (record,) = trace.by_category("cancel")
        assert record.time == 1.0
        assert record.details == {"label": "inst3:pbft-round:3:7", "at": 4.0}
        assert event.callback is None and event.label == "inst3:pbft-round:3:7"
        sim.cancel(event)  # a no-op cancel stays invisible
        assert len(trace.by_category("cancel")) == 1
