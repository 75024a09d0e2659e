//! Allocation enforcement for the simulator's event queue.
//!
//! A simulator's event queue allocates only as its arena, its current
//! bucket, its overflow heap and its packet slab grow: each wheel slot
//! is a list threaded through the arena, so a slot's first use costs
//! nothing. This test warms an `EventQueue`'s storage without touching
//! the wheel, then sweeps the cursor once around all 512 wheel slots,
//! one event per slot plus far events that cross the horizon, and
//! requires the sweep to allocate nothing.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use cm_netsim::event::{EventQueue, SimEvent, SLOT_NANOS, WHEEL_SLOTS};
use cm_netsim::sim::NodeId;
use cm_util::Time;
use counting_alloc::allocs;

fn timer(token: u64) -> SimEvent {
    SimEvent::Timer {
        node: NodeId(0),
        token,
        slot: 0,
        gen: 0,
    }
}

/// Pending events the sweep holds at its peak: one per wheel slot and as
/// many beyond the horizon.
const SWEEP_EVENTS: u64 = 2 * WHEEL_SLOTS as u64;

/// A queue whose arena, current bucket and overflow heap have held
/// [`SWEEP_EVENTS`] events each, with every wheel slot still unused:
/// the near events share the cursor's slot, and the far ones share the
/// slot the cursor then jumps to.
fn warm_queue() -> EventQueue {
    let mut q = EventQueue::new();
    let far = 10 * WHEEL_SLOTS as u64 * SLOT_NANOS;
    for i in 0..SWEEP_EVENTS {
        q.schedule(Time::from_nanos(i), timer(i));
    }
    for i in 0..SWEEP_EVENTS {
        q.schedule(Time::from_nanos(far + i), timer(i));
    }
    while q.pop().is_some() {}
    q
}

/// Schedules one event in each of the 512 wheel slots after `start`'s,
/// and as many again beyond the horizon, then pops them all: the cursor
/// reaches every wheel slot, most of them first through a far event's
/// migration. Returns the events popped.
fn sweep(q: &mut EventQueue, start: u64) -> u64 {
    for i in 0..SWEEP_EVENTS {
        q.schedule(Time::from_nanos(start + i * SLOT_NANOS), timer(i));
    }
    let mut popped = 0;
    while q.pop().is_some() {
        popped += 1;
    }
    popped
}

/// Best of three fresh queues, because a one-shot allocation can land
/// in one; a wheel slot's first use would land in all three.
///
/// Drives: netsim `EventQueue::schedule`, `pop`, and through them the
/// wheel's link, gather and overflow migration.
#[test]
fn event_wheel_first_sweep_allocates_nothing() {
    let mut min_allocs = u64::MAX;
    for trial in 0..3 {
        let mut q = warm_queue();
        let start = (100 + trial) * WHEEL_SLOTS as u64 * SLOT_NANOS;
        let before = allocs();
        let popped = sweep(&mut q, start);
        min_allocs = min_allocs.min(allocs() - before);
        assert_eq!(popped, SWEEP_EVENTS);
    }
    assert_eq!(min_allocs, 0, "allocations in the best sweep");
}
