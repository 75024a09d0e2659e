//! Allocation enforcement for the simulator's event queue.
//!
//! A simulator's event queue allocates only as its arena, its current
//! bucket, its overflow heap and its packet slab grow: each wheel slot
//! is a list threaded through the arena, so a slot's first use costs
//! nothing. Each test warms an `EventQueue`'s storage without touching
//! the wheel. One then sweeps the cursor once around all 512 wheel
//! slots, one event per slot plus far events that cross the horizon;
//! the other runs a closed loop of near events behind one far event
//! placed into the emptied queue. Both must allocate nothing.

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

/// The fewest allocations `run` makes over three fresh warm queues (run
/// `trial` is passed `trial`): a one-shot allocation can land in one
/// run, while growth that every run meets lands in all three.
fn fewest_allocs(run: impl Fn(&mut EventQueue, u64)) -> u64 {
    (0..3)
        .map(|trial| {
            let mut q = warm_queue();
            let before = allocs();
            run(&mut q, trial);
            allocs() - before
        })
        .min()
        .unwrap_or(u64::MAX)
}

/// Drives: netsim `EventQueue::schedule`, `pop`, and through them the
/// wheel's link, gather and overflow migration.
#[test]
fn event_wheel_first_sweep_allocates_nothing() {
    let fewest = fewest_allocs(|q, trial| {
        let start = (100 + trial) * WHEEL_SLOTS as u64 * SLOT_NANOS;
        assert_eq!(sweep(q, start), SWEEP_EVENTS);
    });
    assert_eq!(fewest, 0, "allocations in the best sweep");
}

/// Spacing of the closed loop's near events.
const NEAR_STEP: u64 = 10_000;

/// Drives: netsim `EventQueue::schedule` of a far event into an empty
/// queue (it waits in the overflow heap; the cursor stays put), then a
/// closed loop of near events (each pop schedules the next one
/// [`NEAR_STEP`] ns later) for 2 simulated seconds through `pop`,
/// `advance`'s jump to the overflow head, `link`, `gather` and the
/// current bucket, and finally the far event's migration. A cursor
/// moved to the far event would put every near event in the current
/// bucket, which keeps each popped entry until it drains and so grows
/// without bound.
#[test]
fn near_events_behind_a_far_first_event_allocate_nothing() {
    let fewest = fewest_allocs(|q, trial| {
        let start = (100 + trial) * WHEEL_SLOTS as u64 * SLOT_NANOS;
        let far = start + 5_000_000_000;
        let end = start + 2_000_000_000;
        q.schedule(Time::from_nanos(far), timer(0));
        q.schedule(Time::from_nanos(start), timer(1));
        let mut near = 0;
        while let Some((at, _)) = q.pop() {
            let at = at.as_nanos();
            if at == far {
                assert!(q.is_empty(), "the far event pops last");
                continue;
            }
            near += 1;
            if at < end {
                q.schedule(Time::from_nanos(at + NEAR_STEP), timer(1));
            }
        }
        assert_eq!(near, (end - start) / NEAR_STEP + 1);
    });
    assert_eq!(fewest, 0, "allocations in the best loop");
}
