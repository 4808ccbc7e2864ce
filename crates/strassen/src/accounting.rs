//! Shared event-accounting helpers for the real-path executors.
//!
//! The Strassen and CAPS executors record the same quadrant-pass and
//! task-spawn events; this module is the single home for those helpers
//! (they used to be copy-pasted between the two crates). It also bridges
//! the pool's group-affine steal statistics into the event taxonomy:
//! `steal_snapshot` / `record_steal_delta` attribute the steals a
//! multiply incurred to [`Event::StealsInGroup`] /
//! [`Event::StealsCrossGroup`], which is the measured input to the Eq. 8
//! communication story (cross-group steals are the task migrations that
//! move operand bytes between cache domains).

use powerscale_counters::{Event, EventSet};
use powerscale_matrix::{ops, MatrixView, MatrixViewMut};
use powerscale_pool::ThreadPool;

/// Records one `h × h` elementwise quadrant pass (add/sub/accumulate):
/// `h²` FP additions, two operand reads and one destination write per
/// element.
pub(crate) fn record_add(events: Option<&EventSet>, h: usize) {
    if let Some(set) = events {
        let hh = (h * h) as u64;
        set.record(Event::FpAdds, hh);
        set.record(Event::BytesRead, 16 * hh);
        set.record(Event::BytesWritten, 8 * hh);
    }
}

/// Records entry into one internal recursion node.
pub(crate) fn record_level(events: Option<&EventSet>) {
    if let Some(set) = events {
        set.record(Event::RecursionLevels, 1);
    }
}

/// Records a fan-out of `tasks` sub-products over `h × h` operands: each
/// task may migrate its two half-size inputs to another worker.
pub(crate) fn record_spawns(events: Option<&EventSet>, tasks: u64, h: usize) {
    if let Some(set) = events {
        set.record(Event::TasksSpawned, tasks);
        set.record(Event::CommBytes, tasks * 2 * 8 * (h * h) as u64);
    }
}

/// `dst += src` as one accounted quadrant pass (row-band parallel when a
/// pool is supplied and the operand is tall enough; bitwise transparent).
pub(crate) fn add_pass(
    dst: &mut MatrixViewMut<'_>,
    src: &MatrixView<'_>,
    pool: Option<&ThreadPool>,
    events: Option<&EventSet>,
) {
    let h = dst.rows();
    ops::par_add_assign(dst, src, pool).expect("quadrant shapes");
    record_add(events, h);
}

/// `dst -= src` as one accounted quadrant pass.
pub(crate) fn sub_pass(
    dst: &mut MatrixViewMut<'_>,
    src: &MatrixView<'_>,
    pool: Option<&ThreadPool>,
    events: Option<&EventSet>,
) {
    let h = dst.rows();
    ops::par_sub_assign(dst, src, pool).expect("quadrant shapes");
    record_add(events, h);
}

/// Pool steal counters captured before a multiply, so the delta can be
/// attributed to it afterwards.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StealSnapshot {
    in_group: u64,
    cross_group: u64,
}

/// Captures the pool's current steal-split counters (`None` without a
/// pool).
pub(crate) fn steal_snapshot(pool: Option<&ThreadPool>) -> Option<StealSnapshot> {
    pool.map(|p| {
        let s = p.stats();
        StealSnapshot {
            in_group: s.steals_in_group(),
            cross_group: s.steals_cross_group(),
        }
    })
}

/// Records the steals incurred since `base` as
/// [`Event::StealsInGroup`] / [`Event::StealsCrossGroup`].
pub(crate) fn record_steal_delta(
    events: Option<&EventSet>,
    pool: Option<&ThreadPool>,
    base: Option<StealSnapshot>,
) {
    let (Some(set), Some(p), Some(base)) = (events, pool, base) else {
        return;
    };
    let s = p.stats();
    let in_group = s.steals_in_group().saturating_sub(base.in_group);
    let cross_group = s.steals_cross_group().saturating_sub(base.cross_group);
    if in_group > 0 {
        set.record(Event::StealsInGroup, in_group);
    }
    if cross_group > 0 {
        set.record(Event::StealsCrossGroup, cross_group);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_pass_accounting() {
        let mut set = EventSet::with_all_events();
        set.start().unwrap();
        record_add(Some(&set), 4);
        record_add(None, 4); // no-op
        let p = set.stop().unwrap();
        assert_eq!(p.get(Event::FpAdds), 16);
        assert_eq!(p.get(Event::BytesRead), 256);
        assert_eq!(p.get(Event::BytesWritten), 128);
    }

    #[test]
    fn spawn_accounting() {
        let mut set = EventSet::with_all_events();
        set.start().unwrap();
        record_spawns(Some(&set), 7, 32);
        let p = set.stop().unwrap();
        assert_eq!(p.get(Event::TasksSpawned), 7);
        assert_eq!(p.get(Event::CommBytes), 7 * 2 * 8 * 32 * 32);
    }

    #[test]
    fn steal_delta_attributes_new_steals_only() {
        let pool = ThreadPool::new(3);
        let base = steal_snapshot(Some(&pool)).unwrap();
        // Force some cross-worker traffic: many tiny tasks from outside.
        pool.scope(|s| {
            for _ in 0..64 {
                s.spawn(|_| {
                    std::hint::black_box(0u64);
                });
            }
        });
        let mut set = EventSet::with_all_events();
        set.start().unwrap();
        record_steal_delta(Some(&set), Some(&pool), Some(base));
        let p = set.stop().unwrap();
        let stats = pool.stats();
        assert_eq!(
            p.get(Event::StealsInGroup) + p.get(Event::StealsCrossGroup),
            stats.steals_in_group() + stats.steals_cross_group() - base.in_group - base.cross_group,
        );
        // Ungrouped pool: every steal counts as in-group (`PoolStats`
        // documents it; the opposite assertion stood here and failed
        // whenever a steal actually happened, about one run in three).
        assert_eq!(p.get(Event::StealsCrossGroup), 0);
    }
}
