//! Virtual-time windows for conservative parallel execution.
//!
//! A sharded simulation advances in fixed-width windows of virtual time.
//! Within a window every shard runs independently; the window width is
//! chosen at or below the machine's conservative lookahead (the minimum
//! cross-node access latency — see
//! `Topology::min_cross_node_latency_ns`), so nothing one shard does
//! inside a window can causally reach another shard before the window
//! ends. All cross-shard effects (frame-capacity grants, cache-thrash
//! flushes, counter folds) are applied by one coordinator at window
//! boundaries, in an order keyed on `(SimTime, tenant_id, seq)` — never
//! on shard id or worker id — which is what makes the output
//! byte-identical for any `--shards`/`--jobs` choice.
//!
//! [`WindowClock`] owns the window arithmetic: boundaries are exact
//! multiples of the width, so a given virtual instant lands in the same
//! window no matter how many shards exist, and an idle stretch can be
//! skipped by jumping straight to the window containing the next event
//! machine-wide (a global property, hence equally shard-invariant).

use crate::time::SimTime;

/// Multiple of the conservative lookahead used for the default window
/// width. Larger windows amortise the coordinator round; the merge stays
/// exact because *all* cross-shard coupling is deferred to window
/// boundaries regardless of width — the lookahead multiple only bounds
/// how stale one shard's view of another can get, and every consumer of
/// cross-shard state reads it at window boundaries only.
pub const WINDOW_LOOKAHEAD_MULTIPLE: u64 = 64;

/// Fixed-width virtual-time window sequencer.
#[derive(Debug, Clone)]
pub struct WindowClock {
    width_ns: u64,
    /// Exclusive end of the current window.
    end: SimTime,
    /// Windows executed (coordinator rounds), including skipped jumps.
    windows: u64,
    /// Windows whose entire span held no runnable event and were jumped
    /// over without a round.
    skipped: u64,
}

impl WindowClock {
    /// A clock with `width_ns`-wide windows starting at virtual zero.
    /// Zero widths are clamped to one so the sequencer always advances.
    pub fn new(width_ns: u64) -> Self {
        let width_ns = width_ns.max(1);
        WindowClock {
            width_ns,
            end: SimTime(width_ns),
            windows: 0,
            skipped: 0,
        }
    }

    /// The standard width for a machine with the given conservative
    /// lookahead: [`WINDOW_LOOKAHEAD_MULTIPLE`] × lookahead.
    pub fn width_for_lookahead(lookahead_ns: u64) -> u64 {
        lookahead_ns.max(1) * WINDOW_LOOKAHEAD_MULTIPLE
    }

    /// Exclusive end of the current window: shards run events strictly
    /// before this instant, then report to the coordinator.
    pub fn horizon(&self) -> SimTime {
        self.end
    }

    /// Jump the horizon so the window containing `next_event` is current,
    /// skipping empty windows without rounds. `next_event` must
    /// be at or past the current horizon; boundaries stay exact multiples
    /// of the width, so the jump depends only on the *global* minimum
    /// next-event time — a shard-count-invariant quantity.
    pub fn skip_to(&mut self, next_event: SimTime) {
        debug_assert!(next_event >= self.end, "skip_to target inside window");
        let gap = next_event.ns() - self.end.ns();
        let jumped = gap / self.width_ns + 1;
        self.windows += 1;
        self.skipped += jumped - 1;
        self.end = SimTime(self.end.ns() + jumped * self.width_ns);
    }

    /// Coordinator rounds taken so far.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Empty windows jumped without a round.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }
}

/// Deterministically merge per-stream event runs into one sequence.
///
/// `runs` holds, per stream (tenant), the events that stream produced in
/// its own order. The merged order is by `(key, stream_id, intra-stream
/// index)` — a stable sort keyed on the caller-supplied time key with
/// stream id then emission order breaking ties. Because the key never
/// mentions shard or worker identity, the merged sequence is identical
/// however the streams were packed onto threads.
pub fn merge_streams<T, K: Ord>(runs: Vec<Vec<T>>, mut key: impl FnMut(&T) -> K) -> Vec<T> {
    let total = runs.iter().map(Vec::len).sum();
    let mut tagged: Vec<(K, usize, usize, T)> = Vec::with_capacity(total);
    for (stream, run) in runs.into_iter().enumerate() {
        for (seq, item) in run.into_iter().enumerate() {
            tagged.push((key(&item), stream, seq, item));
        }
    }
    tagged.sort_by(|a, b| (&a.0, a.1, a.2).cmp(&(&b.0, b.1, b.2)));
    tagged.into_iter().map(|(_, _, _, item)| item).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skip_jumps_to_window_containing_event() {
        let mut w = WindowClock::new(100);
        // Next event at t=450: current window [0,100) is done, event's
        // window is [400,500) so horizon jumps to 500.
        w.skip_to(SimTime(450));
        assert_eq!(w.horizon(), SimTime(500));
        assert_eq!(w.windows(), 1);
        assert_eq!(w.skipped(), 3);
        // Event exactly on the horizon: only the next window is entered.
        w.skip_to(SimTime(500));
        assert_eq!(w.horizon(), SimTime(600));
        assert_eq!(w.skipped(), 3);
    }

    #[test]
    fn skip_on_boundary_multiple() {
        let mut w = WindowClock::new(100);
        // Event exactly at a later boundary: window [700,800).
        w.skip_to(SimTime(700));
        assert_eq!(w.horizon(), SimTime(800));
        assert_eq!(w.skipped(), 6);
    }

    #[test]
    fn zero_width_clamped() {
        assert_eq!(WindowClock::new(0).horizon(), SimTime(1));
    }

    #[test]
    fn merge_orders_by_key_then_stream_then_seq() {
        // Stream 1's event at t=5 must sort before stream 0's at t=7,
        // and ties on time resolve by stream id, then emission order.
        let runs = vec![vec![(7u64, "a0"), (9, "a1")], vec![(5u64, "b0"), (7, "b1")]];
        let merged = merge_streams(runs, |e| e.0);
        let names: Vec<&str> = merged.iter().map(|e| e.1).collect();
        assert_eq!(names, ["b0", "a0", "b1", "a1"]);
    }

    #[test]
    fn merge_is_packing_invariant() {
        // The same streams merged from differently-ordered run vectors
        // (simulating different shard packings) give the same sequence —
        // as long as stream ids are stable, which the orchestrator
        // guarantees by indexing runs by tenant id.
        let a = vec![vec![(1u64, 0usize)], vec![(1, 1)], vec![(0, 2)]];
        let merged = merge_streams(a, |e| e.0);
        assert_eq!(
            merged.iter().map(|e| e.1).collect::<Vec<_>>(),
            vec![2, 0, 1]
        );
    }
}
