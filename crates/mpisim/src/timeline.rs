//! Busy-interval timelines with gap backfill.
//!
//! Resources in the cost model (NIC ports, RMA lock tokens, OSTs, client
//! links) serialize work in *virtual* time. A naive `busy_until` scalar is
//! order-sensitive: under the event core one rank's fiber runs ahead in
//! virtual time until it parks, booking thousands of short reservations
//! spread across virtual time; a peer that runs later — but whose
//! requests are *earlier* in virtual time — would then queue behind the
//! last booking, serializing ranks that a real machine would interleave.
//! A [`Timeline`] keeps the actual busy intervals and lets a reservation
//! backfill the earliest gap that fits, so the outcome does not depend on
//! which rank happened to book first.
//!
//! The intervals live in chunks of at most [`CHUNK`] entries: a
//! reservation binary-searches the chunks' last ends, then one chunk, and
//! an insert shifts at most one chunk. Busy node NICs hold thousands of
//! intervals, most inserts land a few hundred from the tail, and one flat
//! vector would shift all of them.

/// Most intervals per chunk; a chunk that outgrows it splits in half.
const CHUNK: usize = 128;

/// A set of disjoint busy intervals on the virtual-time axis.
#[derive(Debug)]
pub struct Timeline {
    /// Sorted, non-overlapping `(start, end)` busy intervals, split into
    /// non-empty chunks; concatenated in order they are the sorted list.
    chunks: Vec<Vec<(f64, f64)>>,
    /// Number of intervals across all chunks.
    len: usize,
    /// No reservation may start before this (set when old intervals are
    /// pruned; bounds memory on very long runs).
    floor: f64,
    /// Prune threshold.
    max_intervals: usize,
}

impl Default for Timeline {
    fn default() -> Self {
        Timeline {
            chunks: Vec::new(),
            len: 0,
            floor: 0.0,
            max_intervals: 4096,
        }
    }
}

impl Timeline {
    pub fn new() -> Self {
        Self::default()
    }

    /// A timeline that keeps at most `max` intervals; older history is
    /// pruned and late stragglers are clamped to the pruned horizon.
    pub fn with_capacity_limit(max: usize) -> Self {
        Timeline {
            max_intervals: max.max(16),
            ..Self::default()
        }
    }

    /// Reserve `dur` seconds starting no earlier than `earliest`, taking
    /// the first gap that fits. Returns the granted start time.
    pub fn reserve(&mut self, earliest: f64, dur: f64) -> f64 {
        let earliest = earliest.max(self.floor);
        if dur <= 0.0 {
            return self.next_free_at(earliest);
        }
        if self.len >= self.max_intervals {
            self.prune();
        }
        let earliest = earliest.max(self.floor);
        // Start at the first busy interval ending after `earliest`, then
        // walk forward past every interval the request does not fit before.
        let (mut ci, mut ii) = self.first_ending_after(earliest);
        let mut start = earliest;
        'walk: while let Some(chunk) = self.chunks.get(ci) {
            for &(bs, be) in &chunk[ii..] {
                if start + dur <= bs {
                    break 'walk; // fits in the gap before this interval
                }
                start = start.max(be);
                ii += 1;
            }
            (ci, ii) = (ci + 1, 0);
        }
        self.insert_at(ci, ii, start, start + dur);
        start
    }

    /// The earliest instant ≥ `t` that is not inside a busy interval.
    pub fn next_free_at(&self, t: f64) -> f64 {
        let (ci, ii) = self.first_ending_after(t);
        match self.chunks.get(ci).map(|c| c[ii]) {
            Some((bs, be)) if bs <= t => be,
            _ => t,
        }
    }

    /// End of the last busy interval (the earliest instant after which the
    /// resource is idle forever, given today's bookings). The burst-buffer
    /// drain model uses this to find when staged data has fully reached
    /// the backing store.
    pub fn horizon(&self) -> f64 {
        self.chunks.last().map_or(self.floor, |c| c[c.len() - 1].1)
    }

    /// Total reserved time (diagnostics).
    pub fn total_busy(&self) -> f64 {
        self.intervals().map(|&(s, e)| e - s).sum()
    }

    /// Number of disjoint busy intervals (diagnostics).
    pub fn segments(&self) -> usize {
        self.len
    }

    /// Gaps shorter than this merge away: they are far below the smallest
    /// modeled cost (α ≈ 2 µs) so no reservation could use them, and
    /// coalescing keeps the interval list small under steady load.
    const MERGE_SLACK: f64 = 1.0e-7;

    /// All intervals in order.
    fn intervals(&self) -> impl Iterator<Item = &(f64, f64)> {
        self.chunks.iter().flatten()
    }

    /// Position `(chunk, index)` of the first interval ending after `t`,
    /// or `(chunks.len(), 0)` when none does. Ends ascend because the
    /// intervals are sorted and disjoint.
    fn first_ending_after(&self, t: f64) -> (usize, usize) {
        let ci = self.chunks.partition_point(|c| c[c.len() - 1].1 <= t);
        match self.chunks.get(ci) {
            Some(c) => (ci, c.partition_point(|&(_, e)| e <= t)),
            None => (ci, 0),
        }
    }

    /// Drop the oldest half; nothing may book before the new floor, the
    /// end of the last dropped interval.
    fn prune(&mut self) {
        let half = self.len / 2;
        let (_, floor) = (self.intervals().nth(half - 1).copied())
            .expect("pruning starts at 16 intervals, so the oldest half is non-empty");
        self.floor = floor;
        let mut rest = half;
        self.chunks.retain_mut(|c| {
            let k = rest.min(c.len());
            c.drain(..k);
            rest -= k;
            !c.is_empty()
        });
        self.len -= half;
    }

    /// Insert `[start, end)` before position `(ci, ii)` — an interval, or
    /// `(chunks.len(), 0)` past the last one, as the walk in
    /// [`Timeline::reserve`] leaves it — coalescing with a neighbour
    /// (nearly) adjacent on either side; the common case is a FIFO
    /// append. Neighbours may sit in the adjacent chunk.
    fn insert_at(&mut self, ci: usize, ii: usize, start: f64, end: f64) {
        let prev = match ii {
            0 if ci == 0 => None,
            0 => Some((ci - 1, self.chunks[ci - 1].len() - 1)),
            _ => Some((ci, ii - 1)),
        };
        let has_next = ci < self.chunks.len();
        let touched_prev =
            prev.filter(|&(pc, pi)| start - self.chunks[pc][pi].1 < Self::MERGE_SLACK);
        let touches_next = has_next && self.chunks[ci][ii].0 - end < Self::MERGE_SLACK;
        match (touched_prev, touches_next) {
            (Some((pc, pi)), true) => {
                self.chunks[pc][pi].1 = self.chunks[ci][ii].1;
                self.chunks[ci].remove(ii);
                if self.chunks[ci].is_empty() {
                    self.chunks.remove(ci);
                }
                self.len -= 1;
            }
            (Some((pc, pi)), false) => self.chunks[pc][pi].1 = end,
            (None, true) => self.chunks[ci][ii].0 = start,
            (None, false) => {
                let (ci, ii) = if has_next {
                    (ci, ii)
                } else {
                    // Past the end: append to the last chunk.
                    if self.chunks.is_empty() {
                        self.chunks.push(Vec::new());
                    }
                    let last = self.chunks.len() - 1;
                    (last, self.chunks[last].len())
                };
                let chunk = &mut self.chunks[ci];
                chunk.insert(ii, (start, end));
                if chunk.len() > CHUNK {
                    let upper = chunk.split_off(CHUNK / 2);
                    self.chunks.insert(ci + 1, upper);
                }
                self.len += 1;
            }
        }
        debug_assert!(
            self.chunks
                .iter()
                .all(|c| !c.is_empty() && c.len() <= CHUNK)
                && self.chunks.iter().map(Vec::len).sum::<usize>() == self.len,
            "timeline chunks must be non-empty, bounded and counted"
        );
        debug_assert!(
            self.intervals()
                .zip(self.intervals().skip(1))
                .all(|(a, b)| a.1 <= b.0),
            "timeline intervals must stay sorted and disjoint"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_timeline_grants_immediately() {
        let mut t = Timeline::new();
        assert_eq!(t.reserve(5.0, 1.0), 5.0);
        assert_eq!(t.total_busy(), 1.0);
    }

    #[test]
    fn fifo_appends_coalesce() {
        let mut t = Timeline::new();
        assert_eq!(t.reserve(0.0, 1.0), 0.0);
        assert_eq!(t.reserve(0.0, 1.0), 1.0);
        assert_eq!(t.reserve(0.0, 1.0), 2.0);
        assert_eq!(t.segments(), 1);
        assert_eq!(t.total_busy(), 3.0);
    }

    #[test]
    fn backfills_gaps_left_by_early_runner() {
        // Rank A (its fiber running ahead) books short slots spread over
        // virtual time; rank B's early request must land in the first
        // gap, not after A's last slot.
        let mut t = Timeline::new();
        for i in 0..10 {
            t.reserve(i as f64, 0.1); // busy [i, i+0.1)
        }
        let start = t.reserve(0.0, 0.5);
        assert!(
            (start - 0.1).abs() < 1e-12,
            "expected backfill at 0.1, got {start}"
        );
    }

    #[test]
    fn respects_earliest_inside_gap() {
        let mut t = Timeline::new();
        t.reserve(0.0, 1.0); // [0,1)
        t.reserve(5.0, 1.0); // [5,6)
        assert_eq!(t.reserve(2.0, 1.0), 2.0);
        // Remaining gaps are [1,2) and [3,5): neither fits 2.5 seconds, so
        // the request lands after the last interval.
        assert_eq!(t.reserve(0.0, 2.5), 6.0);
    }

    #[test]
    fn too_small_gaps_are_skipped() {
        let mut t = Timeline::new();
        t.reserve(0.0, 1.0); // [0,1)
        t.reserve(1.5, 1.0); // [1.5,2.5)
                             // 0.5 gap at [1,1.5): a 0.4 fits, a 0.6 does not.
        assert_eq!(t.reserve(0.0, 0.4), 1.0);
        let s = t.reserve(0.0, 0.6);
        assert!(s >= 2.5, "0.6 must not fit before 2.5, got {s}");
    }

    #[test]
    fn zero_duration_reports_next_free_without_booking() {
        let mut t = Timeline::new();
        t.reserve(0.0, 2.0);
        let n = t.segments();
        assert_eq!(t.reserve(1.0, 0.0), 2.0);
        assert_eq!(t.reserve(3.0, 0.0), 3.0);
        assert_eq!(t.segments(), n);
    }

    #[test]
    fn order_insensitive_total_completion() {
        // Booking the same demand in two different real-time orders must
        // give the same last-completion time.
        let demands: Vec<(f64, f64)> = (0..50).map(|i| ((i % 7) as f64 * 0.3, 0.25)).collect();
        let run = |order: &[usize]| {
            let mut t = Timeline::new();
            let mut last: f64 = 0.0;
            for &i in order {
                let (e, d) = demands[i];
                let s = t.reserve(e, d);
                last = last.max(s + d);
            }
            (last, t.total_busy())
        };
        let fwd: Vec<usize> = (0..50).collect();
        let rev: Vec<usize> = (0..50).rev().collect();
        let (l1, b1) = run(&fwd);
        let (l2, b2) = run(&rev);
        assert!((b1 - b2).abs() < 1e-9);
        assert!(
            (l1 - l2).abs() < 0.3 + 1e-9,
            "completion should be scheduling-insensitive: {l1} vs {l2}"
        );
    }

    #[test]
    fn next_free_at_inside_and_outside_busy() {
        let mut t = Timeline::new();
        t.reserve(1.0, 2.0); // [1,3)
        assert_eq!(t.next_free_at(0.0), 0.0);
        assert_eq!(t.next_free_at(1.5), 3.0);
        assert_eq!(t.next_free_at(3.0), 3.0);
    }
}

#[cfg(test)]
mod prune_tests {
    use super::*;

    #[test]
    fn capacity_limit_prunes_and_clamps() {
        let mut t = Timeline::with_capacity_limit(16);
        // Create many scattered (non-coalescing) intervals.
        for i in 0..40 {
            t.reserve(i as f64 * 2.0, 0.5);
        }
        assert!(t.segments() <= 17, "pruning must bound the vector");
        // A straggler far in the past is clamped to the horizon, not lost.
        let s = t.reserve(0.0, 0.1);
        assert!(s > 0.5, "pre-horizon request must be clamped forward");
    }
}

#[cfg(test)]
mod reference_tests {
    use super::*;
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    /// The flat-vector timeline the chunked one replaced: the reference
    /// the differential test holds it to, grant for grant.
    struct VecTimeline {
        busy: Vec<(f64, f64)>,
        floor: f64,
        max_intervals: usize,
    }

    impl VecTimeline {
        fn new(max_intervals: usize) -> Self {
            VecTimeline {
                busy: Vec::new(),
                floor: 0.0,
                max_intervals,
            }
        }

        fn reserve(&mut self, earliest: f64, dur: f64) -> f64 {
            let earliest = earliest.max(self.floor);
            if dur <= 0.0 {
                return self.next_free_at(earliest);
            }
            if self.busy.len() >= self.max_intervals {
                let half = self.busy.len() / 2;
                self.floor = self.busy[half - 1].1;
                self.busy.drain(..half);
            }
            let earliest = earliest.max(self.floor);
            let mut idx = self.busy.partition_point(|&(_, e)| e <= earliest);
            let mut start = earliest;
            while idx < self.busy.len() {
                let (bs, be) = self.busy[idx];
                if start + dur <= bs {
                    break;
                }
                start = start.max(be);
                idx += 1;
            }
            let end = start + dur;
            let slack = Timeline::MERGE_SLACK;
            let touches_prev = idx > 0 && start - self.busy[idx - 1].1 < slack;
            let touches_next = idx < self.busy.len() && self.busy[idx].0 - end < slack;
            match (touches_prev, touches_next) {
                (true, true) => {
                    self.busy[idx - 1].1 = self.busy[idx].1;
                    self.busy.remove(idx);
                }
                (true, false) => self.busy[idx - 1].1 = end,
                (false, true) => self.busy[idx].0 = start,
                (false, false) => self.busy.insert(idx, (start, end)),
            }
            start
        }

        fn next_free_at(&self, t: f64) -> f64 {
            let idx = self.busy.partition_point(|&(_, e)| e <= t);
            match self.busy.get(idx) {
                Some(&(bs, be)) if bs <= t => be,
                _ => t,
            }
        }

        fn horizon(&self) -> f64 {
            self.busy.last().map(|&(_, e)| e).unwrap_or(self.floor)
        }

        fn total_busy(&self) -> f64 {
            self.busy.iter().map(|&(s, e)| e - s).sum()
        }
    }

    /// One request of a random stream. Kinds: backfill anywhere in the
    /// booked span, near the tail (the node-NIC shape), just under or
    /// just over `MERGE_SLACK` past the horizon, and zero or negative
    /// durations.
    fn request(rng: &mut StdRng, horizon: f64) -> (f64, f64) {
        let unit = |rng: &mut StdRng| rng.random::<f64>();
        let dur = 1.0e-6 * (0.05 + 4.0 * unit(rng));
        let slack = Timeline::MERGE_SLACK;
        match rng.next_u64() % 8 {
            0 | 1 => (horizon * unit(rng), dur),
            2 | 3 => (horizon - 2.0e-5 * unit(rng), dur),
            4 => (horizon + slack * (1.0 - 1.0e-3), dur),
            5 => (horizon + slack * (1.0 + 1.0e-3), dur),
            6 => (
                horizon * unit(rng),
                [0.0, -dur][(rng.next_u64() % 2) as usize],
            ),
            _ => (horizon + 1.0e-5 * unit(rng), dur),
        }
    }

    #[test]
    fn chunked_timeline_matches_the_vec_reference_bit_for_bit() {
        let bits = |x: f64| x.to_bits();
        // Limits: pruning inside one chunk, pruning across chunk
        // boundaries, and the default (thousands of intervals, many
        // chunk splits, no pruning).
        for (case, limit) in [16usize, 16, 600, 4096].into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(0x7131_0000 + case as u64);
            let mut got = Timeline::with_capacity_limit(limit);
            let mut want = VecTimeline::new(limit.max(16));
            let mut probe = 0.0;
            let mut most_chunks = 0;
            // First, gaps of exactly `MERGE_SLACK` on both sides of one
            // booking: small multiples of the constant are exact (its
            // mantissa ends in three zero bits), so these sit on the
            // strict `<` boundary and must not coalesce.
            let slack = Timeline::MERGE_SLACK;
            let exact = [(0.0, 1.0), (2.0, 1.0), (6.0, 1.0), (4.0, 1.0)];
            for step in 0..6000 {
                let (earliest, dur) = match exact.get(step) {
                    Some(&(e, d)) => (e * slack, d * slack),
                    None => request(&mut rng, want.horizon()),
                };
                let g = got.reserve(earliest, dur);
                let w = want.reserve(earliest, dur);
                let at = format!("limit {limit} step {step}: reserve({earliest}, {dur})");
                assert_eq!(bits(g), bits(w), "{at}: grant");
                assert_eq!(got.segments(), want.busy.len(), "{at}: segments");
                assert_eq!(bits(got.horizon()), bits(want.horizon()), "{at}: horizon");
                assert_eq!(
                    bits(got.total_busy()),
                    bits(want.total_busy()),
                    "{at}: busy"
                );
                // Probe at the grant, at a random instant and exactly at
                // an interval boundary.
                probe = [g, want.horizon() * rng.random::<f64>(), probe][step % 3];
                for t in [probe, g + dur.max(0.0)] {
                    let (a, b) = (got.next_free_at(t), want.next_free_at(t));
                    assert_eq!(bits(a), bits(b), "{at}: next_free_at({t})");
                }
                most_chunks = most_chunks.max(got.chunks.len());
                if step == exact.len() - 1 {
                    assert_eq!(want.busy.len(), 4, "exact-slack gaps stay open");
                }
            }
            // The streams must reach the paths under test.
            assert!(got.floor > 0.0 || limit == 4096, "limit {limit}: no prune");
            assert!(
                most_chunks > 4 || limit == 16,
                "limit {limit}: {most_chunks} chunks"
            );
        }
    }
}
