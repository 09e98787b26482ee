//! Constant-stride stream prefetcher (the L2 unit of the paper).

/// One tracked access stream.
#[derive(Debug, Clone, Copy)]
struct Stream {
    /// Last demand line observed for this stream.
    last: u64,
    /// Detected stride in lines (may be negative).
    stride: i64,
    /// Consecutive confirmations of `stride`.
    confidence: u8,
    /// Furthest line already prefetched for this stream.
    frontier: u64,
    /// LRU stamp.
    stamp: u64,
}

/// A stream-table constant-stride prefetcher.
///
/// Mirrors the paper's model of the Intel L2 prefetcher: it detects
/// constant strides (unit or not — "modern hardware prefetching units are
/// also capable of detecting non-unit strides"), issues `degree`
/// (`L2pref`) prefetches per triggering access, and never runs more than
/// `max_distance` (`L2maxpref`) lines ahead of the demand stream.
///
/// Two knobs generalise the table into the rest of the stride family:
/// `min_confidence` (the confirmations a stream needs before issuing —
/// the paper's unit is hard-wired to 2) parameterises the
/// *confident-stride* strategy, and `unit_only` restricts issuing to
/// unit-stride streams, which is the *stream-with-confirmation* engine
/// styled after AMD L2 units. All knob settings share the identical
/// table mechanics, so the run engine's steady-state contract holds for
/// every member of the family.
#[derive(Debug, Clone)]
pub(crate) struct StridePrefetcher {
    streams: Vec<Stream>,
    capacity: usize,
    degree: usize,
    max_distance: u64,
    clock: u64,
    /// Window (in lines) within which a new address is matched to an
    /// existing stream.
    match_window: i64,
    /// Confirmations a stream needs before any prefetch issues.
    min_confidence: u8,
    /// When set, only unit-stride (±1 line) streams ever issue.
    unit_only: bool,
    /// Streams allocated since construction/reset. The run engine's
    /// steady-state detector requires a creation-free cycle: allocation
    /// is the only event that reads absolute stamps (LRU victim choice)
    /// and permutes table indices (`swap_remove`).
    creations: u64,
}

impl StridePrefetcher {
    /// Creates a prefetcher with the given degree (`L2pref`) and maximum
    /// run-ahead distance in lines (`L2maxpref`).
    pub(crate) fn new(degree: usize, max_distance: usize) -> Self {
        StridePrefetcher {
            streams: Vec::new(),
            capacity: 32,
            degree,
            max_distance: max_distance as u64,
            clock: 0,
            match_window: 64,
            min_confidence: 2,
            unit_only: false,
            creations: 0,
        }
    }

    /// [`StridePrefetcher::new`] with an explicit confirmation threshold
    /// (the `ConfidentStride` strategy; `new` fixes it at 2).
    pub(crate) fn with_confidence(
        degree: usize,
        max_distance: usize,
        min_confidence: u8,
    ) -> Self {
        let mut p = Self::new(degree, max_distance);
        p.min_confidence = min_confidence;
        p
    }

    /// A stream-with-confirmation engine (the `Stream` strategy): only
    /// unit-stride streams issue, after `confirm` confirmations.
    pub(crate) fn stream(degree: usize, max_distance: usize, confirm: u8) -> Self {
        let mut p = Self::with_confidence(degree, max_distance, confirm);
        p.unit_only = true;
        p
    }

    /// Whether a stream with this stride may issue under the unit-stride
    /// restriction.
    #[inline]
    fn issues_for(&self, stride: i64) -> bool {
        !self.unit_only || stride.unsigned_abs() == 1
    }

    /// Observes a demand access to `line`: appends the lines to prefetch
    /// (none until a stream's stride is confirmed) to `out` and returns
    /// the index of the stream the access was matched to (`None` when a
    /// new stream was allocated or prefetching is disabled).
    pub(crate) fn observe_into(&mut self, line: u64, out: &mut Vec<u64>) -> Option<usize> {
        self.clock += 1;
        if self.degree == 0 {
            return None;
        }

        // Find the stream this access extends: best = the one whose
        // predicted next line is exactly `line`, else the nearest one
        // within the match window.
        let mut best: Option<usize> = None;
        let mut best_score = i64::MAX;
        for (i, s) in self.streams.iter().enumerate() {
            let predicted = s.last.wrapping_add(s.stride as u64);
            if predicted == line && s.stride != 0 {
                best = Some(i);
                break;
            }
            let d = (line as i64).wrapping_sub(s.last as i64);
            if d != 0 && d.abs() <= self.match_window && d.abs() < best_score {
                best = Some(i);
                best_score = d.abs();
            }
        }

        match best {
            Some(i) => {
                let delta = (line as i64).wrapping_sub(self.streams[i].last as i64);
                let s = &mut self.streams[i];
                if delta == 0 {
                    s.stamp = self.clock;
                    return Some(i);
                }
                if delta == s.stride {
                    s.confidence = s.confidence.saturating_add(1);
                } else {
                    s.stride = delta;
                    s.confidence = 1;
                    s.frontier = line;
                }
                s.last = line;
                s.stamp = self.clock;
                let (confidence, stride) = (s.confidence, s.stride);
                if confidence >= self.min_confidence && self.issues_for(stride) {
                    let s = &mut self.streams[i];
                    Self::run_ahead(s, line, self.degree, self.max_distance, out);
                }
                Some(i)
            }
            None => {
                if self.streams.len() == self.capacity {
                    let oldest = self
                        .streams
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, s)| s.stamp)
                        .map(|(i, _)| i)
                        .expect("capacity > 0");
                    self.streams.swap_remove(oldest);
                }
                self.creations += 1;
                self.streams.push(Stream {
                    last: line,
                    stride: 0,
                    confidence: 0,
                    frontier: line,
                    stamp: self.clock,
                });
                None
            }
        }
    }

    /// Advances `s`'s frontier up to `degree` prefetches ahead of `line`,
    /// bounded by the run-ahead distance. Exactly the confirmed-stride
    /// tail of [`StridePrefetcher::observe_into`], shared with the
    /// expected-stream fast path.
    fn run_ahead(
        s: &mut Stream,
        line: u64,
        degree: usize,
        max_distance: u64,
        out: &mut Vec<u64>,
    ) {
        let stride = s.stride;
        // The frontier never lags the demand stream.
        if (stride > 0 && s.frontier < line) || (stride < 0 && s.frontier > line) {
            s.frontier = line;
        }
        let limit = max_distance.saturating_mul(stride.unsigned_abs().max(1));
        for _ in 0..degree {
            let next = (s.frontier as i64).wrapping_add(stride) as u64;
            let ahead = (next as i64 - line as i64).unsigned_abs();
            if ahead > limit {
                break;
            }
            s.frontier = next;
            out.push(next);
        }
    }

    /// Whether stream `i` exists and predicts exactly `line` with a
    /// nonzero stride — the precondition for
    /// [`StridePrefetcher::observe_expected`].
    pub(crate) fn expects(&self, i: usize, line: u64) -> bool {
        self.streams
            .get(i)
            .is_some_and(|s| s.stride != 0 && s.last.wrapping_add(s.stride as u64) == line)
    }

    /// Fast-path observe for a line already known (via
    /// [`StridePrefetcher::expects`]) to be the exact predicted successor
    /// of stream `i`: skips the table scan, performing the identical
    /// state transition the scan-based observe would.
    pub(crate) fn observe_expected(&mut self, i: usize, line: u64, out: &mut Vec<u64>) {
        self.clock += 1;
        let s = &mut self.streams[i];
        debug_assert!(s.stride != 0 && s.last.wrapping_add(s.stride as u64) == line);
        s.confidence = s.confidence.saturating_add(1);
        s.last = line;
        s.stamp = self.clock;
        let (confidence, stride) = (s.confidence, s.stride);
        if confidence >= self.min_confidence && self.issues_for(stride) {
            let s = &mut self.streams[i];
            Self::run_ahead(s, line, self.degree, self.max_distance, out);
        }
    }

    /// Ramp-regime view of stream `i` for the run engine's fast feed
    /// paths: `(r, limit, degree)` where `r` is the signed frontier
    /// run-ahead `(frontier - last) * signum(stride)` in lines, `limit`
    /// the run-ahead cap `max_distance * |stride|`, and `degree` the
    /// per-feed push budget. `limit` and `degree` are invariant along a
    /// locked stretch (the stride never changes under expected feeds).
    pub(crate) fn ramp_state(&self, i: usize) -> (i64, u64, u32) {
        let s = &self.streams[i];
        let st = s.stride.unsigned_abs();
        let limit = self.max_distance.saturating_mul(st);
        let r = if s.stride >= 0 {
            s.frontier.wrapping_sub(s.last) as i64
        } else {
            s.last.wrapping_sub(s.frontier) as i64
        };
        (r, limit, self.degree as u32)
    }

    /// [`StridePrefetcher::observe_expected`] specialised to a feed whose
    /// pushes are all pre-denied by the caller's throttle arithmetic and
    /// whose ramp regime guarantees exactly `degree` pushes (no frontier
    /// lag, no limit break): the identical stream transition with the
    /// emitted lines dropped unmaterialised.
    pub(crate) fn feed_denied(&mut self, i: usize, line: u64) {
        self.clock += 1;
        let advance = (self.degree as i64).wrapping_mul(self.streams[i].stride);
        let s = &mut self.streams[i];
        debug_assert!(s.stride != 0 && s.last.wrapping_add(s.stride as u64) == line);
        // The regime implies a prior confirming feed, so the push budget
        // is live (confidence reaches >= 2 with this feed).
        debug_assert!(s.confidence >= 1);
        s.confidence = s.confidence.saturating_add(1);
        s.last = line;
        s.stamp = self.clock;
        s.frontier = (s.frontier as i64).wrapping_add(advance) as u64;
    }

    /// [`StridePrefetcher::observe_expected`] specialised to a parked
    /// stream (`parked(i)` true, `line` the exact predicted successor):
    /// the identical transition, returning the single line the full path
    /// would have emitted.
    pub(crate) fn feed_parked(&mut self, i: usize, line: u64) -> u64 {
        self.clock += 1;
        let s = &mut self.streams[i];
        debug_assert!(s.stride != 0 && s.last.wrapping_add(s.stride as u64) == line);
        debug_assert!(s.confidence >= 1);
        s.confidence = s.confidence.saturating_add(1);
        s.last = line;
        s.stamp = self.clock;
        let next = (s.frontier as i64).wrapping_add(s.stride) as u64;
        s.frontier = next;
        next
    }

    /// How many consecutive lines of the arithmetic sequence starting at
    /// `next_line` with stride `stride` are safe from exact-match capture
    /// by a stream with index *below* `f` (the table scan breaks at the
    /// first exact predicted match, so only lower indices can preempt
    /// `f`; nearest-window candidates never beat an exact match).
    pub(crate) fn capture_free_steps(&self, f: usize, next_line: u64, stride: i64) -> u64 {
        debug_assert!(stride != 0);
        let mut safe = u64::MAX;
        for s in &self.streams[..f.min(self.streams.len())] {
            if s.stride == 0 {
                continue;
            }
            let predicted = s.last.wrapping_add(s.stride as u64);
            // First k >= 0 with next_line + k*stride == predicted. The
            // wrapped difference reinterpreted as signed is exact for all
            // realistic distances (|diff| < 2^63). Division stays in
            // 64-bit arithmetic (the 128-bit form compiles to a libcall
            // on the replay hot path); unit strides avoid it entirely.
            let diff = predicted.wrapping_sub(next_line) as i64;
            let k: i128 = match stride {
                1 => i128::from(diff),
                -1 => -i128::from(diff),
                st => match (diff.checked_rem(st), diff.checked_div(st)) {
                    (Some(r), _) if r != 0 => continue,
                    (Some(_), Some(q)) => i128::from(q),
                    // i64::MIN / -1 style overflow: widen.
                    _ => {
                        let (d, w) = (i128::from(diff), i128::from(st));
                        if d % w != 0 {
                            continue;
                        }
                        d / w
                    }
                },
            };
            if (0..safe as i128).contains(&k) {
                safe = k as u64;
                if safe == 0 {
                    return 0;
                }
            }
        }
        safe
    }

    /// Streams allocated so far (see the `creations` field).
    pub(crate) fn creations(&self) -> u64 {
        self.creations
    }

    /// Whether this table equals `snap` (a clone taken earlier)
    /// translated by `t` line addresses: the same allocation count and,
    /// index by index, the same stride and confidence with `last` and
    /// `frontier` shifted by `t`. The clock and the LRU stamps are
    /// ignored: only their relative order is ever read, and a
    /// creation-free cycle preserves it.
    pub(crate) fn matches_translated(&self, snap: &StridePrefetcher, t: i64) -> bool {
        self.creations == snap.creations
            && self.streams.len() == snap.streams.len()
            && self.streams.iter().zip(&snap.streams).all(|(c, s)| {
                c.stride == s.stride
                    && c.confidence == s.confidence
                    && c.last == s.last.wrapping_add_signed(t)
                    && c.frontier == s.frontier.wrapping_add_signed(t)
            })
    }

    /// Translates every stream by `shift` line addresses.
    pub(crate) fn translate(&mut self, shift: i64) {
        for s in &mut self.streams {
            s.last = s.last.wrapping_add_signed(shift);
            s.frontier = s.frontier.wrapping_add_signed(shift);
        }
    }

    /// Drops all tracked streams.
    pub(crate) fn reset(&mut self) {
        self.streams.clear();
        self.creations = 0;
    }

    /// [`StridePrefetcher::observe_into`] returning the prefetch lines.
    #[cfg(test)]
    pub(crate) fn observe(&mut self, line: u64) -> Vec<u64> {
        let mut out = Vec::new();
        self.observe_into(line, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_stride_detected_after_two_confirmations() {
        let mut p = StridePrefetcher::new(2, 20);
        assert!(p.observe(100).is_empty()); // new stream
        assert!(p.observe(101).is_empty()); // confidence 1
        let pf = p.observe(102); // confidence 2 -> prefetch
        assert_eq!(pf, vec![103, 104]);
    }

    #[test]
    fn non_unit_stride_detected() {
        let mut p = StridePrefetcher::new(1, 20);
        p.observe(0);
        p.observe(8);
        let pf = p.observe(16);
        assert_eq!(pf, vec![24]);
    }

    #[test]
    fn negative_stride_detected() {
        let mut p = StridePrefetcher::new(1, 20);
        p.observe(1000);
        p.observe(996);
        let pf = p.observe(992);
        assert_eq!(pf, vec![988]);
    }

    #[test]
    fn distance_limit_caps_runahead() {
        let mut p = StridePrefetcher::new(4, 3);
        p.observe(0);
        p.observe(1);
        // Frontier can reach at most line 2 + 3 = 5.
        let pf = p.observe(2);
        assert_eq!(pf, vec![3, 4, 5]);
        // No further prefetch until demand advances.
        let pf = p.observe(3);
        assert_eq!(pf, vec![6]);
    }

    #[test]
    fn stride_change_resets_confidence() {
        let mut p = StridePrefetcher::new(2, 20);
        p.observe(0);
        p.observe(1);
        assert!(!p.observe(2).is_empty());
        // Break the stride: jump by 5 (within match window).
        assert!(p.observe(7).is_empty());
        assert!(!p.observe(12).is_empty()); // re-confirms at delta 5
    }

    #[test]
    fn far_accesses_form_separate_streams() {
        let mut p = StridePrefetcher::new(1, 20);
        p.observe(0);
        p.observe(1_000_000);
        p.observe(1);
        p.observe(1_000_001);
        let a = p.observe(2);
        let b = p.observe(1_000_002);
        assert_eq!(a, vec![3]);
        assert_eq!(b, vec![1_000_003]);
    }

    #[test]
    fn zero_degree_never_prefetches() {
        let mut p = StridePrefetcher::new(0, 20);
        p.observe(0);
        p.observe(1);
        assert!(p.observe(2).is_empty());
    }

    #[test]
    fn reset_forgets_streams() {
        let mut p = StridePrefetcher::new(1, 20);
        p.observe(0);
        p.observe(1);
        p.reset();
        assert!(p.observe(2).is_empty());
        assert!(p.observe(3).is_empty());
    }

    #[test]
    fn table_capacity_recycles_oldest() {
        let mut p = StridePrefetcher::new(1, 20);
        // Create 40 distinct far-apart streams; table holds 32.
        for s in 0..40u64 {
            p.observe(s * 1_000_000);
        }
        // The first stream was evicted; re-observing shouldn't match it.
        assert!(p.observe(1).is_empty());
        assert_eq!(p.creations(), 41);
    }

    #[test]
    fn expected_path_matches_scan_path() {
        let mut scan = StridePrefetcher::new(2, 20);
        let mut fast = StridePrefetcher::new(2, 20);
        // Warm both on the same stride-3 stream.
        for line in [0u64, 3, 6] {
            scan.observe(line);
            fast.observe(line);
        }
        let mut buf = Vec::new();
        for line in (9..60).step_by(3) {
            let slow = scan.observe(line);
            assert!(fast.expects(0, line));
            buf.clear();
            fast.observe_expected(0, line, &mut buf);
            assert_eq!(slow, buf, "line {line}");
        }
        assert_eq!(fast.capture_free_steps(0, 60, 3), u64::MAX);
    }

    #[test]
    fn confidence_threshold_delays_issuing() {
        // min_confidence 4: the stride must repeat four times.
        let mut p = StridePrefetcher::with_confidence(2, 20, 4);
        assert!(p.observe(100).is_empty()); // new stream
        assert!(p.observe(101).is_empty()); // confidence 1
        assert!(p.observe(102).is_empty()); // confidence 2
        assert!(p.observe(103).is_empty()); // confidence 3
        assert_eq!(p.observe(104), vec![105, 106]); // confidence 4
    }

    #[test]
    fn stream_engine_ignores_non_unit_strides() {
        let mut p = StridePrefetcher::stream(2, 20, 2);
        p.observe(0);
        p.observe(8);
        assert!(p.observe(16).is_empty(), "non-unit stride must never issue");
        assert!(p.observe(24).is_empty());
        // A unit-stride stream issues normally after `confirm` repeats.
        let mut p = StridePrefetcher::stream(2, 20, 2);
        p.observe(1000);
        p.observe(1001);
        assert_eq!(p.observe(1002), vec![1003, 1004]);
        // Descending unit stride counts too.
        let mut p = StridePrefetcher::stream(1, 20, 2);
        p.observe(5000);
        p.observe(4999);
        assert_eq!(p.observe(4998), vec![4997]);
    }

    #[test]
    fn default_knobs_match_the_seed_unit() {
        // `new` is the paper's unit: threshold 2, any stride.
        let a = StridePrefetcher::new(2, 20);
        let b = StridePrefetcher::with_confidence(2, 20, 2);
        assert_eq!(a.min_confidence, b.min_confidence);
        assert!(!a.unit_only);
    }

    #[test]
    fn expected_path_matches_scan_path_with_knobs() {
        for (mk, label) in [
            (StridePrefetcher::with_confidence(2, 20, 4), "confident"),
            (StridePrefetcher::stream(2, 20, 3), "stream"),
        ] {
            let mut scan = mk.clone();
            let mut fast = mk;
            for line in [0u64, 1, 2] {
                scan.observe(line);
                fast.observe(line);
            }
            let mut buf = Vec::new();
            for line in 3..40u64 {
                let slow = scan.observe(line);
                assert!(fast.expects(0, line), "{label} line {line}");
                buf.clear();
                fast.observe_expected(0, line, &mut buf);
                assert_eq!(slow, buf, "{label} line {line}");
            }
        }
    }

    #[test]
    fn capture_free_steps_finds_lower_stream_collision() {
        let mut p = StridePrefetcher::new(1, 20);
        // Stream 0: allocated at 100, then 110 (within the match window)
        // sets its stride to 10, so it predicts 120.
        p.observe(100);
        p.observe(110);
        // Stream 1: allocated far away at 1_000_000, then 1_000_004 sets
        // its stride to 4, so it predicts 1_000_008.
        p.observe(1_000_000);
        p.observe(1_000_004);
        // Stream 1's lines 1_000_008, 1_000_012, ... never collide with
        // stream 0's prediction of 120.
        assert_eq!(p.capture_free_steps(1, 1_000_008, 4), u64::MAX);
        // A sequence that walks straight into the prediction: from 100,
        // stride 5 → 100+4*5 = 120 = stream 0's predicted line.
        assert_eq!(p.capture_free_steps(1, 100, 5), 4);
    }

    /// A table whose one unit-stride stream is parked at the run-ahead
    /// limit with saturated confidence: each further feed only shifts it.
    fn steady_table() -> StridePrefetcher {
        let mut p = StridePrefetcher::new(2, 4);
        for line in 0..300u64 {
            p.observe(line);
        }
        assert_eq!(p.streams[0].confidence, u8::MAX);
        p
    }

    #[test]
    fn cycle_match_contract() {
        // One feed shifted by t = 1 matches the snapshot under t, although
        // the clock and the stream's stamp moved on.
        let snap = steady_table();
        let mut p = snap.clone();
        p.observe(300);
        assert_ne!(p.clock, snap.clock);
        assert_ne!(p.streams[0].stamp, snap.streams[0].stamp);
        assert!(p.matches_translated(&snap, 1));
        assert!(!p.matches_translated(&snap, 0));
        assert!(!p.matches_translated(&snap, 2));

        // A stream allocation in between never matches...
        let mut q = snap.clone();
        q.observe(1 << 40);
        q.observe(300);
        assert!(!q.matches_translated(&snap, 1));
        // ...and the allocation counter alone is enough to reject.
        let mut q = p.clone();
        q.creations += 1;
        assert!(!q.matches_translated(&snap, 1));

        // A confidence change rejects: a young stream gains one
        // confirmation per feed while `last` and `frontier` shift by 1.
        let mut young = StridePrefetcher::new(1, 20);
        for line in 0..3u64 {
            young.observe(line);
        }
        let young_snap = young.clone();
        young.observe(3);
        assert_eq!(young.streams[0].last, young_snap.streams[0].last + 1);
        assert_eq!(young.streams[0].frontier, young_snap.streams[0].frontier + 1);
        assert!(!young.matches_translated(&young_snap, 1));
        // So does a stride change.
        let mut q = snap.clone();
        q.observe(301);
        assert_eq!(q.streams[0].stride, 2);
        assert!(!q.matches_translated(&snap, 2));

        // Translating back by -t restores a match at t = 0.
        p.translate(-1);
        assert!(p.matches_translated(&snap, 0));
    }
}
