//! Mutable simulation state: processors, threads, streams and stacks,
//! plus the per-processor non-protocol clocks that drive cache aging.
//!
//! The key bookkeeping device is the **non-protocol clock** of each
//! processor: `np(p, t) = t − (protocol busy time on p)`. Because the
//! general non-protocol workload runs whenever a processor is not
//! executing protocol code (the paper assumes an infinite backlog of
//! such work), the cumulative non-protocol execution since any past
//! event is just the difference of this clock — exactly the `x_i` that
//! the paper feeds into `F1/F2`. Protocol activity does not advance the
//! clock, so footprint components do not age while protocol code runs.
//!
//! # Layout: struct-of-arrays
//!
//! Hot state is stored as parallel arrays ([`Procs`], [`LocTable`])
//! rather than arrays of structs. Dispatch is a scan: every decision
//! walks *all* processors reading one or two fields of each (the
//! availability byte, the last-run location), so a field-major layout
//! keeps each scan inside a handful of cache lines instead of striding
//! over full per-processor records. This mirrors the paper's own
//! argument — the cost of a scheduling decision is dominated by what it
//! must pull into cache — applied to the simulator itself.
//!
//! The derived `avail` vector caches the schedulability predicate
//! (`idle && healthy`), so the per-dispatch scan reads one contiguous
//! byte per processor. Every mutation of activity or health goes
//! through a setter that refreshes it; the raw fields are private to
//! make bypassing the setters impossible.

use afs_desim::time::{SimDuration, SimTime};

use afs_cache::model::exec_time::Age;
use afs_sched::HashedLru;

/// A packet waiting for or receiving service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Packet {
    /// Per-run unique sequence number (assigned at arrival; duplicate
    /// wire copies get distinct numbers). Keys the observability trace.
    pub seq: u64,
    /// Owning stream.
    pub stream: u32,
    /// Arrival instant.
    pub arrival: SimTime,
    /// Payload bytes (drives the copying-overhead extension).
    pub size_bytes: f64,
    /// Corrupted on the wire: the receive path will reject it partway
    /// through, consuming service without delivering and never touching
    /// stream state.
    pub corrupt: bool,
}

/// What a processor is doing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProcActivity {
    /// Running the non-protocol workload (instantly preemptible).
    NonProtocol,
    /// Executing protocol code for a packet (non-preemptible).
    Protocol {
        /// The packet being served.
        packet: Packet,
        /// IPS stack executing, if any.
        stack: Option<u32>,
        /// Service completes at this time.
        done_at: SimTime,
    },
}

/// Processor health under the processor-fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProcHealth {
    /// Healthy and schedulable.
    #[default]
    Up,
    /// Frozen inside a stall window: finishes nothing, takes nothing,
    /// keeps its cache.
    Stalled,
    /// Crashed: its cache state is gone and it takes no work until (and
    /// unless) a revive event brings it back cold.
    Down,
}

/// All per-processor state, field-major.
///
/// Each vector has one slot per processor. `avail` is derived from
/// `activity` × `health` and kept exact by the setters — the dispatch
/// scans and the policy views read it as a contiguous byte array.
#[derive(Debug, Clone)]
pub struct Procs {
    /// Schedulability byte: `is_idle && health == Up`, derived.
    avail: Vec<bool>,
    /// Current activity.
    activity: Vec<ProcActivity>,
    /// Fault-plan health (always [`ProcHealth::Up`] on a clean run).
    health: Vec<ProcHealth>,
    /// Service-time multiplier from a slowdown fault (1.0 = nominal).
    slow_factor: Vec<f64>,
    /// Cumulative protocol execution time (µs) — the complement of the
    /// non-protocol clock.
    proto_busy_us: Vec<f64>,
    /// Non-protocol clock value when protocol work last completed here
    /// (`None` = protocol never ran on this processor).
    np_at_last_protocol: Vec<Option<f64>>,
    /// Wall-clock time protocol work last completed here (for
    /// most-recently-active tie-breaking).
    last_protocol_end: Vec<Option<SimTime>>,
    /// Packets served.
    served: Vec<u64>,
    /// Count of `true` entries in `avail` — lets dispatch skip a whole
    /// scan (and every policy evaluation behind it) when saturated.
    n_avail: usize,
}

impl Procs {
    /// `n` fresh processors running non-protocol work.
    pub fn new(n: usize) -> Self {
        Procs {
            avail: vec![true; n],
            activity: vec![ProcActivity::NonProtocol; n],
            health: vec![ProcHealth::Up; n],
            slow_factor: vec![1.0; n],
            proto_busy_us: vec![0.0; n],
            np_at_last_protocol: vec![None; n],
            last_protocol_end: vec![None; n],
            served: vec![0; n],
            n_avail: n,
        }
    }

    /// Number of processors.
    pub fn len(&self) -> usize {
        self.avail.len()
    }

    /// True when there are no processors (clippy convention).
    pub fn is_empty(&self) -> bool {
        self.avail.is_empty()
    }

    fn refresh_avail(&mut self, p: usize) {
        let now = matches!(self.activity[p], ProcActivity::NonProtocol)
            && self.health[p] == ProcHealth::Up;
        let was = std::mem::replace(&mut self.avail[p], now);
        self.n_avail = self.n_avail + usize::from(now) - usize::from(was);
    }

    /// Is processor `p` free to take protocol work?
    pub fn is_idle(&self, p: usize) -> bool {
        matches!(self.activity[p], ProcActivity::NonProtocol)
    }

    /// Idle *and* healthy — the schedulability predicate dispatch and
    /// the policy views consult under the fault plan. On a clean run
    /// (health always [`ProcHealth::Up`]) this is exactly
    /// [`Procs::is_idle`]. One contiguous byte read.
    pub fn is_available(&self, p: usize) -> bool {
        self.avail[p]
    }

    /// True when at least one processor is schedulable. A `false`
    /// answer proves every dispatch attempt would stall without a
    /// single RNG draw or observation record (policies count idle
    /// workers *before* drawing), so dispatch may return immediately.
    pub fn any_available(&self) -> bool {
        self.n_avail > 0
    }

    /// Current activity (copied out; `Packet` is `Copy`).
    pub fn activity(&self, p: usize) -> ProcActivity {
        self.activity[p]
    }

    /// Overwrite `p`'s activity, keeping `avail` exact.
    pub fn set_activity(&mut self, p: usize, a: ProcActivity) {
        self.activity[p] = a;
        self.refresh_avail(p);
    }

    /// Take `p`'s activity, leaving it [`ProcActivity::NonProtocol`].
    pub fn take_activity(&mut self, p: usize) -> ProcActivity {
        let a = std::mem::replace(&mut self.activity[p], ProcActivity::NonProtocol);
        self.refresh_avail(p);
        a
    }

    /// Fault-plan health of `p`.
    pub fn health(&self, p: usize) -> ProcHealth {
        self.health[p]
    }

    /// Set `p`'s health, keeping `avail` exact.
    pub fn set_health(&mut self, p: usize, h: ProcHealth) {
        self.health[p] = h;
        self.refresh_avail(p);
    }

    /// Service-time multiplier of `p` (1.0 = nominal).
    pub fn slow_factor(&self, p: usize) -> f64 {
        self.slow_factor[p]
    }

    /// Set the slowdown multiplier (does not affect schedulability).
    pub fn set_slow_factor(&mut self, p: usize, f: f64) {
        self.slow_factor[p] = f;
    }

    /// Wall-clock time protocol work last completed on `p`.
    pub fn last_protocol_end(&self, p: usize) -> Option<SimTime> {
        self.last_protocol_end[p]
    }

    /// The non-protocol clock of `p` at wall time `now`.
    ///
    /// Valid while the processor is *not* inside a protocol service (the
    /// simulator only reads ages at dispatch instants, when that holds).
    pub fn np_now(&self, p: usize, now: SimTime) -> f64 {
        let np = now.as_micros_f64() - self.proto_busy_us[p];
        debug_assert!(np >= -1e-6, "negative non-protocol clock: {np}");
        np.max(0.0)
    }

    /// Age of the code/global footprint component on `p` at dispatch
    /// time.
    pub fn code_age(&self, p: usize, now: SimTime) -> Age {
        match self.np_at_last_protocol[p] {
            None => Age::Cold,
            Some(np_then) => Age::Elapsed(SimDuration::from_micros_f64(
                (self.np_now(p, now) - np_then).max(0.0),
            )),
        }
    }

    /// Completion bookkeeping for a protocol service of `service_us`
    /// microseconds ending on `p` at `now`: protocol busy time, the
    /// np-clock capture, the recency stamp and the served count, in the
    /// historical order. Returns the captured np clock (the caller
    /// records footprint locations at it).
    pub fn note_protocol_end(&mut self, p: usize, now: SimTime, service_us: f64) -> f64 {
        self.proto_busy_us[p] += service_us;
        let np = self.np_now(p, now);
        self.np_at_last_protocol[p] = Some(np);
        self.last_protocol_end[p] = Some(now);
        self.served[p] += 1;
        np
    }

    /// Crash semantics: `p`'s cached protocol code footprint is gone.
    pub fn forget_cache(&mut self, p: usize) {
        self.np_at_last_protocol[p] = None;
        self.last_protocol_end[p] = None;
    }

    /// Packets served per processor.
    pub fn served(&self) -> &[u64] {
        &self.served
    }
}

/// Where the entities of one footprint class (thread stacks, stream
/// state, IPS stacks) last ran, field-major: a processor column and an
/// np-clock column, indexed by entity id.
///
/// `u32::MAX` in the processor column means *nowhere* — the entity has
/// never run (or its last host crashed), so it is cold everywhere. The
/// split keeps the policy scans (`last_proc` across all streams) inside
/// a contiguous `u32` array.
#[derive(Debug, Clone)]
pub struct LocTable {
    proc: Vec<u32>,
    np_then: Vec<f64>,
}

/// The "never ran / host crashed" sentinel of [`LocTable`].
const NOWHERE: u32 = u32::MAX;

impl LocTable {
    /// A table of `n` entities, all cold.
    pub fn new(n: usize) -> Self {
        LocTable {
            proc: vec![NOWHERE; n],
            np_then: vec![0.0; n],
        }
    }

    /// Number of entities.
    pub fn len(&self) -> usize {
        self.proc.len()
    }

    /// True when the table has no entities.
    pub fn is_empty(&self) -> bool {
        self.proc.is_empty()
    }

    /// Age of entity `i` on processor `p` at np-clock `np_now`.
    pub fn age_on(&self, i: usize, p: usize, np_now: f64) -> Age {
        match self.proc[i] {
            NOWHERE => Age::Cold,
            q if q as usize == p => Age::Elapsed(SimDuration::from_micros_f64(
                (np_now - self.np_then[i]).max(0.0),
            )),
            _ => Age::Remote,
        }
    }

    /// Record a completed run of entity `i` on `p`.
    pub fn record(&mut self, i: usize, p: usize, np_now: f64) {
        self.proc[i] = p as u32;
        self.np_then[i] = np_now;
    }

    /// True when entity `i` would migrate if dispatched on `p`.
    pub fn migrates_to(&self, i: usize, p: usize) -> bool {
        self.proc[i] != NOWHERE && self.proc[i] as usize != p
    }

    /// The processor entity `i` last ran on, if any.
    pub fn last_proc(&self, i: usize) -> Option<usize> {
        let q = self.proc[i];
        (q != NOWHERE).then_some(q as usize)
    }

    /// Crash semantics: every entity last resident on `p` is cold
    /// everywhere from now on.
    pub fn evict_proc(&mut self, p: usize) {
        let p = p as u32;
        for q in &mut self.proc {
            if *q == p {
                *q = NOWHERE;
            }
        }
    }
}

/// Stream-state locations: dense (one slot per stream — the historical
/// representation, exact at any population) or a bounded hashed-LRU
/// cache sized far below the stream population.
///
/// The hashed representation is the million-stream capacity model: a
/// stream evicted from the table is simply *absent*, and an absent
/// stream is cold everywhere — so the next dispatch of that stream pays
/// the full cold stream-footprint reload through the existing
/// [`DispatchPricer`](afs_cache::model::pricer::DispatchPricer) with no
/// new pricing code. Reads ([`StreamTable::age_on`],
/// [`StreamTable::last_proc`], [`StreamTable::migrates_to`]) peek
/// without promoting, so policy scans never perturb the eviction order;
/// only [`StreamTable::record`] (a completed service) refreshes
/// recency.
#[derive(Debug, Clone)]
pub enum StreamTable {
    /// One slot per stream, never evicted.
    Dense(LocTable),
    /// Bounded cache of `(processor, np-clock)` keyed by stream id.
    Hashed(HashedLru<(u32, f64)>),
}

impl StreamTable {
    /// The dense table for `n` streams (the default).
    pub fn dense(n: usize) -> Self {
        StreamTable::Dense(LocTable::new(n))
    }

    /// A bounded hashed-LRU cache holding at most `capacity` streams.
    pub fn hashed(capacity: usize) -> Self {
        StreamTable::Hashed(HashedLru::new(capacity))
    }

    /// Age of stream `i` on processor `p` at np-clock `np_now`. Absent
    /// (never recorded, evicted, or host crashed) means cold.
    pub fn age_on(&self, i: usize, p: usize, np_now: f64) -> Age {
        match self {
            StreamTable::Dense(t) => t.age_on(i, p, np_now),
            StreamTable::Hashed(t) => match t.peek(i as u64) {
                Some((q, np_then)) if q != NOWHERE => {
                    if q as usize == p {
                        Age::Elapsed(SimDuration::from_micros_f64((np_now - np_then).max(0.0)))
                    } else {
                        Age::Remote
                    }
                }
                _ => Age::Cold,
            },
        }
    }

    /// Record a completed run of stream `i` on `p` (inserts or promotes
    /// in the hashed representation; may evict the LRU stream).
    pub fn record(&mut self, i: usize, p: usize, np_now: f64) {
        match self {
            StreamTable::Dense(t) => t.record(i, p, np_now),
            StreamTable::Hashed(t) => {
                t.insert(i as u64, (p as u32, np_now));
            }
        }
    }

    /// True when stream `i` would migrate if dispatched on `p`.
    pub fn migrates_to(&self, i: usize, p: usize) -> bool {
        match self {
            StreamTable::Dense(t) => t.migrates_to(i, p),
            StreamTable::Hashed(t) => matches!(
                t.peek(i as u64),
                Some((q, _)) if q != NOWHERE && q as usize != p
            ),
        }
    }

    /// The processor stream `i` last ran on, if still tracked.
    pub fn last_proc(&self, i: usize) -> Option<usize> {
        match self {
            StreamTable::Dense(t) => t.last_proc(i),
            StreamTable::Hashed(t) => match t.peek(i as u64) {
                Some((q, _)) if q != NOWHERE => Some(q as usize),
                _ => None,
            },
        }
    }

    /// Crash semantics: every stream last resident on `p` is cold
    /// everywhere from now on. The hashed entries stay resident (the
    /// cache slot is still occupied) but report cold, matching the
    /// dense table's sentinel exactly.
    pub fn evict_proc(&mut self, p: usize) {
        match self {
            StreamTable::Dense(t) => t.evict_proc(p),
            StreamTable::Hashed(t) => {
                let p = p as u32;
                t.for_each_value_mut(|_, v| {
                    if v.0 == p {
                        v.0 = NOWHERE;
                    }
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn pkt() -> Packet {
        Packet {
            seq: 0,
            stream: 0,
            arrival: t(0),
            size_bytes: 1.0,
            corrupt: false,
        }
    }

    fn serving(done_at: SimTime) -> ProcActivity {
        ProcActivity::Protocol {
            packet: pkt(),
            stack: None,
            done_at,
        }
    }

    #[test]
    fn np_clock_excludes_protocol_time() {
        let mut p = Procs::new(1);
        assert_eq!(p.np_now(0, t(1000)), 1000.0);
        // Protocol ran 300 µs (bookkept at completion).
        p.note_protocol_end(0, t(700), 300.0);
        assert_eq!(p.np_now(0, t(1000)), 700.0);
    }

    #[test]
    fn code_age_cold_then_elapsed() {
        let mut p = Procs::new(1);
        assert_eq!(p.code_age(0, t(100)), Age::Cold);
        // Protocol ran 200–400 µs: busy 200, np at completion = 200.
        p.note_protocol_end(0, t(400), 200.0);
        match p.code_age(0, t(1000)) {
            Age::Elapsed(d) => assert!((d.as_micros_f64() - 600.0).abs() < 1e-9),
            other => panic!("expected Elapsed, got {other:?}"),
        }
        assert_eq!(p.last_protocol_end(0), Some(t(400)));
        assert_eq!(p.served(), &[1]);
    }

    #[test]
    fn age_does_not_advance_during_protocol() {
        // A service ran 0–500; redispatching at 500 sees age 0.
        let mut p = Procs::new(1);
        p.note_protocol_end(0, t(500), 500.0);
        match p.code_age(0, t(500)) {
            Age::Elapsed(d) => assert_eq!(d, SimDuration::ZERO),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn loc_table_ages() {
        let mut s = LocTable::new(1);
        assert_eq!(s.age_on(0, 0, 100.0), Age::Cold);
        assert!(!s.migrates_to(0, 0));
        assert_eq!(s.last_proc(0), None);
        s.record(0, 0, 100.0);
        match s.age_on(0, 0, 150.0) {
            Age::Elapsed(d) => assert!((d.as_micros_f64() - 50.0).abs() < 1e-9),
            other => panic!("{other:?}"),
        }
        assert_eq!(s.age_on(0, 1, 9999.0), Age::Remote);
        assert!(s.migrates_to(0, 1));
        assert!(!s.migrates_to(0, 0));
        assert_eq!(s.last_proc(0), Some(0));
    }

    #[test]
    fn loc_table_evicts_crashed_proc_only() {
        let mut s = LocTable::new(3);
        s.record(0, 4, 10.0);
        s.record(1, 5, 20.0);
        s.record(2, 4, 30.0);
        s.evict_proc(4);
        assert_eq!(s.last_proc(0), None);
        assert_eq!(s.last_proc(1), Some(5));
        assert_eq!(s.last_proc(2), None);
        // Evicted entities are cold everywhere, including on the (re-
        // vived) crashed processor itself.
        assert_eq!(s.age_on(0, 4, 99.0), Age::Cold);
    }

    #[test]
    fn stream_table_hashed_matches_dense_until_eviction() {
        let mut dense = StreamTable::dense(4);
        let mut hashed = StreamTable::hashed(4);
        for t in [&mut dense, &mut hashed] {
            t.record(0, 1, 10.0);
            t.record(3, 2, 20.0);
        }
        for t in [&dense, &hashed] {
            assert_eq!(t.last_proc(0), Some(1));
            assert_eq!(t.last_proc(3), Some(2));
            assert_eq!(t.last_proc(2), None);
            assert!(t.migrates_to(0, 0));
            assert!(!t.migrates_to(0, 1));
            assert_eq!(t.age_on(2, 0, 99.0), Age::Cold);
            assert_eq!(t.age_on(0, 2, 99.0), Age::Remote);
            match t.age_on(0, 1, 15.0) {
                Age::Elapsed(d) => assert!((d.as_micros_f64() - 5.0).abs() < 1e-9),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn stream_table_eviction_means_cold() {
        let mut t = StreamTable::hashed(2);
        t.record(0, 0, 1.0);
        t.record(1, 1, 2.0);
        t.record(2, 2, 3.0); // capacity 2: evicts stream 0
        assert_eq!(t.last_proc(0), None);
        assert_eq!(t.age_on(0, 0, 9.0), Age::Cold);
        assert!(!t.migrates_to(0, 1), "an absent stream migrates nowhere");
        // Re-recording re-admits it (evicting the then-LRU stream 1).
        t.record(0, 3, 4.0);
        assert_eq!(t.last_proc(0), Some(3));
        assert_eq!(t.last_proc(1), None);
    }

    #[test]
    fn stream_table_crash_eviction_reports_cold_in_place() {
        let mut t = StreamTable::hashed(4);
        t.record(0, 4, 10.0);
        t.record(1, 5, 20.0);
        t.evict_proc(4);
        assert_eq!(t.last_proc(0), None);
        assert_eq!(t.age_on(0, 4, 99.0), Age::Cold);
        assert_eq!(t.last_proc(1), Some(5));
    }

    #[test]
    fn availability_tracks_activity_and_health() {
        let mut p = Procs::new(2);
        assert!(p.is_idle(0) && p.is_available(0));

        p.set_activity(0, serving(t(10)));
        assert!(!p.is_idle(0));
        assert!(!p.is_available(0));
        assert!(p.is_available(1), "other processors unaffected");

        // Taking the activity back makes it idle again.
        let a = p.take_activity(0);
        assert!(matches!(a, ProcActivity::Protocol { .. }));
        assert!(p.is_available(0));

        // An unhealthy idle processor is idle but NOT available.
        p.set_health(0, ProcHealth::Down);
        assert!(p.is_idle(0));
        assert!(!p.is_available(0));
        p.set_health(0, ProcHealth::Up);
        assert!(p.is_available(0));
    }

    #[test]
    fn forget_cache_clears_code_footprint() {
        let mut p = Procs::new(1);
        p.note_protocol_end(0, t(400), 200.0);
        assert!(p.last_protocol_end(0).is_some());
        p.forget_cache(0);
        assert_eq!(p.code_age(0, t(500)), Age::Cold);
        assert_eq!(p.last_protocol_end(0), None);
        // Busy time and served survive a crash (they are accounting,
        // not cache state).
        assert_eq!(p.served(), &[1]);
    }
}
