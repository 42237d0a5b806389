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

/// What runs a started packet's protocol code: the footprint its
/// completion records and the resource it releases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runner {
    /// Locking: protocol thread `id` — the processor's own thread, or
    /// (`pooled`) one popped from the shared FIFO pool, which gets it
    /// back when the packet completes.
    Thread {
        /// Thread id (equal to the processor index for an own thread).
        id: usize,
        /// Whether the thread came from the shared pool.
        pooled: bool,
    },
    /// IPS: the stack executing (its state bundles thread and stream).
    Stack(u32),
}

/// A packet in service: everything its completion reads about it.
/// Faults act at packet boundaries: nothing moves or cancels a started
/// packet's completion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InFlight {
    /// The packet being served.
    pub packet: Packet,
    /// What runs it.
    pub runner: Runner,
    /// Its priced service duration.
    pub service: SimDuration,
    /// Service completes at this time.
    pub done_at: SimTime,
    /// Its processor crashed mid-service: no footprint may survive
    /// this completion, even if a revive came first.
    pub crashed: bool,
}

/// What a processor is doing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProcActivity {
    /// Running the non-protocol workload (instantly preemptible).
    NonProtocol,
    /// Executing protocol code for a packet (non-preemptible).
    Protocol(InFlight),
}

/// Processor health under the processor-fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProcHealth {
    /// Healthy and schedulable.
    #[default]
    Up,
    /// Inside a stall window: finishes its in-flight packet on time but
    /// takes no new work, and keeps its cache.
    Stalled,
    /// Crashed: it finishes its in-flight packet, then its cache state
    /// is gone, and it takes no work until (and unless) a revive event
    /// brings it back cold.
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
    /// Cumulative protocol execution time — the complement of the
    /// non-protocol clock.
    proto_busy: Vec<SimDuration>,
    /// Non-protocol clock value when protocol work last completed here
    /// (`None` = protocol never ran on this processor).
    np_at_last_protocol: Vec<Option<SimTime>>,
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
            proto_busy: vec![SimDuration::ZERO; n],
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
    pub fn np_now(&self, p: usize, now: SimTime) -> SimTime {
        now - self.proto_busy[p]
    }

    /// Age of the code/global footprint component on `p` at dispatch
    /// time.
    pub fn code_age(&self, p: usize, now: SimTime) -> Age {
        match self.np_at_last_protocol[p] {
            None => Age::Cold,
            Some(np_then) => Age::Elapsed(self.np_now(p, now) - np_then),
        }
    }

    /// Completion bookkeeping for a protocol service of length `service`
    /// ending on `p` at `now`: protocol busy time, the np-clock capture,
    /// the recency stamp and the served count. Returns the captured np
    /// clock (the caller records footprint locations at it).
    pub fn note_protocol_end(&mut self, p: usize, now: SimTime, service: SimDuration) -> SimTime {
        self.proto_busy[p] += service;
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

/// A table of where the entities of one footprint class last ran. The
/// footprint rules — an entity's age on a processor, whether running it
/// there migrates it, where it last ran — read only
/// [`FootprintTable::last_run`], so every table ages the same way.
pub trait FootprintTable {
    /// The processor entity `i` last ran on and that processor's np clock
    /// when the run ended; `None` when it is cold everywhere (it never
    /// ran, or its last host crashed).
    fn last_run(&self, i: usize) -> Option<(usize, SimTime)>;

    /// Age of entity `i` on processor `p` at np clock `np_now`: cold when
    /// it ran nowhere, remote when it last ran elsewhere, else the
    /// non-protocol time elapsed on `p` since.
    fn age_on(&self, i: usize, p: usize, np_now: SimTime) -> Age {
        match self.last_run(i) {
            None => Age::Cold,
            Some((q, np_then)) if q == p => Age::Elapsed(np_now - np_then),
            Some(_) => Age::Remote,
        }
    }

    /// True when entity `i` would migrate if dispatched on `p`.
    fn migrates_to(&self, i: usize, p: usize) -> bool {
        self.last_proc(i).is_some_and(|q| q != p)
    }

    /// The processor entity `i` last ran on, if any.
    fn last_proc(&self, i: usize) -> Option<usize> {
        self.last_run(i).map(|(q, _)| q)
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
    np_then: Vec<SimTime>,
}

/// The "never ran / host crashed" sentinel of [`LocTable`].
const NOWHERE: u32 = u32::MAX;

impl LocTable {
    /// A table of `n` entities, all cold.
    pub fn new(n: usize) -> Self {
        LocTable {
            proc: vec![NOWHERE; n],
            np_then: vec![SimTime::ZERO; n],
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

    /// Record a completed run of entity `i` on `p`.
    pub fn record(&mut self, i: usize, p: usize, np_now: SimTime) {
        self.proc[i] = p as u32;
        self.np_then[i] = np_now;
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

impl FootprintTable for LocTable {
    fn last_run(&self, i: usize) -> Option<(usize, SimTime)> {
        let q = self.proc[i];
        (q != NOWHERE).then(|| (q as usize, self.np_then[i]))
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
/// new pricing code. Reads ([`FootprintTable::last_run`] and the rules
/// on it) peek without promoting, so policy scans never perturb the
/// eviction order; only [`StreamTable::record`] (a completed service)
/// refreshes recency.
#[derive(Debug, Clone)]
pub enum StreamTable {
    /// One slot per stream, never evicted.
    Dense(LocTable),
    /// Bounded cache of `(processor, np-clock)` keyed by stream id.
    Hashed(HashedLru<(u32, SimTime)>),
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

    /// Record a completed run of stream `i` on `p` (inserts or promotes
    /// in the hashed representation; may evict the LRU stream).
    pub fn record(&mut self, i: usize, p: usize, np_now: SimTime) {
        match self {
            StreamTable::Dense(t) => t.record(i, p, np_now),
            StreamTable::Hashed(t) => {
                t.insert(i as u64, (p as u32, np_now));
            }
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

impl FootprintTable for StreamTable {
    /// Absent (never recorded, evicted, or host crashed) means cold.
    fn last_run(&self, i: usize) -> Option<(usize, SimTime)> {
        match self {
            StreamTable::Dense(t) => t.last_run(i),
            StreamTable::Hashed(t) => match t.peek(i as u64) {
                Some((q, np_then)) if q != NOWHERE => Some((q as usize, np_then)),
                _ => None,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn d(us: u64) -> SimDuration {
        SimDuration::from_micros(us)
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
        ProcActivity::Protocol(InFlight {
            packet: pkt(),
            runner: Runner::Thread {
                id: 0,
                pooled: false,
            },
            service: SimDuration::from_micros(10),
            done_at,
            crashed: false,
        })
    }

    #[test]
    fn np_clock_excludes_protocol_time() {
        let mut p = Procs::new(1);
        assert_eq!(p.np_now(0, t(1000)), t(1000));
        // Protocol ran 300 µs (bookkept at completion).
        assert_eq!(p.note_protocol_end(0, t(700), d(300)), t(400));
        assert_eq!(p.np_now(0, t(1000)), t(700));
    }

    #[test]
    fn code_age_cold_then_elapsed() {
        let mut p = Procs::new(1);
        assert_eq!(p.code_age(0, t(100)), Age::Cold);
        // Protocol ran 200–400 µs: busy 200, np at completion = 200.
        p.note_protocol_end(0, t(400), d(200));
        assert_eq!(p.code_age(0, t(1000)), Age::Elapsed(d(600)));
        assert_eq!(p.last_protocol_end(0), Some(t(400)));
        assert_eq!(p.served(), &[1]);
    }

    #[test]
    fn age_does_not_advance_during_protocol() {
        // A service ran 0–500; redispatching at 500 sees age 0.
        let mut p = Procs::new(1);
        p.note_protocol_end(0, t(500), d(500));
        assert_eq!(p.code_age(0, t(500)), Age::Elapsed(SimDuration::ZERO));
    }

    #[test]
    fn loc_table_ages() {
        let mut s = LocTable::new(1);
        assert_eq!(s.age_on(0, 0, t(100)), Age::Cold);
        assert!(!s.migrates_to(0, 0));
        assert_eq!(s.last_proc(0), None);
        s.record(0, 0, t(100));
        assert_eq!(s.age_on(0, 0, t(150)), Age::Elapsed(d(50)));
        assert_eq!(s.age_on(0, 1, t(9999)), Age::Remote);
        assert!(s.migrates_to(0, 1));
        assert!(!s.migrates_to(0, 0));
        assert_eq!(s.last_proc(0), Some(0));
    }

    #[test]
    fn loc_table_evicts_crashed_proc_only() {
        let mut s = LocTable::new(3);
        s.record(0, 4, t(10));
        s.record(1, 5, t(20));
        s.record(2, 4, t(30));
        s.evict_proc(4);
        assert_eq!(s.last_proc(0), None);
        assert_eq!(s.last_proc(1), Some(5));
        assert_eq!(s.last_proc(2), None);
        // Evicted entities are cold everywhere, including on the (re-
        // vived) crashed processor itself.
        assert_eq!(s.age_on(0, 4, t(99)), Age::Cold);
    }

    #[test]
    fn stream_table_hashed_matches_dense_until_eviction() {
        let mut dense = StreamTable::dense(4);
        let mut hashed = StreamTable::hashed(4);
        for table in [&mut dense, &mut hashed] {
            table.record(0, 1, t(10));
            table.record(3, 2, t(20));
        }
        for table in [&dense, &hashed] {
            assert_eq!(table.last_proc(0), Some(1));
            assert_eq!(table.last_proc(3), Some(2));
            assert_eq!(table.last_proc(2), None);
            assert!(table.migrates_to(0, 0));
            assert!(!table.migrates_to(0, 1));
            assert_eq!(table.age_on(2, 0, t(99)), Age::Cold);
            assert_eq!(table.age_on(0, 2, t(99)), Age::Remote);
            assert_eq!(table.age_on(0, 1, t(15)), Age::Elapsed(d(5)));
        }
    }

    #[test]
    fn stream_table_eviction_means_cold() {
        let mut table = StreamTable::hashed(2);
        table.record(0, 0, t(1));
        table.record(1, 1, t(2));
        table.record(2, 2, t(3)); // capacity 2: evicts stream 0
        assert_eq!(table.last_proc(0), None);
        assert_eq!(table.age_on(0, 0, t(9)), Age::Cold);
        assert!(
            !table.migrates_to(0, 1),
            "an absent stream migrates nowhere"
        );
        // Re-recording re-admits it (evicting the then-LRU stream 1).
        table.record(0, 3, t(4));
        assert_eq!(table.last_proc(0), Some(3));
        assert_eq!(table.last_proc(1), None);
    }

    #[test]
    fn stream_table_crash_eviction_reports_cold_in_place() {
        let mut table = StreamTable::hashed(4);
        table.record(0, 4, t(10));
        table.record(1, 5, t(20));
        table.evict_proc(4);
        assert_eq!(table.last_proc(0), None);
        assert_eq!(table.age_on(0, 4, t(99)), Age::Cold);
        assert_eq!(table.last_proc(1), Some(5));
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
        assert!(matches!(a, ProcActivity::Protocol(_)));
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
        p.note_protocol_end(0, t(400), d(200));
        assert!(p.last_protocol_end(0).is_some());
        p.forget_cache(0);
        assert_eq!(p.code_age(0, t(500)), Age::Cold);
        assert_eq!(p.last_protocol_end(0), None);
        // Busy time and served survive a crash (they are accounting,
        // not cache state).
        assert_eq!(p.served(), &[1]);
    }
}
