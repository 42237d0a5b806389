//! A recorded native run's trace is its per-thread slices (the
//! dispatcher's, then worker 0, 1, …) folded by `MemRecorder::merge`.
//! The merge must equal the plain definition — concatenate the
//! recorder's events and the slices in order, keep the first `cap`,
//! then stable-sort by `ObsEvent::merge_key` — event for event (bit
//! patterns), with equal counters and equal drop counts.
//!
//! The slices are random: lengths 0..300, keys from a tiny domain so
//! that ties across slices are common (each event carries a unique tag,
//! so a tie broken the wrong way shows), about half of them out of
//! order, some capped; the recorder merged into is capped or not and
//! may already hold events. Both paths run on the same slices.

use affinity_sched::obs::{ChargeKind, Counters, MemRecorder, ObsEvent, Recorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The definition the merge must meet: `(events, counters, dropped)`.
fn reference(
    out: &MemRecorder,
    cap: usize,
    slices: &[MemRecorder],
) -> (Vec<ObsEvent>, Counters, u64) {
    let mut events: Vec<ObsEvent> = out
        .events
        .iter()
        .chain(slices.iter().flat_map(|s| &s.events))
        .copied()
        .collect();
    let mut dropped: u64 =
        out.dropped_events() + slices.iter().map(MemRecorder::dropped_events).sum::<u64>();
    dropped += events.len().saturating_sub(cap) as u64;
    events.truncate(cap);
    events.sort_by_key(ObsEvent::merge_key);
    let mut counters = out.counters.clone();
    for s in slices {
        counters.merge(&s.counters);
    }
    (events, counters, dropped)
}

/// One random event: time and sequence number from a tiny domain, a
/// kind that may carry no `seq`, and `tag` in a payload field.
fn event(rng: &mut StdRng, tag: u32) -> ObsEvent {
    let t_us = f64::from(rng.gen_range(0..3u8)) * 0.5;
    let seq = rng.gen_range(0..3u64);
    let amount = rng.gen::<f64>() * 10.0;
    match rng.gen_range(0..7) {
        0 => ObsEvent::Enqueue {
            t_us,
            seq,
            stream: tag,
            queue: tag % 3,
            depth: tag % 5,
        },
        1 => ObsEvent::Dispatch {
            t_us,
            seq,
            stream: tag,
            worker: tag % 3,
            service_us: amount,
            stream_migrated: rng.gen(),
            thread_migrated: rng.gen(),
            stolen: false,
        },
        2 => ObsEvent::Complete {
            t_us,
            seq,
            stream: tag,
            worker: tag % 3,
            delay_us: amount,
            ok: rng.gen(),
        },
        3 => ObsEvent::QueueDepth {
            t_us,
            queue: tag,
            depth: tag % 7,
        },
        4 => ObsEvent::CacheCharge {
            t_us,
            worker: tag,
            kind: [ChargeKind::ReloadTransient, ChargeKind::Lock][tag as usize % 2],
            amount_us: amount,
        },
        5 => ObsEvent::StealClaim {
            t_us,
            seq,
            from: tag,
            to: tag % 3,
        },
        _ => ObsEvent::WorkerDown { t_us, worker: tag },
    }
}

/// A recorder holding `len` random events, in merge order or not;
/// capped below `len` one time in four.
fn slice(rng: &mut StdRng, tag: &mut u32, len: usize) -> MemRecorder {
    let mut events: Vec<ObsEvent> = (0..len)
        .map(|_| {
            *tag += 1;
            event(rng, *tag)
        })
        .collect();
    if rng.gen() {
        events.sort_by_key(ObsEvent::merge_key);
    }
    let mut r = if len > 0 && rng.gen_range(0..4) == 0 {
        MemRecorder::with_event_capacity(rng.gen_range(0..len))
    } else {
        MemRecorder::new()
    };
    for ev in events {
        r.record(ev);
    }
    r
}

fn bits(events: &[ObsEvent]) -> Vec<String> {
    // `Debug` prints every f64 in its shortest round-trip form.
    events.iter().map(|e| format!("{e:?}")).collect()
}

#[test]
fn merge_equals_a_stable_sort_of_the_concatenated_slices() {
    let (mut capped, mut out_of_order) = (0, 0);
    for case in 0..400u64 {
        let mut rng = StdRng::seed_from_u64(case);
        let mut tag = 0;
        let slices: Vec<MemRecorder> = (0..rng.gen_range(1..6))
            .map(|_| {
                let len = rng.gen_range(0..300);
                slice(&mut rng, &mut tag, len)
            })
            .collect();
        out_of_order += slices
            .iter()
            .filter(|s| !s.events.is_sorted_by_key(ObsEvent::merge_key))
            .count();
        let total: usize = slices.iter().map(|s| s.events.len()).sum();
        let cap = if rng.gen() {
            usize::MAX
        } else {
            rng.gen_range(0..=total + 20)
        };
        let mut out = if cap == usize::MAX {
            MemRecorder::new()
        } else {
            capped += 1;
            MemRecorder::with_event_capacity(cap)
        };
        for _ in 0..rng.gen_range(0..20) {
            tag += 1;
            out.record(event(&mut rng, tag));
        }

        let (events, counters, dropped) = reference(&out, cap, &slices);
        out.merge(slices);
        assert_eq!(bits(&out.events), bits(&events), "case {case}: events");
        assert_eq!(
            format!("{:?}", out.counters),
            format!("{counters:?}"),
            "case {case}: counters"
        );
        assert_eq!(out.dropped_events(), dropped, "case {case}: dropped");
    }
    assert!(
        capped > 100 && out_of_order > 300,
        "{capped} capped, {out_of_order} out of order"
    );
}
