//! Open-loop schedules and their honest accounting.
//!
//! An open-loop generator sends on a timetable whatever the system does.
//! Each operation is timed from when it was *due*, so a stall charges its
//! wait to every operation queued behind it. The generator's own
//! lateness — how long after it was free to send it actually sent — is
//! booked separately: a run whose generator fell behind past
//! [`MAX_OWN_LATENESS`] measured the load generator, not the program,
//! and is rejected.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};
use tagspin_epc::{InventoryLog, TagReport};

/// The most a generator may start an operation after it was both due and
/// free to send. Past this, the host starved the generator and the run is
/// rejected.
pub const MAX_OWN_LATENESS: Duration = Duration::from_millis(100);

/// One fix query on the open-loop timetable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuerySlot {
    /// Offset from the start of the measured pass.
    pub due: Duration,
    /// Index into the workload's antenna list.
    pub antenna: usize,
}

/// A fixed-rate timetable of fix queries alternating over `antennas`
/// antennas for `seconds`, the first due half an interval in. It is the
/// same for every seed: where the queries fall among the re-anchors sets
/// the shape of the latency tail, so moving them would make the tail a
/// function of the seed rather than of the program.
pub fn query_timetable(rate_hz: f64, antennas: usize, seconds: f64) -> Vec<QuerySlot> {
    let interval = 1.0 / rate_hz;
    (0..)
        .map(|k| (k as f64 + 0.5) * interval)
        .take_while(|&t| t < seconds)
        .enumerate()
        .map(|(k, t)| QuerySlot {
            due: Duration::from_secs_f64(t),
            antenna: k % antennas.max(1),
        })
        .collect()
}

/// Slice a time-ordered report stream into frames of `frame_s` seconds
/// of reader time, as a reader batches its reports. The seed places the
/// frame boundaries inside one frame interval. Returns each frame with
/// the reader time at which it closes.
pub fn frame_timetable(seed: u64, frame_s: f64, reports: &[TagReport]) -> Vec<(f64, InventoryLog)> {
    let phase = StdRng::seed_from_u64(seed ^ 0x00F4_A3E5).gen::<f64>() * frame_s;
    let mut frames: Vec<(f64, InventoryLog)> = Vec::new();
    for r in reports {
        let end = phase + ((r.time_s() - phase) / frame_s).floor() * frame_s + frame_s;
        match frames.last_mut() {
            Some((e, log)) if (*e - end).abs() < 1e-9 => log.push(*r),
            _ => frames.push((end, std::iter::once(*r).collect())),
        }
    }
    frames
}

/// Due-time accounting for one open-loop stream of operations.
#[derive(Debug, Clone, Default)]
pub struct DueBook {
    /// Per-operation latency from due time to completion, seconds
    /// (`INFINITY` for an operation that failed).
    pub latency_s: Vec<f64>,
    /// Per-operation generator lateness: send time minus the later of due
    /// time and the moment the generator was free, seconds.
    pub own_lateness_s: Vec<f64>,
    /// Per-operation wait imposed by the system: how long the previous
    /// operation kept the generator busy past this one's due time.
    pub blocked_s: Vec<f64>,
}

impl DueBook {
    /// Book one operation. `free` is when the generator finished the
    /// previous operation; `sent` when it started this one; `done` when
    /// this one completed (`None` when it failed).
    pub fn record(&mut self, due: Instant, free: Instant, sent: Instant, done: Option<Instant>) {
        let ready = due.max(free);
        self.own_lateness_s
            .push(sent.saturating_duration_since(ready).as_secs_f64());
        self.blocked_s
            .push(free.saturating_duration_since(due).as_secs_f64());
        self.latency_s.push(match done {
            Some(t) => t.saturating_duration_since(due).as_secs_f64(),
            None => f64::INFINITY,
        });
    }

    /// Operations booked.
    pub fn len(&self) -> usize {
        self.latency_s.len()
    }

    /// Operations that failed.
    pub fn failures(&self) -> usize {
        self.latency_s.iter().filter(|l| !l.is_finite()).count()
    }

    /// The largest generator lateness, seconds.
    pub fn max_own_lateness_s(&self) -> f64 {
        self.own_lateness_s.iter().copied().fold(0.0, f64::max)
    }

    /// `Err` when the generator fell behind past [`MAX_OWN_LATENESS`].
    pub fn check_lateness(&self, what: &str) -> Result<(), String> {
        let worst = self.max_own_lateness_s();
        if worst > MAX_OWN_LATENESS.as_secs_f64() {
            return Err(format!(
                "{what} generator fell behind: worst own lateness {:.1} ms > bound {} ms",
                worst * 1e3,
                MAX_OWN_LATENESS.as_millis()
            ));
        }
        Ok(())
    }
}

/// Sleep until `deadline` (no-op when it has passed).
pub fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_timetable_is_fixed_rate_and_alternating() {
        let a = query_timetable(8.0, 2, 25.0);
        assert_eq!(a.len(), 200);
        assert_eq!(a[0].due, Duration::from_micros(62_500));
        for w in a.windows(2) {
            let gap = (w[1].due - w[0].due).as_secs_f64();
            assert!((gap - 0.125).abs() < 1e-9, "gap {gap}");
            assert_ne!(w[0].antenna, w[1].antenna, "queries alternate");
        }
        assert!(a.last().is_some_and(|s| s.due < Duration::from_secs(25)));
    }

    #[test]
    fn frame_timetable_is_a_pure_function_of_the_seed() {
        let reports: Vec<TagReport> = (0..1000u64)
            .map(|i| TagReport {
                epc: 1,
                timestamp_us: i * 4_700,
                phase: 0.0,
                rssi_dbm: -60.0,
                channel_index: 0,
                antenna_id: 1,
            })
            .collect();
        let a = frame_timetable(7, 0.05, &reports);
        assert_eq!(a, frame_timetable(7, 0.05, &reports));
        assert_ne!(a, frame_timetable(8, 0.05, &reports));
        assert_eq!(a.iter().map(|(_, f)| f.len()).sum::<usize>(), reports.len());
        for (end, frame) in &a {
            let last = frame
                .reports()
                .last()
                .expect("frames are never empty")
                .time_s();
            let first = frame.reports()[0].time_s();
            assert!(
                last < *end && first >= end - 0.05 - 1e-9,
                "frame [{first}, {last}] vs end {end}"
            );
        }
        for w in a.windows(2) {
            assert!((w[1].0 - w[0].0) >= 0.05 - 1e-9, "frames close in order");
        }
    }

    #[test]
    fn latency_counts_from_due_time_and_lateness_from_free_time() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut book = DueBook::default();
        // On time: free before due, sent at due, 30 ms service.
        book.record(at(100), at(50), at(100), Some(at(130)));
        // Stalled behind a slow predecessor: due at 225, the generator was
        // busy until 900, sent at once; latency still counts from 225.
        book.record(at(225), at(900), at(900), Some(at(940)));
        // The generator itself dozed 40 ms after being due and free.
        book.record(at(1000), at(950), at(1040), None);
        let ms = |v: f64| (v * 1e3).round();
        assert_eq!(
            book.latency_s[..2]
                .iter()
                .map(|&v| ms(v))
                .collect::<Vec<_>>(),
            [30.0, 715.0]
        );
        assert!(book.latency_s[2].is_infinite());
        assert_eq!(
            book.own_lateness_s
                .iter()
                .map(|&v| ms(v))
                .collect::<Vec<_>>(),
            [0.0, 0.0, 40.0]
        );
        assert_eq!(
            book.blocked_s.iter().map(|&v| ms(v)).collect::<Vec<_>>(),
            [0.0, 675.0, 0.0]
        );
        assert_eq!(book.failures(), 1);
        assert!(book.check_lateness("query").is_ok());
        book.record(at(2000), at(2000), at(2150), Some(at(2160)));
        assert!(book.check_lateness("query").is_err());
    }
}
