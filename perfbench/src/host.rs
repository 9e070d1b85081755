//! Host-speed scaling of the timed phase.
//!
//! The benchmark runs on a few cores of a shared host whose memory system
//! changes speed under it: a fixed random-access kernel and the ops of
//! every workload slow down together, by up to about 1.5x, in phases that
//! last from a fraction of a second to minutes. A median over one run
//! cannot remove a slow phase that covers most of the run, so the timed
//! phase is cut into short windows, a fixed probe kernel runs between
//! windows, and each window's op latencies and busy time are scaled by how
//! fast the probe ran around it. The probe uses none of the repository's
//! code: a change to the program moves scaled times exactly as it moves
//! raw ones. The probe follows the host only in part (it slows by about
//! 1.2x where the ops slow by 1.4x), so scaling narrows the spread between
//! runs, by a tenth to a half on this host, rather than removing it.

use crate::common;
use crate::report::Report;
use crate::stats::{median, quantile};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Length of a timing window. The host's slow phases can be shorter than
/// a second, so windows are short; the probe adds about 1% to the run.
const WINDOW: Duration = Duration::from_millis(25);
/// Probe buffer: 3.2 MB of words, about one core's L2 cache here. The ops
/// evict it between windows, so the probe reads memory the way they do.
const PROBE_WORDS: usize = 400_000;
/// Random read-modify-writes per probe run, about 0.25 ms.
const PROBE_STEPS: usize = 25_000;
/// The probe time scaled times refer to: a scaled time is what the
/// measured one would have been on a host where the probe takes this long
/// (about its time on the 2-vCPU Xeon host the benchmark was tuned on, in
/// that host's faster phases).
const PROBE_REF_MS: f64 = 0.25;

/// A fixed memory-bound kernel: the same walk over the same buffer on
/// every run.
struct Probe {
    words: Vec<u64>,
}

impl Probe {
    fn new() -> Probe {
        Probe {
            words: (0..PROBE_WORDS as u64).collect(),
        }
    }

    /// Runs the kernel once; returns its time in ms.
    fn run(&mut self) -> f64 {
        let t = Instant::now();
        let (mut at, mut sum) = (7usize, 0u64);
        for _ in 0..PROBE_STEPS {
            at = at.wrapping_mul(2_654_435_761).wrapping_add(1) % PROBE_WORDS;
            sum = sum.wrapping_add(self.words[at]);
            self.words[at] = sum;
        }
        black_box(sum);
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// The process's resident-set high-water mark in MB, leaving out the
/// probe buffers of `clients` clocks. `before` is the mark read before the
/// clocks started: the buffers stay resident through the timed phase, so
/// a peak reached there is the mark less the buffers.
pub fn peak_rss_mb(before: f64, clients: usize) -> f64 {
    let probe_mb = (PROBE_WORDS * std::mem::size_of::<u64>()) as f64 / (1024.0 * 1024.0);
    before.max(common::peak_rss_mb() - clients as f64 * probe_mb)
}

/// Times one client's timed phase window by window.
pub struct HostClock {
    probe: Probe,
    last_probe_ms: f64,
    window_start: Instant,
    /// Untimed work done in the current window, in seconds.
    untimed_s: f64,
    /// Raw latencies of the current window's ops, in ms.
    window_ms: Vec<f64>,
    timing: Timing,
}

impl HostClock {
    /// Builds and runs the probe once, and starts the first window.
    pub fn start() -> HostClock {
        let mut probe = Probe::new();
        probe.run();
        let last_probe_ms = probe.run();
        HostClock {
            probe,
            last_probe_ms,
            window_start: Instant::now(),
            untimed_s: 0.0,
            window_ms: Vec::new(),
            timing: Timing::default(),
        }
    }

    /// Records one op's raw latency, in ms.
    pub fn op(&mut self, ms: f64) {
        self.window_ms.push(ms);
        if self.window_start.elapsed() >= WINDOW {
            self.close_window();
        }
    }

    /// Leaves `s` seconds of untimed work out of the current window's busy
    /// time.
    pub fn untimed(&mut self, s: f64) {
        self.untimed_s += s;
    }

    /// Scales the current window by the mean of the probe times before and
    /// after it, and starts the next one.
    fn close_window(&mut self) {
        let busy_s = self.window_start.elapsed().as_secs_f64() - self.untimed_s;
        let probe_ms = self.probe.run();
        let scale = PROBE_REF_MS / ((self.last_probe_ms + probe_ms) / 2.0);
        let t = &mut self.timing;
        t.raw_ms.extend_from_slice(&self.window_ms);
        t.scaled_ms
            .extend(self.window_ms.drain(..).map(|ms| ms * scale));
        t.raw_busy_s += busy_s;
        t.scaled_busy_s += busy_s * scale;
        t.probe_ms.push(probe_ms);
        self.last_probe_ms = probe_ms;
        self.untimed_s = 0.0;
        self.window_start = Instant::now();
    }

    /// Ends the timed phase.
    pub fn finish(mut self) -> Timing {
        if !self.window_ms.is_empty() {
            self.close_window();
        }
        self.timing
    }
}

/// One client's timed phase: op latencies (ms) and busy time (s), raw and
/// scaled, and the probe times between windows (ms).
#[derive(Debug, Default)]
pub struct Timing {
    raw_ms: Vec<f64>,
    scaled_ms: Vec<f64>,
    raw_busy_s: f64,
    scaled_busy_s: f64,
    probe_ms: Vec<f64>,
}

/// Sets `ops_per_s`, `op_p50_ms` and `op_p90_ms` from the clients' scaled
/// times (throughput is the sum of the clients' rates), and notes the raw
/// values next to the median probe time.
pub fn report(clients: &[Timing], r: &mut Report) {
    let rate = |busy: fn(&Timing) -> f64| -> f64 {
        clients
            .iter()
            .map(|t| t.raw_ms.len() as f64 / busy(t))
            .sum()
    };
    let all = |ms: fn(&Timing) -> &Vec<f64>| -> Vec<f64> {
        clients.iter().flat_map(|t| ms(t).iter().copied()).collect()
    };
    let (raw, scaled) = (all(|t| &t.raw_ms), all(|t| &t.scaled_ms));
    r.set("ops_per_s", rate(|t| t.scaled_busy_s));
    r.set("op_p50_ms", quantile(&scaled, 0.5));
    r.set("op_p90_ms", quantile(&scaled, 0.9));
    r.notes.push(format!(
        "host probe median {:.4} ms (reference {PROBE_REF_MS} ms); unscaled ops_per_s {:.2}, op_p50_ms {:.4}, op_p90_ms {:.4}",
        median(&all(|t| &t.probe_ms)),
        rate(|t| t.raw_busy_s),
        quantile(&raw, 0.5),
        quantile(&raw, 0.9),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A window's ops and busy time are scaled by the mean of the probe
    /// times around it.
    #[test]
    fn windows_scale_by_the_probe() {
        let mut clock = HostClock::start();
        let before = clock.last_probe_ms;
        clock.op(2.0);
        clock.op(4.0);
        let t = clock.finish();
        let scale = PROBE_REF_MS / ((before + t.probe_ms[0]) / 2.0);
        assert_eq!(t.raw_ms, [2.0, 4.0]);
        assert_eq!(t.scaled_ms, [2.0 * scale, 4.0 * scale]);
        assert_eq!(t.scaled_busy_s, t.raw_busy_s * scale);

        let mut r = Report::default();
        report(&[t], &mut r);
        let p50 = r.get("op_p50_ms").unwrap();
        assert!((p50 - 3.0 * scale).abs() < 1e-9 * scale);
    }
}
