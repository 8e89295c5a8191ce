//! Order statistics, process probes and the host diagnostics every run
//! prints beside its metrics.

use std::time::{Duration, Instant};

/// The `q`-quantile of `values` with linear interpolation between order
/// statistics (`q` in `[0, 1]`). Returns NaN for an empty slice, so a
/// metric computed from no data cannot pass for a measured value.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values` (NaN for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Host slowdowns here are one-sided and come and go within a second or
/// less (a benchmark-owned vector loop runs 1.5-2x slower for most of a
/// typical run), so a series of per-window times is summarised by the
/// host's quiet moments: its lower decile. A
/// change to the program shows in every window, so it moves this decile
/// as it moves the median; a slowdown confined to a minority of windows
/// does not, and is what the per-layer tail figures are for.
pub const QUIET_QUANTILE: f64 = 0.1;

/// Quiet-moment summary of per-window times (lower is better).
pub fn quiet_time(times: &[f64]) -> f64 {
    quantile(times, QUIET_QUANTILE)
}

/// Per position, the fastest of the rounds' times: `rounds[r][k]` is the
/// time of the `k`-th operation of round `r`, and every round runs the
/// same operations in the same order. Summing the result gives the
/// round's time in the host's quiet moments, even when no whole round
/// was quiet.
pub fn best_of_rounds(rounds: &[Vec<f64>]) -> Vec<f64> {
    let len = rounds.iter().map(Vec::len).min().unwrap_or(0);
    (0..len)
        .map(|k| rounds.iter().map(|r| r[k]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// The `q`-quantile of each consecutive `window_s`-second window of
/// `values`, grouped by their time stamps `at_s`. Windows too small for
/// ten samples to lie beyond the quantile are skipped.
pub fn window_quantiles(at_s: &[f64], values: &[f64], window_s: f64, q: f64) -> Vec<f64> {
    let min = ((10.0 / (1.0 - q).max(1e-3)).ceil() as usize).max(20);
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for (&at, &v) in at_s.iter().zip(values) {
        let w = (at / window_s).floor().max(0.0) as usize;
        if windows.len() <= w {
            windows.resize(w + 1, Vec::new());
        }
        windows[w].push(v);
    }
    windows
        .iter()
        .filter(|w| w.len() >= min)
        .map(|w| quantile(w, q))
        .collect()
}

/// Reads one `kB` field of `/proc/self/status`.
fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").unwrap_or(0.0) / 1024.0
}

/// User plus system CPU time of the whole process, in seconds, from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks of 1/100 s — the
/// fixed `USER_HZ` of Linux on x86-64 and arm64).
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields after it are
    // counted from the closing parenthesis.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3, so field n is fields[n - 3].
    let ticks = |n: usize| fields.get(n - 3).and_then(|f| f.parse::<f64>().ok());
    match (ticks(14), ticks(15)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => 0.0,
    }
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Sleeps until `deadline`: a coarse sleep, then yields for the last
/// stretch (shorter than the kernel's timer slack) so an open-loop
/// generator sends close to its schedule without holding a core.
pub fn wait_until(deadline: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}

/// Two fixed workloads owned by the benchmark, timed in µs: a scalar
/// integer loop, and a vectorisable multiply-add sweep over a 256 KiB
/// buffer (the instruction mix and cache footprint of the sketch kernels).
/// Timing them at intervals through a run shows when the host itself ran
/// slow, independent of the code under test.
pub fn calibration_us() -> (f64, f64) {
    let t0 = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for _ in 0..200_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x >> 11);
    }
    std::hint::black_box(acc);
    let alu = t0.elapsed().as_secs_f64() * 1e6;
    let mut buf = vec![1u64; 32 * 1024];
    let t1 = Instant::now();
    for pass in 0..32u64 {
        for (i, v) in buf.iter_mut().enumerate() {
            *v = v
                .wrapping_mul(0x5851_f42d_4c95_7f2d)
                .wrapping_add(i as u64 ^ pass);
        }
        std::hint::black_box(&mut buf);
    }
    let vec = t1.elapsed().as_secs_f64() * 1e6;
    (alu, vec)
}

/// Median µs for a thread to wake a parked peer and be woken back, over
/// 50 hand-offs 200 µs apart (the gap lets both threads park, as the
/// serving threads do between open-loop frames). The loops above time the
/// CPU; this times the scheduler's wake-ups, which the wire path makes
/// several of per request.
pub fn wakeup_us() -> f64 {
    let (to_peer, peer_rx) = std::sync::mpsc::channel::<()>();
    let (to_main, main_rx) = std::sync::mpsc::channel::<()>();
    let peer = std::thread::spawn(
        move || {
            while peer_rx.recv().is_ok() && to_main.send(()).is_ok() {}
        },
    );
    let mut trips = Vec::with_capacity(50);
    for _ in 0..50 {
        std::thread::sleep(Duration::from_micros(200));
        let t0 = Instant::now();
        if to_peer.send(()).is_err() || main_rx.recv().is_err() {
            break;
        }
        trips.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    drop(to_peer);
    peer.join().expect("wake-up peer panicked");
    median(&trips)
}

/// Calibration samples taken through a run: `(seconds since start, scalar
/// µs, vector µs, wake-up µs)`.
#[derive(Debug, Default)]
pub struct Calibration {
    samples: Vec<(f64, f64, f64, f64)>,
}

impl Calibration {
    /// Times the calibration loops and the wake-up probe once, stamped
    /// with the offset from `origin`.
    pub fn sample(&mut self, origin: Instant) {
        let at = origin.elapsed().as_secs_f64();
        let (alu, vec) = calibration_us();
        self.samples.push((at, alu, vec, wakeup_us()));
    }

    /// One diagnostic line: count, min/median/max of each probe and the
    /// whole series.
    pub fn describe(&self) -> String {
        let spread = |k: usize| {
            let v: Vec<f64> = self.samples.iter().map(|s| [s.1, s.2, s.3][k]).collect();
            format!(
                "{:.0}/{:.0}/{:.0}",
                quantile(&v, 0.0),
                median(&v),
                quantile(&v, 1.0)
            )
        };
        let series: Vec<String> = self
            .samples
            .iter()
            .map(|(at, alu, vec, wake)| format!("{at:.1}s:{alu:.0}/{vec:.0}/{wake:.0}"))
            .collect();
        format!(
            "calibration n={} scalar_us min/median/max={} vector_us min/median/max={} wakeup_us min/median/max={} series(s:scalar/vector/wakeup)=[{}]",
            self.samples.len(),
            spread(0),
            spread(1),
            spread(2),
            series.join(" ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn window_quantiles_isolate_a_slow_stretch() {
        // Ten one-second windows of 1000 samples; window 3 is 10x slower.
        let mut at = Vec::new();
        let mut v = Vec::new();
        for w in 0..10 {
            for i in 0..1000 {
                at.push(w as f64 + i as f64 / 1000.0);
                v.push(if w == 3 {
                    100.0
                } else {
                    10.0 + (i % 100) as f64 / 100.0
                });
            }
        }
        let p99 = window_quantiles(&at, &v, 1.0, 0.99);
        assert_eq!(p99.len(), 10);
        assert!((10.9..11.0).contains(&median(&p99)));
        assert!(quantile(&v, 0.99) > 99.0);
        // A window too small for its quantile is skipped.
        assert!(window_quantiles(&at[..500], &v[..500], 1.0, 0.99).is_empty());
        let ten: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(quiet_time(&ten), 2.0);
        let best = best_of_rounds(&[vec![3.0, 1.0, 5.0], vec![2.0, 4.0, 6.0]]);
        assert_eq!(best, vec![2.0, 1.0, 5.0]);
    }

    #[test]
    fn process_probes_read_proc() {
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_s() >= 0.0);
    }
}
