//! The harness's own instruments: exact percentiles over raw samples,
//! slice-median rates, peak memory, and the host's copy bandwidth. Nothing
//! here goes through `seq_exec::LatencyHistogram`, whose 2x buckets cannot
//! tell 70 µs from 130 µs.

use std::time::Instant;

/// One completed operation, timed by its caller in nanoseconds since the
/// run's origin.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    /// When the caller sent the request.
    pub start_ns: u64,
    /// When the caller held the complete reply.
    pub end_ns: u64,
    /// Index into `workloads::TEMPLATES`.
    pub template: usize,
    /// The request's logical input rows.
    pub logical_rows: u64,
}

impl OpSample {
    /// The caller-side latency.
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it.
pub fn percentile_index(len: usize, p: f64) -> usize {
    assert!(len > 0, "percentile of no samples");
    ((p / 100.0 * len as f64).ceil() as usize).clamp(1, len) - 1
}

/// Median of unsorted values (mean of the middle two for an even count).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Median of unsorted nanosecond samples, in microseconds (0 for none).
pub fn median_us(nanos: &[u64]) -> f64 {
    if nanos.is_empty() {
        return 0.0;
    }
    median(&mut nanos.iter().map(|n| *n as f64 / 1e3).collect::<Vec<_>>())
}

/// Operations and logical rows per second: the timed phase `[0, phase_ns)`
/// is cut into `slices` equal slices, each slice is credited the share of
/// every operation that overlaps it (an operation straddling an edge counts
/// partly on each side, so a slice never gains or loses a whole 100 ms query
/// to where the edge fell), and the median slice is reported. A stall hurts
/// the slices it falls in, not the reported rate.
pub fn slice_median_rates(samples: &[OpSample], phase_ns: u64, slices: usize) -> (f64, f64) {
    let width = phase_ns as f64 / slices as f64;
    let mut ops = vec![0.0f64; slices];
    let mut rows = vec![0.0f64; slices];
    for s in samples {
        let (start, end) = (s.start_ns as f64, s.end_ns as f64);
        let duration = (end - start).max(1.0);
        let first = (start / width) as usize;
        let last = ((end / width) as usize).min(slices - 1);
        for slice in first..=last {
            let lo = start.max(slice as f64 * width);
            let hi = end.min((slice + 1) as f64 * width);
            let share = ((hi - lo) / duration).max(0.0);
            ops[slice] += share;
            rows[slice] += share * s.logical_rows as f64;
        }
    }
    let per_second = 1e9 / width;
    (median(&mut ops) * per_second, median(&mut rows) * per_second)
}

/// What [`host_speed`] reads on the host the baseline was recorded on (Xeon
/// "Sapphire Rapids", 2.1 GHz nominal, 2 vCPUs) while that host is in its fast
/// state, in iterations per nanosecond. Times are reported as if the host
/// always ran at this speed; on another kind of host every time is off by one
/// constant factor, which no comparison of two runs on that host notices.
pub const REFERENCE_SPEED: f64 = 1.0;

/// How fast this CPU runs right now, in iterations of a fixed dependent
/// multiply-rotate chain per nanosecond: the best of three 4 µs bursts (a
/// burst that is preempted reads slow, never fast).
///
/// The sandbox's virtual CPUs each flip, every few seconds to a minute,
/// between two states a factor 1.24 apart, and every kind of code — ALU
/// chains, memory streams, this engine — slows by that same factor. A wall
/// clock therefore gives two answers for the same work; a clock scaled by
/// this reading gives one.
pub fn host_speed() -> f64 {
    const ITERATIONS: u32 = 4_000;
    (0..3)
        .map(|_| {
            let start = Instant::now();
            let mut x = 1u64;
            for _ in 0..ITERATIONS {
                x = std::hint::black_box(x).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(5);
            }
            std::hint::black_box(x);
            f64::from(ITERATIONS) / start.elapsed().as_nanos().max(1) as f64
        })
        .fold(0.0, f64::max)
}

/// How old a thread lets its last reading of [`host_speed`] get before it
/// takes another between two operations: 13 µs of reading per 2 ms.
pub const READ_EVERY_NS: u64 = 2_000_000;

/// One thread's readings of [`host_speed`], stamped on the run's clock.
pub struct SpeedLog {
    origin: Instant,
    readings: Vec<(u64, f64)>,
}

impl SpeedLog {
    /// A log on the clock that started at `origin`.
    pub fn new(origin: Instant) -> SpeedLog {
        // Room for two minutes of readings: no reallocation while timing.
        SpeedLog { origin, readings: Vec::with_capacity(1 << 16) }
    }

    /// Nanoseconds since the run's origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Take a reading now; returns it relative to [`REFERENCE_SPEED`].
    pub fn read(&mut self) -> f64 {
        let speed = host_speed();
        self.readings.push((self.now(), speed));
        speed / REFERENCE_SPEED
    }

    /// Take a reading if the last one is older than `every_ns`.
    pub fn read_if_older(&mut self, every_ns: u64) {
        if self.readings.last().is_none_or(|(at, _)| self.now() - at >= every_ns) {
            self.read();
        }
    }
}

/// A stopwatch for one thread's short timings, scaled by the last reading of
/// [`host_speed`]; the reading is renewed, between timings, once it is
/// [`READ_EVERY_NS`] old.
pub struct ScaledWatch {
    speed: f64,
    read_at: Instant,
    /// Sum and count of the readings taken, for [`ScaledWatch::mean_speed`].
    readings: (f64, u32),
}

impl ScaledWatch {
    /// A stopwatch with a fresh reading.
    pub fn new() -> ScaledWatch {
        let speed = host_speed() / REFERENCE_SPEED;
        ScaledWatch { speed, read_at: Instant::now(), readings: (speed, 1) }
    }

    /// Renew the reading if it is stale. Call between timings, not inside.
    pub fn refresh(&mut self) {
        if self.read_at.elapsed().as_nanos() >= u128::from(READ_EVERY_NS) {
            self.speed = host_speed() / REFERENCE_SPEED;
            self.read_at = Instant::now();
            self.readings = (self.readings.0 + self.speed, self.readings.1 + 1);
        }
    }

    /// `wall_ns` on the speed-scaled clock.
    pub fn scale(&self, wall_ns: u64) -> u64 {
        (wall_ns as f64 * self.speed) as u64
    }

    /// Mean of the readings so far, relative to [`REFERENCE_SPEED`].
    pub fn mean_speed(&self) -> f64 {
        self.readings.0 / f64::from(self.readings.1)
    }
}

/// The run's clock with the host's speed changes taken out: wall time is cut
/// into windows, each window runs at the mean speed read inside it (by any
/// thread: on the wire workloads a request crosses both CPUs, and so do the
/// clients that take the readings), and a duration is the sum over windows of
/// wall time x speed / [`REFERENCE_SPEED`].
pub struct Warp {
    /// Scaled nanoseconds elapsed at the start of each window.
    elapsed: Vec<f64>,
    /// The last window's speed, for times past the last reading.
    tail: f64,
}

impl Warp {
    const WINDOW_NS: u64 = 200_000_000;

    /// Build the clock from every thread's readings.
    pub fn new<'a>(logs: impl IntoIterator<Item = &'a SpeedLog>) -> Warp {
        let mut readings: Vec<(u64, f64)> =
            logs.into_iter().flat_map(|log| log.readings.iter().copied()).collect();
        readings.sort_by_key(|(at, _)| *at);
        let windows = readings.last().map_or(0, |(at, _)| at / Warp::WINDOW_NS) as usize + 1;
        let mut sums = vec![(0.0f64, 0u32); windows];
        for (at, speed) in &readings {
            let w = &mut sums[(at / Warp::WINDOW_NS) as usize];
            *w = (w.0 + speed / REFERENCE_SPEED, w.1 + 1);
        }
        // A window nobody read in (a long set-up call) runs at the speed of
        // the nearest reading before it, or the first reading after.
        let first = sums.iter().find(|(_, n)| *n > 0).map_or(1.0, |(sum, n)| sum / f64::from(*n));
        let mut speed = first;
        let mut elapsed = Vec::with_capacity(windows + 1);
        let mut total = 0.0;
        for (sum, n) in sums {
            if n > 0 {
                speed = sum / f64::from(n);
            }
            elapsed.push(total);
            total += speed * Warp::WINDOW_NS as f64;
        }
        Warp { elapsed, tail: speed }
    }

    /// The scaled time, in nanoseconds, at wall time `ns`.
    pub fn at(&self, ns: u64) -> f64 {
        let window = ((ns / Warp::WINDOW_NS) as usize).min(self.elapsed.len() - 1);
        let speed = match self.elapsed.get(window + 1) {
            Some(next) => (next - self.elapsed[window]) / Warp::WINDOW_NS as f64,
            None => self.tail,
        };
        self.elapsed[window] + speed * (ns - window as u64 * Warp::WINDOW_NS) as f64
    }

    /// The scaled duration of the wall interval `[start_ns, end_ns]`.
    pub fn between(&self, start_ns: u64, end_ns: u64) -> f64 {
        self.at(end_ns) - self.at(start_ns)
    }
}

/// `VmHWM` of this process in MB: the most memory it ever held.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes one memcpy moves per second on this host, in GB/s: the best of
/// eight copies of a 64 MB buffer (larger than the 4 MB L2, so it streams).
pub fn memcpy_gb_s() -> f64 {
    const BYTES: usize = 64 << 20;
    let src = vec![1u8; BYTES];
    let mut dst = vec![0u8; BYTES];
    let mut best = f64::MAX;
    for _ in 0..8 {
        let start = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        best = best.min(start.elapsed().as_secs_f64());
    }
    BYTES as f64 / best / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        // 200 samples: the median is the 100th, p95 the 190th, and ten
        // samples lie beyond p95.
        assert_eq!(percentile_index(200, 50.0), 99);
        assert_eq!(percentile_index(200, 95.0), 189);
        assert_eq!(percentile_index(1, 95.0), 0);
        assert_eq!(percentile_index(3, 100.0), 2);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median_us(&[]), 0.0);
        assert_eq!(median_us(&[3_000, 1_000, 2_000]), 2.0);
    }

    fn op(start_ns: u64, end_ns: u64) -> OpSample {
        OpSample { start_ns, end_ns, template: 0, logical_rows: 10 }
    }

    #[test]
    fn back_to_back_operations_give_their_rate() {
        // 100 operations of 10 ms, back to back, over one second.
        let samples: Vec<OpSample> =
            (0..100).map(|i| op(i * 10_000_000, (i + 1) * 10_000_000)).collect();
        let (ops, rows) = slice_median_rates(&samples, 1_000_000_000, 10);
        assert!((ops - 100.0).abs() < 1e-6, "{ops}");
        assert!((rows - 1000.0).abs() < 1e-6, "{rows}");
    }

    #[test]
    fn a_straddling_operation_is_shared_between_slices() {
        // One 100 ms operation centred on the edge of two 100 ms slices.
        let (ops, _) = slice_median_rates(&[op(50_000_000, 150_000_000)], 200_000_000, 2);
        assert!((ops - 5.0).abs() < 1e-6, "{ops}");
    }

    #[test]
    fn a_stall_in_one_slice_does_not_move_the_median() {
        let mut samples: Vec<OpSample> =
            (0..100).map(|i| op(i * 10_000_000, (i + 1) * 10_000_000)).collect();
        // Nothing completes during the third slice.
        samples.retain(|s| s.start_ns < 200_000_000 || s.start_ns >= 300_000_000);
        let (ops, _) = slice_median_rates(&samples, 1_000_000_000, 10);
        assert!((ops - 100.0).abs() < 1e-6, "{ops}");
    }

    fn log(readings: &[(u64, f64)]) -> SpeedLog {
        SpeedLog { origin: Instant::now(), readings: readings.to_vec() }
    }

    #[test]
    fn a_host_at_reference_speed_keeps_wall_time() {
        let warp = Warp::new(&[log(&[(0, REFERENCE_SPEED), (900_000_000, REFERENCE_SPEED)])]);
        assert_eq!(warp.between(100_000_000, 700_000_000), 600_000_000.0);
        // Past the last reading the last speed holds.
        assert_eq!(warp.at(5_000_000_000), 5_000_000_000.0);
    }

    #[test]
    fn a_slow_window_shrinks_the_time_spent_in_it() {
        // Window 0 at full speed, windows 1 and 2 (no reading in 2) at 0.8.
        let w = Warp::WINDOW_NS;
        let warp = Warp::new(&[
            log(&[(0, REFERENCE_SPEED), (w + 1, 0.8 * REFERENCE_SPEED)]),
            log(&[(3 * w, REFERENCE_SPEED)]),
        ]);
        assert!((warp.between(0, w) - w as f64).abs() < 1.0);
        assert!((warp.between(w, 3 * w) - 1.6 * w as f64).abs() < 1.0);
        assert!((warp.between(w / 2, w + w / 2) - 0.9 * w as f64).abs() < 1.0);
    }

    #[test]
    fn readings_of_all_threads_in_a_window_are_averaged() {
        let warp = Warp::new(&[log(&[(10, 0.8 * REFERENCE_SPEED)]), log(&[(20, REFERENCE_SPEED)])]);
        assert!((warp.between(0, 1_000) - 900.0).abs() < 1e-6);
    }

    #[test]
    fn the_host_speed_reading_is_positive_and_the_watch_scales_by_it() {
        assert!(host_speed() > 0.0);
        let watch = ScaledWatch::new();
        let scaled = watch.scale(1_000_000) as f64;
        assert!((scaled / 1e6 - watch.mean_speed()).abs() < 1e-3);
    }

    #[test]
    fn an_operation_ending_after_the_phase_keeps_only_its_share() {
        let (ops, _) = slice_median_rates(&[op(0, 200)], 100, 1);
        assert!((ops - 0.5 * 1e9 / 100.0).abs() < 1e-3, "{ops}");
    }
}
