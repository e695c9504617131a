//! What the benchmark reads about its own process and host from `/proc`.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Removes every `ETS_*` variable (the engine reads `ETS_SIMD` and
/// `ETS_GEMM_WORKERS` once, lazily) and checks none is left, so a caller's
/// shell cannot change which kernels a run measures. Call before any
/// engine code runs and before any thread starts.
pub fn scrub_engine_env() {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("ETS_"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    assert!(
        !std::env::vars_os().any(|(k, _)| k.to_string_lossy().starts_with("ETS_")),
        "an ETS_* variable would reach the engine"
    );
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Live threads of this process.
pub fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .count()
}

/// Cumulative hypervisor steal time over all CPUs, in seconds.
fn steal_seconds() -> f64 {
    // "cpu user nice system idle iowait irq softirq steal ..." in USER_HZ,
    // which is 100 on every Linux this runs on.
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Share of the host's CPU time the hypervisor gave to someone else over
/// an interval: Δsteal ÷ (wall × nproc).
pub struct StealMeter {
    steal0: f64,
    t0: std::time::Instant,
}

impl StealMeter {
    pub fn start() -> Self {
        StealMeter {
            steal0: steal_seconds(),
            t0: std::time::Instant::now(),
        }
    }

    pub fn share(&self) -> f64 {
        let wall = self.t0.elapsed().as_secs_f64();
        if wall <= 0.0 {
            return 0.0;
        }
        ((steal_seconds() - self.steal0) / (wall * nproc() as f64)).max(0.0)
    }
}

/// Samples the live-thread count every 50 ms on a thread of its own and
/// keeps the peak, so the bound "replicas + communication threads + the
/// idle main thread" is checked while `train()` holds the main thread.
pub struct ThreadWatch {
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicUsize>,
    join: std::thread::JoinHandle<()>,
}

impl ThreadWatch {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicUsize::new(0));
        let (s, p) = (Arc::clone(&stop), Arc::clone(&peak));
        let join = std::thread::spawn(move || {
            while !s.load(Ordering::SeqCst) {
                p.fetch_max(live_threads(), Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        ThreadWatch { stop, peak, join }
    }

    /// Stops the sampler and returns the peak count, the sampler's own
    /// thread not counted.
    pub fn finish(self) -> usize {
        self.stop.store(true, Ordering::SeqCst);
        self.join.join().expect("thread sampler panicked");
        self.peak.load(Ordering::SeqCst).saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(nproc() >= 1);
        assert!(peak_rss_mib() > 0.5);
        assert!(live_threads() >= 1);
        let m = StealMeter::start();
        assert!((0.0..=1.0).contains(&m.share()));
    }

    #[test]
    fn thread_watch_sees_a_spawned_thread() {
        let watch = ThreadWatch::start();
        let h = std::thread::spawn(|| std::thread::sleep(Duration::from_millis(200)));
        h.join().unwrap();
        // This thread and the spawned one; other tests may add their own.
        assert!(watch.finish() >= 2);
    }
}
