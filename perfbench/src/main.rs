//! perfbench — end-to-end and per-layer benchmark of the real training
//! engine. One named workload per invocation, driven through the public
//! `ets_train::train(&Experiment)`; see README.md for the design and
//! `BENCHMARK.json` for the contract.

mod compare;
mod host;
mod manifest;
mod replay;
mod shapes;
mod spans;
mod stats;
mod workloads;

use ets_train::{train, Experiment, TrainReport};
use manifest::MetricSpec;
use stats::Summary;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{
    check_report, cold_experiment, expected_cold, expected_round, round_experiment, Fingerprint,
};

/// Tests that run the engine hold this: `abft_verify`, the GEMM dispatch
/// counters and the scratch counters are process-global.
#[cfg(test)]
pub static ENGINE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Scratch directory inside the build directory (next to the executable),
/// so nothing is written outside the checkout; one per process.
pub fn work_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of this executable");
    exe.parent()
        .expect("executable has a directory")
        .join("perfbench-work")
        .join(std::process::id().to_string())
}

const USAGE: &str = "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
[--trace-dir DIR] [--quick]
       perfbench --compare A.jsonl B.jsonl
       perfbench --list | --emit-manifest";

pub struct Args {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_dir: Option<PathBuf>,
    pub quick: bool,
}

impl Args {
    /// Cold-op/round pairs a full run holds at least.
    fn min_pairs(&self) -> usize {
        if self.quick {
            2
        } else {
            16
        }
    }
}

enum Command {
    Run(Args),
    Compare(PathBuf, PathBuf),
    List,
    EmitManifest,
}

fn parse_args(argv: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = None;
    let mut trace = false;
    let mut trace_dir = None;
    let mut quick = false;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{a} needs {what}"))
        };
        match a.as_str() {
            "--workload" => workload = Some(value("a name")?),
            "--seed" => {
                seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {s} outside (0, 60]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--trace-dir" => trace_dir = Some(PathBuf::from(value("a directory")?)),
            "--quick" => quick = true,
            "--compare" => {
                let a = PathBuf::from(value("two files")?);
                let b = PathBuf::from(value("two files")?);
                return Ok(Command::Compare(a, b));
            }
            "--list" => return Ok(Command::List),
            "--emit-manifest" => return Ok(Command::EmitManifest),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let name = workload.ok_or("missing --workload")?;
    let workload = workloads::WORKLOADS
        .iter()
        .map(|w| w.name)
        .find(|n| *n == name)
        .ok_or_else(|| format!("unknown workload {name} (see --list)"))?;
    Ok(Command::Run(Args {
        workload,
        seed,
        seconds: seconds.unwrap_or(if quick {
            3.0
        } else {
            manifest::RUN_SECONDS as f64
        }),
        trace,
        trace_dir,
        quick,
    }))
}

/// Collects the metrics of one run, prints each by name and unit as it is
/// reported, and checks at the end that the set is exactly the table's.
pub struct Metrics {
    table: &'static [MetricSpec],
    values: Vec<(&'static MetricSpec, f64)>,
    pub correct: bool,
}

impl Metrics {
    pub fn new(table: &'static [MetricSpec]) -> Self {
        Metrics {
            table,
            values: Vec::with_capacity(table.len()),
            correct: true,
        }
    }

    /// Reports `name`; `note` is printed beside it (median, p75, n, ...).
    pub fn emit(&mut self, name: &str, value: f64, note: &str) {
        let spec = self
            .table
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the benchmark's table"));
        assert!(
            !self.values.iter().any(|(m, _)| m.name == name),
            "metric {name} reported twice"
        );
        let value = if value.is_finite() {
            value
        } else {
            self.fail(&format!("metric {name} is not finite ({value})"));
            0.0
        };
        println!("{:<40} {:>16.6} {:<8} {note}", spec.name, value, spec.unit);
        self.values.push((spec, value));
    }

    pub fn fail(&mut self, why: &str) {
        println!("FAILED: {why}");
        self.correct = false;
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(m, _)| m.name == name)
            .map(|(_, v)| *v)
    }

    /// The contract's last line.
    pub fn result_line(&self, attempted: u64, failed: u64) -> String {
        for m in self.table {
            assert!(
                self.value(m.name).is_some(),
                "metric {} of the table was not reported",
                m.name
            );
        }
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|(m, v)| {
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            self.correct && failed == 0,
            attempted.max(1),
            metrics.join(", ")
        )
    }
}

/// Where, under the work directory, `guarded_chaos_2x` checkpoints.
const CKPT_DIR: &str = "ckpt";

/// Runs `train()` operations of one workload, checks each, and counts.
pub struct Ops {
    name: &'static str,
    pub round: Experiment,
    pub cold: Experiment,
    work: PathBuf,
    first_round: Option<Fingerprint>,
    first_cold: Option<Fingerprint>,
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn new(name: &'static str, seed: u64) -> Self {
        let work = work_dir();
        std::fs::create_dir_all(&work).expect("create the work directory");
        let round = round_experiment(name, seed, &work.join(CKPT_DIR));
        let cold = cold_experiment(&round);
        Ops {
            name,
            round,
            cold,
            work,
            first_round: None,
            first_cold: None,
            attempted: 0,
            failed: 0,
        }
    }

    /// The directory `guarded_chaos_2x` checkpoints into; the trainer
    /// clears it when a run starts and leaves the files when it ends.
    pub fn ckpt_dir(&self) -> PathBuf {
        self.work.join(CKPT_DIR)
    }

    fn checked(
        &mut self,
        what: &str,
        run: impl FnOnce() -> TrainReport,
        check: impl FnOnce(&TrainReport) -> Result<(), String>,
    ) -> Option<(TrainReport, f64)> {
        self.attempted += 1;
        // A fresh checkpoint directory for every operation, emptied outside
        // the timing; the files of the last one stay until the run ends.
        let _ = std::fs::remove_dir_all(self.ckpt_dir());
        let t0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(run));
        let wall = t0.elapsed().as_secs_f64();
        let why = match outcome {
            Ok(r) => match check(&r) {
                Ok(()) => return Some((r, wall)),
                Err(why) => why,
            },
            // A panic can leave the process-global ABFT switch on.
            Err(_) => {
                ets_tensor::ops::abft::set_verify(false);
                "panicked".to_string()
            }
        };
        println!("FAILED {} {what} #{}: {why}", self.name, self.attempted);
        self.failed += 1;
        None
    }

    /// One round through `run` (`train` or a traced variant); returns the
    /// report and the wall seconds of the call.
    pub fn round_with(
        &mut self,
        run: impl FnOnce(&Experiment) -> TrainReport,
    ) -> Option<(TrainReport, f64)> {
        let exp = self.round.clone();
        let want = expected_round(self.name, &exp);
        let first = self.first_round;
        let out = self.checked(
            "round",
            || run(&exp),
            |r| check_report(r, &want, first.as_ref()),
        );
        if let (None, Some((r, _))) = (self.first_round, &out) {
            self.first_round = Some(Fingerprint::of(r));
        }
        out
    }

    pub fn round(&mut self) -> Option<(TrainReport, f64)> {
        self.round_with(train)
    }

    /// One cold op: a full `train()` of a single step.
    pub fn cold(&mut self) -> Option<(TrainReport, f64)> {
        let exp = self.cold.clone();
        let want = expected_cold(&exp);
        let first = self.first_cold;
        let out = self.checked(
            "cold op",
            || train(&exp),
            |r| check_report(r, &want, first.as_ref()),
        );
        if let (None, Some((r, _))) = (self.first_cold, &out) {
            self.first_cold = Some(Fingerprint::of(r));
        }
        out
    }

    pub fn first_round(&self) -> Option<Fingerprint> {
        self.first_round
    }
}

impl Drop for Ops {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

fn describe(s: &Summary, unit: &str) -> String {
    format!(
        "p25 {:.4} median {:.4} p75 {:.4} {unit}, n {}",
        s.p25, s.median, s.p75, s.n
    )
}

/// The untraced run: warm up, then alternate cold op and round until the
/// time is up, so both kinds of sample are spread over the whole window.
fn run_end_to_end(args: &Args) -> (Metrics, u64, u64) {
    let mut m = Metrics::new(&manifest::END_TO_END);
    let steal = host::StealMeter::start();
    let watch = host::ThreadWatch::start();
    let mut ops = Ops::new(args.workload, args.seed);
    let budget = ops.round.epochs as f64 * ops.round.train_samples as f64;

    // Warm-up pair: page in the binary, fill the scratch arenas. Its peak
    // memory is the one reported: what one train() call of each kind needs.
    // Later in the process the peak creeps up in steps of one gradient
    // buffer, depending on how the replica threads' frees interleave
    // (175-197 MiB at exit for the same code on wide_lars_2x).
    ops.cold();
    ops.round();
    let rss_first = host::peak_rss_mib();

    let (mut cold_s, mut round_s) = (Vec::new(), Vec::new());
    let limit = Duration::from_secs_f64(args.seconds);
    let t0 = Instant::now();
    let mut pairs = 0;
    while t0.elapsed() < limit || pairs < args.min_pairs() {
        if let Some((_, wall)) = ops.cold() {
            cold_s.push(wall);
        }
        if let Some((_, wall)) = ops.round() {
            round_s.push(wall);
        }
        pairs += 1;
    }
    let steal = steal.share();
    let peak_threads = watch.finish();
    let allowed = workloads::max_live_threads(&ops.round);
    if peak_threads > allowed {
        m.fail(&format!(
            "{peak_threads} live threads, more than the {allowed} this workload may use"
        ));
    }
    if cold_s.is_empty() || round_s.is_empty() {
        m.fail("no operation succeeded");
        cold_s.push(0.0);
        round_s.push(0.0);
    }

    println!("# cold op s: {cold_s:.4?}");
    println!("# round s:   {round_s:.4?}");
    let cold = Summary::of(&cold_s);
    let round = Summary::of(&round_s);
    println!(
        "# {} seed {}: {pairs} pairs in {:.1} s, peak threads {peak_threads}/{allowed}, steal {steal:.4}",
        args.workload,
        args.seed,
        t0.elapsed().as_secs_f64()
    );
    m.emit("setup_s", cold.p25, &describe(&cold, "s per cold op"));
    m.emit(
        "samples_per_s",
        budget / round.p25,
        &format!("{budget} samples / {}", describe(&round, "s per round")),
    );
    let loss = ops
        .first_round()
        .map_or(f64::NAN, |f| f64::from(f32::from_bits(f.loss_bits)));
    m.emit("final_loss", loss, "bitwise equal in every round");
    m.emit(
        "peak_rss_mb",
        rss_first,
        &format!(
            "VmHWM after the first cold op + round; {:.1} at exit",
            host::peak_rss_mib()
        ),
    );
    (m, ops.attempted, ops.failed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse_args(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match cmd {
        Command::List => {
            for w in &workloads::WORKLOADS {
                println!("{:<18} {}", w.name, w.why);
            }
            ExitCode::SUCCESS
        }
        Command::EmitManifest => {
            print!("{}", manifest::benchmark_json());
            ExitCode::SUCCESS
        }
        Command::Compare(a, b) => match compare::compare_files(&a, &b) {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench --compare: {e}");
                ExitCode::from(2)
            }
        },
        Command::Run(args) => {
            // Before any engine code or thread: the engine reads ETS_* once.
            host::scrub_engine_env();
            let (m, attempted, failed) = if args.trace {
                replay::run_traced(&args)
            } else {
                run_end_to_end(&args)
            };
            println!("{}", m.result_line(attempted, failed));
            ExitCode::SUCCESS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_command_line_parses() {
        let Ok(Command::Run(a)) = parse(&[
            "--workload",
            "wide_lars_2x",
            "--seed",
            "7",
            "--seconds",
            "25",
            "--trace",
            "1",
        ]) else {
            panic!("driver arguments must parse");
        };
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            ("wide_lars_2x", 7, 25.0, true)
        );
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "wide_lars_2x", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "wide_lars_2x", "--seconds", "0"]).is_err());
        assert!(parse(&[]).is_err());
        let Ok(Command::Run(q)) = parse(&["--workload", "b0half_f32_1x", "--quick"]) else {
            panic!("--quick must parse");
        };
        assert_eq!((q.seconds, q.min_pairs()), (3.0, 2));
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut m = Metrics::new(&manifest::END_TO_END);
        for spec in &manifest::END_TO_END {
            m.emit(spec.name, 1.25, "");
        }
        let line = m.result_line(5, 0);
        let v = ets_obs::parse_json(&line).expect("result line is JSON");
        let keys: Vec<&String> = v.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(true));
        let setup = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        assert!(m.result_line(5, 1).contains("\"correct\": false"));
    }
}
