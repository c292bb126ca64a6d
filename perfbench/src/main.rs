//! End-to-end and per-layer benchmark of the Sieve simulator's host
//! pipeline (reads in, taxon calls out).
//!
//! ```text
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload novel_batch --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One closed-loop caller issues calls one after another; every call gets
//! fresh reads generated from the seed and the call index, outside the
//! timed interval, and every call's output is checked against an
//! independent oracle (`oracle.rs`). `--trace 0` times the production
//! calls alone and reports the end-to-end metrics; `--trace 1` also
//! replays each call as its separate layer steps and reports the
//! per-layer metrics (`probe.rs`). Every time is taken between two runs
//! of a fixed calibration kernel and reported at the reference machine's
//! speed (`speed.rs`). The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. Any failed call
//! makes the process exit non-zero.

mod oracle;
mod probe;
mod speed;
mod workload;

use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use sieve_core::{HostPipeline, PipelineOutput, SieveDevice, SieveError, SimReport};
use sieve_genomics::synth::SyntheticDataset;

use oracle::{distinct_sorted, Expected, InputProps, Oracle};
use speed::Calibration;
use workload::{Design, Input, Workload, NAMES};

/// Timed calls every run makes at least, whatever `--seconds` says: the
/// p90 then has at least ten samples beyond it.
const MIN_CALLS: u64 = 100;
/// Calls whose modeled reports and input properties are summed. A fixed
/// count, so these metrics repeat exactly for a fixed seed.
const MODEL_CALLS: u64 = 32;
/// In the traced run, every this-many-th call is timed plain, as in the
/// untraced run, for `trace.overhead_pct`.
const PLAIN_EVERY: u64 = 4;
/// K-mers per call the Type-1 versus Type-3 probe runs on.
const SCHED_SAMPLE: usize = 32_768;
/// The untraced run times one more device build for `setup_s` after every
/// this-many calls, so the set-up samples spread over the whole run like
/// the call samples do.
const SETUP_EVERY: u64 = 8;
/// A run stops issuing calls after this long, whatever else remains.
const MAX_RUN: Duration = Duration::from_secs(150);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!(
                "{msg}\nusage: --workload <{}> --seed N --seconds S --trace 0|1",
                NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let Some(w) = Workload::by_name(&args.workload) else {
        eprintln!(
            "unknown workload {:?}; one of {}",
            args.workload,
            NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    println!("provenance: {}", provenance(nproc));
    println!(
        "workload {} seed {} seconds {} trace {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    match run(&w, &args) {
        Ok(outcome) => outcome.print(),
        Err(e) => {
            eprintln!("set-up failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A metric's name, value and unit.
type Metric = (&'static str, f64, &'static str);

/// Everything a run measured.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn print(&self) -> ExitCode {
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        for (name, value, unit) in &self.metrics {
            println!("{name:<34} {value:>16.6} {unit}");
        }
        println!(
            "{:<34} {failed_frac:>16.6} fraction ({} of {} calls)",
            "failed_frac", self.failed, self.attempted
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        let correct = self.failed == 0 && self.attempted > 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// A finite number as JSON; anything else becomes `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The shared state of one run.
struct Bench<'a> {
    w: &'a Workload,
    seed: u64,
    ds: SyntheticDataset,
    host: HostPipeline,
    oracle: Oracle,
    cal: Calibration,
    attempted: u64,
    failed: u64,
    /// Modeled reports of the first [`MODEL_CALLS`] timed calls, summed.
    model: Option<SimReport>,
}

fn run(w: &Workload, args: &Args) -> Result<Outcome, SieveError> {
    let ds = w.dataset();
    let mut cal = Calibration::new();
    let (host, setup_s) = set_up(w, &ds, &mut cal)?;
    let mut bench = Bench {
        w,
        seed: args.seed,
        oracle: Oracle::new(&ds.entries),
        cal,
        host,
        ds,
        attempted: 0,
        failed: 0,
        model: None,
    };
    let seconds = Duration::from_secs(args.seconds);
    let metrics = if args.trace {
        bench.traced(seconds)?
    } else {
        bench.untraced(seconds, setup_s)?
    };
    Ok(Outcome {
        attempted: bench.attempted,
        failed: bench.failed,
        metrics,
    })
}

/// Builds the workload's device and host pipeline
/// (`SieveDevice::new` + `HostPipeline::new`); returns it and the seconds
/// the build took at reference speed.
fn set_up(
    w: &Workload,
    ds: &SyntheticDataset,
    cal: &mut Calibration,
) -> Result<(HostPipeline, f64), SieveError> {
    let entries = ds.entries.clone();
    let config = w.config(w.design);
    let ((host, secs), scale) = cal.around(|| {
        let t = Instant::now();
        let host = SieveDevice::new(config, entries).map(HostPipeline::new);
        (black_box(host), t.elapsed().as_secs_f64())
    });
    Ok((host?, secs * scale))
}

impl Bench<'_> {
    /// The input and expected output of call number `call`.
    fn input(&self, call: u64) -> (Input, Expected) {
        let input = self.w.input(&self.ds, self.seed, call);
        let expected = self.oracle.expect(&input);
        (input, expected)
    }

    /// Times the production call on `input`. Returns the seconds it took
    /// at reference speed, the seconds it took on this machine, and its
    /// output.
    fn timed_call(&mut self, input: &Input) -> (f64, f64, Result<PipelineOutput, SieveError>) {
        let (w, host) = (self.w, &self.host);
        let ((secs, out), scale) = self.cal.around(|| {
            let t = Instant::now();
            let out = w.call(host, black_box(input));
            (t.elapsed().as_secs_f64(), black_box(out))
        });
        (secs * scale, secs, out)
    }

    /// Checks one call's output against the oracle; counts the call, and
    /// returns its report when the output is correct.
    fn check(
        &mut self,
        call: u64,
        out: Result<PipelineOutput, SieveError>,
        expected: &Expected,
    ) -> Option<SimReport> {
        self.attempted += 1;
        match out {
            Ok(out) if out.reads == expected.reads => Some(out.report),
            Ok(out) => {
                let first = out
                    .reads
                    .iter()
                    .zip(&expected.reads)
                    .position(|(a, b)| a != b)
                    .unwrap_or(out.reads.len().min(expected.reads.len()));
                self.fail(
                    call,
                    &format!(
                        "read {first} differs from the oracle ({} results, {} expected)",
                        out.reads.len(),
                        expected.reads.len()
                    ),
                );
                None
            }
            Err(e) => {
                self.fail(call, &format!("error: {e}"));
                None
            }
        }
    }

    fn fail(&mut self, call: u64, why: &str) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("call {call} failed: {why}");
        }
    }

    /// Adds a timed call's report to the modeled totals.
    fn model(&mut self, index: u64, report: &SimReport) {
        if index < MODEL_CALLS {
            match &mut self.model {
                None => self.model = Some(report.clone()),
                Some(total) => total.accumulate(report),
            }
        }
    }

    /// Untimed, checked calls that precede the timed ones.
    fn warm_up(&mut self, mut props: Option<&mut InputProps>) {
        for call in 0..self.w.warmup_calls {
            let (input, expected) = self.input(call);
            if let Some(props) = props.as_deref_mut() {
                props.record(&expected, &distinct_sorted(&expected.kmers), false);
            }
            let (_, _, out) = self.timed_call(&input);
            self.check(call, out, &expected);
        }
    }

    /// Whether the closed loop issues timed call number `index`.
    fn more(start: Instant, index: u64, min_calls: u64, seconds: Duration) -> bool {
        let elapsed = start.elapsed();
        (index < min_calls || elapsed < seconds) && elapsed < MAX_RUN
    }

    /// The end-to-end run: production calls only, timed one by one.
    fn untraced(
        &mut self,
        seconds: Duration,
        first_setup_s: f64,
    ) -> Result<Vec<Metric>, SieveError> {
        self.warm_up(None);
        let mut setups = vec![first_setup_s];
        let mut calls_ms = Vec::new();
        let mut wall_ms = Vec::new();
        let mut reads = 0usize;
        let mut busy_s = 0.0;
        let start = Instant::now();
        let mut index = 0;
        while Self::more(start, index, MIN_CALLS, seconds) {
            let call = self.w.warmup_calls + index;
            let input = self.w.input(&self.ds, self.seed, call);
            let (secs, wall_s, out) = self.timed_call(&input);
            calls_ms.push(secs * 1e3);
            wall_ms.push(wall_s * 1e3);
            busy_s += secs;
            reads += input.reads();
            let expected = self.oracle.expect(&input);
            if let Some(report) = self.check(call, out, &expected) {
                self.model(index, &report);
            }
            index += 1;
            if index % SETUP_EVERY == 0 {
                setups.push(set_up(self.w, &self.ds, &mut self.cal)?.1);
            }
        }
        let mut metrics = vec![
            ("setup_s", median(&mut setups), "s"),
            ("reads_per_s", reads as f64 / busy_s, "reads/s"),
            ("call_ms_p50", quantile(&mut calls_ms, 0.5), "ms"),
            ("call_ms_p90", quantile(&mut calls_ms, 0.9), "ms"),
            ("peak_rss_mb", peak_rss_mb() - self.cal.resident_mb(), "MB"),
        ];
        if let Some(m) = &self.model {
            metrics.push((
                "sim_ns_per_kmer",
                m.makespan_ps as f64 / 1e3 / m.queries as f64,
                "ns/kmer",
            ));
            metrics.push(("sim_nj_per_kmer", m.energy_per_query_nj(), "nJ/kmer"));
        }
        let deciles: Vec<String> = (0..=10)
            .map(|d| format!("{:.2}", quantile(&mut calls_ms, f64::from(d) / 10.0)))
            .collect();
        println!(
            "timed calls {index}, device builds {}; call ms deciles {}",
            setups.len(),
            deciles.join(" ")
        );
        println!(
            "on this machine: call ms p50 {:.2}, p90 {:.2}; calibration kernel {:.3} ms median (reference {} ms)",
            quantile(&mut wall_ms, 0.5),
            quantile(&mut wall_ms, 0.9),
            self.cal.median_ms(),
            speed::REFERENCE_S * 1e3
        );
        Ok(metrics)
    }

    /// Replays a call as its separate layer steps, with the step times at
    /// reference speed.
    fn replay(&mut self, input: &Input) -> Result<probe::Decomposed, SieveError> {
        let (w, host) = (self.w, &self.host);
        let (replay, scale) = self.cal.around(|| probe::decomposed(w, host, input));
        replay.map(|mut d| {
            d.extract_s *= scale;
            d.run_s *= scale;
            d.vote_s *= scale;
            d
        })
    }

    /// The traced run: most calls are also replayed as their separate
    /// layer steps, and the engine and scheduler are probed on the call's
    /// k-mers. Every replay must reproduce the production call's reads and
    /// modeled report exactly.
    fn traced(&mut self, seconds: Duration) -> Result<Vec<Metric>, SieveError> {
        // The other design point over the same reference, for the
        // Type-1 versus Type-3 probe.
        let twin_design = match self.w.design {
            Design::Type1 => Design::Type3,
            Design::Type3 => Design::Type1,
        };
        let twin = SieveDevice::new(self.w.config(twin_design), self.ds.entries.clone())?;
        let mut props = InputProps::default();
        self.warm_up(Some(&mut props));

        let mut plain_ms = Vec::new();
        let mut call_ms = Vec::new();
        let (mut extract_ms, mut run_ms, mut vote_ms) = (Vec::new(), Vec::new(), Vec::new());
        let (mut extract_ns, mut run_ns, mut vote_ns) = (Vec::new(), Vec::new(), Vec::new());
        let (mut other_ms, mut saved_ms) = (Vec::new(), Vec::new());
        let (mut engine_ns, mut sched_ns) = (Vec::new(), Vec::new());
        let start = Instant::now();
        let mut index = 0;
        while Self::more(start, index, MODEL_CALLS, seconds) {
            let call = self.w.warmup_calls + index;
            let (input, expected) = self.input(call);
            let distinct = distinct_sorted(&expected.kmers);
            props.record(&expected, &distinct, index < MODEL_CALLS);
            let plain = index % PLAIN_EVERY == 0;
            if plain {
                let (secs, _, out) = self.timed_call(&input);
                plain_ms.push(secs * 1e3);
                if let Some(report) = self.check(call, out, &expected) {
                    self.model(index, &report);
                }
                index += 1;
                continue;
            }
            // Alternate which of the two runs first, so neither always
            // finds the caches warm.
            let replay_first = index % 2 == 0;
            let mut replay = None;
            if replay_first {
                replay = Some(self.replay(&input));
            }
            let (secs, _, out) = self.timed_call(&input);
            if !replay_first {
                replay = Some(self.replay(&input));
            }
            let Some(report) = self.check(call, out, &expected) else {
                index += 1;
                continue;
            };
            self.model(index, &report);
            let d = match replay.expect("replayed on one side of the call") {
                Ok(d) if d.reads == expected.reads && d.report.as_ref() == Some(&report) => d,
                Ok(_) => {
                    self.fail(call, "the layer-by-layer replay differs from the call");
                    index += 1;
                    continue;
                }
                Err(e) => {
                    self.fail(call, &format!("replay error: {e}"));
                    index += 1;
                    continue;
                }
            };
            let device = self.host.device();
            let ((engine_s, engine_hits), scale) =
                self.cal.around(|| probe::engine_lookup(device, &distinct));
            let engine_s = engine_s * scale;
            let expected_hits = distinct
                .iter()
                .filter(|k| self.oracle.contains(**k))
                .count();
            if engine_hits != expected_hits {
                self.fail(
                    call,
                    &format!("engine found {engine_hits} hits, oracle {expected_hits}"),
                );
                index += 1;
                continue;
            }
            let sample = &d.kmers[..d.kmers.len().min(SCHED_SAMPLE)];
            let (type1, type3) = match self.w.design {
                Design::Type1 => (self.host.device(), &twin),
                Design::Type3 => (&twin, self.host.device()),
            };
            match self.cal.around(|| probe::sched(type1, type3, sample)) {
                (Ok((t1, t3, true)), scale) => {
                    sched_ns.push((t1 - t3) * scale * 1e9 / sample.len() as f64);
                }
                (Ok(_), _) => {
                    self.fail(call, "Type-1 and Type-3 results differ");
                    index += 1;
                    continue;
                }
                (Err(e), _) => {
                    self.fail(call, &format!("scheduler probe error: {e}"));
                    index += 1;
                    continue;
                }
            }
            let kmers = d.kmers.len() as f64;
            let parts = d.extract_s + d.run_s + d.vote_s;
            call_ms.push(secs * 1e3);
            extract_ms.push(d.extract_s * 1e3);
            run_ms.push(d.run_s * 1e3);
            vote_ms.push(d.vote_s * 1e3);
            extract_ns.push(d.extract_s * 1e9 / kmers);
            run_ns.push(d.run_s * 1e9 / kmers);
            vote_ns.push(d.vote_s * 1e9 / input.reads() as f64);
            other_ms.push((secs - parts) * 1e3);
            saved_ms.push((parts - secs) * 1e3);
            engine_ns.push(engine_s * 1e9 / distinct.len() as f64);
            index += 1;
        }
        println!("calls {index}, replayed {}", call_ms.len());
        let mut metrics = vec![
            ("host.extract.ms", median(&mut extract_ms), "ms"),
            (
                "host.extract.ns_per_kmer",
                median(&mut extract_ns),
                "ns/kmer",
            ),
            ("device.run.ms", median(&mut run_ms), "ms"),
            ("device.run.ns_per_kmer", median(&mut run_ns), "ns/kmer"),
            (
                "engine.lookup.ns_per_kmer",
                median(&mut engine_ns),
                "ns/kmer",
            ),
            ("sched.type1.ns_per_kmer", median(&mut sched_ns), "ns/kmer"),
            ("host.vote.ms", median(&mut vote_ms), "ms"),
            ("host.vote.ns_per_read", median(&mut vote_ns), "ns/read"),
            ("host.other.ms", median(&mut other_ms), "ms"),
            ("host.stream_saved.ms", median(&mut saved_ms), "ms"),
        ];
        if let Some(m) = &self.model {
            let queries = m.queries as f64;
            metrics.extend([
                (
                    "dram.row_activations_per_kmer",
                    m.row_activations as f64 / queries,
                    "rows/kmer",
                ),
                ("etm.savings", m.etm_savings(), "fraction"),
                (
                    "dram.read_bursts_per_kmer",
                    m.read_bursts as f64 / queries,
                    "bursts/kmer",
                ),
                (
                    "dram.write_bursts_per_kmer",
                    m.write_bursts as f64 / queries,
                    "bursts/kmer",
                ),
                ("device.hit_frac", m.hits as f64 / queries, "fraction"),
            ]);
        }
        metrics.extend([
            ("input.kmers_per_read", props.kmers_per_read(), "kmers/read"),
            ("input.dup_frac", props.dup_frac(), "fraction"),
            ("input.cross_call_frac", props.cross_call_frac(), "fraction"),
            ("input.hit_frac", props.hit_frac(), "fraction"),
            (
                "trace.overhead_pct",
                (median(&mut call_ms) / median(&mut plain_ms) - 1.0) * 100.0,
                "%",
            ),
        ]);
        Ok(metrics)
    }
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile, interpolated between the nearest ranks; NaN when empty.
fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// The process's peak resident set, MB (`VmHWM`); NaN where unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Which code and machine produced a result: git commit and dirty flag
/// (when run from a git checkout), core count, CPU model and rustc.
fn provenance(nproc: usize) -> String {
    let output = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let here = std::env::current_dir()
        .ok()
        .and_then(|d| d.canonicalize().ok());
    let in_checkout = output("git", &["rev-parse", "--show-toplevel"])
        .and_then(|top| std::path::Path::new(&top).canonicalize().ok())
        .is_some_and(|top| Some(top) == here);
    let git = if in_checkout {
        let sha = output("git", &["rev-parse", "HEAD"]).unwrap_or_default();
        let dirty = output("git", &["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
        format!("{sha} dirty={dirty}")
    } else {
        "unknown (not a git checkout)".to_string()
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = output("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string());
    format!("git {git}; nproc {nproc}; cpu {cpu}; {rustc}")
}
