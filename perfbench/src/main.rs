//! Command-line entry point of the benchmark.
//!
//! ```text
//! ciao-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans-dir <dir>]
//! ```
//!
//! `--trace 0` sets the workload up several times, runs measured passes for
//! `--seconds` (at least one; no pass starts that should end past the
//! budget), times set-up again and prints the end-to-end metrics, every time
//! among them given at the reference host speed of [`hostclock`]. `--trace 1`
//! runs one untraced and one traced pass and prints the per-layer metrics. Either way the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the exit code is 0 only
//! if every output check passed.

use ciao_perfbench::check::{self, Accounting, ApkiRow};
use ciao_perfbench::hostclock::{self, HostClock};
use ciao_perfbench::layers::{self, LayerAcc};
use ciao_perfbench::probe::SpanLog;
use ciao_perfbench::workload::{self, Pass, Prepared, Tracing, Workload};
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans_dir: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload =
                    Some(Workload::from_name(&name).ok_or(format!(
                        "unknown workload {name:?} (one of {})",
                        names.join(", ")
                    ))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value()?.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--spans-dir" => spans_dir = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
        spans_dir,
    })
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Natural logarithm of the gamma function, for `x > 0` (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const P: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    use std::f64::consts::PI;
    if x < 0.5 {
        return (PI / (PI * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let sum = P.iter().enumerate().skip(1).fold(P[0], |acc, (i, p)| acc + p / (x + i as f64));
    0.5 * (2.0 * PI).ln() + (x + 0.5) * t.ln() - t + sum.ln()
}

/// Regularised incomplete beta function `I_x(a, b)`, by its continued
/// fraction (modified Lentz).
fn incomplete_beta(x: f64, a: f64, b: f64) -> f64 {
    const TINY: f64 = 1e-300;
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    if x > (a + 1.0) / (a + b + 2.0) {
        return 1.0 - incomplete_beta(1.0 - x, b, a);
    }
    let ln_beta = ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b);
    let front = (a * x.ln() + b * (1.0 - x).ln() - ln_beta).exp() / a;
    let (mut f, mut c, mut d) = (1.0, 1.0, 0.0);
    for i in 0..=300 {
        let m = (i / 2) as f64;
        let numerator = match i {
            0 => 1.0,
            _ if i % 2 == 0 => m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m)),
            _ => -((a + m) * (a + b + m) * x) / ((a + 2.0 * m) * (a + 2.0 * m + 1.0)),
        };
        d = 1.0 + numerator * d;
        d = 1.0 / if d.abs() < TINY { TINY } else { d };
        c = 1.0 + numerator / c;
        c = if c.abs() < TINY { TINY } else { c };
        f *= c * d;
        if (1.0 - c * d).abs() < 1e-14 {
            break;
        }
    }
    front * (f - 1.0)
}

/// Harrell–Davis estimate of quantile `q` of `values`: a weighted mean of
/// every order statistic, weighted by the Beta(q(n+1), (1-q)(n+1))
/// probability of each rank interval. A single order statistic jumps
/// across the gaps between operation sizes when noise reorders the
/// operations next to it; this estimate moves smoothly.
fn harrell_davis(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let (a, b) = (q * (n + 1.0), (1.0 - q) * (n + 1.0));
    let mut below = 0.0;
    v.iter()
        .enumerate()
        .map(|(i, x)| {
            let cdf = incomplete_beta((i + 1) as f64 / n, a, b);
            let weight = cdf - below;
            below = cdf;
            weight * x
        })
        .sum()
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-up is timed in two rounds, one before the passes and one after, so
/// that a spell of host noise does not cover every sample. Each round
/// repeats set-up at least `SETUP_REPS` times and until `SETUP_ROUND` has
/// elapsed, at most `SETUP_MAX_REPS` times: a single set-up of a simulation
/// workload takes milliseconds, too short to time steadily once.
const SETUP_REPS: usize = 5;
const SETUP_ROUND: Duration = Duration::from_millis(750);
const SETUP_MAX_REPS: usize = 500;

/// One round of set-up timing on `clock`: the last preparation and the
/// time of each set-up in seconds at the reference host speed.
fn timed_setup(w: Workload, seed: u64, clock: &mut HostClock) -> (Prepared, Vec<f64>) {
    let begun = Instant::now();
    let mut times = Vec::new();
    loop {
        let (prep, _, scaled_ns) = clock.time(|| workload::setup(w, seed));
        times.push(scaled_ns / 1e9);
        let enough = times.len() >= SETUP_REPS && begun.elapsed() >= SETUP_ROUND;
        if enough || times.len() >= SETUP_MAX_REPS {
            return (prep, times);
        }
    }
}

/// The checks, accounting and timings of the passes of a run. Only the
/// first pass's outputs are kept (by the caller), so memory does not grow
/// with the number of passes. Times are at the reference host speed except
/// `host_walls`.
#[derive(Default)]
struct Record {
    acc: Accounting,
    errors: Vec<String>,
    passes: usize,
    host_walls: Vec<f64>,
    walls: Vec<f64>,
    kips: Vec<f64>,
    latencies_ms: Vec<f64>,
    reference: Option<Vec<String>>,
}

impl Record {
    /// Checks `pass`, compares its outputs with the first pass's and adds
    /// its timings.
    fn add(&mut self, prep: &Prepared, pass: &Pass) {
        let (a, e) = check::check_pass(prep, pass);
        self.acc.attempted += a.attempted;
        self.acc.finished += a.finished;
        self.acc.capped += a.capped;
        self.acc.stalled += a.stalled;
        self.acc.errors += a.errors;
        self.errors.extend(e);
        let jsons = check::result_jsons(pass);
        match &self.reference {
            None => self.reference = Some(jsons),
            Some(first) if *first != jsons => {
                self.errors.push(format!("pass {}'s results differ from pass 0's", self.passes))
            }
            Some(_) => {}
        }
        let wall_s = pass.scaled_wall_ns / 1e9;
        self.host_walls.push(pass.wall_ns as f64 / 1e9);
        self.walls.push(wall_s);
        self.kips.push(check::instructions(pass) as f64 / wall_s / 1e3);
        let calls =
            pass.sims.iter().map(|op| op.scaled_ns).chain(pass.fleets.iter().map(|f| f.scaled_ns));
        self.latencies_ms.extend(calls.map(|ns| ns / 1e6));
        self.passes += 1;
    }
}

fn print_apki(rows: &[ApkiRow]) {
    println!("APKI under GTO vs the paper's Table II:");
    println!("  {:<10} {:>10} {:>8} {:>8}", "benchmark", "measured", "paper", "factor");
    for r in rows {
        println!(
            "  {:<10} {:>10.2} {:>8.1} {:>7.2}x",
            r.benchmark,
            r.measured,
            r.paper,
            r.factor()
        );
    }
}

fn print_accounting(v: &Record) {
    let (a, passes) = (&v.acc, v.passes);
    println!(
        "operations: {} attempted over {passes} pass(es): {} finished, {} instruction-capped, {} stalled, {} errors",
        a.attempted, a.finished, a.capped, a.stalled, a.errors
    );
    println!(
        "failed_share {:.6} ({}/{}; a stall or an error counts as a failure)",
        (a.stalled + a.errors) as f64 / a.attempted.max(1) as f64,
        a.stalled + a.errors,
        a.attempted
    );
    for e in &v.errors {
        println!("CHECK FAILED: {e}");
    }
}

/// Formats the final JSON line.
fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// APKI rows and violations of the workload's GTO solo runs (the
/// calibration's solo runs for the fleet).
fn accuracy(prep: &Prepared, pass: &Pass) -> (Vec<ApkiRow>, Vec<String>) {
    match &prep.calibration {
        Some(calib) => check::check_calibration(calib),
        None => (check::apki_rows(pass), Vec::new()),
    }
}

fn run_untraced(args: &Args) -> ExitCode {
    let mut clock = HostClock::reference();
    let (prep, mut setup_times) = timed_setup(args.workload, args.seed, &mut clock);
    let budget = Duration::from_secs(args.seconds);
    let begun = Instant::now();
    let first = workload::run_pass(&prep, None, &mut clock);
    let mut record = Record::default();
    record.add(&prep, &first);
    // Another pass only if it should end within the budget, going by the
    // last pass: a run never overshoots by most of a pass.
    let last_pass =
        |r: &Record| Duration::from_secs_f64(r.host_walls.last().copied().unwrap_or(0.0));
    while begun.elapsed() + last_pass(&record) <= budget {
        record.add(&prep, &workload::run_pass(&prep, None, &mut clock));
    }
    let measured_s = begun.elapsed().as_secs_f64();
    setup_times.extend(timed_setup(args.workload, args.seed, &mut clock).1);
    let setup_s = median(&setup_times);
    let (rows, calib_errors) = accuracy(&prep, &first);
    record.errors.extend(calib_errors);

    let per_pass_ops = record.acc.attempted as f64 / record.passes as f64;
    let kjobs: Vec<f64> = record.walls.iter().map(|w| per_pass_ops / w / 1e3).collect();
    let latencies = &record.latencies_ms;
    let a = record.acc;
    let metrics = vec![
        ("setup_s".to_string(), setup_s, "s"),
        ("wall_s".to_string(), median(&record.walls), "s"),
        ("sim_kips".to_string(), median(&record.kips), "kinstr/s"),
        ("fleet_kjobs_per_s".to_string(), median(&kjobs), "kjobs/s"),
        ("run_p50_ms".to_string(), harrell_davis(latencies, 0.5), "ms"),
        ("run_p90_ms".to_string(), harrell_davis(latencies, 0.9), "ms"),
        ("peak_rss_mb".to_string(), peak_rss_mb(), "MB"),
        ("finished_share".to_string(), a.completed() as f64 / a.attempted.max(1) as f64, "ratio"),
        ("apki_err_x".to_string(), check::apki_err_x(&rows), "x"),
    ];

    println!("== ciao-perfbench {} seed {} ==", args.workload.name(), args.seed);
    println!(
        "{} pass(es) in {:.2}s; {} latency samples (p90 has {} beyond it)",
        record.passes,
        measured_s,
        latencies.len(),
        latencies.len() - (0.9 * latencies.len() as f64).ceil() as usize
    );
    println!(
        "host speed: {} reference chunks, median {:.3} ms against {:.3} ms at the reference \
         speed; host-measured wall_s median {:.6}",
        clock.chunks_ns.len(),
        median(&clock.chunks_ns) / 1e6,
        hostclock::REFERENCE_CHUNK_NS / 1e6,
        median(&record.host_walls)
    );
    print_accounting(&record);
    print_apki(&rows);
    println!("modelled results (deterministic, ungated; unvalidated: the repo holds no Fig. 8 reference):");
    for (name, value) in check::model_results(&prep, &first) {
        println!("  {name} {value:.6}");
    }
    println!("digest {:016x}", check::digest(&first));
    for (name, value, unit) in &metrics {
        println!("{name} {value:.6} {unit}");
    }
    let correct = record.errors.is_empty();
    println!("{}", json_line(correct, a.attempted, a.errors, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The spans file: one line naming each simulation's run id, then the
/// spans and aggregates.
fn spans_file(prep: &Prepared, log: &SpanLog) -> String {
    let mut out = String::new();
    for (run, job) in prep.jobs.iter().enumerate() {
        out.push_str(&format!(
            "{{\"kind\":\"run\",\"run\":{run},\"label\":\"{}\"}}\n",
            job.label()
        ));
    }
    out + &log.to_json_lines()
}

fn run_traced(args: &Args) -> ExitCode {
    let prep = workload::setup(args.workload, args.seed);
    let untraced = workload::run_pass(&prep, None, &mut HostClock::off());
    let log = SpanLog::default();
    let acc = Mutex::new(LayerAcc::default());
    let tracing = Tracing { log: &log, acc: &acc };
    let mut extra_errors = Vec::new();
    if let Some(calib) = &prep.calibration {
        let traced_calib = workload::traced_calibration(&tracing);
        if format!("{traced_calib:?}") != format!("{calib:?}") {
            extra_errors.push("calibration is not deterministic".to_string());
        }
    }
    let traced = workload::run_pass(&prep, Some(&tracing), &mut HostClock::off());

    let mut record = Record::default();
    record.add(&prep, &untraced);
    let (traced_acc, traced_errors) = check::check_pass(&prep, &traced);
    record.errors.extend(traced_errors);
    record.errors.extend(extra_errors);
    if record.reference.as_ref() != Some(&check::result_jsons(&traced)) {
        record.errors.push("traced results are not byte-identical to untraced".to_string());
    }
    let mut acc = acc.into_inner().expect("layer accumulator poisoned");
    acc.stalled_runs = traced_acc.stalled;
    let overhead_x = traced.wall_ns as f64 / untraced.wall_ns.max(1) as f64;
    let metrics = layers::metrics(&acc, overhead_x);

    println!("== ciao-perfbench {} seed {} (traced) ==", args.workload.name(), args.seed);
    print_accounting(&record);
    println!("digest {:016x}", check::digest(&untraced));
    if let Some(dir) = &args.spans_dir {
        let path = format!("{dir}/spans-{}-seed{}.jsonl", args.workload.name(), args.seed);
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, spans_file(&prep, &log)));
        match written {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => record.errors.push(format!("writing {path}: {e}")),
        }
    }
    println!("{:<40} {:>16} unit", "per-layer metric", "value");
    for (name, value, unit) in &metrics {
        println!("{name:<40} {value:>16.4} {unit}");
    }
    let attempted = record.acc.attempted + traced_acc.attempted;
    let failed = record.acc.errors + traced_acc.errors;
    let correct = record.errors.is_empty();
    println!("{}", json_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ciao-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
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
        assert!((median(&v) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn incomplete_beta_matches_closed_forms() {
        // I_x(1, 1) = x; I_x(2, 2) = 3x^2 - 2x^3; I_x(a, 1) = x^a.
        for x in [0.1, 0.37, 0.5, 0.93] {
            assert!((incomplete_beta(x, 1.0, 1.0) - x).abs() < 1e-12);
            assert!((incomplete_beta(x, 2.0, 2.0) - (3.0 * x * x - 2.0 * x * x * x)).abs() < 1e-12);
            assert!((incomplete_beta(x, 133.2, 1.0) - x.powf(133.2)).abs() < 1e-12);
        }
    }

    #[test]
    fn harrell_davis_is_a_smooth_quantile() {
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert!((harrell_davis(&v, 0.5) - 5.0).abs() < 1e-9);
        assert!((harrell_davis(&[7.0; 40], 0.9) - 7.0).abs() < 1e-9);
        let p90 = harrell_davis(&v, 0.9);
        assert!(p90 > quantile(&v, 0.8) && p90 < 9.0);
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let line = json_line(true, 3, 0, &[("wall_s".to_string(), 1.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
