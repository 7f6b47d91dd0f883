//! `goatbench` — end-to-end and per-layer benchmark of the GoAT
//! reproduction, driving the tool only through its public API.
//!
//! ```text
//! goatbench --workload <sweep_d2|isolated_d2> --seed <n> --seconds <s> --trace <0|1>
//! goatbench --record-digests <first-seed> <last-seed>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it are a
//! human-readable summary. See `LAYERS.md` for what each workload and
//! metric is for.

mod layers;
mod stats;
mod workload;

use stats::{fastest, iqr_share, median, percentile};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{run_pass, setup, Mode, Pass, Tally, Workload};

/// Complete set-ups done back to back before each timed pass;
/// `setup_s` is the median of all of them.
const SETUP_BURST: usize = 5;

/// Suite workers. One job already keeps two threads busy (the run-token
/// handoff spins on a second core), so more jobs than one on a small
/// host measure the scheduler rather than GoAT; one job also runs the
/// campaigns one after another, which gives each its own time.
const JOBS: usize = 1;

/// Fewest timed passes in a run: 3 x 68 campaign latencies put ten
/// samples beyond the p95.
const MIN_PASSES: usize = 3;

/// Correctness digests of each workload's campaign summaries, by seed
/// (`<workload> <seed> <hex>` per line), written by `--record-digests`.
/// `isolated_d2` must match `sweep_d2`'s line.
const DIGESTS: &str = include_str!("../digests.txt");

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args { workload: String::new(), seed: 0, seconds: 10, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => out.workload = value()?.clone(),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: expected 0 or 1, got {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !workload::NAMES.contains(&out.workload.as_str()) {
        return Err(format!("--workload must be one of {:?}", workload::NAMES));
    }
    Ok(out)
}

/// Remove every `GOAT_*` variable so no stray knob changes what is
/// measured; returns how many were set.
fn clear_goat_env() -> usize {
    let names: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("GOAT_"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names.len()
}

/// Peak resident set of this process in MB: `VmHWM` of its own memory
/// map. (`getrusage`'s `ru_maxrss` would also count the parent's map
/// that an `exec` replaced, such as a `cargo run` that launched it.)
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The digest of `workload` at `seed` in `table`, if one was recorded.
fn recorded_digest<'t>(table: &'t str, workload: &str, seed: u64) -> Option<&'t str> {
    let key = if workload == "isolated_d2" { "sweep_d2" } else { workload };
    let seed = seed.to_string();
    table.lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f[..] {
            [w, s, digest] if w == key && s == seed => Some(digest),
            _ => None,
        }
    })
}

/// Compare a run's digest with the recorded one in `table`; `None` when
/// the seed has no recorded digest.
fn check_digest(
    table: &str,
    workload: &str,
    seed: u64,
    digest: &str,
) -> Option<Result<(), String>> {
    recorded_digest(table, workload, seed).map(|want| {
        if want == digest {
            Ok(())
        } else {
            Err(format!("digest {digest} differs from the recorded {want}"))
        }
    })
}

fn json_result(correct: bool, tally: Tally, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// A burst of complete set-ups; returns the last one and appends each
/// one's seconds to `walls`.
fn setup_burst(w: &Workload, jobs: usize, walls: &mut Vec<f64>) -> Result<workload::Setup, String> {
    let mut last = None;
    for _ in 0..SETUP_BURST {
        let s = setup(w, jobs)?;
        walls.push(s.wall.as_secs_f64());
        last = Some(s);
    }
    Ok(last.expect("a burst has at least one set-up"))
}

/// Untraced passes, each after a burst of set-ups, for about `seconds`:
/// a pass starts only while the mean pass so far still fits. At least
/// [`MIN_PASSES`] run, so every percentile has ten samples beyond it.
/// Set-up time swings with the host's speed from one second to the
/// next; spreading the bursts over the whole run makes their median see
/// the same host as the passes do.
fn timed_passes(
    w: &Workload,
    jobs: usize,
    seconds: u64,
    setups: &mut Vec<f64>,
) -> Result<Vec<Pass>, String> {
    let t0 = Instant::now();
    let mut passes = Vec::new();
    let budget = Duration::from_secs(seconds);
    while passes.len() < MIN_PASSES || t0.elapsed() + t0.elapsed() / passes.len() as u32 <= budget {
        let s = setup_burst(w, jobs, setups)?;
        let mut pass = run_pass(w, &s.kernels, jobs);
        // Only the traced run replays verdicts; dropping them keeps the
        // peak RSS independent of how many passes fit in the run.
        pass.campaigns = Vec::new();
        passes.push(pass);
    }
    Ok(passes)
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// What one run measured and what it found wrong.
pub struct Outcome {
    pub metrics: Metrics,
    pub problems: Vec<String>,
    pub tally: Tally,
    /// Digest of the campaign summaries the run produced.
    pub digest: String,
}

/// The end-to-end metrics, from untraced passes.
fn untraced(w: &Workload, jobs: usize, seconds: u64) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let passes = timed_passes(w, jobs, seconds, &mut setups)?;

    let mut problems = Vec::new();
    let digest = passes[0].digest.clone();
    if passes.iter().any(|p| p.digest != digest) {
        problems.push("campaign results differ between passes".to_string());
    }
    let mut tally = Tally::default();
    let mut isolated_runs = 0;
    for p in &passes {
        tally.merge(p.tally);
        isolated_runs += p.isolated_runs;
    }
    if w.mode == Mode::Isolated && isolated_runs < tally.attempted {
        problems.push(format!(
            "only {isolated_runs} of {} runs reached an isolated worker",
            tally.attempted
        ));
    }

    let rates: Vec<f64> = passes.iter().map(Pass::iters_per_s).collect();
    let per_pass: Vec<Vec<f64>> = passes.iter().map(Pass::campaign_ms).collect();
    let campaigns: Vec<f64> = per_pass.iter().flatten().copied().collect();
    let first = &passes[0];
    // Every pass runs the same iterations, and a slow spell of the host
    // only adds time to the campaigns it overlaps. Each kernel's campaign
    // time is therefore its fastest over the passes, and their sum is the
    // pass as an undisturbed host runs it.
    let undisturbed_ms: f64 = (0..first.latencies_ms.len())
        .map(|k| fastest(&per_pass.iter().map(|p| p[k]).collect::<Vec<_>>()))
        .sum();
    let iters_per_s = first.tally.completed() as f64 / (undisturbed_ms / 1e3);
    let coverage = first.coverage_pct.iter().sum::<f64>() / first.coverage_pct.len() as f64;
    let metrics = vec![
        ("setup_s", median(&setups), "s"),
        ("iters_per_s", iters_per_s, "iter/s"),
        ("bugs_found", first.bugs_found as f64, "count"),
        ("coverage_pct", coverage, "%"),
        ("peak_rss_mb", peak_rss_mb()?, "MB"),
    ];
    println!(
        "setup_s          {:.4} s   median of {}, iqr {:.1}%",
        median(&setups),
        setups.len(),
        100.0 * iqr_share(&setups)
    );
    for (name, value, unit) in &metrics[1..] {
        println!("{name:<16} {value:.4} {unit}");
    }
    // Campaign time is printed, not reported: on a batch sweep it
    // restates `iters_per_s` with more run-to-run noise (see LAYERS.md).
    println!(
        "campaign_ms      p50 {:.4} ms, p95 {:.4} ms",
        percentile(&campaigns, 50.0)?,
        percentile(&campaigns, 95.0)?
    );
    let per_pass: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
    println!("pass iters/s     {}", per_pass.join(" "));
    println!(
        "failed_pct       {:.4} %   {} of {} iterations over {} passes ({} campaign samples)",
        tally.failed_pct(),
        tally.failed,
        tally.attempted,
        passes.len(),
        campaigns.len()
    );
    Ok(Outcome { metrics, problems, tally, digest })
}

/// The per-layer metrics, from the traced run.
fn traced(w: &Workload, jobs: usize) -> Result<Outcome, String> {
    let s = setup_burst(w, jobs, &mut Vec::new())?;
    let out = layers::traced(w, &s.kernels, jobs)?;
    for (name, value, unit) in &out.metrics {
        println!("{name:<32} {value:>12.4} {unit}");
    }
    Ok(out)
}

fn run(args: &Args, cleared: usize) -> Result<(bool, Tally, Metrics), String> {
    let w = Workload::new(&args.workload, args.seed).expect("workload name was validated");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let jobs = JOBS;
    let spin = goat_runtime::Config::default().spin;
    println!(
        "goatbench: workload={} seed={} seconds={} trace={} nproc={nproc} jobs={jobs} \
         spin={spin} cleared_goat_vars={cleared}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut out = if args.trace { traced(&w, jobs)? } else { untraced(&w, jobs, args.seconds)? };

    let reference = match check_digest(DIGESTS, w.name, args.seed, &out.digest) {
        Some(Ok(())) => "recorded digest matches",
        Some(Err(e)) => {
            out.problems.push(e);
            "recorded digest differs"
        }
        None if w.mode == Mode::Isolated && !args.trace => {
            // No recorded digest: the in-process suite is the reference.
            let kernels = workload::kernels();
            let inproc = run_pass(&w.with_mode(Mode::Suite), &kernels, jobs).digest;
            if inproc != out.digest {
                out.problems.push(format!("isolated != in-process {inproc}"));
            }
            "no recorded digest; checked against an in-process pass"
        }
        None => "no recorded digest; checked across the run's own passes",
    };
    println!("digest           {}   {reference}", out.digest);
    for p in &out.problems {
        println!("INCORRECT: {p}");
    }
    Ok((out.problems.is_empty(), out.tally, out.metrics))
}

/// Print the `digests.txt` lines of the sweep for seeds `lo..=hi`.
fn record_digests(lo: u64, hi: u64) {
    let kernels = workload::kernels();
    for seed in lo..=hi {
        let w = Workload::new("sweep_d2", seed).expect("known workload");
        println!("sweep_d2 {seed} {}", run_pass(&w, &kernels, JOBS).digest);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Worker side of process isolation: the orchestrator configures it
    // through its environment, so this must run before the clean-up.
    if args.first().map(String::as_str) == Some("--worker") {
        let code = goat_core::serve_worker(&workload::kernel_by_name);
        return ExitCode::from(u8::try_from(code).unwrap_or(1));
    }
    let cleared = clear_goat_env();
    if args.first().map(String::as_str) == Some("--record-digests") {
        let seeds: Vec<u64> = args[1..].iter().filter_map(|a| a.parse().ok()).collect();
        let [lo, hi] = seeds[..] else {
            eprintln!("usage: goatbench --record-digests <first-seed> <last-seed>");
            return ExitCode::from(2);
        };
        record_digests(lo, hi);
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("goatbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args, cleared);
    goat_core::isolate::drain_idle_workers();
    match outcome {
        Ok((correct, tally, metrics)) => {
            println!("{}", json_result(correct, tally, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("goatbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: &str = "sweep_d2 3 00000000000000aa\nsweep_d2 4 00000000000000bb\n";

    #[test]
    fn digest_check_passes_matches_and_fails_mismatches() {
        assert_eq!(check_digest(TABLE, "sweep_d2", 3, "00000000000000aa"), Some(Ok(())));
        let err = check_digest(TABLE, "sweep_d2", 3, "00000000000000ab").unwrap().unwrap_err();
        assert!(err.contains("differs"), "{err}");
        // The isolated sweep must reproduce the in-process sweep.
        assert_eq!(check_digest(TABLE, "isolated_d2", 3, "00000000000000aa"), Some(Ok(())));
        assert!(check_digest(TABLE, "isolated_d2", 3, "00000000000000bb").unwrap().is_err());
        assert!(check_digest(TABLE, "sweep_d2", 4, "00000000000000aa").unwrap().is_err());
        assert_eq!(check_digest(TABLE, "sweep_d2", 5, "00000000000000aa"), None);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = json_result(
            false,
            Tally { attempted: 7, failed: 1 },
            &[("setup_s", 0.5, "s"), ("bugs_found", 3.0, "count")],
        );
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 7, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"bugs_found\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn arguments_are_checked() {
        let args = |v: &[&str]| parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let a = args(&["--workload", "sweep_d2", "--seed", "5", "--seconds", "3", "--trace", "1"])
            .expect("valid arguments");
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("sweep_d2", 5, 3, true));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "sweep_d2", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "sweep_d2", "--seed"]).is_err());
    }
}
