//! `goat` — the command-line front end, mirroring the original tool's
//! workflow (paper appendix, listing 3):
//!
//! ```text
//! Usage of goat:
//!   -target <name>   benchmark kernel to test ('list' enumerates, 'all' sweeps)
//!   -d <int>         number of delays (delay bound D, default 0)
//!   -freq <int>      frequency of test executions (default 100)
//!   -cov             include the coverage report in the evaluation
//!   -seed <int>      base seed (default 1)
//! ```
//!
//! Example: `goat -target moby28462 -d 2 -freq 200 -cov`

use goat::core::{bug_report, Goat, GoatConfig, Program, SuiteConfig};
use std::process::ExitCode;
use std::sync::Arc;

struct Cli {
    target: String,
    d: u32,
    freq: usize,
    cov: bool,
    seed: u64,
    keep_running: bool,
    // Supervision knobs: `None` keeps the env-derived default from
    // `GoatConfig::default()` (GOAT_ITER_TIMEOUT_MS & friends).
    iter_timeout_ms: Option<u64>,
    checkpoint: Option<String>,
    max_retries: Option<u32>,
    quarantine_after: Option<u32>,
    quarantine_crashes: Option<u32>,
    // Exploration knobs (flags win over GOAT_STRATEGY / GOAT_GUIDED /
    // GOAT_SATURATION_WINDOW).
    strategy: Option<goat::runtime::StrategyKind>,
    guided: Option<bool>,
    saturation_window: Option<usize>,
    // Hot-path knobs: the flag seeds the matching `GOAT_*` variable
    // only when the environment leaves it unset, so an operator's env
    // always wins over a script's flag.
    memo: Option<String>,
    trace_pool_max: Option<usize>,
    // Process isolation (flag wins over GOAT_ISOLATE).
    isolate: Option<goat::core::IsolateMode>,
    // Worker count for any target (flag wins over GOAT_PARALLELISM)
    // and `-target all` budget reallocation (flag wins over
    // GOAT_SUITE_REALLOC).
    jobs: Option<usize>,
    realloc: Option<bool>,
}

/// Set `name` only when the environment does not already define it.
fn env_default(name: &str, value: &str) {
    if std::env::var_os(name).is_none() {
        std::env::set_var(name, value);
    }
}

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli {
        target: String::new(),
        d: 0,
        freq: 100,
        cov: false,
        seed: 1,
        keep_running: false,
        iter_timeout_ms: None,
        checkpoint: None,
        max_retries: None,
        quarantine_after: None,
        quarantine_crashes: None,
        strategy: None,
        guided: None,
        saturation_window: None,
        memo: None,
        trace_pool_max: None,
        isolate: None,
        jobs: None,
        realloc: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| args.next().ok_or_else(|| format!("missing value for {name}"));
        fn num<T: std::str::FromStr>(name: &str, v: String) -> Result<T, String>
        where
            T::Err: std::fmt::Display,
        {
            v.parse().map_err(|e| format!("{name}: {e}"))
        }
        match arg.as_str() {
            "-target" | "--target" => cli.target = take("-target")?,
            "-d" | "--d" => cli.d = num("-d", take("-d")?)?,
            "-freq" | "--freq" => cli.freq = num("-freq", take("-freq")?)?,
            "-seed" | "--seed" => cli.seed = num("-seed", take("-seed")?)?,
            "-cov" | "--cov" => cli.cov = true,
            "-keep-running" | "--keep-running" => cli.keep_running = true,
            "-iter-timeout-ms" | "--iter-timeout-ms" => {
                cli.iter_timeout_ms = Some(num("-iter-timeout-ms", take("-iter-timeout-ms")?)?)
            }
            "-checkpoint" | "--checkpoint" => cli.checkpoint = Some(take("-checkpoint")?),
            "-max-retries" | "--max-retries" => {
                cli.max_retries = Some(num("-max-retries", take("-max-retries")?)?)
            }
            "-quarantine-after" | "--quarantine-after" => {
                cli.quarantine_after = Some(num("-quarantine-after", take("-quarantine-after")?)?)
            }
            "-quarantine-crashes" | "--quarantine-crashes" => {
                cli.quarantine_crashes =
                    Some(num("-quarantine-crashes", take("-quarantine-crashes")?)?)
            }
            "-strategy" | "--strategy" => {
                let v = take("-strategy")?;
                cli.strategy = Some(
                    goat::runtime::StrategyKind::parse(&v)
                        .map_err(|e| format!("-strategy: {e}"))?,
                );
            }
            "-guided" | "--guided" => cli.guided = Some(true),
            "-saturation-window" | "--saturation-window" => {
                let n: usize = num("-saturation-window", take("-saturation-window")?)?;
                if n == 0 {
                    return Err("-saturation-window: must be >= 1".into());
                }
                cli.saturation_window = Some(n);
            }
            "-memo" | "--memo" => {
                let v = take("-memo")?;
                match v.as_str() {
                    "0" | "off" | "1" | "on" | "verify" => cli.memo = Some(v),
                    other => return Err(format!("-memo: expected off|on|verify, got {other}")),
                }
            }
            "-trace-pool-max" | "--trace-pool-max" => {
                cli.trace_pool_max = Some(num("-trace-pool-max", take("-trace-pool-max")?)?)
            }
            "-isolate" | "--isolate" => {
                let v = take("-isolate")?;
                cli.isolate = Some(
                    goat::core::IsolateMode::parse(&v)
                        .ok_or_else(|| format!("-isolate: expected off|proc, got {v}"))?,
                );
            }
            "-jobs" | "--jobs" => {
                let n: usize = num("-jobs", take("-jobs")?)?;
                if n == 0 {
                    return Err("-jobs: must be >= 1".into());
                }
                cli.jobs = Some(n);
            }
            "-realloc" | "--realloc" => cli.realloc = Some(true),
            "-h" | "--help" => {
                print_help();
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if cli.target.is_empty() {
        return Err("missing -target (use '-target list' to enumerate kernels)".into());
    }
    // Seed the env-first hot-path knobs before anything reads (and
    // caches) them: the analysis memo mode and the trace-buffer pool cap
    // are process-wide defaults resolved from GOAT_* on first use.
    if let Some(m) = &cli.memo {
        env_default("GOAT_MEMO", m);
    }
    if let Some(n) = cli.trace_pool_max {
        env_default("GOAT_TRACE_POOL_MAX", &n.to_string());
    }
    Ok(cli)
}

/// Base campaign config for this invocation: the common flags plus the
/// supervision overrides (flags win over the `GOAT_*` env defaults).
fn campaign_config(cli: &Cli) -> GoatConfig {
    let mut cfg = GoatConfig::default()
        .with_delay_bound(cli.d)
        .with_iterations(cli.freq)
        .with_seed0(cli.seed);
    if cli.keep_running {
        cfg = cfg.keep_running();
    }
    if let Some(ms) = cli.iter_timeout_ms {
        cfg = cfg.with_iter_timeout_ms((ms > 0).then_some(ms));
    }
    if let Some(path) = &cli.checkpoint {
        cfg = cfg.with_checkpoint(path.clone());
    }
    if let Some(n) = cli.max_retries {
        cfg = cfg.with_max_retries(n);
    }
    if let Some(n) = cli.quarantine_after {
        cfg = cfg.with_quarantine_after(n);
    }
    if let Some(n) = cli.quarantine_crashes {
        cfg = cfg.with_quarantine_crashes(n);
    }
    if let Some(s) = cli.strategy {
        cfg = cfg.with_strategy(s);
    }
    if let Some(on) = cli.guided {
        cfg = cfg.with_guided(on);
    }
    if let Some(w) = cli.saturation_window {
        cfg = cfg.with_saturation_window(Some(w));
    }
    if let Some(m) = cli.isolate {
        cfg = cfg.with_isolate(m);
    }
    if let Some(n) = cli.jobs {
        cfg = cfg.with_parallelism(n);
    }
    cfg
}

/// Exit code for a usage error (bad flags, unknown kernel) — EX_USAGE.
const EXIT_USAGE: u8 = 64;
/// Exit code when a campaign was quarantined or otherwise could not
/// deliver a verdict (infra failure).
const EXIT_INFRA: u8 = 2;
/// Exit code when a bug was detected (like a failing test).
const EXIT_BUG: u8 = 1;

fn print_help() {
    println!(
        "goat — automated concurrency analysis and debugging (GoAT reproduction)\n\n\
         usage: goat -target <kernel> [-d <int>] [-freq <int>] [-cov] [-seed <int>]\n\n\
         \x20 -target <name>  benchmark kernel to test ('list' enumerates all 68)\n\
         \x20 -d <int>        delay bound D: max injected yields per execution (default 0)\n\
         \x20 -freq <int>     maximum testing iterations (default 100)\n\
         \x20 -cov            print the coverage report after the campaign\n\
         \x20 -seed <int>     base seed (default 1)\n\n\
         supervision (flags override the matching GOAT_* env knobs):\n\
         \x20 -keep-running             run the full budget even after a detection\n\
         \x20 -iter-timeout-ms <int>    per-iteration watchdog; 0 disables (GOAT_ITER_TIMEOUT_MS)\n\
         \x20 -checkpoint <path>        persist/resume campaign progress (GOAT_CHECKPOINT)\n\
         \x20 -max-retries <int>        retries for infra failures (GOAT_MAX_RETRIES)\n\
         \x20 -quarantine-after <int>   quarantine after N infra failures (GOAT_QUARANTINE_AFTER)\n\
         \x20 -quarantine-crashes <int> quarantine after N crashed iterations, 0 = off\n\
         \x20                           (GOAT_QUARANTINE_CRASHES)\n\n\
         exploration (flags override the matching GOAT_* env knobs):\n\
         \x20 -strategy <spec>          scheduling strategy: native | random | pct[:<depth>[:<len>]]\n\
         \x20                           (GOAT_STRATEGY; default native)\n\
         \x20 -guided                   coverage-guided arm selection over strategy/yield/delay\n\
         \x20                           configurations (GOAT_GUIDED)\n\
         \x20 -saturation-window <int>  stop after N consecutive iterations with no new\n\
         \x20                           coverage (GOAT_SATURATION_WINDOW)\n\n\
         execution hot path (flags seed the GOAT_* env knob; env remains the override):\n\
         \x20 -memo <off|on|verify>     duplicate-schedule analysis memoization; verify\n\
         \x20                           re-analyzes hits and asserts equality (GOAT_MEMO)\n\
         \x20 -trace-pool-max <int>     recycled trace buffers kept per process\n\
         \x20                           (GOAT_TRACE_POOL_MAX, default 32)\n\n\
         process isolation (the flag overrides the GOAT_ISOLATE env knob):\n\
         \x20 -isolate <off|proc>       run each iteration in a sandboxed worker\n\
         \x20                           subprocess with crash forensics and rlimit\n\
         \x20                           jails (GOAT_ISOLATE; default off)\n\n\
         workers and suite mode (flags override the matching GOAT_* env knobs):\n\
         \x20 -jobs <int>               workers claiming iterations from one work-stealing\n\
         \x20                           queue, across every kernel under -target all;\n\
         \x20                           output is byte-identical at any value\n\
         \x20                           (GOAT_PARALLELISM; default 1)\n\
         \x20 -realloc                  -target all: early-stopping kernels donate unspent\n\
         \x20                           budget to still-exploring ones, deterministically\n\
         \x20                           (GOAT_SUITE_REALLOC)\n\n\
         exit codes: 0 clean, 1 bug detected, 2 quarantined/infra failure, 64 usage"
    );
}

struct KernelProgram(&'static goat::goker::BugKernel);

impl Program for KernelProgram {
    fn name(&self) -> &str {
        Program::name(self.0)
    }
    fn main(&self) {
        Program::main(self.0)
    }
}

fn main() -> ExitCode {
    // Hidden worker mode: `goat --worker` serves sandboxed runs over
    // stdin/stdout for a `GOAT_ISOLATE=proc` orchestrator. Intercepted
    // before flag parsing so the frame protocol owns the process.
    if std::env::args().nth(1).as_deref() == Some("--worker") {
        let code = goat::core::serve_worker(|name: &str| {
            goat::goker::by_name(name).map(|k| Arc::new(KernelProgram(k)) as Arc<dyn Program>)
        });
        return ExitCode::from(code.clamp(0, 255) as u8);
    }

    let cli = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("goat: {e}\n");
            print_help();
            return ExitCode::from(EXIT_USAGE);
        }
    };

    if cli.target == "list" {
        println!("{:<18} {:<11} {:<14} description", "name", "project", "cause");
        for k in goat::goker::all_kernels() {
            println!(
                "{:<18} {:<11} {:<14} {}",
                k.name,
                k.project.to_string(),
                k.cause.to_string(),
                k.description
            );
        }
        return ExitCode::SUCCESS;
    }

    if cli.target == "all" {
        // The paper's `-eval_conf … -freq` whole-benchmark run, over
        // the suite orchestrator's global work-stealing iteration
        // queue. Per-kernel sidecar derivation, summary-line ordering
        // (kernel order via the reorder buffer) and bug-trace recycling
        // all live in `run_suite`; output is byte-identical at any
        // `-jobs` value.
        let cfg = campaign_config(&cli);
        let mut suite = SuiteConfig::default().with_jobs(cfg.parallelism);
        if let Some(on) = cli.realloc {
            suite = suite.with_realloc(on);
        }
        let kernels: Vec<Arc<dyn Program>> = goat::goker::all_kernels()
            .into_iter()
            .map(|k| Arc::new(KernelProgram(k)) as Arc<dyn Program>)
            .collect();
        let mut detected = 0usize;
        let mut quarantined = 0usize;
        goat::core::run_suite(&cfg, &suite, &kernels, &mut |_, name, result| {
            if let Some(reason) = &result.quarantined {
                quarantined += 1;
                println!(
                    "{:<18} QUARANTINED ({reason}; {} iteration(s) skipped)",
                    name, result.skipped
                );
                return;
            }
            match result.first_detection {
                Some(iter) => {
                    detected += 1;
                    println!(
                        "{:<18} {:<10} (iteration {iter}, coverage {:.1}%)",
                        name,
                        result.bug.as_ref().map(|b| b.to_string()).unwrap_or_default(),
                        result.coverage_percent()
                    );
                }
                None => println!(
                    "{:<18} X          ({} iterations, coverage {:.1}%)",
                    name,
                    result.records.len(),
                    result.coverage_percent()
                ),
            }
        });
        println!(
            "
detected {detected}/68 at D={} within {} iterations",
            cli.d, cli.freq
        );
        return if quarantined > 0 {
            ExitCode::from(EXIT_INFRA)
        } else if detected == 68 {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(EXIT_BUG)
        };
    }

    let Some(kernel) = goat::goker::by_name(&cli.target) else {
        eprintln!("goat: unknown kernel '{}'; try -target list or -target all", cli.target);
        return ExitCode::from(EXIT_USAGE);
    };

    println!(
        "testing {} (D={}, freq={}, seed0={}) — {}",
        kernel.name, cli.d, cli.freq, cli.seed, kernel.description
    );
    let goat = Goat::new(campaign_config(&cli));
    let mut result = goat.test(Arc::new(KernelProgram(kernel)));

    if let Some(reason) = &result.quarantined {
        println!(
            "\nkernel quarantined after {} iteration(s): {reason} ({} skipped)",
            result.records.len(),
            result.skipped
        );
    }
    match (&result.bug, &result.bug_ect) {
        (Some(verdict), Some(ect)) => {
            println!(
                "\nbug detected on iteration {} ({} yields in the buggy run)\n",
                result.first_detection.expect("detected"),
                result.records.last().map(|r| r.yields).unwrap_or(0),
            );
            println!("{}", bug_report(kernel.name, verdict, ect));
        }
        // A worker crash leaves no trace to report — the evidence is
        // the forensics (signal, stderr tail) carried by the verdict.
        (Some(verdict), None) => {
            println!(
                "\nbug detected on iteration {} (no trace: the sandboxed worker died)\n",
                result.first_detection.expect("detected"),
            );
            println!("== {} ==\nverdict: {verdict}", kernel.name);
            if let Some(detail) = result.summary().bug_detail {
                println!("--- crash forensics ---\n{detail}");
            }
        }
        (None, _) => println!(
            "\nno bug detected in {} iterations (final coverage {:.1}%)",
            result.records.len(),
            result.coverage_percent()
        ),
    }

    if cli.cov {
        println!("{}", goat::core::campaign_report(kernel.name, &result));
    }

    // All reports are rendered; the bug trace's buffer can rejoin the
    // recycling pool (a no-op when no bug was found).
    result.recycle_bug_trace();

    // A lone-kernel run is over: kill any sandboxed workers still
    // parked in the persistent pool so nothing outlives the process's
    // useful life (the suite path drains inside `run_suite` instead).
    goat::core::isolate::drain_idle_workers();

    if result.detected() {
        ExitCode::from(EXIT_BUG) // bug found: nonzero, like a failing test
    } else if result.quarantined.is_some() {
        ExitCode::from(EXIT_INFRA) // no verdict: the campaign was cut short
    } else {
        ExitCode::SUCCESS
    }
}
