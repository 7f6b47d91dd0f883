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

use goat::core::{bug_report, Goat, GoatConfig, IsolateMode, MemoMode, Program, SuiteConfig};
use goat::runtime::{parse_knob, StrategyKind, STRATEGY_FORM};
use std::process::ExitCode;
use std::sync::Arc;

/// One invocation: the campaign config — its `GOAT_*` env defaults with
/// every flag applied on top, so a flag always wins — plus the flags
/// that are not campaign knobs.
struct Cli {
    target: String,
    cov: bool,
    realloc: bool,
    cfg: GoatConfig,
}

/// Take the next argument as the value of `flag` and parse it (see
/// [`parse_knob`]).
fn value<T>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    expected: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<T, String> {
    let v = args.next().ok_or_else(|| format!("missing value for {flag}"))?;
    parse_knob(flag, expected, &v, parse)
}

fn int<T: std::str::FromStr>(v: &str) -> Option<T> {
    v.parse().ok()
}

const INT: &str = "a non-negative integer";
const POSITIVE: &str = "an integer >= 1";

fn parse_args() -> Result<Cli, String> {
    let mut cli =
        Cli { target: String::new(), cov: false, realloc: false, cfg: GoatConfig::from_env()? };
    let cfg = &mut cli.cfg;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let name = arg.strip_prefix("--").or_else(|| arg.strip_prefix('-')).unwrap_or_default();
        let flag = format!("-{name}");
        let args = &mut args;
        match name {
            "target" => cli.target = value(args, &flag, "a kernel name", |v| Some(v.to_string()))?,
            "d" => cfg.delay_bound = value(args, &flag, INT, int)?,
            "freq" => cfg.iterations = value(args, &flag, INT, int)?,
            "seed" => cfg.seed0 = value(args, &flag, INT, int)?,
            "cov" => cli.cov = true,
            "keep-running" => cfg.stop_on_bug = false,
            "iter-timeout-ms" => {
                cfg.iter_timeout_ms = Some(value(args, &flag, INT, int)?).filter(|ms| *ms > 0)
            }
            "checkpoint" => {
                cfg.checkpoint = Some(value(args, &flag, "a path", |v| Some(v.into()))?)
            }
            "max-retries" => cfg.max_retries = value(args, &flag, INT, int)?,
            "quarantine-after" => cfg.quarantine_after = value(args, &flag, INT, int)?,
            "quarantine-crashes" => cfg.quarantine_crashes = value(args, &flag, INT, int)?,
            "strategy" => {
                cfg.strategy = value(args, &flag, STRATEGY_FORM, |v| StrategyKind::parse(v).ok())?
            }
            "guided" => cfg.guided = true,
            "saturation-window" => {
                cfg.saturation_window =
                    Some(value(args, &flag, POSITIVE, |v| int(v).filter(|n| *n >= 1))?)
            }
            "memo" => {
                cfg.memo = value(args, &flag, "off|on|verify", |v| match v {
                    "0" | "off" => Some(MemoMode::Off),
                    "1" | "on" => Some(MemoMode::On),
                    "verify" => Some(MemoMode::Verify),
                    _ => None,
                })?
            }
            "isolate" => cfg.isolate = value(args, &flag, "off|proc", IsolateMode::parse)?,
            "jobs" => {
                cfg.parallelism = value(args, &flag, POSITIVE, |v| int(v).filter(|n| *n >= 1))?
            }
            "realloc" => cli.realloc = true,
            "h" | "help" => {
                print_help();
                std::process::exit(0);
            }
            _ => return Err(format!("unknown flag {arg}")),
        }
    }
    if cli.target.is_empty() {
        return Err("missing -target (use '-target list' to enumerate kernels)".into());
    }
    Ok(cli)
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
         Every flag wins over the GOAT_* variable named with it; a malformed value\n\
         of either is a usage error.\n\n\
         supervision:\n\
         \x20 -keep-running             run the full budget even after a detection\n\
         \x20 -iter-timeout-ms <int>    per-iteration watchdog; 0 disables (GOAT_ITER_TIMEOUT_MS)\n\
         \x20 -checkpoint <path>        persist/resume campaign progress (GOAT_CHECKPOINT)\n\
         \x20 -max-retries <int>        retries for infra failures (default 2)\n\
         \x20 -quarantine-after <int>   quarantine after N infra failures (default 3)\n\
         \x20 -quarantine-crashes <int> quarantine after N crashed iterations (default 0 = off)\n\n\
         exploration:\n\
         \x20 -strategy <spec>          scheduling strategy: native | random | pct[:<depth>[:<len>]]\n\
         \x20                           (GOAT_STRATEGY; default native)\n\
         \x20 -guided                   coverage-guided arm selection over strategy/yield/delay\n\
         \x20                           configurations\n\
         \x20 -saturation-window <int>  stop after N consecutive iterations with no new coverage\n\
         \x20 -memo <off|on|verify>     duplicate-schedule analysis memoization (default on);\n\
         \x20                           verify re-analyzes hits and asserts equality\n\n\
         process isolation and workers:\n\
         \x20 -isolate <off|proc>       run each iteration in a sandboxed worker\n\
         \x20                           subprocess with crash forensics and rlimit\n\
         \x20                           jails (GOAT_ISOLATE; default off)\n\
         \x20 -jobs <int>               workers claiming iterations from one work-stealing\n\
         \x20                           queue, across every kernel under -target all;\n\
         \x20                           output is byte-identical at any value\n\
         \x20                           (GOAT_PARALLELISM; default 1)\n\
         \x20 -realloc                  -target all: early-stopping kernels donate unspent\n\
         \x20                           budget to still-exploring ones, deterministically\n\n\
         environment only:\n\
         \x20 GOAT_CHECKPOINT_EVERY     merged iterations between checkpoint writes (default 8)\n\
         \x20 GOAT_WORKER_CMD           worker binary for -isolate proc (default: this one)\n\
         \x20 GOAT_WORKER_GRACE_MS      worker frame silence before SIGKILL (default 5000)\n\
         \x20 GOAT_TEARDOWN_TIMEOUT_MS  how long a wedged run's teardown may take (default 5000)\n\
         \x20 GOAT_POOL_MAX_IDLE        idle host threads kept for reuse (default 256)\n\
         \x20 GOAT_TELEMETRY            path of a JSONL telemetry stream (default off)\n\
         \x20 GOAT_FAULT                fault-injection plan, for testing the supervision layer\n\n\
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
        let cfg = &cli.cfg;
        let suite = SuiteConfig { jobs: cfg.parallelism, realloc: cli.realloc };
        let kernels: Vec<Arc<dyn Program>> = goat::goker::all_kernels()
            .into_iter()
            .map(|k| Arc::new(KernelProgram(k)) as Arc<dyn Program>)
            .collect();
        let mut detected = 0usize;
        let mut quarantined = 0usize;
        goat::core::run_suite(cfg, &suite, &kernels, &mut |_, name, result| {
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
            cfg.delay_bound, cfg.iterations
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
        kernel.name, cli.cfg.delay_bound, cli.cfg.iterations, cli.cfg.seed0, kernel.description
    );
    let goat = Goat::new(cli.cfg);
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
