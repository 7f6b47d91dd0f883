//! Ablation: bounded yield injection (the paper's design) vs. taking
//! full control of the scheduler with uniform-random exploration (the
//! paper's future-work suggestion, §VI).
//!
//! For every kernel, measure the executions needed to expose the bug
//! under: native D0, GOAT D2 (bounded yields), and the random strategy
//! (every handoff fully random). The interesting question: does full control
//! beat targeted yields, and at what cost to realism?
//!
//! ```text
//! cargo run -p goat-bench --release --bin ablation_policy
//! ```

use goat_bench::{bucket_label, freq, kernel_program, name_salt, seed0};
use goat_core::analyze_run;
use goat_runtime::{Config, Runtime, StrategyKind};
use std::collections::BTreeMap;
use std::sync::Arc;

fn first_detection(
    kernel: &'static goat_goker::BugKernel,
    budget: usize,
    s0: u64,
    mk: impl Fn(u64) -> Config,
) -> Option<usize> {
    let program = kernel_program(kernel);
    let salt = name_salt(kernel.name);
    for i in 0..budget {
        let cfg = mk(s0.wrapping_add(salt).wrapping_add(i as u64)).with_trace(true);
        let p = Arc::clone(&program);
        let result = Runtime::run(cfg, move || p());
        if analyze_run(&result).is_bug() {
            return Some(i + 1);
        }
    }
    None
}

type ConfigFactory = Box<dyn Fn(u64) -> Config>;

fn main() {
    let _stats = goat_bench::stats();
    let budget = freq();
    let s0 = seed0();
    let variants: Vec<(&str, ConfigFactory)> = vec![
        ("native-d0", Box::new(Config::new)),
        ("goat-d2", Box::new(|s| Config::new(s).with_delay_bound(2))),
        ("uniform-random", Box::new(|s| Config::new(s).with_strategy(StrategyKind::Random))),
    ];

    println!("Ablation — yield injection vs. full scheduler control (budget {budget})\n");
    let mut dist: BTreeMap<&str, BTreeMap<&str, usize>> = BTreeMap::new();
    let mut undetected: BTreeMap<&str, usize> = BTreeMap::new();
    let mut interesting: Vec<String> = Vec::new();

    for kernel in goat_goker::all_kernels() {
        let mut row: Vec<(usize, Option<usize>)> = Vec::new();
        for (vi, (name, mk)) in variants.iter().enumerate() {
            let d = first_detection(kernel, budget, s0, mk);
            match d {
                Some(i) => *dist.entry(name).or_default().entry(bucket_label(i)).or_default() += 1,
                None => *undetected.entry(name).or_default() += 1,
            }
            row.push((vi, d));
        }
        // Report kernels where the variants disagree qualitatively.
        let detections: Vec<Option<usize>> = row.iter().map(|(_, d)| *d).collect();
        if detections.iter().any(Option::is_none) && detections.iter().any(Option::is_some) {
            interesting.push(format!(
                "  {:<18} d0={:<6} d2={:<6} random={:<6}",
                kernel.name,
                detections[0].map_or("X".into(), |i| i.to_string()),
                detections[1].map_or("X".into(), |i| i.to_string()),
                detections[2].map_or("X".into(), |i| i.to_string()),
            ));
        }
    }

    println!(
        "{:<16} {:>6} {:>8} {:>8} {:>10} {:>11}",
        "policy", "1", "2-10", "11-100", "101-1000", "undetected"
    );
    for (name, _) in &variants {
        let d = dist.get(name).cloned().unwrap_or_default();
        println!(
            "{:<16} {:>6} {:>8} {:>8} {:>10} {:>11}",
            name,
            d.get("1").copied().unwrap_or(0),
            d.get("2-10").copied().unwrap_or(0),
            d.get("11-100").copied().unwrap_or(0),
            d.get("101-1000").copied().unwrap_or(0),
            undetected.get(name).copied().unwrap_or(0),
        );
    }
    println!("\nkernels where the policies disagree (detected vs not):");
    for line in interesting {
        println!("{line}");
    }
    println!(
        "\nReading: bounded yields concentrate context switches at concurrency \
         usages, so they find CU-window bugs with far fewer executions than \
         unbiased random exploration, which dilutes switches over every handoff."
    );
}
