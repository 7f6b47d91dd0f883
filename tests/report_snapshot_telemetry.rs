//! Telemetry-*on* variant of the report-snapshot guard.
//!
//! `tests/report_snapshot.rs` pins the campaign report JSON with
//! telemetry off. This binary (a separate process, because the
//! telemetry switch is process-global) re-runs the same pinned
//! campaigns with collection enabled and asserts that the only change
//! to the report is the added `telemetry` object: stripping it must
//! reproduce the committed telemetry-off snapshot byte-for-byte. This
//! proves the dense-ID requirement remap and the fused analysis plane
//! leak nowhere into report output, with telemetry both off and on.

use goat::core::{CampaignSummary, Goat, GoatConfig, Program};
use goat::goker::{by_name, BugKernel};
use goat::runtime::{faultpoint, StrategyKind};
use std::path::PathBuf;
use std::sync::Arc;

struct KernelProgram(&'static BugKernel);

impl Program for KernelProgram {
    fn name(&self) -> &str {
        Program::name(self.0)
    }
    fn main(&self) {
        Program::main(self.0)
    }
}

#[test]
fn telemetry_only_adds_the_telemetry_field() {
    // Same inert fault guard as report_snapshot.rs: panic injection from
    // other tests must not leak into these pinned campaigns.
    let _g = faultpoint::scoped("iter:panic:seed=999999999");
    goat::metrics::set_enabled(true);
    for (name, seed0, d) in [("etcd6708", 11u64, 2u32), ("moby28462", 17, 2)] {
        let kernel = by_name(name).expect("pinned kernel exists");
        let goat_tool = Goat::new(
            GoatConfig::default()
                .with_iterations(20)
                .with_seed0(seed0)
                .with_delay_bound(d)
                .with_parallelism(1)
                // Pinned explicitly so the PCT CI leg (which sets
                // GOAT_STRATEGY process-wide) cannot perturb the golden
                // comparison.
                .with_strategy(StrategyKind::Native)
                .with_guided(false)
                .with_saturation_window(None)
                .keep_running(),
        );
        let result = goat_tool.test(Arc::new(KernelProgram(kernel)));
        let json = result.to_json_summary().expect("serializable");

        let mut parsed: CampaignSummary = serde_json::from_str(&json).expect("parseable report");
        let telemetry = parsed.telemetry.take().expect("telemetry collected when enabled");
        assert_eq!(telemetry.iterations, 20, "{name}: all iterations merged");
        assert_eq!(
            telemetry.analysis_ns.count, 20,
            "{name}: one fused-analysis timing per iteration"
        );
        assert!(
            telemetry.trace_pool.fresh + telemetry.trace_pool.recycled >= 20,
            "{name}: every traced iteration drew a buffer (fresh {} + recycled {})",
            telemetry.trace_pool.fresh,
            telemetry.trace_pool.recycled
        );

        let mut stripped = serde_json::to_string_pretty(&parsed).expect("serializable");
        stripped.push('\n');
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/snapshots")
            .join(format!("{name}_s{seed0}.json"));
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing snapshot {}: {e}", path.display()));
        assert_eq!(
            stripped, want,
            "{name}: telemetry-on report (telemetry field stripped) drifted from the \
             telemetry-off snapshot — collection must not change deterministic output"
        );
    }
}
