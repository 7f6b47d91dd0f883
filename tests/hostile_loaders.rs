//! Hostile-input properties of the on-disk loaders: the campaign
//! checkpoint sidecar (`CampaignCheckpoint::load`) and the suite manifest
//! (`SuiteManifest::load`).
//!
//! Both read files a killed or foreign process may have left behind, so
//! random bytes, truncations and mutations of a valid file, deeply nested
//! JSON and inconsistent counts must come back as an error (`Err` for a
//! checkpoint, `None` for a manifest) — never as a panic, a stack
//! overflow or an allocation out of proportion to the file. A counting
//! global allocator records the largest single allocation each load
//! makes.

use goat::core::{
    CampaignCheckpoint, FnProgram, Goat, GoatConfig, IsolateMode, Program, SuiteManifest,
};
use goat::runtime::Chan;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Tracks the largest single allocation request since the last reset.
struct Counting;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only other work is a relaxed
// atomic update that neither allocates nor touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Largest single allocation a load of a file of `len` bytes may make:
/// generous, but far below what a count read from the file could ask
/// for.
fn allocation_cap(len: usize) -> usize {
    64 * len + (1 << 20)
}

/// Loads run one at a time, so the allocation high-water mark belongs to
/// the load being measured.
static SERIAL: Mutex<()> = Mutex::new(());

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("goat_hostile_loaders_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

/// Write `bytes` to `path`, run `load` on it and return its result with
/// the largest allocation it made.
fn measured<R>(path: &Path, bytes: &[u8], load: impl FnOnce(&Path) -> R) -> (R, usize) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    std::fs::write(path, bytes).expect("write scratch file");
    LARGEST.store(0, Ordering::Relaxed);
    let r = load(path);
    (r, LARGEST.load(Ordering::Relaxed))
}

/// A real checkpoint sidecar and the fingerprint it was written under:
/// a short campaign on a kernel that leaks, so the file carries records,
/// coverage, a goroutine tree and the bug's trace and schedule.
fn valid_checkpoint() -> &'static (Vec<u8>, String) {
    static CP: OnceLock<(Vec<u8>, String)> = OnceLock::new();
    CP.get_or_init(|| {
        let program: Arc<dyn Program> = Arc::new(FnProgram::new("leaky", || {
            let ch: Chan<u8> = Chan::new(0);
            let tx = ch.clone();
            goat::runtime::go(move || tx.send(1));
            goat::runtime::gosched();
        }));
        let path = scratch("valid.ck.json");
        let _ = std::fs::remove_file(&path);
        let cfg = GoatConfig::default()
            .with_iterations(6)
            .with_seed0(3)
            .with_delay_bound(1)
            .keep_running()
            .with_isolate(IsolateMode::Off)
            .with_checkpoint(&path);
        let r = Goat::new(cfg).test(program);
        assert!(r.bug.is_some(), "the sample campaign must record a bug");
        let bytes = std::fs::read(&path).expect("checkpoint written");
        let cp: CampaignCheckpoint =
            serde_json::from_str(std::str::from_utf8(&bytes).unwrap()).expect("valid sidecar");
        (bytes, cp.fingerprint)
    })
}

fn load_checkpoint(bytes: &[u8]) -> (Result<Option<CampaignCheckpoint>, String>, usize) {
    let fingerprint = &valid_checkpoint().1;
    measured(&scratch("case.ck.json"), bytes, |p| CampaignCheckpoint::load(p, fingerprint))
}

const MANIFEST_FP: &str = "suite-v1:fixture";

fn valid_manifest() -> Vec<u8> {
    let m = SuiteManifest {
        version: goat::core::suite::SUITE_MANIFEST_VERSION,
        fingerprint: MANIFEST_FP.to_string(),
        kernels: vec!["etcd6708".into(), "moby28462".into(), "grpc660".into()],
        grants: Some(vec![4, 0, 2]),
    };
    serde_json::to_string(&m).expect("serialize").into_bytes()
}

fn load_manifest(bytes: &[u8]) -> (Option<SuiteManifest>, usize) {
    measured(&scratch("case.suite.json"), bytes, |p| SuiteManifest::load(p, MANIFEST_FP))
}

/// Apply `edits` (position, replacement byte) to a copy of `bytes`.
fn mutate(bytes: &[u8], edits: &[(usize, u8)]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for &(at, b) in edits {
        let len = out.len();
        out[at % len] = b;
    }
    out
}

/// Bytes that keep a mutated JSON file close to valid, so the
/// deserializers past the parser are reached: digits, structure and
/// quotes.
const JSON_BYTES: &[u8] = b"0123456789-.,:[]{}\" eEtrufalsn";

fn edit() -> impl Strategy<Value = (usize, u8)> {
    (any::<usize>(), 0..JSON_BYTES.len()).prop_map(|(at, i)| (at, JSON_BYTES[i]))
}

// The manifest loader reports every rejected file on stderr, which the
// test harness captures into one growing buffer; at this case count the
// buffer stays far below the allocation cap.
proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn random_bytes_are_rejected_by_both_loaders(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let (cp, largest) = load_checkpoint(&bytes);
        prop_assert!(cp.is_err(), "random bytes loaded as a checkpoint");
        prop_assert!(largest <= allocation_cap(bytes.len()), "allocated {} bytes", largest);
        let (man, largest) = load_manifest(&bytes);
        prop_assert!(man.is_none(), "random bytes loaded as a manifest");
        prop_assert!(largest <= allocation_cap(bytes.len()), "allocated {} bytes", largest);
    }

    #[test]
    fn truncated_files_are_rejected_by_both_loaders(cut in any::<usize>()) {
        let (valid, _) = valid_checkpoint();
        let at = cut % valid.len();
        let (cp, largest) = load_checkpoint(&valid[..at]);
        prop_assert!(cp.is_err(), "a {}-byte prefix loaded as a checkpoint", at);
        prop_assert!(largest <= allocation_cap(valid.len()), "allocated {} bytes", largest);
        let valid = valid_manifest();
        let at = cut % valid.len();
        prop_assert!(load_manifest(&valid[..at]).0.is_none(), "a {}-byte prefix loaded", at);
    }

    #[test]
    fn mutated_files_load_consistently_or_not_at_all(
        edits in prop::collection::vec(edit(), 1..6),
    ) {
        let (valid, fingerprint) = valid_checkpoint();
        let bytes = mutate(valid, &edits);
        let (cp, largest) = load_checkpoint(&bytes);
        prop_assert!(largest <= allocation_cap(bytes.len()), "allocated {} bytes", largest);
        if let Ok(cp) = cp {
            let cp = cp.expect("the file exists");
            prop_assert_eq!(&cp.fingerprint, fingerprint);
            prop_assert_eq!(cp.records.len(), cp.completed);
        }
        let bytes = mutate(&valid_manifest(), &edits);
        let (man, largest) = load_manifest(&bytes);
        prop_assert!(
            largest <= allocation_cap(bytes.len()),
            "allocated {} bytes for {}",
            largest,
            String::from_utf8_lossy(&bytes)
        );
        if let Some(m) = man {
            prop_assert_eq!(m.fingerprint.as_str(), MANIFEST_FP);
            if let Some(g) = &m.grants {
                prop_assert_eq!(g.len(), m.kernels.len());
            }
        }
    }
}

#[test]
fn more_completed_iterations_than_records_is_rejected() {
    let (valid, _) = valid_checkpoint();
    let mut cp: CampaignCheckpoint =
        serde_json::from_str(std::str::from_utf8(valid).unwrap()).expect("valid sidecar");
    assert_eq!(cp.records.len(), cp.completed);
    for completed in [cp.completed + 1, usize::MAX] {
        cp.completed = completed;
        let bytes = serde_json::to_string(&cp).unwrap().into_bytes();
        let (loaded, largest) = load_checkpoint(&bytes);
        let err = loaded.expect_err("completed > records.len() must be rejected");
        assert!(err.contains("inconsistent"), "{err}");
        assert!(largest <= allocation_cap(bytes.len()), "allocated {largest} bytes");
    }
}

#[test]
fn grants_that_do_not_match_the_kernel_list_are_rejected() {
    let mut m: SuiteManifest =
        serde_json::from_str(std::str::from_utf8(&valid_manifest()).unwrap()).unwrap();
    assert!(load_manifest(&valid_manifest()).0.is_some(), "the fixture itself loads");
    m.grants = Some(vec![1; m.kernels.len() + 1]);
    let bytes = serde_json::to_string(&m).unwrap().into_bytes();
    assert!(load_manifest(&bytes).0.is_none(), "a grant without a kernel must be rejected");
}

#[test]
fn deeply_nested_json_is_an_error_not_a_stack_overflow() {
    for depth in [1_000usize, 100_000] {
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            let bytes = format!("{}0{}", open.repeat(depth), close.repeat(depth)).into_bytes();
            assert!(load_checkpoint(&bytes).0.is_err());
            assert!(load_manifest(&bytes).0.is_none());
        }
    }
}
