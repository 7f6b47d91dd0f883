//! The paper's `goat.Start`/`goat.Watch`/`goat.Stop` protocol around a
//! program's main.
//!
//! The tool's own goroutines show up in bug reports with the source
//! location of their `go` statement in this file, so this module holds
//! nothing else: a report's bytes change only when this function does.

use crate::program::Program;
use goat_runtime::{go_internal, Chan};
use std::sync::Arc;

/// Wrap `program` with the paper's instrumentation: an *internal*
/// watcher goroutine accompanies the instrumented main and is signalled
/// when it returns. The watcher is excluded from application-level
/// analysis (§III-E), so this also exercises the runtime-goroutine
/// filter on every run.
pub(crate) fn instrumented(program: Arc<dyn Program>) -> impl FnOnce() + Send + 'static {
    move || {
        let goat_done: Chan<()> = Chan::new(1);
        {
            let goat_done = goat_done.clone();
            go_internal("goat::watcher", move || {
                // Waits for main's completion signal; if main never
                // finishes, this internal goroutine parks forever and
                // is filtered out of the goroutine tree.
                let _ = goat_done.recv();
            });
        }
        program.main();
        // defer goat.Stop(goat_done): the signal itself runs on an
        // internal goroutine so the tool's own channel operations
        // never enter the program's coverage universe.
        go_internal("goat::stopper", move || {
            goat_done.send(());
        });
    }
}
