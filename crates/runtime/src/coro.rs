//! Stackful coroutines: the execution substrate of a run's goroutines.
//!
//! Every goroutine of one [`Runtime::run`](crate::Runtime) runs on its
//! own [`Coroutine`] — a private stack plus a saved stack pointer — and
//! all of them take turns on the run's single host thread. A scheduler
//! handoff is therefore a register swap (`arch::switch`): the suspending
//! side saves its callee-saved registers on its own stack, stores the
//! stack pointer, loads the other side's and returns into it. Nothing
//! crosses a thread boundary, so no futex, wake-up or cache migration
//! is paid per handoff.
//!
//! The protocol is asymmetric: the host's run loop [`Coroutine::resume`]s
//! a coroutine, and the coroutine [`suspend`]s back to whoever resumed
//! it; each resume tells the coroutine whether to carry on or unwind.
//!
//! Stacks are `mmap`'d with a `PROT_NONE` guard page below them, so an
//! overflow faults instead of corrupting a neighbour. Each host thread
//! keeps a bounded free list of idle stacks, so a campaign's thousands
//! of short runs map a handful of stacks once and then only reuse them.
//!
//! The first frame of every coroutine is a trampoline whose unwind info
//! marks the return address undefined: unwinding and backtrace capture
//! stop at the coroutine base instead of walking off into the stack's
//! unused top.

use std::cell::{Cell, RefCell};
use std::io;
use std::ptr;

/// Usable bytes of a coroutine stack: the 2 MiB a spawned Rust thread
/// gets by default, so a goroutine body has as much room as it had when
/// goroutines were threads.
const STACK_SIZE: usize = 2 << 20;

/// Idle stacks one host thread keeps for reuse. A run with more live
/// goroutines than this maps the surplus afresh and unmaps it on exit.
const FREE_STACKS_MAX: usize = 64;

/// What a resume asks of the suspended coroutine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Resume {
    /// Carry on (also what the first resume of a coroutine means).
    Run,
    /// The run is being torn down: unwind now.
    Shutdown,
}

#[cfg(not(target_arch = "x86_64"))]
compile_error!("goat-runtime coroutines support only x86_64");

#[cfg(not(any(target_os = "linux", target_os = "macos")))]
compile_error!("goat-runtime coroutine stacks support only Linux and macOS");

/// The innermost resume in progress on this thread: where the running
/// coroutine stores its stack pointer when it suspends, and where the
/// host's stack pointer was saved.
#[derive(Clone, Copy)]
struct Active {
    coro_sp: *mut *mut u8,
    host_sp: *mut *mut u8,
}

thread_local! {
    static ACTIVE: Cell<Active> = const {
        Cell::new(Active { coro_sp: ptr::null_mut(), host_sp: ptr::null_mut() })
    };
    /// Set by a coroutine's entry frame right before its final switch,
    /// read back by the resume that switch returns to.
    static EXITED: Cell<bool> = const { Cell::new(false) };
    /// Idle stacks of this host thread.
    static FREE_STACKS: RefCell<Vec<Stack>> = const { RefCell::new(Vec::new()) };
}

type Body = Box<dyn FnOnce() + Send + 'static>;

/// A suspended (or not yet started) computation with its own stack.
pub(crate) struct Coroutine {
    /// Saved stack pointer while suspended.
    sp: *mut u8,
    /// `None` once the coroutine finished and its stack went back.
    stack: Option<Stack>,
    /// The leaked body until the first resume hands it to `entry`.
    body: *mut Body,
    /// Whether the finished coroutine's stack may go on this thread's
    /// free list (otherwise it is unmapped).
    reuse: bool,
}

// SAFETY: `sp` and `stack` address memory this value owns exclusively,
// and `body` is a `Send` closure. What a suspended coroutine's frames
// hold is touched only by resuming it, which `resume`'s contract keeps
// on the creating thread; dropping it anywhere runs none of those frames
// (the stack is leaked). The scheduler state that holds coroutines sits
// behind a mutex shared with the run's driver thread, which never
// resumes them.
unsafe impl Send for Coroutine {}

impl Coroutine {
    /// A coroutine that runs `body` when first resumed. `reuse` takes
    /// its stack from this thread's free list and returns it there.
    pub(crate) fn new(body: Body, reuse: bool) -> io::Result<Coroutine> {
        let stack = match reuse.then(|| FREE_STACKS.with(|f| f.borrow_mut().pop())).flatten() {
            Some(stack) => stack,
            None => Stack::map()?,
        };
        let body = Box::into_raw(Box::new(body));
        // SAFETY: `top` is the high end of a fresh or idle mapping of
        // STACK_SIZE writable bytes, far more than the initial frame.
        let sp = unsafe { arch::init(stack.top(), entry, body.cast()) };
        Ok(Coroutine { sp, stack: Some(stack), body, reuse })
    }

    /// Has the body returned?
    pub(crate) fn is_done(&self) -> bool {
        self.stack.is_none()
    }

    /// Run the coroutine until it suspends or finishes; `how` is what
    /// its pending [`suspend`] returns (ignored by the first resume).
    ///
    /// # Safety
    /// Call it only on the thread that created the coroutine: its frames
    /// may hold that thread's thread-local addresses and values that must
    /// not cross threads.
    ///
    /// # Panics
    /// Panics when the coroutine already finished.
    pub(crate) unsafe fn resume(&mut self, how: Resume) {
        assert!(!self.is_done(), "resumed a finished coroutine");
        self.body = ptr::null_mut();
        let to = self.sp;
        let mut host_sp: *mut u8 = ptr::null_mut();
        let active = Active { coro_sp: &raw mut self.sp, host_sp: &raw mut host_sp };
        let outer = ACTIVE.replace(active);
        // SAFETY: `to` is this coroutine's saved context (from `init` or
        // its last `suspend`) on this thread, and its stack is still
        // mapped. `active` points at `self.sp` and `host_sp`, both live
        // until the switch comes back here.
        unsafe { arch::switch(&raw mut host_sp, to, how as usize) };
        ACTIVE.set(outer);
        if EXITED.replace(false) {
            self.release_stack();
        }
    }

    fn release_stack(&mut self) {
        if let Some(stack) = self.stack.take() {
            if self.reuse {
                recycle(stack);
            }
        }
    }
}

impl Drop for Coroutine {
    fn drop(&mut self) {
        if !self.body.is_null() {
            // Never resumed: nothing lives on the stack yet.
            // SAFETY: the box leaked by `new`, not handed to `entry`.
            drop(unsafe { Box::from_raw(self.body) });
            self.release_stack();
        } else if let Some(stack) = self.stack.take() {
            // Unmapping a suspended stack would free frames whose owners
            // still expect them; leak it instead. The scheduler unwinds
            // every coroutine before dropping it, so this happens only
            // when a teardown could not finish.
            std::mem::forget(stack);
        }
    }
}

/// Switch from the running coroutine back to the resume that entered
/// it; returns what the next resume asks.
///
/// # Panics
/// Panics when called outside a coroutine.
pub(crate) fn suspend() -> Resume {
    let active = ACTIVE.get();
    assert!(!active.coro_sp.is_null(), "suspend called outside a coroutine");
    // SAFETY: `active` was installed by the `resume` that is running this
    // coroutine; its host frame is blocked inside `switch` until we
    // switch back, so both pointers are live.
    let how = unsafe { arch::switch(active.coro_sp, *active.host_sp, 0) };
    if how == Resume::Shutdown as usize {
        Resume::Shutdown
    } else {
        Resume::Run
    }
}

/// The bottom frame of every coroutine: run the body, drop it, then
/// switch back for good. Unwinding cannot leave it (`extern "C"` aborts
/// instead), so no frame below it is ever needed.
extern "C" fn entry(data: *mut u8) -> ! {
    {
        // SAFETY: `data` is the `Box<Body>` leaked by `Coroutine::new`,
        // passed here exactly once.
        let body = unsafe { Box::from_raw(data.cast::<Body>()) };
        body();
    }
    EXITED.set(true);
    suspend();
    unreachable!("a finished coroutine was resumed");
}

fn recycle(stack: Stack) {
    FREE_STACKS.with(|f| {
        let mut free = f.borrow_mut();
        if free.len() < FREE_STACKS_MAX {
            free.push(stack);
        }
    });
}

/// A coroutine stack: `STACK_SIZE` writable bytes above one guard page.
struct Stack {
    base: *mut u8,
    len: usize,
}

impl Stack {
    fn map() -> io::Result<Stack> {
        let page = sys::page_size();
        let len = STACK_SIZE + page;
        // SAFETY: a fresh private anonymous mapping; no existing memory
        // is touched.
        unsafe {
            let base = sys::mmap(
                ptr::null_mut(),
                len,
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_PRIVATE | sys::MAP_ANON | sys::MAP_STACK_FLAGS,
                -1,
                0,
            );
            if base == sys::MAP_FAILED {
                return Err(io::Error::last_os_error());
            }
            let stack = Stack { base: base.cast(), len };
            if sys::mprotect(base, page, sys::PROT_NONE) != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(stack)
        }
    }

    fn top(&self) -> *mut u8 {
        // SAFETY: one past the end of the mapping.
        unsafe { self.base.add(self.len) }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: the mapping made in `Stack::map`, no longer in use.
        unsafe {
            sys::munmap(self.base.cast(), self.len);
        }
    }
}

/// Raw `mmap` bindings (no crates), as `isolate.rs` binds `setrlimit`.
mod sys {
    use std::ffi::c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            off: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
        pub fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
        fn sysconf(name: i32) -> i64;
    }

    pub const PROT_NONE: i32 = 0;
    pub const PROT_READ: i32 = 1;
    pub const PROT_WRITE: i32 = 2;
    pub const MAP_PRIVATE: i32 = 0x02;
    pub const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

    #[cfg(target_os = "linux")]
    pub const MAP_ANON: i32 = 0x20;
    /// `MAP_NORESERVE | MAP_STACK`: no swap reservation for the 2 MiB
    /// (pages are committed as they are touched).
    #[cfg(target_os = "linux")]
    pub const MAP_STACK_FLAGS: i32 = 0x4000 | 0x20000;
    #[cfg(target_os = "linux")]
    const SC_PAGESIZE: i32 = 30;

    #[cfg(target_os = "macos")]
    pub const MAP_ANON: i32 = 0x1000;
    #[cfg(target_os = "macos")]
    pub const MAP_STACK_FLAGS: i32 = 0;
    #[cfg(target_os = "macos")]
    const SC_PAGESIZE: i32 = 29;

    pub fn page_size() -> usize {
        // SAFETY: sysconf has no preconditions.
        match unsafe { sysconf(SC_PAGESIZE) } {
            n if n > 0 => n as usize,
            _ => 4096,
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod arch {
    use std::arch::naked_asm;

    /// Bytes `switch` leaves on a suspended stack: MXCSR and the x87
    /// control word, six callee-saved registers, the return address.
    const FRAME: usize = 64;

    /// Save the callee-saved state on the current stack, store the stack
    /// pointer in `*save`, load `to` and return into the context saved
    /// there, handing it `arg` as its return value.
    ///
    /// # Safety
    /// `save` must be writable and `to` must be a context saved by
    /// `switch` or laid out by `init` on this thread, on a live stack.
    #[unsafe(naked)]
    pub(super) unsafe extern "C" fn switch(save: *mut *mut u8, to: *mut u8, arg: usize) -> usize {
        naked_asm!(
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "sub rsp, 8",
            "stmxcsr [rsp]",
            "fnstcw [rsp + 4]",
            "mov [rdi], rsp",
            "mov rsp, rsi",
            "ldmxcsr [rsp]",
            "fldcw [rsp + 4]",
            "add rsp, 8",
            "pop r15",
            "pop r14",
            "pop r13",
            "pop r12",
            "pop rbx",
            "pop rbp",
            "mov rax, rdx",
            "ret",
        )
    }

    /// First code of a coroutine: `entry(data)` with `entry` in r12 and
    /// `data` in r13. Its return address is undefined to the unwinder,
    /// which ends every backtrace here.
    #[unsafe(naked)]
    unsafe extern "C" fn trampoline() -> ! {
        naked_asm!(
            ".cfi_startproc",
            ".cfi_undefined rip",
            "mov rdi, r13",
            "call r12",
            "ud2",
            ".cfi_endproc",
        )
    }

    /// Lay out a frame below `top` that `switch` returns into as the
    /// trampoline; returns the stack pointer to switch to.
    ///
    /// # Safety
    /// `top` must be the 16-byte aligned high end of a writable stack
    /// with room for the frame.
    pub(super) unsafe fn init(
        top: *mut u8,
        entry: extern "C" fn(*mut u8) -> !,
        data: *mut u8,
    ) -> *mut u8 {
        // After the final `ret` the stack pointer is 16-byte aligned, as
        // the trampoline's `call` requires.
        let sp = ((top as usize & !15) - 16 - FRAME) as *mut usize;
        let frame: [usize; FRAME / 8] = [
            0x037F_0000_1F80, // MXCSR default, x87 control word default
            0,                // r15
            0,                // r14
            data as usize,    // r13
            entry as usize,   // r12
            0,                // rbx
            0,                // rbp: ends frame-pointer walks
            trampoline as *const () as usize,
        ];
        sp.cast::<[usize; FRAME / 8]>().write(frame);
        sp.cast()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn resume(co: &mut Coroutine, how: Resume) {
        // SAFETY: every test resumes on the thread that created `co`.
        unsafe { co.resume(how) }
    }

    #[test]
    fn each_resume_reaches_the_pending_suspend_until_the_body_returns() {
        let steps = Arc::new(AtomicUsize::new(0));
        let s = Arc::clone(&steps);
        let mut co = Coroutine::new(
            Box::new(move || {
                s.fetch_add(1, Ordering::Relaxed);
                assert_eq!(suspend(), Resume::Run);
                s.fetch_add(1, Ordering::Relaxed);
                assert_eq!(suspend(), Resume::Shutdown);
                s.fetch_add(1, Ordering::Relaxed);
            }),
            true,
        )
        .unwrap();
        resume(&mut co, Resume::Run);
        assert_eq!(steps.load(Ordering::Relaxed), 1);
        resume(&mut co, Resume::Run);
        assert_eq!(steps.load(Ordering::Relaxed), 2);
        assert!(!co.is_done());
        resume(&mut co, Resume::Shutdown);
        assert_eq!(steps.load(Ordering::Relaxed), 3);
        assert!(co.is_done());
    }

    #[test]
    fn a_caught_panic_unwinds_inside_the_coroutine() {
        let mut co = Coroutine::new(
            Box::new(|| {
                let r = std::panic::catch_unwind(|| {
                    suspend();
                    std::panic::panic_any(42u32);
                });
                assert_eq!(*r.unwrap_err().downcast::<u32>().unwrap(), 42);
            }),
            true,
        )
        .unwrap();
        resume(&mut co, Resume::Run);
        resume(&mut co, Resume::Run);
        assert!(co.is_done());
    }

    #[test]
    fn finished_stacks_are_reused_up_to_the_cap() {
        FREE_STACKS.with(|f| f.borrow_mut().clear());
        let mut co = Coroutine::new(Box::new(|| {}), true).unwrap();
        resume(&mut co, Resume::Run);
        assert_eq!(FREE_STACKS.with(|f| f.borrow().len()), 1);
        let again = Coroutine::new(Box::new(|| {}), true).unwrap();
        assert_eq!(FREE_STACKS.with(|f| f.borrow().len()), 0, "the idle stack is taken");
        drop(again);
        assert_eq!(FREE_STACKS.with(|f| f.borrow().len()), 1, "an unstarted stack goes back");
        let mut cos: Vec<Coroutine> = (0..FREE_STACKS_MAX + 3)
            .map(|_| Coroutine::new(Box::new(|| {}), true).unwrap())
            .collect();
        for co in &mut cos {
            resume(co, Resume::Run);
        }
        assert_eq!(FREE_STACKS.with(|f| f.borrow().len()), FREE_STACKS_MAX);
        let mut fresh = Coroutine::new(Box::new(|| {}), false).unwrap();
        resume(&mut fresh, Resume::Run);
        assert_eq!(FREE_STACKS.with(|f| f.borrow().len()), FREE_STACKS_MAX, "no reuse: unmapped");
    }

    #[test]
    fn a_megabyte_of_recursion_fits_in_a_stack() {
        fn dive(top: usize) -> usize {
            let marker = [0u8; 256];
            let here = std::hint::black_box(&marker).as_ptr() as usize;
            if top - here >= 1 << 20 {
                here
            } else {
                std::hint::black_box(dive(top)) + usize::from(marker[0])
            }
        }
        let mut co = Coroutine::new(
            Box::new(|| {
                let top = 0u8;
                let top = std::hint::black_box(&top) as *const u8 as usize;
                assert!(top - dive(top) >= 1 << 20);
            }),
            true,
        )
        .unwrap();
        resume(&mut co, Resume::Run);
        assert!(co.is_done());
    }
}
