//! Pieces every workload shares: the run configuration, guarded entry
//! calls, exact counters, reference results and process memory.

use pea_bytecode::{MethodId, Program};
use pea_runtime::{Stats, Value};
use pea_vm::{CacheStats, Mutator, OptLevel, Vm, VmOptions};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// One benchmark invocation, as given on the command line.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// How long the timed phase runs (it also runs until its minimum op
    /// count is reached).
    pub seconds: Duration,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
}

/// What one `iterate` call returned: its value, or why it failed.
pub type CallResult = Result<Option<Value>, String>;

/// The Table-1 configuration under test: PEA with default VM options
/// (synchronous JIT, linear tier).
pub fn pea_options() -> VmOptions {
    VmOptions::with_opt_level(OptLevel::Pea)
}

/// Calls `iterate(i)`, turning a `VmError` or a panic into a failed
/// result so one bad call never aborts the run.
pub fn call_iterate(m: &mut Mutator, i: i64) -> CallResult {
    match catch_unwind(AssertUnwindSafe(|| {
        m.call_entry("iterate", &[Value::Int(i)])
    })) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(format!("VmError: {e}")),
        Err(panic) => Err(panic_message(&panic)),
    }
}

/// The message a caught panic carried.
pub fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    let text = panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string payload".into());
    format!("panic: {text}")
}

/// The `iterate` entry method of a program.
pub fn entry_of(program: &Program) -> Option<MethodId> {
    program.static_method_by_name("iterate")
}

/// Exact counters summed over a fixed prefix of ops. Integer sums, so two
/// runs with the same seed compare exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub ops: u64,
    pub vcycles: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub monitor_ops: u64,
    pub code_nodes: u64,
}

impl Counts {
    /// Adds one op's statistics delta and the scheduled node count of the
    /// compiled code it ran.
    pub fn add_op(&mut self, d: &Stats, code_nodes: u64) {
        self.ops += 1;
        self.vcycles += d.cycles;
        self.allocs += d.alloc_count;
        self.alloc_bytes += d.alloc_bytes;
        self.monitor_ops += d.monitor_ops();
        self.code_nodes += code_nodes;
    }

    pub fn per_op(&self, total: u64) -> f64 {
        ratio(total as f64, self.ops as f64)
    }
}

/// Checks that every count set equals the first one.
pub fn check_repeat(label: &str, sets: &[Counts]) -> Result<(), String> {
    match sets.iter().find(|c| **c != sets[0]) {
        None => Ok(()),
        Some(other) => Err(format!(
            "{label}: exact counts differ between runs with the same seed: {:?} vs {other:?}",
            sets[0]
        )),
    }
}

/// Field-wise sum of statistics (for summing over several heaps).
pub fn add_stats(a: &Stats, b: &Stats) -> Stats {
    Stats {
        alloc_count: a.alloc_count + b.alloc_count,
        alloc_bytes: a.alloc_bytes + b.alloc_bytes,
        monitor_enters: a.monitor_enters + b.monitor_enters,
        monitor_exits: a.monitor_exits + b.monitor_exits,
        cycles: a.cycles + b.cycles,
        deopts: a.deopts + b.deopts,
        compiles: a.compiles + b.compiles,
        rematerialized: a.rematerialized + b.rematerialized,
    }
}

/// Scheduled nodes summed over the methods a mutator has compiled.
pub fn code_nodes(m: &Mutator) -> u64 {
    m.compiled_methods()
        .into_iter()
        .filter_map(|id| m.compiled(id))
        .map(|c| c.code_size)
        .sum()
}

/// Published-code store counters summed over `vms`.
pub fn store_stats(vms: &[Vm]) -> CacheStats {
    let mut total = CacheStats::default();
    for s in vms.iter().map(|vm| vm.code_cache_stats()) {
        total.read_fast += s.read_fast;
        total.read_refresh += s.read_refresh;
        total.read_stale += s.read_stale;
        total.read_blocked += s.read_blocked;
        total.installs += s.installs;
    }
    total
}

/// TLAB chunks granted, summed over `vms`.
pub fn chunks_granted(vms: &[Vm]) -> u64 {
    vms.iter()
        .map(|vm| vm.shared().chunk_allocator().chunks_granted())
        .sum()
}

/// `a / b`, or 0 when there is nothing to divide by.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Interpreter-only results of `iterate(i)` for the `(program, i)` pairs
/// asked for. The reference tier is the plain interpreter, never the JIT
/// under test; results are pure functions of `i`, so one VM per program
/// answers every `i` in any order.
pub fn references(
    programs: &[Program],
    wanted: &BTreeSet<(usize, i64)>,
) -> BTreeMap<(usize, i64), CallResult> {
    let mut out = BTreeMap::new();
    let mut current: Option<(usize, Vm)> = None;
    for &(p, i) in wanted {
        if current.as_ref().map(|(q, _)| *q) != Some(p) {
            current = Some((
                p,
                Vm::new(programs[p].clone(), VmOptions::interpreter_only()),
            ));
        }
        let (_, vm) = current.as_mut().expect("reference VM just created");
        out.insert((p, i), call_iterate(vm, i));
    }
    out
}

/// Whether a call's result matches its reference. A failed reference
/// call fails the op too: the input itself is broken.
pub fn agrees(result: &CallResult, reference: Option<&CallResult>) -> bool {
    matches!((result, reference), (Ok(a), Some(Ok(b))) if a == b)
}

/// Resident-set high-water mark of this process, in MB (0 where
/// `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
