//! The traced run's layer accounting, shared by every workload.
//!
//! Each workload records spans around the calls it makes into a layer and
//! snapshots the counters the crates already expose at the same
//! boundaries; [`Totals::fill`] turns both into the per-layer metrics.

use crate::common::{pea_options, ratio, CallResult};
use crate::report::Report;
use crate::spans::{LayerTimes, Recorder, Span, SpanId};
use crate::stats::median;
use pea_bytecode::{ClassId, MethodId, Program, ValueKind};
use pea_compiler::{compile, PhaseTimes};
use pea_runtime::{ChunkAllocator, Heap, Stats};
use pea_vm::{CacheStats, MetricsHub, Mutator};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counter totals over the traced ops of one run.
#[derive(Debug, Default)]
pub struct Totals {
    /// Traced ops.
    pub ops: u64,
    /// Op latencies (ms) of the untraced and traced ops, interleaved in
    /// time within the same run.
    pub untraced_ms: Vec<f64>,
    pub traced_ms: Vec<f64>,
    pub interp_vcycles: u64,
    pub linear_vcycles: u64,
    /// Newly compiled methods seen after a call (their artifacts give the
    /// phase split and the PEA result).
    pub compiled: u64,
    pub phases: PhaseTimes,
    pub virtualized: u64,
    pub materialized: u64,
    /// Statistics summed over the traced ops.
    pub stats: Stats,
    pub heap_cells: u64,
    pub tlab_chunks: u64,
    pub store: CacheStats,
    /// Metrics-hub counters over the traced ops.
    pub interp_steps: u64,
    pub bailouts: u64,
    pub graph_fallback: u64,
    pub summary_misses: u64,
    /// PEA-off comparison (table1 only): `(allocs_removed_pct,
    /// vcycles_saved_pct, wall_saved_pct)`.
    pub core: Option<(f64, f64, f64)>,
}

/// Metrics-hub counters read at an op boundary.
#[derive(Clone, Copy, Debug, Default)]
pub struct HubCounters {
    steps: u64,
    bailouts: u64,
    graph_fallback: u64,
    summary_misses: u64,
}

impl HubCounters {
    /// The counters summed over `hubs`.
    pub fn read<'a>(hubs: impl IntoIterator<Item = &'a MetricsHub>) -> HubCounters {
        let mut c = HubCounters::default();
        for m in hubs.into_iter().filter_map(MetricsHub::on) {
            c.steps += m.interp.steps.get();
            c.bailouts += m.compile.bailouts.get();
            c.graph_fallback += m.vm.graph_exec_fallback.get();
            c.summary_misses += m.compile.summary_cache_misses.get();
        }
        c
    }
}

impl Totals {
    pub fn add_hub(&mut self, before: HubCounters, after: HubCounters) {
        self.interp_steps += after.steps - before.steps;
        self.bailouts += after.bailouts - before.bailouts;
        self.graph_fallback += after.graph_fallback - before.graph_fallback;
        self.summary_misses += after.summary_misses - before.summary_misses;
    }

    pub fn add_store(&mut self, before: &CacheStats, after: &CacheStats) {
        let s = &mut self.store;
        s.read_fast += after.read_fast - before.read_fast;
        s.read_refresh += after.read_refresh - before.read_refresh;
        s.read_stale += after.read_stale - before.read_stale;
        s.read_blocked += after.read_blocked - before.read_blocked;
        s.installs += after.installs - before.installs;
    }

    pub fn add_stats(&mut self, d: &Stats) {
        self.stats = crate::common::add_stats(&self.stats, d);
    }

    /// Fills every per-layer metric from the spans and these totals, and
    /// records the run's accounting errors.
    pub fn fill(&self, workload: &str, spans: &[Vec<Span>], r: &mut Report) {
        // Spans index their parents per thread; account each thread's log
        // on its own and merge the totals.
        let mut t = LayerTimes::default();
        for log in spans {
            let lt = LayerTimes::of(log);
            if let Err(e) = lt.check_accounting(log) {
                r.fail(e);
            }
            t.absorb(lt);
        }
        let ops = self.ops as f64;
        let op_ns = t.total_ns("op") as f64;
        let us_per_op = |name: &str| ratio(t.self_ns(name) as f64 / 1e3, ops);
        let per_op = |n: u64| ratio(n as f64, ops);
        let per_compile = |n: u64| ratio(n as f64, self.compiled as f64);
        let phase_us = |d: Duration| ratio(d.as_secs_f64() * 1e6, ops);

        r.set("bytecode.parse_us", us_per_op("bytecode.parse"));
        r.set("bytecode.verify_us", us_per_op("bytecode.verify"));
        r.set("vm.new_us", us_per_op("vm.new"));
        r.set("interp.call_us", us_per_op("interp.call"));
        r.set(
            "interp.share",
            ratio(t.self_ns("interp.call") as f64, op_ns),
        );
        r.set("interp.steps_per_op", per_op(self.interp_steps));
        r.set(
            "interp.ns_per_vcycle",
            ratio(t.total_ns("interp.call") as f64, self.interp_vcycles as f64),
        );
        r.set("compiler.compile_us", us_per_op("compiler.compile"));
        r.set("compiler.build_us", phase_us(self.phases.build));
        r.set("compiler.canon_us", phase_us(self.phases.canonicalize));
        r.set("compiler.schedule_us", phase_us(self.phases.schedule));
        r.set("compiler.lower_us", phase_us(self.phases.lower));
        r.set("compiler.compiles_per_op", per_op(self.compiled));
        r.set("compiler.bailouts_per_op", per_op(self.bailouts));
        r.set("core.ea_us", phase_us(self.phases.escape_analysis));
        r.set(
            "core.virtualized_per_compile",
            per_compile(self.virtualized),
        );
        r.set(
            "core.materialized_per_compile",
            per_compile(self.materialized),
        );
        let (allocs, vcycles, wall) = self.core.unwrap_or_default();
        r.set("core.allocs_removed_pct", allocs);
        r.set("core.vcycles_saved_pct", vcycles);
        r.set("core.wall_saved_pct", wall);
        r.set("linear.call_us", us_per_op("linear.call"));
        r.set(
            "linear.share",
            ratio(t.self_ns("linear.call") as f64, op_ns),
        );
        r.set(
            "linear.ns_per_vcycle",
            ratio(t.total_ns("linear.call") as f64, self.linear_vcycles as f64),
        );
        r.set("runtime.alloc_ns", alloc_ns());
        r.set("runtime.heap_cells", per_op(self.heap_cells));
        r.set("runtime.tlab_grant_us", tlab_grant_us());
        r.set("runtime.tlab_chunks_per_op", per_op(self.tlab_chunks));
        r.set("vm.deopts_per_op", per_op(self.stats.deopts));
        r.set("vm.remat_per_op", per_op(self.stats.rematerialized));
        r.set("vm.spawn_us", us_per_op("vm.spawn"));
        r.set("vm.retire_us", us_per_op("vm.retire"));
        let s = &self.store;
        r.set("vm.store_read_fast", per_op(s.read_fast));
        r.set("vm.store_read_refresh", per_op(s.read_refresh));
        r.set("vm.store_read_stale", per_op(s.read_stale));
        r.set("vm.store_read_blocked", s.read_blocked as f64);
        if s.read_blocked != 0 {
            r.fail(format!("{} blocking store reads", s.read_blocked));
        }
        r.set("vm.store_publishes_per_op", per_op(s.installs));
        // A promotion reads the store once; it compiles (and publishes)
        // only when the store had no matching entry.
        let promotions = s.read_fast + s.read_refresh + s.read_stale + s.read_blocked;
        r.set(
            "vm.store_hit_frac",
            ratio(
                promotions.saturating_sub(s.installs) as f64,
                promotions as f64,
            ),
        );
        r.set("offpath.graph_exec_fallback", self.graph_fallback as f64);
        r.set("offpath.summary_misses", self.summary_misses as f64);
        let untraced = median(&self.untraced_ms);
        r.set(
            "bench.trace_overhead_pct",
            ratio(median(&self.traced_ms) - untraced, untraced) * 100.0,
        );
        r.set("bench.harness_us", us_per_op("op"));
        r.set("fail_frac", ratio(r.failed as f64, r.attempted as f64));
        r.set("monitor_ops_per_op", per_op(self.stats.monitor_ops()));
        write_spans(workload, spans);
    }

    /// Adds another client thread's per-op totals (the shared-state
    /// counters — store, chunks, metrics hub — are read once per run).
    pub fn absorb(&mut self, o: Totals) {
        self.ops += o.ops;
        self.untraced_ms.extend(o.untraced_ms);
        self.traced_ms.extend(o.traced_ms);
        self.interp_vcycles += o.interp_vcycles;
        self.linear_vcycles += o.linear_vcycles;
        self.compiled += o.compiled;
        self.phases.absorb(&o.phases);
        self.virtualized += o.virtualized;
        self.materialized += o.materialized;
        self.add_stats(&o.stats);
        self.heap_cells += o.heap_cells;
    }
}

/// Writes the span log next to the benchmark's sources, as
/// `out/<workload>.trace.json`.
fn write_spans(workload: &str, threads: &[Vec<Span>]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{workload}.trace.json"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, crate::spans::chrome_json(threads)));
    if let Err(e) = written {
        eprintln!("could not write {}: {e}", path.display());
    }
}

/// One traced `iterate(i)` call on `m`, as a child span of `op`: tagged
/// `interp.call` when the entry method is not compiled before the call,
/// `linear.call` when it is. When `replay` is set and the call compiled
/// methods, each is compiled again from the mutator's profile snapshot
/// inside a `compiler.compile` span (the VM's own compile is not visible
/// from outside); the phase split and PEA result come from the installed
/// artifact.
pub struct TracedCall<'a> {
    pub rec: &'a mut Recorder,
    pub op: SpanId,
    pub op_id: u64,
    pub totals: &'a mut Totals,
    pub replay: bool,
}

impl TracedCall<'_> {
    pub fn call(
        &mut self,
        m: &mut Mutator,
        entry: MethodId,
        pinned: &mut BTreeSet<MethodId>,
        i: i64,
    ) -> CallResult {
        let compiled = m.compiled(entry).is_some();
        let before = m.stats();
        let name = if compiled {
            "linear.call"
        } else {
            "interp.call"
        };
        let result = self.rec.span(name, Some(self.op), self.op_id, || {
            crate::common::call_iterate(m, i)
        });
        let d = m.stats().delta(&before);
        if compiled {
            self.totals.linear_vcycles += d.cycles;
        } else {
            self.totals.interp_vcycles += d.cycles;
        }
        if d.compiles > 0 {
            let now: BTreeSet<MethodId> = m.compiled_methods().into_iter().collect();
            for &method in now.difference(pinned) {
                let code = m.compiled(method).expect("listed as compiled");
                self.totals.compiled += 1;
                self.totals.phases.absorb(&code.times);
                self.totals.virtualized += code.pea_result.virtualized_allocs as u64;
                self.totals.materialized += code.pea_result.materializations as u64;
                if self.replay {
                    let options = pea_options().compiler;
                    let replayed =
                        self.rec
                            .span("compiler.compile", Some(self.op), self.op_id, || {
                                compile(m.program(), method, Some(m.profiles()), &options)
                            });
                    std::hint::black_box(replayed.ok());
                }
            }
            *pinned = now;
        }
        result
    }
}

/// Median nanoseconds per `Heap` allocation over the Table-1 class shapes
/// (every class of every program, plus a short array per program), with
/// the heap drawing capacity from a chunk allocator as a mutator's does.
pub fn alloc_ns() -> f64 {
    let programs: Vec<Program> = pea_workloads::all_workloads()
        .into_iter()
        .map(|w| w.program)
        .collect();
    let shapes: Vec<(usize, Option<ClassId>)> = programs
        .iter()
        .enumerate()
        .flat_map(|(p, prog)| {
            (0..prog.classes.len())
                .map(move |c| (p, Some(ClassId::from_index(c))))
                .chain(std::iter::once((p, None)))
        })
        .collect();
    const PER_BATCH: usize = 50_000;
    let batches: Vec<f64> = (0..7)
        .map(|_| {
            let mut heap = Heap::new();
            heap.set_chunk_source(Arc::new(ChunkAllocator::new()));
            let t = Instant::now();
            for k in 0..PER_BATCH {
                let (p, class) = shapes[k % shapes.len()];
                let obj = match class {
                    Some(c) => heap.alloc_instance(&programs[p], c),
                    None => heap
                        .alloc_array(ValueKind::Int, 4)
                        .expect("non-negative length"),
                };
                std::hint::black_box(obj);
            }
            t.elapsed().as_nanos() as f64 / PER_BATCH as f64
        })
        .collect();
    median(&batches)
}

/// Median microseconds per one-chunk `ChunkAllocator::grant_many` call.
pub fn tlab_grant_us() -> f64 {
    const PER_BATCH: usize = 200_000;
    let batches: Vec<f64> = (0..7)
        .map(|_| {
            let chunks = ChunkAllocator::new();
            let t = Instant::now();
            for _ in 0..PER_BATCH {
                std::hint::black_box(chunks.grant_many(std::hint::black_box(1)));
            }
            t.elapsed().as_secs_f64() * 1e6 / PER_BATCH as f64
        })
        .collect();
    median(&batches)
}

/// Which half of an interleaved traced run a moment falls in: runs switch
/// between untraced and traced ops every slice, so drift hits both alike.
pub fn traced_slice(start: Instant) -> bool {
    const SLICE: Duration = Duration::from_millis(250);
    (start.elapsed().as_millis() / SLICE.as_millis()) % 2 == 1
}
