//! `table1`: the steady state of the 27 Table-1 stand-ins at PEA.
//!
//! Set-up builds one VM per program and warms each past the compile
//! threshold and its deopt/evict cycles. One closed-loop client then runs
//! rounds: an op calls `iterate(i)` once on every program, with each `i`
//! drawn from the seed. Compiled linear code, the heap and deopt/remat do
//! the work; the compiler, interpreter and bytecode layers sit idle.

use crate::common::{
    add_stats, agrees, call_iterate, check_repeat, chunks_granted, code_nodes, entry_of,
    pea_options, peak_rss_mb, ratio, references, store_stats, CallResult, Config, Counts,
};
use crate::host::{self, HostClock};
use crate::layers::{traced_slice, HubCounters, Totals, TracedCall};
use crate::report::Report;
use crate::spans::Recorder;
use crate::stats::{geomean, median, quantile};
use pea_bytecode::{MethodId, Program};
use pea_runtime::Stats;
use pea_vm::{MetricsHub, OptLevel, Vm, VmOptions};
use pea_workloads::gen::Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Warm-up calls per program: past the compile threshold (50) and the
/// deopt/evict/recompile cycles of the programs that deoptimize.
const WARMUP: i64 = 150;
/// `i` is drawn from `0..I_DOMAIN`, so reference results stay cheap.
const I_DOMAIN: u64 = 64;
/// Rounds whose exact counts are reported and compared across set-ups.
const EXACT_ROUNDS: usize = 100;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// After the exact prefix, one program's VM is replaced by a freshly
/// warmed one every `RENEW_EVERY` rounds, in rotation, untimed. The heap
/// never frees, so without renewal memory would grow with run length;
/// with it, memory settles at a level set by this constant.
const RENEW_EVERY: usize = 20;

/// One VM per Table-1 program.
struct Suite {
    options: VmOptions,
    names: Vec<String>,
    programs: Vec<Program>,
    entries: Vec<MethodId>,
    vms: Vec<Vm>,
}

impl Suite {
    fn new(options: &VmOptions, r: &mut Report) -> Suite {
        let mut s = Suite {
            options: options.clone(),
            names: Vec::new(),
            programs: Vec::new(),
            entries: Vec::new(),
            vms: Vec::new(),
        };
        for w in pea_workloads::all_workloads() {
            s.vms.push(warm(&w.name, &w.program, options, r));
            s.entries
                .push(entry_of(&w.program).expect("Table-1 programs define iterate"));
            s.names.push(w.name);
            s.programs.push(w.program);
        }
        s
    }

    /// Replaces one program's VM with a freshly warmed one when round
    /// `done` is due for a renewal; returns the renewed program.
    fn renew(&mut self, done: usize, r: &mut Report) -> Option<usize> {
        if done < EXACT_ROUNDS || !done.is_multiple_of(RENEW_EVERY) {
            return None;
        }
        let p = (done / RENEW_EVERY) % self.vms.len();
        self.vms[p] = warm(&self.names[p], &self.programs[p], &self.options, r);
        Some(p)
    }

    fn stats(&self) -> Stats {
        self.vms
            .iter()
            .fold(Stats::default(), |acc, vm| add_stats(&acc, &vm.stats()))
    }

    fn code_nodes(&self) -> u64 {
        self.vms.iter().map(|vm| code_nodes(vm)).sum()
    }

    fn cells(&self) -> u64 {
        self.vms.iter().map(|vm| vm.heap().len() as u64).sum()
    }
}

fn warm(name: &str, program: &Program, options: &VmOptions, r: &mut Report) -> Vm {
    let mut vm = Vm::new(program.clone(), options.clone());
    for i in 0..WARMUP {
        if let Err(e) = call_iterate(&mut vm, i) {
            r.fail(format!("{name} warm-up iterate({i}): {e}"));
        }
    }
    vm
}

/// One op's inputs: an `i` per program.
fn inputs(rng: &mut Rng, n: usize) -> Vec<i64> {
    (0..n).map(|_| rng.below(I_DOMAIN) as i64).collect()
}

/// One op's calls: `(program, i, result)`.
type OpCalls = Vec<(usize, i64, CallResult)>;

fn round(suite: &mut Suite, is: &[i64]) -> OpCalls {
    suite
        .vms
        .iter_mut()
        .zip(is)
        .enumerate()
        .map(|(p, (vm, &i))| (p, i, call_iterate(vm, i)))
        .collect()
}

/// Exact counts over `rounds` rounds of `suite`.
fn counts(suite: &Suite, before: &Stats, rounds: usize) -> Counts {
    let d = suite.stats().delta(before);
    let rounds = rounds as u64;
    Counts {
        ops: rounds,
        vcycles: d.cycles,
        allocs: d.alloc_count,
        alloc_bytes: d.alloc_bytes,
        monitor_ops: d.monitor_ops(),
        code_nodes: suite.code_nodes() * rounds,
    }
}

/// Ops that failed: a call raised, panicked, or disagreed with the
/// interpreter-only reference.
fn failed_ops(ops: &[OpCalls], refs: &BTreeMap<(usize, i64), CallResult>) -> u64 {
    ops.iter()
        .filter(|calls| {
            !calls
                .iter()
                .all(|(p, i, result)| agrees(result, refs.get(&(*p, *i))))
        })
        .count() as u64
}

fn verify(programs: &[Program], ops: &[OpCalls], r: &mut Report) {
    let wanted: BTreeSet<(usize, i64)> = ops.iter().flatten().map(|(p, i, _)| (*p, *i)).collect();
    let refs = references(programs, &wanted);
    r.attempted += ops.len() as u64;
    r.failed += failed_ops(ops, &refs);
}

pub fn run(cfg: &Config) -> Report {
    if cfg.trace {
        return run_traced(cfg);
    }
    let mut r = Report::default();
    let mut setup_s = Vec::new();
    let mut repeats = Vec::new();
    let mut suite = None;
    for k in 0..SETUPS {
        drop(suite.take());
        let t = Instant::now();
        let mut s = Suite::new(&pea_options(), &mut r);
        setup_s.push(t.elapsed().as_secs_f64());
        if k + 1 < SETUPS {
            // Untimed: the same prefix the timed phase starts with, on a
            // fresh set-up, for the exact-count repeat check.
            let before = s.stats();
            let mut rng = Rng::new(cfg.seed);
            for _ in 0..EXACT_ROUNDS {
                let is = inputs(&mut rng, s.vms.len());
                round(&mut s, &is);
            }
            repeats.push(counts(&s, &before, EXACT_ROUNDS));
        }
        suite = Some(s);
    }
    let mut suite = suite.expect("at least one set-up");

    let mut rng = Rng::new(cfg.seed);
    let mut ops = Vec::new();
    let before = suite.stats();
    let rss_before = peak_rss_mb();
    let mut clock = HostClock::start();
    let start = Instant::now();
    while ops.len() < EXACT_ROUNDS || start.elapsed() < cfg.seconds {
        let t = Instant::now();
        if suite.renew(ops.len(), &mut r).is_some() {
            clock.untimed(t.elapsed().as_secs_f64());
        }
        let is = inputs(&mut rng, suite.vms.len());
        let t = Instant::now();
        let calls = round(&mut suite, &is);
        clock.op(t.elapsed().as_secs_f64() * 1e3);
        ops.push(calls);
        if ops.len() == EXACT_ROUNDS {
            repeats.push(counts(&suite, &before, EXACT_ROUNDS));
        }
    }
    let timing = clock.finish();
    r.set("peak_rss_mb", host::peak_rss_mb(rss_before, 1));
    verify(&suite.programs, &ops, &mut r);
    if let Err(e) = check_repeat("table1", &repeats) {
        r.fail(e);
    }
    let c = repeats.last().copied().unwrap_or_default();
    r.set("setup_s", median(&setup_s));
    host::report(&[timing], &mut r);
    r.set("vcycles_per_op", c.per_op(c.vcycles));
    r.set("allocs_per_op", c.per_op(c.allocs));
    r.set("alloc_bytes_per_op", c.per_op(c.alloc_bytes));
    r.set("code_nodes", c.per_op(c.code_nodes));
    r
}

/// Per-program samples of the PEA-versus-PEA-off comparison.
#[derive(Default)]
struct Pair {
    pea_ns: Vec<f64>,
    off_ns: Vec<f64>,
    pea: Stats,
    off: Stats,
}

/// One timed call, adding its wall time and statistics delta to a
/// program's samples.
fn timed_call(vm: &mut Vm, i: i64, ns: &mut Vec<f64>, stats: &mut Stats) -> CallResult {
    let before = vm.stats();
    let t = Instant::now();
    let result = call_iterate(vm, i);
    ns.push(t.elapsed().as_nanos() as f64);
    *stats = add_stats(stats, &vm.stats().delta(&before));
    result
}

/// The traced run: untraced and traced ops alternate in time slices on
/// two identically warmed suites (the traced one with an enabled metrics
/// hub); every untraced op is paired with a round on a PEA-off twin suite,
/// in alternating order, for the per-program PEA comparison.
fn run_traced(cfg: &Config) -> Report {
    let mut r = Report::default();
    let hub = MetricsHub::enabled();
    let mut plain = Suite::new(&pea_options(), &mut r);
    let mut traced = Suite::new(
        &VmOptions {
            metrics: hub.clone(),
            ..pea_options()
        },
        &mut r,
    );
    let mut twin = Suite::new(&VmOptions::with_opt_level(OptLevel::None), &mut r);
    let n = plain.vms.len();
    let mut pinned: Vec<BTreeSet<MethodId>> = traced
        .vms
        .iter()
        .map(|vm| vm.compiled_methods().into_iter().collect())
        .collect();
    let mut pairs: Vec<Pair> = (0..n).map(|_| Pair::default()).collect();
    let mut totals = Totals::default();
    let mut rec = Recorder::new(Instant::now());
    let mut ops = Vec::new();
    let mut rng = Rng::new(cfg.seed);
    let start = Instant::now();
    while start.elapsed() < cfg.seconds
        || totals.traced_ms.len() < 20
        || totals.untraced_ms.len() < 20
    {
        plain.renew(ops.len(), &mut r);
        twin.renew(ops.len(), &mut r);
        if let Some(p) = traced.renew(ops.len(), &mut r) {
            pinned[p] = traced.vms[p].compiled_methods().into_iter().collect();
        }
        let is = inputs(&mut rng, n);
        let mut calls = Vec::with_capacity(2 * n);
        if traced_slice(start) {
            let hub_before = HubCounters::read([&hub]);
            let (stats, store, chunks, cells) = (
                traced.stats(),
                store_stats(&traced.vms),
                chunks_granted(&traced.vms),
                traced.cells(),
            );
            let op_id = totals.ops;
            let op = rec.begin("op", None, op_id);
            let mut call = TracedCall {
                rec: &mut rec,
                op,
                op_id,
                totals: &mut totals,
                replay: true,
            };
            for p in 0..n {
                let result =
                    call.call(&mut traced.vms[p], traced.entries[p], &mut pinned[p], is[p]);
                calls.push((p, is[p], result));
            }
            rec.end(op);
            totals.traced_ms.push(rec.duration(op) as f64 / 1e6);
            totals.ops += 1;
            totals.add_hub(hub_before, HubCounters::read([&hub]));
            totals.add_stats(&traced.stats().delta(&stats));
            totals.add_store(&store, &store_stats(&traced.vms));
            totals.tlab_chunks += chunks_granted(&traced.vms) - chunks;
            totals.heap_cells += traced.cells() - cells;
        } else {
            let pea_first = ops.len() % 2 == 0;
            let mut op_ns = 0.0;
            for side in [pea_first, !pea_first] {
                let t = Instant::now();
                for p in 0..n {
                    let pair = &mut pairs[p];
                    let result = if side {
                        timed_call(&mut plain.vms[p], is[p], &mut pair.pea_ns, &mut pair.pea)
                    } else {
                        timed_call(&mut twin.vms[p], is[p], &mut pair.off_ns, &mut pair.off)
                    };
                    calls.push((p, is[p], result));
                }
                if side {
                    op_ns = t.elapsed().as_nanos() as f64;
                }
            }
            totals.untraced_ms.push(op_ns / 1e6);
        }
        ops.push(calls);
    }
    verify(&plain.programs, &ops, &mut r);
    totals.core = Some(compare(&plain.names, &pairs, &mut r));
    totals.fill("table1", &[rec.into_spans()], &mut r);
    r
}

/// Blocks the paired samples are split into for the wall-speedup
/// interval.
const BLOCKS: usize = 8;

/// Prints one row per program — virtual speedup (exact, from virtual
/// cycles) next to wall speedup (median PEA-off over median PEA call time,
/// with the interquartile range over blocks of consecutive pairs) — and
/// flags rows where the two disagree in sign. Returns the PEA effect as
/// `(allocs_removed_pct, vcycles_saved_pct, wall_saved_pct)`, speedups
/// averaged by geometric mean.
fn compare(names: &[String], pairs: &[Pair], r: &mut Report) -> (f64, f64, f64) {
    r.notes.push(format!(
        "{:<12} {:>9} {:>9} {:>19}  {}",
        "program", "virtual", "wall", "wall IQR (8 blocks)", "signs"
    ));
    let (mut virt, mut wall) = (Vec::new(), Vec::new());
    let (mut pea_allocs, mut off_allocs) = (0, 0);
    for (name, pair) in names.iter().zip(pairs) {
        let v = ratio(pair.off.cycles as f64, pair.pea.cycles as f64);
        let w = ratio(median(&pair.off_ns), median(&pair.pea_ns));
        let len = pair.pea_ns.len().min(pair.off_ns.len());
        let block = (len / BLOCKS).max(1);
        let blocks: Vec<f64> = (0..len / block)
            .map(|b| {
                let range = b * block..(b + 1) * block;
                ratio(
                    median(&pair.off_ns[range.clone()]),
                    median(&pair.pea_ns[range]),
                )
            })
            .collect();
        let disagree = (v > 1.0) != (w > 1.0);
        r.notes.push(format!(
            "{name:<12} {v:>8.3}x {w:>8.3}x [{:>7.3}x, {:>7.3}x]  {}",
            quantile(&blocks, 0.25),
            quantile(&blocks, 0.75),
            if disagree { "DISAGREE" } else { "agree" }
        ));
        virt.push(v);
        wall.push(w);
        pea_allocs += pair.pea.alloc_count;
        off_allocs += pair.off.alloc_count;
    }
    let (gv, gw) = (geomean(&virt), geomean(&wall));
    r.notes
        .push(format!("{:<12} {gv:>8.3}x {gw:>8.3}x", "geomean"));
    (
        (1.0 - ratio(pea_allocs as f64, off_allocs as f64)) * 100.0,
        (1.0 - 1.0 / gv) * 100.0,
        (1.0 - 1.0 / gw) * 100.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pea_runtime::Value;
    use std::time::Duration;

    #[test]
    fn a_wrong_reference_fails_the_op() {
        let ops = vec![
            vec![
                (0, 1, Ok(Some(Value::Int(7)))),
                (1, 2, Ok(Some(Value::Int(8)))),
            ],
            vec![(0, 3, Ok(Some(Value::Int(9))))],
        ];
        let mut refs = BTreeMap::new();
        refs.insert((0, 1), Ok(Some(Value::Int(7))));
        refs.insert((1, 2), Ok(Some(Value::Int(8))));
        refs.insert((0, 3), Ok(Some(Value::Int(9))));
        assert_eq!(failed_ops(&ops, &refs), 0);
        refs.insert((1, 2), Ok(Some(Value::Int(-8))));
        assert_eq!(failed_ops(&ops, &refs), 1);
        refs.remove(&(0, 3));
        assert_eq!(failed_ops(&ops, &refs), 2);
    }

    #[test]
    fn table1_is_correct_and_repeats_exactly() {
        let cfg = Config {
            seed: 7,
            seconds: Duration::ZERO,
            trace: false,
        };
        let r = run(&cfg);
        assert!(r.errors.is_empty(), "{:?}", r.errors);
        assert_eq!(r.failed, 0);
        assert!(r.attempted >= EXACT_ROUNDS as u64);
        assert_eq!(r.get("allocs_per_op"), run(&cfg).get("allocs_per_op"));
    }
}
