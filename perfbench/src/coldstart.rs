//! `coldstart`: one generated program per op, from text to compiled code.
//!
//! An op parses and verifies a `gen::generate` program, builds a fresh VM
//! and calls `iterate` until its hot methods have crossed the compile
//! threshold and run compiled. Each op's program comes from a fresh seed
//! drawn from the benchmark seed. The bytecode, interpreter, compiler and
//! PEA layers do the work; steady compiled execution does little.

use crate::common::{
    call_iterate, check_repeat, code_nodes, entry_of, panic_message, pea_options, peak_rss_mb,
    references, CallResult, Config, Counts,
};
use crate::host::{self, HostClock};
use crate::layers::{traced_slice, HubCounters, Totals, TracedCall};
use crate::report::Report;
use crate::spans::Recorder;
use crate::stats::median;
use pea_bytecode::asm::parse_program;
use pea_bytecode::{verify_program, Program};
use pea_runtime::Stats;
use pea_vm::{MetricsHub, Vm, VmOptions};
use pea_workloads::gen::{generate, Rng};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// `iterate` calls per op: 50 cross the compile threshold, the rest run
/// compiled.
const CALLS: i64 = 60;
/// Ops whose exact counts are reported: each op is a different random
/// program, so the prefix is long enough to average their spread out.
const EXACT_OPS: usize = 4000;
/// Ops of the set-up pass, whose counts each set-up and the timed phase
/// must reproduce exactly.
const CHECK_OPS: usize = 1000;
/// Set-ups per run; `setup_s` is their median. Each is short, so more of
/// them than elsewhere.
const SETUPS: usize = 5;

/// An op's results as a digest of its call results, or the first reason
/// it failed. Ops keep only this, so the harness's own memory does not
/// grow with the op count.
type Digest = Result<u64, String>;

fn digest(results: &[CallResult]) -> Digest {
    let mut h = DefaultHasher::new();
    for result in results {
        result.as_ref().map_err(Clone::clone)?.hash(&mut h);
    }
    Ok(h.finish())
}

/// What one op produced.
struct OpOutcome {
    results: Digest,
    stats: Stats,
    code_nodes: u64,
}

fn parse_and_verify(text: &str) -> Result<Program, String> {
    let program = parse_program(text).map_err(|e| format!("parse: {e}"))?;
    verify_program(&program).map_err(|e| format!("verify: {e}"))?;
    Ok(program)
}

/// One op, untraced. A parse or verify error, a `VmError` or a panic
/// fails the op without aborting the run.
fn run_op(text: &str, options: &VmOptions) -> OpOutcome {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let program = match parse_and_verify(text) {
            Ok(p) => p,
            Err(e) => {
                return OpOutcome {
                    results: Err(e),
                    stats: Stats::default(),
                    code_nodes: 0,
                }
            }
        };
        let mut vm = Vm::new(program, options.clone());
        let results: Vec<CallResult> = (0..CALLS).map(|i| call_iterate(&mut vm, i)).collect();
        OpOutcome {
            results: digest(&results),
            stats: vm.stats(),
            code_nodes: code_nodes(&vm),
        }
    }));
    outcome.unwrap_or_else(|panic| OpOutcome {
        results: Err(panic_message(&panic)),
        stats: Stats::default(),
        code_nodes: 0,
    })
}

/// Whether an op's results all agree with the interpreter-only reference
/// run of the same program text.
fn op_ok(text: &str, results: &Digest) -> bool {
    let (Ok(program), Ok(results)) = (parse_and_verify(text), results) else {
        return false;
    };
    let wanted: BTreeSet<(usize, i64)> = (0..CALLS).map(|i| (0, i)).collect();
    let refs: Vec<CallResult> = references(&[program], &wanted).into_values().collect();
    digest(&refs) == Ok(*results)
}

/// Counts failed ops over `(seed, results)` pairs, on two threads (this
/// runs after the timed phase).
fn failed_ops(ops: &[(u64, Digest)]) -> u64 {
    let half = ops.len().div_ceil(2);
    std::thread::scope(|scope| {
        let workers: Vec<_> = ops
            .chunks(half.max(1))
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .filter(|(seed, results)| !op_ok(&generate(*seed), results))
                        .count() as u64
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("verification thread panicked"))
            .sum()
    })
}

pub fn run(cfg: &Config) -> Report {
    if cfg.trace {
        return run_traced(cfg);
    }
    let mut r = Report::default();
    let options = pea_options();
    // Set-up warms the process (allocator, caches) by running the first
    // CHECK_OPS programs once; their counts feed the repeat check.
    let mut setup_s = Vec::new();
    let mut repeats = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        let mut seeds = Rng::new(cfg.seed);
        let mut c = Counts::default();
        for _ in 0..CHECK_OPS {
            let o = run_op(&generate(seeds.next_u64()), &options);
            c.add_op(&o.stats, o.code_nodes);
        }
        setup_s.push(t.elapsed().as_secs_f64());
        repeats.push(c);
    }

    let mut seeds = Rng::new(cfg.seed);
    let mut ops = Vec::new();
    let mut prefix = Counts::default();
    let rss_before = peak_rss_mb();
    let mut clock = HostClock::start();
    let start = Instant::now();
    while ops.len() < EXACT_OPS || start.elapsed() < cfg.seconds {
        let seed = seeds.next_u64();
        let text = generate(seed);
        let t = Instant::now();
        let o = run_op(&text, &options);
        clock.op(t.elapsed().as_secs_f64() * 1e3);
        if ops.len() < EXACT_OPS {
            prefix.add_op(&o.stats, o.code_nodes);
        }
        ops.push((seed, o.results));
        if ops.len() == CHECK_OPS {
            repeats.push(prefix);
        }
    }
    let timing = clock.finish();
    r.set("peak_rss_mb", host::peak_rss_mb(rss_before, 1));
    if let Err(e) = check_repeat("coldstart", &repeats) {
        r.fail(e);
    }
    r.attempted = ops.len() as u64;
    r.failed = failed_ops(&ops);
    r.set("setup_s", median(&setup_s));
    host::report(&[timing], &mut r);
    r.set("vcycles_per_op", prefix.per_op(prefix.vcycles));
    r.set("allocs_per_op", prefix.per_op(prefix.allocs));
    r.set("alloc_bytes_per_op", prefix.per_op(prefix.alloc_bytes));
    r.set("code_nodes", prefix.per_op(prefix.code_nodes));
    r
}

/// The traced run: untraced and traced ops alternate in time slices; a
/// traced op records spans around parse, verify, `Vm::new`, every call
/// (with a compile replay after each call that compiled) and the VM's
/// teardown, with an enabled metrics hub on its VM.
fn run_traced(cfg: &Config) -> Report {
    let mut r = Report::default();
    let hub = MetricsHub::enabled();
    let plain = pea_options();
    let traced = VmOptions {
        metrics: hub.clone(),
        ..pea_options()
    };
    let mut totals = Totals::default();
    let mut rec = Recorder::new(Instant::now());
    let mut ops = Vec::new();
    let mut seeds = Rng::new(cfg.seed);
    let start = Instant::now();
    while start.elapsed() < cfg.seconds
        || totals.traced_ms.len() < 20
        || totals.untraced_ms.len() < 20
    {
        let seed = seeds.next_u64();
        let text = generate(seed);
        if !traced_slice(start) {
            let t = Instant::now();
            let o = run_op(&text, &plain);
            totals.untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
            ops.push((seed, o.results));
            continue;
        }
        let hub_before = HubCounters::read([&hub]);
        let op_id = totals.ops;
        let op = rec.begin("op", None, op_id);
        let results = catch_unwind(AssertUnwindSafe(|| {
            let program = rec.span("bytecode.parse", Some(op), op_id, || {
                parse_program(&text).map_err(|e| format!("parse: {e}"))
            })?;
            rec.span("bytecode.verify", Some(op), op_id, || {
                verify_program(&program).map_err(|e| format!("verify: {e}"))
            })?;
            let entry = entry_of(&program);
            let mut vm = rec.span("vm.new", Some(op), op_id, || {
                Vm::new(program, traced.clone())
            });
            let mut pinned = BTreeSet::new();
            let mut call = TracedCall {
                rec: &mut rec,
                op,
                op_id,
                totals: &mut totals,
                replay: true,
            };
            let results: Vec<CallResult> = (0..CALLS)
                .map(|i| match entry {
                    Some(entry) => call.call(&mut vm, entry, &mut pinned, i),
                    None => Err("no iterate method".into()),
                })
                .collect();
            totals.add_stats(&vm.stats());
            totals.add_store(&Default::default(), &vm.code_cache_stats());
            totals.tlab_chunks += vm.shared().chunk_allocator().chunks_granted();
            totals.heap_cells += vm.heap().len() as u64;
            rec.span("vm.retire", Some(op), op_id, || drop(vm));
            digest(&results)
        }))
        .unwrap_or_else(|panic| Err(panic_message(&panic)));
        rec.end(op);
        totals.traced_ms.push(rec.duration(op) as f64 / 1e6);
        totals.ops += 1;
        totals.add_hub(hub_before, HubCounters::read([&hub]));
        ops.push((seed, results));
    }
    r.attempted = ops.len() as u64;
    r.failed = failed_ops(&ops);
    totals.fill("coldstart", &[rec.into_spans()], &mut r);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use pea_runtime::Value;
    use std::time::Duration;

    #[test]
    fn a_wrong_result_fails_the_op() {
        let good = "method iterate 1 returns { load 0 const 1 add retv }";
        let right: Vec<CallResult> = (0..CALLS).map(|i| Ok(Some(Value::Int(i + 1)))).collect();
        assert!(op_ok(good, &digest(&right)));
        let mut wrong = right.clone();
        wrong[CALLS as usize - 1] = Ok(Some(Value::Int(0)));
        assert!(!op_ok(good, &digest(&wrong)));
    }

    #[test]
    fn a_raising_program_fails_its_op_and_the_run_goes_on() {
        let raising = "method iterate 1 returns { load 0 const 0 div retv }";
        let good = "method iterate 1 returns { load 0 const 1 add retv }";
        let options = pea_options();
        let bad = run_op(raising, &options);
        assert!(bad.results.as_ref().unwrap_err().contains("VmError"));
        assert!(!op_ok(raising, &bad.results));
        let ok = run_op(good, &options);
        assert!(op_ok(good, &ok.results));
        let broken = run_op("method iterate 1 returns {", &options);
        assert!(broken.results.is_err());
    }

    #[test]
    fn coldstart_is_correct_and_repeats_exactly() {
        let r = run(&Config {
            seed: 11,
            seconds: Duration::ZERO,
            trace: false,
        });
        assert!(r.errors.is_empty(), "{:?}", r.errors);
        assert_eq!(r.failed, 0);
        assert_eq!(r.attempted, EXACT_OPS as u64);
    }
}
