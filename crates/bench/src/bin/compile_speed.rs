//! Compile-speed benchmark: JIT-compiles the whole workload corpus on a
//! worker pool at parallelism 1/2/4/8 and reports methods/second, speedup
//! over the single-threaded run, and wall-clock per compilation phase
//! (build / canonicalize / escape analysis / schedule / lower).
//!
//! Every method is compiled from a profile snapshot gathered by running
//! the workload in the interpreter first, so the compilations are
//! representative (inlining and speculation active) and identical across
//! parallelism levels. The work distribution is the same atomic-worklist
//! scheme as [`Vm::precompile_all`]; fanning out across the *whole corpus*
//! rather than per workload keeps all workers busy even though individual
//! workloads have only a handful of methods.
//!
//! Usage: `compile_speed [--smoke] [--repeat N] [--out PATH]`
//!
//! Writes a JSON report (default `BENCH_compile.json`) and prints a
//! human-readable table. `--smoke` shrinks the repeat factor and profile
//! warmup for CI. Speedups approach the ideal only on hardware with
//! enough cores; on a single-core host all parallelism levels degenerate
//! to roughly the serial throughput.

use pea_compiler::{compile, CompilerOptions, PhaseTimes};
use pea_runtime::profile::ProfileStore;
use pea_runtime::Value;
use pea_vm::{Vm, VmOptions};
use pea_workloads::all_workloads;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One corpus entry: a method to compile plus everything the compiler
/// needs to compile it.
struct Item<'a> {
    program: &'a pea_bytecode::Program,
    profiles: &'a ProfileStore,
    method: pea_bytecode::MethodId,
}

/// Result of one timed corpus sweep.
struct Run {
    parallelism: usize,
    wall: Duration,
    phases: PhaseTimes,
    compiled: usize,
    bailouts: usize,
}

fn profile_corpus(warmup: u64) -> Vec<(pea_bytecode::Program, ProfileStore)> {
    all_workloads()
        .into_iter()
        .map(|w| {
            let mut vm = Vm::new(w.program.clone(), VmOptions::interpreter_only());
            for i in 0..warmup {
                vm.call_entry("iterate", &[Value::Int(i as i64)])
                    .unwrap_or_else(|e| panic!("{} profiling run: {e}", w.name));
            }
            let profiles = vm.profiles().clone();
            (w.program, profiles)
        })
        .collect()
}

fn sweep(items: &[Item<'_>], parallelism: usize, options: &CompilerOptions) -> Run {
    let next = AtomicUsize::new(0);
    let totals: Mutex<(PhaseTimes, usize, usize)> = Mutex::new((PhaseTimes::default(), 0, 0));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..parallelism {
            scope.spawn(|| {
                let mut local = PhaseTimes::default();
                let (mut compiled, mut bailouts) = (0usize, 0usize);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else {
                        break;
                    };
                    match compile(item.program, item.method, Some(item.profiles), options) {
                        Ok(code) => {
                            local.absorb(&code.times);
                            compiled += 1;
                        }
                        Err(_) => bailouts += 1,
                    }
                }
                let mut t = totals.lock().expect("totals poisoned");
                t.0.absorb(&local);
                t.1 += compiled;
                t.2 += bailouts;
            });
        }
    });
    let wall = start.elapsed();
    let (phases, compiled, bailouts) = totals.into_inner().expect("totals poisoned");
    Run {
        parallelism,
        wall,
        phases,
        compiled,
        bailouts,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn json_report(runs: &[Run], corpus: usize, workloads: usize, repeat: usize) -> String {
    let base = runs[0].wall.as_secs_f64();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"compile_speed\",\n");
    out.push_str(&format!("  \"workloads\": {workloads},\n"));
    out.push_str(&format!("  \"repeat\": {repeat},\n"));
    out.push_str(&format!("  \"corpus_methods\": {corpus},\n"));
    out.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let wall = r.wall.as_secs_f64();
        out.push_str(&format!(
            "    {{\"parallelism\": {}, \"wall_ms\": {:.3}, \"methods_per_sec\": {:.1}, \
             \"speedup\": {:.3}, \"compiled\": {}, \"bailouts\": {}, \"phase_ms\": \
             {{\"build\": {:.3}, \"canonicalize\": {:.3}, \"escape_analysis\": {:.3}, \
             \"schedule\": {:.3}, \"lower\": {:.3}}}}}{}\n",
            r.parallelism,
            ms(r.wall),
            r.compiled as f64 / wall,
            base / wall,
            r.compiled,
            r.bailouts,
            ms(r.phases.build),
            ms(r.phases.canonicalize),
            ms(r.phases.escape_analysis),
            ms(r.phases.schedule),
            ms(r.phases.lower),
            if i + 1 < runs.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let repeat: usize = args
        .iter()
        .position(|a| a == "--repeat")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(if smoke { 1 } else { 6 });
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_compile.json".into());
    let warmup = if smoke { 20 } else { 60 };

    eprintln!("profiling corpus in the interpreter ({warmup} iterations per workload)...");
    let corpus = profile_corpus(warmup);
    let items: Vec<Item<'_>> = (0..repeat)
        .flat_map(|_| {
            corpus.iter().flat_map(|(program, profiles)| {
                (0..program.methods.len()).map(move |m| Item {
                    program,
                    profiles,
                    method: pea_bytecode::MethodId::from_index(m),
                })
            })
        })
        .collect();
    let options = CompilerOptions::default();

    println!(
        "compile_speed: {} workloads, {} methods per sweep (repeat {}), {} host threads",
        corpus.len(),
        items.len(),
        repeat,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    println!("  par   wall(ms)  methods/s  speedup   build  canon    pea  sched  lower (ms)");
    let mut runs = Vec::new();
    for parallelism in [1usize, 2, 4, 8] {
        let run = sweep(&items, parallelism, &options);
        println!(
            "  {:>3}  {:>9.1}  {:>9.1}  {:>7.2}x {:>7.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1}",
            run.parallelism,
            ms(run.wall),
            run.compiled as f64 / run.wall.as_secs_f64(),
            runs.first().map_or(1.0, |r0: &Run| r0.wall.as_secs_f64()
                / run.wall.as_secs_f64()),
            ms(run.phases.build),
            ms(run.phases.canonicalize),
            ms(run.phases.escape_analysis),
            ms(run.phases.schedule),
            ms(run.phases.lower),
        );
        runs.push(run);
    }

    let report = json_report(&runs, items.len(), corpus.len(), repeat);
    std::fs::write(&out_path, &report).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("wrote {out_path}");
}
