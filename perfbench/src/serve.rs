//! `serve`: short sessions from two client threads on shared VMs.
//!
//! Set-up builds one shared VM per Table-1 program and runs one session
//! on each, so the published-code store holds their compiled code. Each
//! of two closed-loop clients then runs sessions: spawn a mutator on a
//! program chosen by the seed, call `iterate` `SESSION_CALLS` times from a
//! start argument drawn from the seed, and retire the mutator. Sessions
//! re-interpret until their own profile crosses the threshold, then
//! promote through the store instead of compiling, grant fresh TLAB
//! chunks, and register and retire safepoint slots under contention.

use crate::common::{
    agrees, call_iterate, check_repeat, chunks_granted, code_nodes, entry_of, pea_options,
    peak_rss_mb, references, store_stats, CallResult, Config, Counts,
};
use crate::host::{self, HostClock, Timing};
use crate::layers::{traced_slice, HubCounters, Totals, TracedCall};
use crate::report::Report;
use crate::spans::{Recorder, Span};
use crate::stats::median;
use pea_bytecode::{MethodId, Program};
use pea_runtime::Stats;
use pea_vm::{MetricsHub, Vm, VmOptions};
use pea_workloads::gen::Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// Calls per session: 50 interpreted up to the compile threshold, the
/// rest compiled.
const SESSION_CALLS: i64 = 80;
/// Session start arguments are drawn from `0..START_DOMAIN`.
const START_DOMAIN: u64 = 16;
/// Client threads.
const THREADS: usize = 2;
/// Sessions per client whose exact counts are reported: two full blocks
/// of the program rotation.
const EXACT_SESSIONS: usize = 54;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// One shared VM per Table-1 program.
struct Fleet {
    programs: Vec<Program>,
    entries: Vec<MethodId>,
    vms: Vec<Vm>,
}

impl Fleet {
    /// A warmed fleet; with `metrics`, every VM gets its own enabled
    /// metrics hub, so the two clients rarely update the same counters.
    fn new(metrics: bool, r: &mut Report) -> Fleet {
        let mut f = Fleet {
            programs: Vec::new(),
            entries: Vec::new(),
            vms: Vec::new(),
        };
        for w in pea_workloads::all_workloads() {
            let options = VmOptions {
                metrics: if metrics {
                    MetricsHub::enabled()
                } else {
                    MetricsHub::disabled()
                },
                ..pea_options()
            };
            let vm = Vm::new(w.program.clone(), options);
            let s = session(&vm, f.vms.len(), 0);
            if let Some(e) = s.results.iter().find_map(|r| r.as_ref().err()) {
                r.fail(format!("{} warm-up session: {e}", w.name));
            }
            f.entries
                .push(entry_of(&w.program).expect("Table-1 programs define iterate"));
            f.programs.push(w.program);
            f.vms.push(vm);
        }
        f
    }

    fn hubs(&self) -> HubCounters {
        HubCounters::read(self.vms.iter().map(|vm| vm.metrics()))
    }
}

/// What one session produced.
struct Session {
    program: usize,
    start: i64,
    results: Vec<CallResult>,
    stats: Stats,
    code_nodes: u64,
}

fn session(vm: &Vm, program: usize, start: i64) -> Session {
    let mut m = vm.spawn_mutator();
    let results = (0..SESSION_CALLS)
        .map(|j| call_iterate(&mut m, start + j))
        .collect();
    Session {
        program,
        start,
        results,
        stats: m.stats(),
        code_nodes: code_nodes(&m),
    }
}

/// One client's input stream, derived from the benchmark seed. Programs
/// come in blocks that visit every program once in a seeded order, so
/// every stretch of sessions carries the same program mix; start
/// arguments are drawn per session.
struct Client {
    rng: Rng,
    block: Vec<usize>,
}

impl Client {
    fn new(seed: u64, client: usize) -> Client {
        Client {
            rng: Rng::new(seed ^ (client as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F)),
            block: Vec::new(),
        }
    }

    /// The next session's program and start argument.
    fn pick(&mut self, programs: usize) -> (usize, i64) {
        if self.block.is_empty() {
            self.block = (0..programs).collect();
            for k in (1..programs).rev() {
                let j = self.rng.below(k as u64 + 1) as usize;
                self.block.swap(k, j);
            }
        }
        let p = self.block.pop().expect("block just filled");
        (p, self.rng.below(START_DOMAIN) as i64)
    }
}

fn failed_sessions(programs: &[Program], sessions: &[Session]) -> u64 {
    let wanted: BTreeSet<(usize, i64)> = sessions
        .iter()
        .flat_map(|s| (0..SESSION_CALLS).map(move |j| (s.program, s.start + j)))
        .collect();
    let refs: BTreeMap<(usize, i64), CallResult> = references(programs, &wanted);
    sessions
        .iter()
        .filter(|s| {
            !s.results
                .iter()
                .zip(s.start..)
                .all(|(result, i)| agrees(result, refs.get(&(s.program, i))))
        })
        .count() as u64
}

/// One client's sessions and their timing.
type ClientRun = (Vec<Session>, Timing);

/// Runs both clients on `fleet` until each has done `min_sessions`
/// sessions and `seconds` have passed; returns each client's sessions and,
/// when `timed`, their timing. Untimed runs make no host clock, so its
/// probe buffer stays out of the set-up's memory peak.
fn serve_clients(
    fleet: &Fleet,
    seed: u64,
    min_sessions: usize,
    seconds: Duration,
    timed: bool,
) -> Vec<ClientRun> {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|client| {
                scope.spawn(move || {
                    let mut inputs = Client::new(seed, client);
                    let mut sessions = Vec::new();
                    let mut clock = timed.then(HostClock::start);
                    while sessions.len() < min_sessions || start.elapsed() < seconds {
                        let (p, first) = inputs.pick(fleet.vms.len());
                        let t = Instant::now();
                        sessions.push(session(&fleet.vms[p], p, first));
                        if let Some(clock) = &mut clock {
                            clock.op(t.elapsed().as_secs_f64() * 1e3);
                        }
                    }
                    (sessions, clock.map(HostClock::finish).unwrap_or_default())
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    })
}

/// Exact counts over each client's first `EXACT_SESSIONS` sessions. Each
/// client's input stream is fixed by the seed and a session's tiering
/// does not depend on whether the store or a local compile answered its
/// promotion, so thread timing does not change them.
fn prefix_counts(clients: &[ClientRun]) -> Counts {
    let mut c = Counts::default();
    for (sessions, _) in clients {
        for s in &sessions[..EXACT_SESSIONS] {
            c.add_op(&s.stats, s.code_nodes);
        }
    }
    c
}

pub fn run(cfg: &Config) -> Report {
    if cfg.trace {
        return run_traced(cfg);
    }
    let mut r = Report::default();
    let mut setup_s = Vec::new();
    let mut repeats = Vec::new();
    let mut fleet = None;
    for k in 0..SETUPS {
        drop(fleet.take());
        let t = Instant::now();
        let f = Fleet::new(false, &mut r);
        setup_s.push(t.elapsed().as_secs_f64());
        if k == 0 {
            // Untimed: the prefix of the timed phase on a fresh fleet,
            // for the exact-count repeat check.
            let clients = serve_clients(&f, cfg.seed, EXACT_SESSIONS, Duration::ZERO, false);
            repeats.push(prefix_counts(&clients));
        }
        fleet = Some(f);
    }
    let fleet = fleet.expect("at least one set-up");

    let rss_before = peak_rss_mb();
    let clients = serve_clients(&fleet, cfg.seed, EXACT_SESSIONS, cfg.seconds, true);
    r.set("peak_rss_mb", host::peak_rss_mb(rss_before, THREADS));
    let c = prefix_counts(&clients);
    repeats.push(c);
    if let Err(e) = check_repeat("serve", &repeats) {
        r.fail(e);
    }
    let (sessions, timings): (Vec<Vec<Session>>, Vec<Timing>) = clients.into_iter().unzip();
    let sessions: Vec<Session> = sessions.into_iter().flatten().collect();
    r.attempted = sessions.len() as u64;
    r.failed = failed_sessions(&fleet.programs, &sessions);
    r.set("setup_s", median(&setup_s));
    host::report(&timings, &mut r);
    r.set("vcycles_per_op", c.per_op(c.vcycles));
    r.set("allocs_per_op", c.per_op(c.allocs));
    r.set("alloc_bytes_per_op", c.per_op(c.alloc_bytes));
    r.set("code_nodes", c.per_op(c.code_nodes));
    r
}

/// The traced run: both clients alternate between untraced sessions on
/// one fleet and traced sessions on a second fleet with an enabled
/// metrics hub, switching on the same time slices. A traced session
/// records spans around spawn, every call and retire. Its compiles are
/// not replayed: a promotion may have been answered by the store, which
/// cannot be told apart from outside the VM.
fn run_traced(cfg: &Config) -> Report {
    let mut r = Report::default();
    let plain = Fleet::new(false, &mut r);
    let traced = Fleet::new(true, &mut r);
    let (hub_before, store_before, chunks_before) = (
        traced.hubs(),
        store_stats(&traced.vms),
        chunks_granted(&traced.vms),
    );
    let start = Instant::now();
    let clients: Vec<(Totals, Vec<Span>, Vec<Session>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|client| {
                let (plain, traced) = (&plain, &traced);
                scope.spawn(move || {
                    let mut inputs = Client::new(cfg.seed, client);
                    let mut totals = Totals::default();
                    let mut rec = Recorder::new(start);
                    let mut sessions = Vec::new();
                    while start.elapsed() < cfg.seconds
                        || totals.traced_ms.len() < 10
                        || totals.untraced_ms.len() < 10
                    {
                        let (p, first) = inputs.pick(plain.vms.len());
                        if !traced_slice(start) {
                            let t = Instant::now();
                            sessions.push(session(&plain.vms[p], p, first));
                            totals.untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
                            continue;
                        }
                        let op_id = ((client as u64) << 32) | totals.ops;
                        let op = rec.begin("op", None, op_id);
                        let mut m = rec.span("vm.spawn", Some(op), op_id, || {
                            traced.vms[p].spawn_mutator()
                        });
                        let mut pinned = BTreeSet::new();
                        let mut call = TracedCall {
                            rec: &mut rec,
                            op,
                            op_id,
                            totals: &mut totals,
                            replay: false,
                        };
                        let results = (0..SESSION_CALLS)
                            .map(|j| call.call(&mut m, traced.entries[p], &mut pinned, first + j))
                            .collect();
                        let (stats, cells) = (m.stats(), m.heap().len() as u64);
                        rec.span("vm.retire", Some(op), op_id, || drop(m));
                        rec.end(op);
                        totals.traced_ms.push(rec.duration(op) as f64 / 1e6);
                        totals.ops += 1;
                        totals.add_stats(&stats);
                        totals.heap_cells += cells;
                        sessions.push(Session {
                            program: p,
                            start: first,
                            results,
                            stats,
                            code_nodes: 0,
                        });
                    }
                    (totals, rec.into_spans(), sessions)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let mut totals = Totals::default();
    let mut spans = Vec::new();
    let mut sessions = Vec::new();
    for (t, s, ss) in clients {
        totals.absorb(t);
        spans.push(s);
        sessions.extend(ss);
    }
    totals.add_hub(hub_before, traced.hubs());
    totals.add_store(&store_before, &store_stats(&traced.vms));
    totals.tlab_chunks = chunks_granted(&traced.vms) - chunks_before;
    r.attempted = sessions.len() as u64;
    r.failed = failed_sessions(&plain.programs, &sessions);
    totals.fill("serve", &spans, &mut r);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_is_correct() {
        let r = run(&Config {
            seed: 5,
            seconds: Duration::ZERO,
            trace: false,
        });
        assert!(r.errors.is_empty(), "{:?}", r.errors);
        assert_eq!(r.failed, 0);
        assert_eq!(r.attempted, (THREADS * EXACT_SESSIONS) as u64);
    }
}
