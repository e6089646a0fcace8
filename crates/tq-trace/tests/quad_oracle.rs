//! QUAD against a deliberately naive oracle built straight from the
//! definitions in DESIGN.md §1, not from the tool's code: a byte-granular
//! last-writer `HashMap<u64, u32>` and `HashSet<u64>` UnMA sets. From the
//! event stream a run delivers it computes, per kernel, IN, IN UnMA, OUT
//! and OUT UnMA (plus the checked/traced access counts), and every
//! producer→consumer binding's bytes and UnDV. `QuadTool::into_profile`
//! must agree exactly — live, replayed at 1, 2 and 4 shards, and streamed
//! from a TQTRACE3 capture at 4 shards — for every stack setting and
//! library policy.
//!
//! Inputs: randomized kernelc programs whose accesses straddle pages,
//! partially overwrite each other, block-copy and prefetch; wfs *tiny*;
//! img *tiny*; and a hand-written event stream for the edge rules no
//! compiled program reaches exactly (the red-zone and stack-base edges of
//! the stack classifier, routine-less accesses, unbalanced returns).

use std::collections::HashSet;
use std::hash::BuildHasherDefault;
use tq_isa::prng::Rng;
use tq_isa::RoutineId;
use tq_kernelc::dsl::*;
use tq_kernelc::{compile, ElemTy, Function, GlobalInit, Module, Stmt, Ty};
use tq_quad::{QuadOptions, QuadProfile, QuadTool};
use tq_tquad::LibPolicy;
use tq_trace::{StreamingTrace, Trace, TraceFormat, TraceRecorder, DEFAULT_CHUNKS};
use tq_vm::{standard_mask, Event, HookMask, InsContext, ProgramInfo, RoutineMeta, Tool, Vm};

/// Bytes below SP that still count as the stack (the red zone).
const RED_ZONE: u64 = 128;

/// One kernel's row, as the definitions give it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Row {
    in_bytes: u64,
    in_unma: u64,
    out_bytes: u64,
    out_unma: u64,
    checked: u64,
    traced: u64,
}

/// A whole profile: rows by routine id, bindings as sorted
/// `(producer, consumer, bytes, UnDV)`.
#[derive(Debug, PartialEq, Eq)]
struct Expected {
    rows: Vec<Row>,
    bindings: Vec<(u32, u32, u64, u64)>,
}

impl Expected {
    fn of(p: &QuadProfile) -> Expected {
        Expected {
            rows: p
                .rows
                .iter()
                .map(|r| Row {
                    in_bytes: r.in_bytes,
                    in_unma: r.in_unma,
                    out_bytes: r.out_bytes,
                    out_unma: r.out_unma,
                    checked: r.checked_accesses,
                    traced: r.traced_accesses,
                })
                .collect(),
            bindings: p
                .bindings
                .iter()
                .map(|b| (b.producer.0, b.consumer.0, b.bytes, b.unma))
                .collect(),
        }
    }
}

/// How often the stream hit each edge rule, so a test can insist that its
/// input really exercised the rule it claims to cover.
#[derive(Debug, Default)]
struct Coverage {
    prefetches: u64,
    page_straddling_reads: u64,
    /// Counted reads whose bytes were last written by two or more
    /// different kernels: partial overwrites split them into runs.
    split_reads: u64,
    /// Reads longer than one word: `BCpy` N-byte events.
    block_reads: u64,
    stack_reads: u64,
    dropped_lib_accesses: u64,
}

/// The oracle's maps, keyed by one `u64` through the cheap hasher the VM
/// and QUAD share. What the maps hold does not depend on the hasher; it
/// only keeps the unoptimised test build from spending most of its time
/// in SipHash.
type Map<V> = tq_vm::U64Map<V>;
type Set = HashSet<u64, BuildHasherDefault<tq_vm::U64Hasher>>;

/// The oracle: one pass over the events, one map operation per byte.
fn oracle(info: &ProgramInfo, events: &[Event], opts: QuadOptions) -> (Expected, Coverage) {
    let n = info.routines.len();
    let tracked: Vec<bool> = info
        .routines
        .iter()
        .map(|r| opts.lib_policy == LibPolicy::Track || r.main_image)
        .collect();
    let mut frames: Vec<u32> = Vec::new();
    let mut last_writer: Map<u32> = Map::default();
    let mut rows = vec![Row::default(); n];
    let mut read_sets: Vec<Set> = vec![Set::default(); n];
    let mut write_sets: Vec<Set> = vec![Set::default(); n];
    // Keyed by `producer << 32 | consumer`.
    let mut bindings: Map<(u64, Set)> = Map::default();
    let mut cov = Coverage::default();

    // The kernel an access belongs to: the innermost tracked routine on
    // the call stack, else the routine holding the instruction if it is
    // tracked. Under `Drop`, accesses made inside untracked (library)
    // code vanish altogether.
    let kernel = |frames: &[u32], rtn: RoutineId, cov: &mut Coverage| -> Option<u32> {
        let rtn_tracked = rtn != RoutineId::INVALID && tracked[rtn.idx()];
        if opts.lib_policy == LibPolicy::Drop && rtn != RoutineId::INVALID && !rtn_tracked {
            cov.dropped_lib_accesses += 1;
            return None;
        }
        match frames.last() {
            Some(&k) => Some(k),
            None if rtn_tracked => Some(rtn.0),
            None => None,
        }
    };
    // The local stack area: from SP (less the red zone) up to the base.
    let on_stack = |ea: u64, sp: u64| ea >= sp.saturating_sub(RED_ZONE) && ea < info.stack_base;

    for ev in events {
        match *ev {
            Event::RoutineEnter { rtn, .. } => {
                if tracked[rtn.idx()] {
                    frames.push(rtn.0);
                }
            }
            Event::Ret { rtn, .. } => {
                if frames.last() == Some(&rtn.0) {
                    frames.pop();
                }
            }
            Event::MemRead {
                ea,
                size,
                sp,
                is_prefetch,
                rtn,
                ..
            } => {
                if is_prefetch {
                    cov.prefetches += 1;
                    continue;
                }
                let Some(k) = kernel(&frames, rtn, &mut cov) else {
                    continue;
                };
                let row = &mut rows[k as usize];
                row.checked += 1;
                let stack = on_stack(ea, sp);
                if !stack {
                    row.traced += 1;
                }
                if stack && !opts.include_stack {
                    continue;
                }
                cov.stack_reads += stack as u64;
                cov.block_reads += (size > 8) as u64;
                if size > 0 && ea >> 12 != (ea + size as u64 - 1) >> 12 {
                    cov.page_straddling_reads += 1;
                }
                let mut producers = Vec::new();
                for a in ea..ea.saturating_add(size as u64) {
                    rows[k as usize].in_bytes += 1;
                    read_sets[k as usize].insert(a);
                    if let Some(&p) = last_writer.get(&a) {
                        producers.push(p);
                        rows[p as usize].out_bytes += 1;
                        let b = bindings.entry(((p as u64) << 32) | k as u64).or_default();
                        b.0 += 1;
                        b.1.insert(a);
                    }
                }
                producers.sort_unstable();
                producers.dedup();
                cov.split_reads += (producers.len() > 1) as u64;
            }
            Event::MemWrite {
                ea, size, sp, rtn, ..
            } => {
                let Some(k) = kernel(&frames, rtn, &mut cov) else {
                    continue;
                };
                let row = &mut rows[k as usize];
                row.checked += 1;
                let stack = on_stack(ea, sp);
                if !stack {
                    row.traced += 1;
                }
                if stack && !opts.include_stack {
                    continue;
                }
                for a in ea..ea.saturating_add(size as u64) {
                    write_sets[k as usize].insert(a);
                    last_writer.insert(a, k);
                }
            }
            Event::Call { .. } | Event::Tick { .. } => {}
        }
    }

    for (row, (r, w)) in rows.iter_mut().zip(read_sets.iter().zip(&write_sets)) {
        row.in_unma = r.len() as u64;
        row.out_unma = w.len() as u64;
    }
    let mut bindings: Vec<(u32, u32, u64, u64)> = bindings
        .into_iter()
        .map(|(e, (bytes, undv))| ((e >> 32) as u32, e as u32, bytes, undv.len() as u64))
        .collect();
    bindings.sort_unstable();
    (Expected { rows, bindings }, cov)
}

/// Every stack setting crossed with every library policy.
fn all_options() -> Vec<QuadOptions> {
    let mut all = Vec::new();
    for include_stack in [true, false] {
        for lib_policy in [
            LibPolicy::AttributeToCaller,
            LibPolicy::Drop,
            LibPolicy::Track,
        ] {
            all.push(QuadOptions {
                include_stack,
                lib_policy,
            });
        }
    }
    all
}

/// Records the events a live run delivers, verbatim.
#[derive(Default)]
struct Collector {
    info: Option<ProgramInfo>,
    events: Vec<Event>,
}

impl Tool for Collector {
    fn name(&self) -> &str {
        "oracle-collector"
    }

    fn on_attach(&mut self, info: &ProgramInfo) {
        self.info = Some(info.clone());
    }

    fn instrument_ins(&mut self, ins: &InsContext<'_>) -> HookMask {
        standard_mask(ins)
    }

    fn on_event(&mut self, ev: &Event) {
        self.events.push(*ev);
    }
}

/// Which replays of a recorded run to check against the oracle.
struct Replays {
    /// In-memory replays at these shard counts (1 = sequential).
    shards: &'static [usize],
    /// Also stream the run's TQTRACE3 bytes at 4 shards.
    streamed: bool,
}

/// Every replay: 1, 2 and 4 shards, plus the streamed capture.
const ALL_REPLAYS: Replays = Replays {
    shards: &[1, 2, 4],
    streamed: true,
};

/// Assert that QUAD matches the oracle on every requested replay of
/// `trace`, one expected profile per entry of [`all_options`].
fn check_replays(trace: &Trace, expected: &[Expected], replays: &Replays, what: &str) {
    let trace = trace
        .clone()
        .with_chunk_index(DEFAULT_CHUNKS)
        .expect("index");
    let streaming = replays.streamed.then(|| {
        let mut v3 = Vec::new();
        trace.save_as(&mut v3, TraceFormat::V3).expect("encode v3");
        StreamingTrace::from_bytes(v3).expect("open v3")
    });
    for (opts, want) in all_options().into_iter().zip(expected) {
        for &shards in replays.shards {
            let mut tool = QuadTool::new(opts);
            trace.replay_sharded(&mut tool, shards).expect("replay");
            assert_eq!(
                &Expected::of(&tool.into_profile()),
                want,
                "{what}: {opts:?}, replay at {shards} shard(s)"
            );
        }
        if let Some(streaming) = &streaming {
            let mut tool = QuadTool::new(opts);
            streaming.replay_sharded(&mut tool, 4).expect("stream");
            assert_eq!(
                &Expected::of(&tool.into_profile()),
                want,
                "{what}: {opts:?}, streamed v3 at 4 shards"
            );
        }
    }
}

/// Run `vm` once with one QUAD tool per option set, a collector and a
/// recorder attached; check the live profiles and the requested replays
/// against the oracle. Returns the coverage of the include-stack,
/// attribute-to-caller oracle pass.
fn check_program(mut vm: Vm, replays: &Replays, what: &str) -> Coverage {
    let collector = vm.attach_tool(Box::new(Collector::default()));
    let recorder = vm.attach_tool(Box::new(TraceRecorder::new()));
    let tools: Vec<_> = all_options()
        .into_iter()
        .map(|opts| vm.attach_tool(Box::new(QuadTool::new(opts))))
        .collect();
    vm.run(None)
        .unwrap_or_else(|e| panic!("{what}: run failed: {e}"));
    let Collector { info, events } = *vm.detach_tool::<Collector>(collector).unwrap();
    let info = info.expect("collector attached");

    // One oracle pass per option set, on threads: the unoptimised test
    // build makes them the slowest part of a large input.
    let (info, events) = (&info, &events);
    let oracles: Vec<(Expected, Coverage)> = std::thread::scope(|s| {
        let passes: Vec<_> = all_options()
            .into_iter()
            .map(|opts| s.spawn(move || oracle(info, events, opts)))
            .collect();
        passes.into_iter().map(|p| p.join().unwrap()).collect()
    });
    let mut expected = Vec::new();
    let mut coverage = None;
    for ((opts, h), (want, cov)) in all_options().into_iter().zip(tools).zip(oracles) {
        let live = vm.detach_tool::<QuadTool>(h).unwrap().into_profile();
        assert_eq!(Expected::of(&live), want, "{what}: {opts:?}, live");
        coverage.get_or_insert(cov);
        expected.push(want);
    }
    let trace = vm
        .detach_tool::<TraceRecorder>(recorder)
        .unwrap()
        .into_trace();
    check_replays(&trace, &expected, replays, what);
    coverage.unwrap()
}

/// Size of the shared byte buffer. It is the first global, so it starts
/// page-aligned and crosses three page edges.
const BUF: i64 = 3 * 4096 + 64;

/// A byte offset into the buffer from which eight elements of up to eight
/// bytes stay in bounds. Two thirds of the draws sit just below a page
/// edge, so accesses from different kernels overlap there and straddle it.
fn spot(rng: &mut Rng) -> i64 {
    if rng.index(3) == 0 {
        rng.i64_in(0, BUF - 64)
    } else {
        near_page_edge(rng, 48)
    }
}

/// An offset at most `below` bytes under one of the buffer's page edges.
fn near_page_edge(rng: &mut Rng, below: i64) -> i64 {
    4096 * rng.i64_in(1, 4) - rng.i64_in(0, below)
}

fn elem(rng: &mut Rng) -> ElemTy {
    [ElemTy::U8, ElemTy::I16, ElemTy::I32, ElemTy::I64][rng.index(4)]
}

/// A random access of the buffer at an unaligned spot: a store, a load, a
/// block copy within the buffer or a prefetch.
fn random_access(rng: &mut Rng) -> Stmt {
    let at = |off: i64| add(ga("buf"), ci(off));
    let idx = band(v("i"), ci(7));
    match rng.index(8) {
        0..=2 => {
            let k = rng.i64_in(1, 1000);
            store(at(spot(rng)), elem(rng), idx, add(v("i"), ci(k)))
        }
        3..=5 => set("acc", add(v("acc"), load(at(spot(rng)), elem(rng), idx))),
        6 => {
            let n = rng.i64_in(1, 600);
            let mut end = || near_page_edge(rng, n).clamp(0, BUF - n);
            let (dst, src) = (end(), end());
            memcpy_(at(dst), at(src), ci(n))
        }
        _ => prefetch(ga("buf"), band(v("i"), ci(255))),
    }
}

/// A kernel taking the loop counter `i`: a few random accesses, then its
/// checksum into `chk`, so every kernel both reads and writes.
fn random_kernel(rng: &mut Rng, name: &str) -> Function {
    let mut body = vec![leti("acc", ci(0))];
    for _ in 0..2 + rng.index(5) {
        body.push(random_access(rng));
    }
    body.push(sti(ga("chk"), ci(0), v("acc")));
    Function::new(name).param("i", Ty::I64).body(body)
}

/// Three main-image kernels and one library routine sharing the buffer,
/// called in a random order from a loop in `main`, which also touches the
/// buffer itself.
fn random_module(rng: &mut Rng) -> Module {
    let mut m = Module::new("quad_oracle");
    m.global("buf", ElemTy::U8, BUF as u64, GlobalInit::Zero);
    m.global("chk", ElemTy::I64, 1, GlobalInit::Zero);
    let names = ["kernel_a", "kernel_b", "kernel_c", "lib_copy"];
    for name in names {
        let f = random_kernel(rng, name);
        m.func(if name == "lib_copy" {
            f.in_library()
        } else {
            f
        });
    }
    let mut calls = vec![leti("acc", ci(0)), random_access(rng)];
    for _ in 0..4 + rng.index(5) {
        calls.push(call(names[rng.index(names.len())], vec![v("i")]));
    }
    let iters = rng.i64_in(20, 60);
    m.func(Function::new("main").body(vec![for_("i", ci(0), ci(iters), calls)]));
    m
}

#[test]
fn randomized_kernelc_programs_match_the_oracle() {
    let mut rng = Rng::new(0x0AAC_1E00);
    let mut total = Coverage::default();
    for case in 0..10 {
        let program = compile(&random_module(&mut rng)).expect("compiles").program;
        let vm = Vm::new(program).expect("loads");
        let cov = check_program(vm, &ALL_REPLAYS, &format!("kernelc case {case}"));
        total.prefetches += cov.prefetches;
        total.page_straddling_reads += cov.page_straddling_reads;
        total.split_reads += cov.split_reads;
        total.block_reads += cov.block_reads;
        total.stack_reads += cov.stack_reads;
    }
    // The corpus must really exercise what the oracle is here to check.
    assert!(total.prefetches > 0, "{total:?}");
    assert!(total.page_straddling_reads > 0, "{total:?}");
    assert!(total.split_reads > 0, "{total:?}");
    assert!(total.block_reads > 0, "{total:?}");
    assert!(total.stack_reads > 0, "{total:?}");
}

#[test]
fn wfs_tiny_matches_the_oracle() {
    let app = tq_wfs::WfsApp::build(tq_wfs::WfsConfig::tiny());
    let cov = check_program(app.make_vm(), &ALL_REPLAYS, "wfs tiny");
    assert!(cov.stack_reads > 0 && cov.block_reads > 0, "{cov:?}");
}

#[test]
fn img_tiny_matches_the_oracle() {
    let app = tq_imgproc::ImgApp::build(tq_imgproc::ImgConfig::tiny());
    // 2.4 M events: in an unoptimised test build each QUAD replay of them
    // takes seconds, so img is replayed at 4 shards only (the orphan
    // stitching path); wfs and the kernelc corpus cover every replay.
    let replays = Replays {
        shards: &[4],
        streamed: false,
    };
    let cov = check_program(app.make_vm(), &replays, "img tiny");
    assert!(cov.stack_reads > 0, "{cov:?}");
}

/// Two main-image kernels and one library routine, with SP values chosen
/// by hand.
fn synthetic_info() -> ProgramInfo {
    let mk = |id: u32, name: &str, main: bool| RoutineMeta {
        id: RoutineId(id),
        name: name.into(),
        image: if main { "app" } else { "libc" }.into(),
        main_image: main,
        start: 0x10000 + id as u64 * 0x1000,
        end: 0x10000 + id as u64 * 0x1000 + 0x100,
    };
    ProgramInfo {
        routines: vec![
            mk(0, "main", true),
            mk(1, "kernel", true),
            mk(2, "memcpy", false),
        ],
        stack_base: tq_vm::layout::STACK_BASE,
        entry: 0x10000,
    }
}

#[test]
fn hand_written_edge_cases_match_the_oracle() {
    let info = synthetic_info();
    let base = info.stack_base;
    let sp = base - 0x400;
    let (main, kernel, lib) = (RoutineId(0), RoutineId(1), RoutineId(2));
    let read = |ea: u64, size: u32, sp: u64, rtn: RoutineId, is_prefetch: bool| Event::MemRead {
        ip: 0,
        ea,
        size,
        sp,
        is_prefetch,
        icount: 0,
        rtn,
    };
    let write = |ea: u64, size: u32, sp: u64, rtn: RoutineId| Event::MemWrite {
        ip: 0,
        ea,
        size,
        sp,
        icount: 0,
        rtn,
    };
    let enter = |rtn: RoutineId, sp: u64| Event::RoutineEnter { rtn, sp, icount: 0 };
    let ret = |rtn: RoutineId| Event::Ret {
        ip: 0,
        return_to: 0,
        icount: 0,
        rtn,
    };
    let page = 0x1000_1000u64;
    let mut events = vec![
        // Accesses before any routine is entered: attributed by the
        // instruction's own routine, or to nobody.
        write(page - 16, 8, sp, RoutineId::INVALID),
        write(page - 8, 8, sp, main),
        read(page - 16, 16, sp, RoutineId::INVALID, false),
        enter(main, sp),
        // main writes 32 bytes across a page edge; kernel then overwrites
        // the middle, so later reads split into main/kernel/main runs.
        write(page - 16, 32, sp, main),
        enter(kernel, sp - 64),
        write(page - 4, 8, sp - 64, kernel),
        read(page - 20, 40, sp - 64, kernel, false),
        read(page - 20, 40, sp - 64, kernel, true),
        // A block copy inside the library, attributed to its caller or
        // dropped, by policy: 600 bytes over two page edges.
        enter(lib, sp - 128),
        read(page - 300, 600, sp - 128, lib, false),
        write(page + 4000, 600, sp - 128, lib),
        ret(lib),
        read(page + 3990, 620, sp - 64, kernel, false),
        // Stack edges: SP less the red zone is stack, one byte lower is
        // not; the byte below the stack base is stack, the base is not.
        write(sp - 64 - RED_ZONE, 8, sp - 64, kernel),
        write(sp - 64 - RED_ZONE - 8, 8, sp - 64, kernel),
        read(sp - 64 - RED_ZONE - 4, 8, sp - 64, kernel, false),
        write(base - 4, 8, sp - 64, kernel),
        read(base - 8, 16, sp - 64, kernel, false),
        // A return from a routine that is not on top pops nothing.
        ret(main),
        read(page, 8, sp - 64, kernel, false),
        ret(kernel),
        read(page, 8, sp, main, false),
        ret(main),
        read(page - 8, 16, sp, main, false),
    ];
    // Zero-length accesses count as accesses but move no bytes.
    events.push(read(page, 0, sp, main, false));

    let mut recorder = TraceRecorder::new();
    recorder.on_attach(&info);
    for ev in &events {
        recorder.on_event(ev);
    }
    recorder.on_fini(events.len() as u64);
    let trace = recorder.into_trace();

    let mut expected = Vec::new();
    for opts in all_options() {
        let (want, cov) = oracle(&info, &events, opts);
        let mut live = QuadTool::new(opts);
        live.on_attach(&info);
        for ev in &events {
            live.on_event(ev);
        }
        assert_eq!(Expected::of(&live.into_profile()), want, "hand: {opts:?}");
        assert!(cov.split_reads > 0 && cov.page_straddling_reads > 0);
        assert!(cov.prefetches == 1 && cov.block_reads > 0);
        if opts.lib_policy == LibPolicy::Drop {
            assert!(cov.dropped_lib_accesses > 0);
        }
        expected.push(want);
    }
    check_replays(&trace, &expected, &ALL_REPLAYS, "hand-written stream");
}
