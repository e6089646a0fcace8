//! Differential suite for the interpreter optimisation levels, at the
//! profile level: for the wfs and imgproc case studies and for randomized
//! kernelc programs, the captured trace must be *byte-identical* and the
//! tquad/quad/gprof profiles must be identical whichever `--vm-opt` level
//! (`off`/`fuse`) the capture ran under — including runs that exhaust their
//! fuel mid-block.

use tq_gprof::{GprofOptions, GprofTool};
use tq_isa::prng::Rng;
use tq_kernelc::dsl::*;
use tq_kernelc::{compile, ElemTy, Function, GlobalInit, Module};
use tq_quad::{QuadOptions, QuadTool};
use tq_tquad::{TquadOptions, TquadTool};
use tq_trace::TraceRecorder;
use tq_vm::{Vm, VmOpt, VmStats};

fn cases(base: usize) -> usize {
    base
}

/// Everything observable from one profiled capture run.
struct Capture {
    outcome: String,
    trace_bytes: Vec<u8>,
    trace_digest: String,
    tquad: String,
    quad: String,
    gprof: String,
    stats: VmStats,
}

fn tquad_fingerprint(p: &tq_tquad::TquadProfile) -> String {
    let mut s = format!("icount={} slices={}\n", p.total_icount, p.n_slices());
    for k in &p.kernels {
        s.push_str(&format!("{} calls={}", k.name, k.calls));
        for e in k.series.entries() {
            s.push_str(&format!(
                " {}:{},{},{},{}",
                e.slice, e.r_incl, e.r_excl, e.w_incl, e.w_excl
            ));
        }
        s.push('\n');
    }
    s
}

fn quad_fingerprint(p: &tq_quad::QuadProfile) -> String {
    let mut s = String::new();
    for r in &p.rows {
        s.push_str(&format!(
            "{} {} {} {} {} {} {}\n",
            r.name,
            r.in_bytes,
            r.in_unma,
            r.out_bytes,
            r.out_unma,
            r.checked_accesses,
            r.traced_accesses
        ));
    }
    let mut edges: Vec<String> = p
        .bindings
        .iter()
        .map(|b| format!("{}->{} {} {}", b.producer.0, b.consumer.0, b.bytes, b.unma))
        .collect();
    edges.sort();
    s.push_str(&edges.join("\n"));
    s
}

fn gprof_fingerprint(p: &tq_gprof::FlatProfile) -> String {
    let mut s = format!("samples={}\n", p.total_samples);
    for r in &p.rows {
        s.push_str(&format!(
            "{} self={} cum={} calls={}\n",
            r.name, r.self_samples, r.cum_samples, r.calls
        ));
    }
    for e in &p.edges {
        s.push_str(&format!("{:?}->{:?} {}\n", e.caller, e.callee, e.count));
    }
    s
}

/// Run one capture with the recorder and all three analysis tools
/// attached, at the given optimisation level.
fn capture(mut vm: Vm, opt: VmOpt, fuel: Option<u64>) -> Capture {
    vm.set_vm_opt(opt);
    let r = vm.attach_tool(Box::new(TraceRecorder::new()));
    let t = vm.attach_tool(Box::new(TquadTool::new(
        TquadOptions::default().with_interval(777),
    )));
    let q = vm.attach_tool(Box::new(QuadTool::new(QuadOptions::default())));
    let g = vm.attach_tool(Box::new(GprofTool::new(GprofOptions::default())));
    let outcome = match vm.run(fuel) {
        Ok(exit) => format!("{:?} icount={}", exit.reason, exit.icount),
        Err(e) => format!("error: {e}"),
    };
    let stats = *vm.stats();
    let trace = vm.detach_tool::<TraceRecorder>(r).unwrap().into_trace();
    let mut trace_bytes = Vec::new();
    trace.save(&mut trace_bytes).unwrap();
    Capture {
        outcome,
        trace_digest: trace.digest(),
        trace_bytes,
        tquad: tquad_fingerprint(&vm.detach_tool::<TquadTool>(t).unwrap().into_profile()),
        quad: quad_fingerprint(&vm.detach_tool::<QuadTool>(q).unwrap().into_profile()),
        gprof: gprof_fingerprint(&vm.detach_tool::<GprofTool>(g).unwrap().into_profile()),
        stats,
    }
}

fn assert_mode_invariant(a: &Capture, b: &Capture, what: &str) {
    assert_eq!(a.outcome, b.outcome, "{what}: run outcome");
    assert_eq!(a.trace_digest, b.trace_digest, "{what}: trace digest");
    assert_eq!(a.trace_bytes, b.trace_bytes, "{what}: trace bytes");
    assert_eq!(a.tquad, b.tquad, "{what}: tquad profile");
    assert_eq!(a.quad, b.quad, "{what}: quad profile");
    assert_eq!(a.gprof, b.gprof, "{what}: gprof profile");
    assert_eq!(a.stats.mem_reads, b.stats.mem_reads, "{what}: mem_reads");
    assert_eq!(a.stats.mem_writes, b.stats.mem_writes, "{what}: mem_writes");
    assert_eq!(
        a.stats.events_delivered, b.stats.events_delivered,
        "{what}: events_delivered"
    );
    assert_eq!(
        a.stats.block_execs, b.stats.block_execs,
        "{what}: block_execs"
    );
}

fn sweep(make_vm: impl Fn() -> Vm, fuel: Option<u64>, what: &str) -> [Capture; 2] {
    let off = capture(make_vm(), VmOpt::Off, fuel);
    let fuse = capture(make_vm(), VmOpt::Fuse, fuel);
    assert_mode_invariant(&off, &fuse, &format!("{what}: off vs fuse"));
    [off, fuse]
}

#[test]
fn wfs_capture_is_mode_invariant() {
    let app = tq_wfs::WfsApp::build(tq_wfs::WfsConfig::tiny());
    let [_, fuse] = sweep(|| app.make_vm(), None, "wfs");
    assert!(fuse.stats.blocks_fused >= 1, "wfs: fusion never engaged");
}

#[test]
fn imgproc_capture_is_mode_invariant() {
    let app = tq_imgproc::ImgApp::build(tq_imgproc::ImgConfig::tiny());
    let [_, fuse] = sweep(|| app.make_vm(), None, "imgproc");
    assert!(
        fuse.stats.blocks_fused >= 1,
        "imgproc: fusion never engaged"
    );
}

#[test]
fn wfs_fuel_exhaustion_mid_run_is_mode_invariant() {
    let app = tq_wfs::WfsApp::build(tq_wfs::WfsConfig::tiny());
    // Find the full cost, then cut fuel to land mid-run, deep inside the
    // hot loops.
    let full = capture(app.make_vm(), VmOpt::Off, None);
    let total: u64 = full
        .outcome
        .rsplit("icount=")
        .next()
        .unwrap()
        .parse()
        .unwrap();
    for cut in [total / 2, total / 3, total - 7] {
        let [off, _] = sweep(|| app.make_vm(), Some(cut), "wfs fueled");
        assert!(
            off.outcome.contains("budget exhausted"),
            "fuel {cut} unexpectedly sufficed"
        );
    }
}

/// A random loopy kernelc program with plenty of memory traffic: an outer
/// hot loop over random read-modify-write statements on a 16-slot array,
/// plus a checksum reduction.
fn random_loop_module(rng: &mut Rng) -> Module {
    let iters = rng.i64_in(80, 400);
    let mut inner = vec![];
    for _ in 0..1 + rng.index(5) {
        let (i, j, k) = (rng.i64_in(0, 15), rng.i64_in(0, 15), rng.i64_in(-50, 50));
        inner.push(match rng.index(4) {
            0 => sti(ga("arr"), ci(i), add(ldi(ga("arr"), ci(i)), ci(k))),
            1 => sti(
                ga("arr"),
                band(v("i"), ci(15)),
                add(ldi(ga("arr"), ci(j)), v("i")),
            ),
            2 => sti(
                ga("arr"),
                ci(i),
                sub(ldi(ga("arr"), band(v("i"), ci(15))), ci(k)),
            ),
            _ => set("acc", add(v("acc"), ldi(ga("arr"), ci(j)))),
        });
    }
    let body = vec![
        leti("acc", ci(0)),
        for_("i", ci(0), ci(iters), inner),
        sti(ga("chk"), ci(0), v("acc")),
    ];
    let mut m = Module::new("p");
    m.global("arr", ElemTy::I64, 16, GlobalInit::Zero);
    m.global("chk", ElemTy::I64, 1, GlobalInit::Zero);
    m.func(Function::new("main").body(body));
    m
}

#[test]
fn randomized_kernelc_captures_are_mode_invariant() {
    let mut rng = Rng::new(0x07D1_FF6A);
    let mut fused_any = false;
    for case in 0..cases(12) {
        let m = random_loop_module(&mut rng);
        let program = compile(&m).expect("compiles").program;
        let mk = || Vm::new(program.clone()).expect("loads");
        let [off, fuse] = sweep(&mk, None, &format!("kernelc case {case}"));
        fused_any |= fuse.stats.blocks_fused > 0;

        // And a fueled variant cutting the run mid-way.
        let total: u64 = off
            .outcome
            .rsplit("icount=")
            .next()
            .unwrap()
            .parse()
            .unwrap();
        if total > 40 {
            sweep(&mk, Some(total / 2), &format!("kernelc case {case} fueled"));
        }
    }
    assert!(fused_any, "no random program ever fused a block");
}
