//! `live`: one-shot live profiling, the paper's own use and the path of
//! `tq tquad|gprof|quad|phases`. Each op makes a VM, attaches the tool,
//! runs the application, takes the profile and renders it. It loads VM
//! dispatch, event delivery and tool analysis; it bypasses `tq-trace` and
//! `tq-profd`.

use crate::ledger::{median, ms_since, Ledger};
use crate::ops::{self, App, AppKind, Job, ToolKind};
use crate::{n_blocks, setup_points, shuffle, Args, OpSample, Pass};
use std::collections::BTreeMap;
use std::time::Instant;
use tq_isa::prng::Rng;
use tq_tquad::LibPolicy;

/// One slot of the op block: what runs, and how many distinct seeded
/// option variants of it a run uses.
#[derive(Clone, Copy)]
struct Slot {
    app: AppKind,
    tool: ToolKind,
    sample8: bool,
    /// QUAD's stack option, fixed per slot: QUAD costs three times as
    /// much with stack accesses included.
    quad_stack: bool,
    count: usize,
}

const fn slot(app: AppKind, tool: ToolKind, sample8: bool, count: usize) -> Slot {
    Slot {
        app,
        tool,
        sample8,
        quad_stack: false,
        count,
    }
}

/// One block of 20 ops. On a 2-core box the light tools on img and gprof
/// on wfs take 60–140 ms, tQUAD and phases on wfs 170–220 ms, QUAD with
/// the stack excluded about 330 ms and with it included about 1 s. So
/// p50 falls in the middle of the wfs tQUAD/phases ops and p90 in the
/// middle of the stack-excluded QUAD ops. Only options that barely move an
/// op's cost (intervals, the light tools' stack and library options,
/// QUAD's library option with the stack excluded) are drawn from the seed;
/// the counts are the same in every run.
const BLOCK: [Slot; 9] = [
    slot(AppKind::ImgTiny, ToolKind::Tquad, false, 1),
    slot(AppKind::ImgTiny, ToolKind::Gprof, false, 1),
    slot(AppKind::ImgTiny, ToolKind::Phases, false, 1),
    slot(AppKind::WfsSmall, ToolKind::Gprof, false, 1),
    slot(AppKind::WfsSmall, ToolKind::Tquad, true, 1),
    slot(AppKind::WfsSmall, ToolKind::Tquad, false, 5),
    slot(AppKind::WfsSmall, ToolKind::Phases, false, 5),
    slot(AppKind::ImgTiny, ToolKind::Quad, false, 4),
    Slot {
        quad_stack: true,
        ..slot(AppKind::ImgTiny, ToolKind::Quad, false, 1)
    },
];
const BLOCK_LEN: usize = 20;
/// Seconds one block takes on a 2-core x86-64 box; sets the op count.
const BLOCK_S: f64 = 4.9;
/// Option variants per slot; ops cycle through them, so every variant runs
/// and repeated keys check each other's digests.
const VARIANTS: usize = 2;
/// Set-up repeats spread over the run.
const SETUP_REPEATS: usize = 25;

struct Op {
    app: AppKind,
    job: Job,
}

/// Input seed of `app` for a benchmark seed; capture-replay draws its
/// input the same way.
pub fn input_seed(seed: u64, app: AppKind) -> u64 {
    let mut s = seed ^ (app as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    tq_isa::prng::splitmix64(&mut s) % 1000
}

/// Digest key of an op: its path, app, input seed and job. The path is
/// part of the key because replay synthesises gprof's sampling ticks from
/// the recorded clock, an approximation `tq-trace` documents, so a gprof
/// profile from a replay may differ from a live one.
pub fn op_key(path: &str, app: &App, job: &Job) -> String {
    format!(
        "{path}/{}/in{}/{}",
        app.kind.name(),
        app.input_seed,
        job.key()
    )
}

fn variants(rng: &mut Rng, s: &Slot) -> Vec<Job> {
    (0..VARIANTS)
        .map(|_| {
            let mut job = Job::draw(rng, s.tool, s.sample8);
            if s.tool == ToolKind::Quad {
                job.include_stack = s.quad_stack;
                if s.quad_stack {
                    job.libs = LibPolicy::AttributeToCaller;
                }
            }
            job
        })
        .collect()
}

fn sequence(args: &Args) -> Vec<Op> {
    let mut rng = Rng::new(args.seed ^ 0x11FE);
    let catalog: Vec<Vec<Job>> = BLOCK.iter().map(|s| variants(&mut rng, s)).collect();
    let blocks = n_blocks(args.seconds, BLOCK_LEN, BLOCK_S);
    let mut ops = Vec::new();
    for (s, jobs) in BLOCK.iter().zip(&catalog) {
        for i in 0..s.count * blocks {
            ops.push(Op {
                app: s.app,
                job: jobs[i % jobs.len()],
            });
        }
    }
    shuffle(&mut rng, &mut ops);
    ops
}

fn build_apps(led: &mut Ledger, seed: u64) -> BTreeMap<AppKind, App> {
    led.time("app.build", || {
        [AppKind::WfsSmall, AppKind::ImgTiny]
            .into_iter()
            .map(|k| (k, App::build(k, input_seed(seed, k))))
            .collect()
    })
}

/// Bare run of `app` with no tool attached (calibration).
fn bare_run_ms(app: &App) -> Result<f64, String> {
    let mut vm = app.make_vm()?;
    let t0 = Instant::now();
    vm.run(None).map_err(|e| e.to_string())?;
    Ok(ms_since(t0))
}

fn run_op(led: &mut Ledger, app: &App, job: &Job) -> Result<(String, u64), String> {
    let mut vm = led.time("vm.new", || -> Result<tq_vm::Vm, String> {
        let mut vm = app.make_vm()?;
        if job.sample8 {
            vm.set_instr_mode(tq_vm::InstrMode::parse("sample:8")?)?;
        }
        Ok(vm)
    })?;
    let (analysis, guest_inst) = ops::run_live(led, &mut vm, job)?;
    Ok((ops::render(led, job, &analysis)?, guest_inst))
}

pub fn run(args: &Args, traced: bool) -> Result<Pass, String> {
    let ops_seq = sequence(args);
    let points = setup_points(ops_seq.len(), SETUP_REPEATS);
    let mut led = Ledger::new(traced);
    let mut pass = Pass::default();
    let mut apps = BTreeMap::new();
    let mut bare: BTreeMap<AppKind, Vec<f64>> = BTreeMap::new();
    // (tool layer, app) → vm.run_tool samples, for the analysis estimate.
    let mut tool_runs: BTreeMap<(&str, AppKind), Vec<f64>> = BTreeMap::new();
    let mut report_bytes = 0u64;
    let mut wall = 0.0;
    for (i, op) in ops_seq.iter().enumerate() {
        if let Some(k) = points.iter().position(|&p| p == i) {
            let t0 = Instant::now();
            apps = build_apps(&mut led, args.seed);
            pass.setup_s.push(t0.elapsed().as_secs_f64());
            led.end_setup();
            if traced && k % 5 == 0 {
                for (kind, app) in &apps {
                    bare.entry(*kind).or_default().push(bare_run_ms(app)?);
                }
            }
        }
        let app = &apps[&op.app];
        let key = op_key("live", app, &op.job);
        let t0 = Instant::now();
        let result = run_op(&mut led, app, &op.job);
        let ms = ms_since(t0);
        led.end_op(ms);
        wall += ms / 1e3;
        let ok = match result {
            Ok((text, guest_inst)) => {
                pass.guest_inst += guest_inst;
                report_bytes += text.len() as u64;
                let full = !op.job.sample8;
                if let Some(&run_ms) = led.samples("vm.run_tool").last().filter(|_| full) {
                    tool_runs
                        .entry((op.job.tool.layer(), op.app))
                        .or_default()
                        .push(run_ms);
                }
                pass.check_digest(&key, ops::digest(text.as_bytes()))
            }
            Err(e) => {
                eprintln!("perfbench: op {key} failed: {e}");
                false
            }
        };
        let mode = if op.job.sample8 { "sample:8" } else { "full" };
        let class = match op.job.tool {
            ToolKind::Quad => format!(
                "{} quad stack={}",
                op.app.name(),
                if op.job.include_stack { "incl" } else { "excl" }
            ),
            t => format!("{} {} {mode}", op.app.name(), t.name()),
        };
        pass.ops.push(OpSample { class, key, ms, ok });
    }
    pass.wall_s = wall;

    // The workload's wfs capture, made after the timed ops, gives the
    // codec's bytes per event.
    let cap = ops::capture_v3(&mut Ledger::new(false), &apps[&AppKind::WfsSmall])?;
    pass.capture_bytes_per_event = cap.bytes.len() as f64 / cap.n_events as f64;
    pass.counts
        .insert("vm.guest_minst".into(), pass.guest_inst as f64 / 1e6);
    pass.counts
        .insert("report.bytes".into(), report_bytes as f64);
    pass.counts
        .insert("trace.events".into(), cap.n_events as f64);
    pass.counts
        .insert("trace.bytes_per_event".into(), pass.capture_bytes_per_event);

    if traced {
        pass.layers = led.layer_medians();
        if let Some(v) = bare.get(&AppKind::WfsSmall) {
            pass.layers
                .insert("vm.run_bare_ms".into(), (median(v), "ms"));
        }
        // Tool cost on live: the tool run minus a bare run of the same app.
        let mut analysis: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for ((layer, app), runs) in &tool_runs {
            let base = median(bare.get(app).map(Vec::as_slice).unwrap_or(&[]));
            analysis
                .entry(layer)
                .or_default()
                .extend(runs.iter().map(|r| r - base));
        }
        for (layer, v) in analysis {
            pass.layers
                .insert(format!("{layer}.analysis_ms"), (median(&v), "ms"));
        }
        pass.layers.insert(
            "obs.unattributed_frac".into(),
            (led.unattributed_frac(), "fraction"),
        );
    }
    Ok(pass)
}
