//! What one profiling op runs and how its output is rendered and checked.
//!
//! `live` and `capture-replay` share [`Job`], [`Analysis`] and
//! [`render`], so both render a profile the way `tq` prints it.

use crate::ledger::Ledger;
use tq_gprof::{FlatProfile, GprofOptions, GprofTool};
use tq_isa::prng::Rng;
use tq_quad::{QuadOptions, QuadProfile, QuadTool};
use tq_tquad::{
    figure_chart, phase_table, LibPolicy, Measure, PhaseDetector, TquadOptions, TquadProfile,
    TquadTool,
};
use tq_vm::{hooks, Event, HookMask, InsContext, MergeTool, ProgramInfo, ShardContext, Tool};

/// The case-study application an op profiles.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum AppKind {
    /// wfs at *small* scale.
    WfsSmall,
    /// imgproc at *tiny* scale.
    ImgTiny,
}

impl AppKind {
    pub fn name(self) -> &'static str {
        match self {
            AppKind::WfsSmall => "wfs-small",
            AppKind::ImgTiny => "img-tiny",
        }
    }
}

/// A compiled application with its staged input.
pub struct App {
    pub kind: AppKind,
    pub input_seed: u64,
    pub program: tq_isa::Program,
    pub input_name: String,
    pub input_bytes: Vec<u8>,
}

impl App {
    /// Build the application with an input synthesised from `input_seed`.
    pub fn build(kind: AppKind, input_seed: u64) -> App {
        match kind {
            AppKind::WfsSmall => {
                let a = tq_wfs::WfsApp::build_seeded(tq_wfs::WfsConfig::small(), input_seed);
                App {
                    kind,
                    input_seed,
                    program: a.compiled.program,
                    input_name: tq_wfs::INPUT_WAV.into(),
                    input_bytes: a.input_wav,
                }
            }
            AppKind::ImgTiny => {
                let a = tq_imgproc::ImgApp::build_seeded(tq_imgproc::ImgConfig::tiny(), input_seed);
                App {
                    kind,
                    input_seed,
                    program: a.compiled.program,
                    input_name: tq_imgproc::INPUT_PGM.into(),
                    input_bytes: a.input_pgm,
                }
            }
        }
    }

    /// A fresh VM at the default interpreter level with the input staged.
    pub fn make_vm(&self) -> Result<tq_vm::Vm, String> {
        let mut vm = tq_vm::Vm::new(self.program.clone()).map_err(|e| e.to_string())?;
        vm.fs_mut()
            .add_file(&self.input_name, self.input_bytes.clone());
        Ok(vm)
    }
}

/// Which tool an op runs. `Phases` is the tQUAD tool plus phase detection.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum ToolKind {
    Tquad,
    Gprof,
    Phases,
    Quad,
}

impl ToolKind {
    pub fn name(self) -> &'static str {
        match self {
            ToolKind::Tquad => "tquad",
            ToolKind::Gprof => "gprof",
            ToolKind::Phases => "phases",
            ToolKind::Quad => "quad",
        }
    }

    /// The analysis layer the tool belongs to (`phases` runs tQUAD).
    pub fn layer(self) -> &'static str {
        match self {
            ToolKind::Tquad | ToolKind::Phases => "tquad",
            ToolKind::Gprof => "gprof",
            ToolKind::Quad => "quad",
        }
    }
}

pub fn lib_name(l: LibPolicy) -> &'static str {
    match l {
        LibPolicy::Track => "track",
        LibPolicy::AttributeToCaller => "attribute",
        LibPolicy::Drop => "drop",
    }
}

/// One tool configuration: the paper's three options plus `sample:8`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Job {
    pub tool: ToolKind,
    pub interval: u64,
    pub include_stack: bool,
    pub libs: LibPolicy,
    pub sample8: bool,
}

impl Job {
    /// A seeded draw of the options for `tool`.
    pub fn draw(rng: &mut Rng, tool: ToolKind, sample8: bool) -> Job {
        let interval = match tool {
            ToolKind::Tquad => [10_000, 20_000, 50_000][rng.index(3)],
            ToolKind::Gprof => [2_000, 5_000, 10_000][rng.index(3)],
            ToolKind::Phases => [2_000, 4_000][rng.index(2)],
            ToolKind::Quad => 0,
        };
        let libs = [
            LibPolicy::AttributeToCaller,
            LibPolicy::Drop,
            LibPolicy::Track,
        ][rng.index(3)];
        Job {
            tool,
            interval,
            include_stack: rng.chance(0.5),
            libs,
            sample8,
        }
    }

    pub fn key(&self) -> String {
        format!(
            "{}/i{}/stack={}/libs={}/{}",
            self.tool.name(),
            self.interval,
            if self.include_stack {
                "include"
            } else {
                "exclude"
            },
            lib_name(self.libs),
            if self.sample8 { "sample:8" } else { "full" }
        )
    }

    fn tquad_tool(&self) -> TquadTool {
        TquadTool::new(
            TquadOptions::default()
                .with_interval(self.interval)
                .with_lib_policy(self.libs),
        )
    }

    fn gprof_tool(&self) -> GprofTool {
        GprofTool::new(GprofOptions {
            sample_interval: self.interval,
            track_libs: matches!(self.libs, LibPolicy::Track),
            ..Default::default()
        })
    }

    fn quad_tool(&self) -> QuadTool {
        QuadTool::new(QuadOptions {
            include_stack: self.include_stack,
            lib_policy: self.libs,
        })
    }
}

/// A finished tool's profile.
pub enum Analysis {
    Tquad(TquadProfile),
    Gprof(FlatProfile),
    Quad(QuadProfile),
}

/// Attach `tool` to `vm`, run to completion and detach it. Returns the
/// tool and the guest instruction count.
fn run_attached<T: Tool + 'static>(vm: &mut tq_vm::Vm, tool: T) -> Result<(T, u64), String> {
    let h = vm.attach_tool(Box::new(tool));
    let exit = vm.run(None).map_err(|e| e.to_string())?;
    let tool = vm
        .detach_tool::<T>(h)
        .ok_or("detached tool had an unexpected type")?;
    Ok((*tool, exit.icount))
}

/// Live run of `job` on `vm`: `vm.run_tool` covers attach, run and
/// detach; `<tool>.profile` covers `into_profile`. Returns the profile and
/// the guest instruction count.
pub fn run_live(
    led: &mut Ledger,
    vm: &mut tq_vm::Vm,
    job: &Job,
) -> Result<(Analysis, u64), String> {
    let layer = job.tool.layer();
    Ok(match job.tool {
        ToolKind::Tquad | ToolKind::Phases => {
            let (t, n) = led.time("vm.run_tool", || run_attached(vm, job.tquad_tool()))?;
            (
                Analysis::Tquad(led.time_tool(layer, "profile", || t.into_profile())),
                n,
            )
        }
        ToolKind::Gprof => {
            let (t, n) = led.time("vm.run_tool", || run_attached(vm, job.gprof_tool()))?;
            (
                Analysis::Gprof(led.time_tool(layer, "profile", || t.into_profile())),
                n,
            )
        }
        ToolKind::Quad => {
            let (t, n) = led.time("vm.run_tool", || run_attached(vm, job.quad_tool()))?;
            (
                Analysis::Quad(led.time_tool(layer, "profile", || t.into_profile())),
                n,
            )
        }
    })
}

fn replay_with<T: MergeTool + 'static>(
    trace: &tq_trace::StreamingTrace,
    mut tool: T,
    threads: usize,
) -> Result<T, String> {
    if threads > 1 {
        trace.replay_sharded(&mut tool, threads)
    } else {
        trace.replay(&mut tool)
    }
    .map_err(|e| format!("replay failed: {e:?}"))?;
    Ok(tool)
}

/// Replay `job` from an opened capture on `threads` threads:
/// `trace.replay` covers decode, delivery and analysis;
/// `<tool>.profile` covers `into_profile`.
pub fn run_replay(
    led: &mut Ledger,
    trace: &tq_trace::StreamingTrace,
    job: &Job,
    threads: usize,
) -> Result<Analysis, String> {
    let layer = job.tool.layer();
    Ok(match job.tool {
        ToolKind::Tquad | ToolKind::Phases => {
            let t = led.time("trace.replay", || {
                replay_with(trace, job.tquad_tool(), threads)
            })?;
            Analysis::Tquad(led.time_tool(layer, "profile", || t.into_profile()))
        }
        ToolKind::Gprof => {
            let t = led.time("trace.replay", || {
                replay_with(trace, job.gprof_tool(), threads)
            })?;
            Analysis::Gprof(led.time_tool(layer, "profile", || t.into_profile()))
        }
        ToolKind::Quad => {
            let t = led.time("trace.replay", || {
                replay_with(trace, job.quad_tool(), threads)
            })?;
            Analysis::Quad(led.time_tool(layer, "profile", || t.into_profile()))
        }
    })
}

/// Render a profile the way `tq tquad|gprof|quad|phases` prints it.
/// Phase detection is timed as `tquad.phases`, the rest as `report.render`.
pub fn render(led: &mut Ledger, job: &Job, analysis: &Analysis) -> Result<String, String> {
    match (job.tool, analysis) {
        (ToolKind::Phases, Analysis::Tquad(p)) => {
            let detector = PhaseDetector {
                include_stack: job.include_stack,
                ..PhaseDetector::default()
            };
            let phases = led.time("tquad.phases", || detector.detect(p));
            Ok(led.time("report.render", || phase_table(p, &phases).render()))
        }
        (ToolKind::Tquad, Analysis::Tquad(p)) => Ok(led.time("report.render", || {
            let measure = if job.include_stack {
                Measure::ReadIncl
            } else {
                Measure::ReadExcl
            };
            let kernels: Vec<&str> = p
                .active_kernels()
                .iter()
                .take(10)
                .map(|k| k.name.as_str())
                .collect();
            format!(
                "{}\n{} slices of {} instructions; {} prefetches ignored, {} accesses dropped",
                figure_chart(p, &kernels, measure, 96, None).render(),
                p.n_slices(),
                p.interval,
                p.prefetches_ignored,
                p.dropped_accesses
            )
        })),
        (ToolKind::Gprof, Analysis::Gprof(p)) => {
            Ok(led.time("report.render", || p.table("FLAT PROFILE").render()))
        }
        (ToolKind::Quad, Analysis::Quad(p)) => Ok(led.time("report.render", || {
            let mut t = tq_report::Table::new(format!(
                "QUAD (stack accesses {})",
                if job.include_stack {
                    "included"
                } else {
                    "excluded"
                }
            ))
            .col("kernel", tq_report::Align::Left)
            .col("IN", tq_report::Align::Right)
            .col("IN UnMA", tq_report::Align::Right)
            .col("OUT", tq_report::Align::Right)
            .col("OUT UnMA", tq_report::Align::Right);
            for r in p.active_rows() {
                t.row(vec![
                    r.name.clone(),
                    tq_report::n(r.in_bytes),
                    tq_report::n(r.in_unma),
                    tq_report::n(r.out_bytes),
                    tq_report::n(r.out_unma),
                ]);
            }
            t.render()
        })),
        _ => Err(format!(
            "{} produced the wrong profile kind",
            job.tool.name()
        )),
    }
}

/// 128-bit content digest of rendered output, as hex.
pub fn digest(bytes: &[u8]) -> String {
    let mut d = tq_trace::Digest128::new();
    d.update(bytes);
    d.finish_hex()
}

/// Calibration tool: subscribes to every event and only counts them, so a
/// replay under it costs decode plus delivery and no analysis.
#[derive(Default)]
pub struct CountTool {
    pub events: u64,
}

impl Tool for CountTool {
    fn name(&self) -> &str {
        "count"
    }

    fn instrument_ins(&mut self, _ins: &InsContext<'_>) -> HookMask {
        hooks::ALL
    }

    fn on_event(&mut self, _ev: &Event) {
        self.events += 1;
    }

    fn on_events(&mut self, evs: &[Event]) {
        self.events += evs.len() as u64;
    }
}

impl MergeTool for CountTool {
    fn fork(&self, _info: &ProgramInfo, _ctx: &ShardContext) -> Box<dyn MergeTool> {
        Box::new(CountTool::default())
    }

    fn absorb(&mut self, other: Box<dyn MergeTool>) {
        let other = other
            .into_any()
            .downcast::<CountTool>()
            .expect("absorbed a count tool");
        self.events += other.events;
    }
}

/// Count replay of an opened capture on `threads` threads; returns the
/// number of events delivered.
pub fn count_replay(trace: &tq_trace::StreamingTrace, threads: usize) -> Result<u64, String> {
    Ok(replay_with(trace, CountTool::default(), threads)?.events)
}

/// A v3 capture made the way `tq capture` makes one, into memory:
/// `vm.new`, `vm.record` (run under the recorder), `trace.index`
/// (`with_chunk_index`) and `trace.encode` (`save_as` v3).
pub struct Capture {
    pub bytes: Vec<u8>,
    pub n_events: u64,
    pub guest_inst: u64,
}

pub fn capture_v3(led: &mut Ledger, app: &App) -> Result<Capture, String> {
    let mut vm = led.time("vm.new", || app.make_vm())?;
    let (rec, guest_inst) = led.time("vm.record", || {
        run_attached(&mut vm, tq_trace::TraceRecorder::new())
    })?;
    let trace = led.time("trace.index", || {
        rec.into_trace()
            .with_chunk_index(tq_trace::DEFAULT_CHUNKS)
            .map_err(|e| format!("chunk indexing failed: {e:?}"))
    })?;
    let mut bytes = Vec::new();
    led.time("trace.encode", || {
        trace.save_as(&mut bytes, tq_trace::TraceFormat::V3)
    })
    .map_err(|e| format!("encode failed: {e}"))?;
    Ok(Capture {
        bytes,
        n_events: trace.n_events,
        guest_inst,
    })
}
