//! `capture-replay`: record once, analyse many times, with writes beside
//! reads in one stream. A fifth of the ops capture (record, chunk index,
//! v3 encode into memory; no file, so no fsync is timed); the rest open an
//! earlier capture with `StreamingTrace::from_bytes` and replay it under
//! tquad, gprof or phases on one or two threads. It loads the `tq-trace`
//! codec in both directions and bypasses live tool runs and `tq-profd`.

use crate::ledger::{median, ms_since, Ledger};
use crate::live::{input_seed, op_key};
use crate::ops::{self, App, AppKind, Capture, Job, ToolKind};
use crate::{n_blocks, setup_points, shuffle, Args, OpSample, Pass};
use std::collections::BTreeMap;
use std::time::Instant;
use tq_isa::prng::Rng;
use tq_trace::StreamingTrace;

/// A replay slot: tool, replay threads, ops per block.
const REPLAYS: [(ToolKind, usize, usize); 4] = [
    (ToolKind::Gprof, 2, 1),
    (ToolKind::Tquad, 2, 1),
    (ToolKind::Tquad, 1, 3),
    (ToolKind::Phases, 1, 3),
];
/// Captures per block of ten ops. On a 2-core box img *tiny* captures take
/// 0.45–0.65 s, one-thread tquad/phases replays 0.15–0.27 s and two-thread
/// replays 0.09–0.15 s, with long tails either way. So p50 falls in the
/// middle of the one-thread replays, thirty ranks from either edge, and p90
/// in the middle of the captures. The one-thread replays hold p50 because
/// a two-thread replay on two cores slows sharply whenever a neighbour
/// takes a core. img *tiny* (2.4 M events) rather than wfs *small* (3.4 M)
/// keeps a run's 100 ops near 27 s.
const CAPTURES: usize = 2;
const BLOCK_LEN: usize = 10;
const BLOCK_S: f64 = 2.7;
const VARIANTS: usize = 2;
const SETUP_REPEATS: usize = 5;
/// Captures kept for replay; older ones are dropped.
const KEEP: usize = 4;

enum Op {
    Capture,
    Replay {
        job: Job,
        threads: usize,
        /// Which kept capture to replay, counted back from the newest.
        age: usize,
    },
}

enum Outcome {
    Captured(Capture),
    Rendered { text: String, guest_inst: u64 },
}

fn sequence(args: &Args) -> Vec<Op> {
    let mut rng = Rng::new(args.seed ^ 0x2EC0);
    let blocks = n_blocks(args.seconds, BLOCK_LEN, BLOCK_S);
    let mut ops: Vec<Op> = (0..CAPTURES * blocks).map(|_| Op::Capture).collect();
    for (tool, threads, count) in REPLAYS {
        let jobs: Vec<Job> = (0..VARIANTS)
            .map(|_| Job::draw(&mut rng, tool, false))
            .collect();
        for i in 0..count * blocks {
            ops.push(Op::Replay {
                job: jobs[i % VARIANTS],
                threads,
                age: rng.index(KEEP),
            });
        }
    }
    shuffle(&mut rng, &mut ops);
    ops
}

/// Set-up: build the application and make the first capture.
fn setup(led: &mut Ledger, seed: u64) -> Result<(App, Capture), String> {
    let t0 = Instant::now();
    let app = App::build(AppKind::ImgTiny, input_seed(seed, AppKind::ImgTiny));
    led.record("app.build", ms_since(t0));
    let cap = ops::capture_v3(led, &app)?;
    led.end_setup();
    Ok((app, cap))
}

fn capture_key(app: &App) -> String {
    format!("capture-v3/{}/in{}", app.kind.name(), app.input_seed)
}

fn replay_op(led: &mut Ledger, cap: &Capture, job: &Job, threads: usize) -> Result<String, String> {
    let trace = led.time("trace.open", || {
        StreamingTrace::from_bytes(cap.bytes.clone()).map_err(|e| format!("open failed: {e:?}"))
    })?;
    let analysis = ops::run_replay(led, &trace, job, threads)?;
    ops::render(led, job, &analysis)
}

fn count_ms(cap: &Capture, threads: usize) -> Result<f64, String> {
    let trace = StreamingTrace::from_bytes(cap.bytes.clone()).map_err(|e| format!("{e:?}"))?;
    let t0 = Instant::now();
    let events = ops::count_replay(&trace, threads)?;
    if events + 1 < cap.n_events {
        return Err(format!(
            "count replay saw {events} of {} events",
            cap.n_events
        ));
    }
    Ok(ms_since(t0))
}

pub fn run(args: &Args, traced: bool) -> Result<Pass, String> {
    let ops_seq = sequence(args);
    let points = setup_points(ops_seq.len(), SETUP_REPEATS);
    let mut led = Ledger::new(traced);
    let mut pass = Pass::default();
    let mut app = None;
    let mut kept: Vec<Capture> = Vec::new();
    let mut counts: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut replays: BTreeMap<(&str, usize), Vec<f64>> = BTreeMap::new();
    let mut report_bytes = 0u64;
    let mut n_events = 0;
    let mut wall = 0.0;
    for (i, op) in ops_seq.iter().enumerate() {
        if points.contains(&i) {
            let t0 = Instant::now();
            let (a, cap) = setup(&mut led, args.seed)?;
            pass.setup_s.push(t0.elapsed().as_secs_f64());
            if !pass.check_digest(&capture_key(&a), ops::digest(&cap.bytes)) {
                pass.errors
                    .push("set-up capture differs from an earlier one".into());
            }
            if traced {
                for threads in [1, 2] {
                    counts
                        .entry(threads)
                        .or_default()
                        .push(count_ms(&cap, threads)?);
                }
            }
            app = Some(a);
            kept.push(cap);
        }
        let app = app.as_ref().expect("set-up runs before the first op");
        if kept.len() > KEEP {
            kept.remove(0);
        }
        let t0 = Instant::now();
        let (key, class, result) = match op {
            Op::Capture => {
                let r = ops::capture_v3(&mut led, app);
                (
                    capture_key(app),
                    "capture v3".to_string(),
                    r.map(Outcome::Captured),
                )
            }
            Op::Replay { job, threads, age } => {
                let cap = &kept[kept.len() - 1 - age.min(&(kept.len() - 1))];
                let r = replay_op(&mut led, cap, job, *threads);
                (
                    op_key("replay", app, job),
                    format!("replay {} {threads} thread(s)", job.tool.name()),
                    r.map(|text| Outcome::Rendered {
                        text,
                        guest_inst: cap.guest_inst,
                    }),
                )
            }
        };
        let ms = ms_since(t0);
        led.end_op(ms);
        wall += ms / 1e3;
        let ok = match result {
            Ok(Outcome::Captured(cap)) => {
                pass.guest_inst += cap.guest_inst;
                n_events = cap.n_events;
                let ok = pass.check_digest(&key, ops::digest(&cap.bytes));
                kept.push(cap);
                ok
            }
            Ok(Outcome::Rendered { text, guest_inst }) => {
                pass.guest_inst += guest_inst;
                report_bytes += text.len() as u64;
                if let (Op::Replay { job, threads, .. }, Some(&ms)) =
                    (op, led.samples("trace.replay").last())
                {
                    replays
                        .entry((job.tool.layer(), *threads))
                        .or_default()
                        .push(ms);
                }
                pass.check_digest(&key, ops::digest(text.as_bytes()))
            }
            Err(e) => {
                eprintln!("perfbench: op {key} failed: {e}");
                false
            }
        };
        pass.ops.push(OpSample { class, key, ms, ok });
    }
    pass.wall_s = wall;

    let newest = kept.last().ok_or("no capture was made")?;
    pass.capture_bytes_per_event = newest.bytes.len() as f64 / newest.n_events as f64;
    pass.counts
        .insert("vm.guest_minst".into(), pass.guest_inst as f64 / 1e6);
    pass.counts
        .insert("report.bytes".into(), report_bytes as f64);
    pass.counts.insert("trace.events".into(), n_events as f64);
    pass.counts
        .insert("trace.bytes_per_event".into(), pass.capture_bytes_per_event);

    if traced {
        pass.layers = led.layer_medians();
        let encode_ms = led.median("trace.encode");
        pass.layers.insert(
            "trace.encode_mb_per_s".into(),
            (newest.bytes.len() as f64 / 1e6 / (encode_ms / 1e3), "MB/s"),
        );
        pass.layers.insert(
            "trace.replay_count_ms".into(),
            (
                median(counts.get(&1).map(Vec::as_slice).unwrap_or(&[])),
                "ms",
            ),
        );
        // Tool cost on replay: the tool's replay minus a counting replay on
        // as many threads.
        let mut analysis: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for ((layer, threads), v) in &replays {
            let base = median(counts.get(threads).map(Vec::as_slice).unwrap_or(&[]));
            analysis
                .entry(layer)
                .or_default()
                .extend(v.iter().map(|r| r - base));
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
