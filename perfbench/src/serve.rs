//! `serve`: an in-process `tq-profd` server with the default configuration
//! (memory-only cache) on loopback, driven by a closed loop of two client
//! connections, as `tq submit` callers each wait for their reply. It loads
//! the protocol, queue, result memo, capture cache, in-memory sharded
//! replay and the JSON render over the wire; it bypasses the v3 codec and
//! QUAD.

use crate::ledger::{ms_since, Ledger};
use crate::{setup_points, shuffle, Args, OpSample, Pass, MIN_OPS};
use std::collections::BTreeMap;
use std::time::Instant;
use tq_isa::prng::Rng;
use tq_profd::{
    AppId, Client, JobSpec, Scale, Server, ServerConfig, StackPolicy, ToolId, Workload,
};
use tq_report::Json;
use tq_tquad::LibPolicy;

const CLIENTS: usize = 2;
/// Each distinct job is submitted this many times: once as a replay from
/// the capture cache, then as memo hits. One op in three is a replay.
const REPEATS: usize = 3;
/// Distinct jobs per client and second of run. It sets the op count so
/// that the ops take about `--seconds` on a 2-core box; checking the
/// replies against `exec::run_tool` afterwards takes about as long again.
const SPECS_PER_S: f64 = 5.0;
const SETUP_REPEATS: usize = 5;
const APPS: [(AppId, Scale); 2] = [(AppId::Wfs, Scale::Small), (AppId::Img, Scale::Tiny)];

/// One slot of a client's distinct-job list.
struct Slot {
    tool: ToolId,
    app: usize,
    sample8: bool,
    /// Interval base; each job adds a seeded offset of up to 10% so jobs
    /// stay distinct while their cost and reply size stay put.
    interval: u64,
    /// Library policy, or `None` to draw it from the seed. tQUAD's policy
    /// is fixed because tracking libraries adds kernels to its reply.
    libs: Option<LibPolicy>,
}

const fn slot(
    tool: ToolId,
    app: usize,
    sample8: bool,
    interval: u64,
    libs: Option<LibPolicy>,
) -> Slot {
    Slot {
        tool,
        app,
        sample8,
        interval,
        libs,
    }
}

/// Ten distinct jobs per cycle, the same mix in every run. Replies to
/// memo hits take 0.2–0.5 ms for gprof and phases and about 4 ms for tQUAD
/// on wfs (the largest JSON). Replays take 60–110 ms for the light jobs
/// and for a tQUAD replay that borrowed the idle worker as a second shard,
/// and 150–200 ms for tQUAD and phases on wfs on one shard. Of every 30
/// submits, the 8 light hits come first, then the 12 tQUAD-on-wfs hits,
/// then the 3 light replays and the sharded ones (about one tQUAD replay
/// in five), then the slow replays. So p50 (rank 15) falls in the middle
/// of the tQUAD-on-wfs hits and p90 (rank 27) in the middle of the slow
/// replays, whatever share of replays the timing lets shard.
const MIX: [Slot; 10] = [
    TQUAD_WFS,
    TQUAD_WFS,
    TQUAD_WFS,
    TQUAD_WFS,
    TQUAD_WFS,
    TQUAD_WFS,
    slot(ToolId::Gprof, 0, true, 5_000, None),
    slot(ToolId::Phases, 0, false, 2_000, None),
    slot(ToolId::Phases, 1, false, 2_000, None),
    slot(ToolId::Gprof, 1, false, 5_000, None),
];
const TQUAD_WFS: Slot = slot(
    ToolId::Tquad,
    0,
    false,
    20_000,
    Some(LibPolicy::AttributeToCaller),
);

/// The set-up's cold submit for an app; the op specs never equal it.
fn cold_spec(app: usize) -> JobSpec {
    let (a, s) = APPS[app];
    JobSpec::new(a, s, ToolId::Gprof)
}

fn draw_spec(rng: &mut Rng, slot: &Slot, client: usize) -> JobSpec {
    let (a, s) = APPS[slot.app];
    let mut spec = JobSpec::new(a, s, slot.tool);
    // The interval's parity names the client, so clients never share a job.
    spec.interval = slot.interval + 2 * rng.u64_in(0, slot.interval / 20) + client as u64;
    spec.stack = if rng.chance(0.5) {
        StackPolicy::Include
    } else {
        StackPolicy::Exclude
    };
    spec.lib_policy = slot.libs.unwrap_or_else(|| {
        [
            LibPolicy::AttributeToCaller,
            LibPolicy::Drop,
            LibPolicy::Track,
        ][rng.index(3)]
    });
    if slot.sample8 {
        spec.instr = "sample:8".into();
    }
    spec
}

pub fn spec_key(spec: &JobSpec) -> String {
    format!(
        "serve/{}-{}/{}/i{}/stack={}/libs={}/{}",
        spec.app.as_str(),
        spec.scale.as_str(),
        spec.tool.as_str(),
        spec.interval,
        if spec.stack.include() {
            "include"
        } else {
            "exclude"
        },
        crate::ops::lib_name(spec.lib_policy),
        spec.instr
    )
}

/// Per client, the op sequence: every distinct spec [`REPEATS`] times in
/// seeded order. Clients never share a spec, so which submit of a spec is
/// the replay does not depend on how the clients interleave. Each client
/// draws from its own stream, so a longer run's specs extend a shorter
/// run's, and the digest table recorded on a long run covers shorter ones.
fn sequences(args: &Args) -> Vec<Vec<JobSpec>> {
    let per_client = ((args.seconds as f64 * SPECS_PER_S).round() as usize)
        .max(MIN_OPS.div_ceil(CLIENTS * REPEATS))
        .div_ceil(MIX.len())
        * MIX.len();
    (0..CLIENTS)
        .map(|client| {
            let mut rng = Rng::new(args.seed ^ 0x5E4E ^ ((client as u64) << 32));
            let mut seen: Vec<JobSpec> = (0..APPS.len()).map(cold_spec).collect();
            for i in 0..per_client {
                let spec = loop {
                    let s = draw_spec(&mut rng, &MIX[i % MIX.len()], client);
                    if !seen.contains(&s) {
                        break s;
                    }
                };
                seen.push(spec);
            }
            let mut ops: Vec<JobSpec> = seen[APPS.len()..]
                .iter()
                .flat_map(|s| std::iter::repeat_n(s.clone(), REPEATS))
                .collect();
            shuffle(&mut rng, &mut ops);
            ops
        })
        .collect()
}

fn stat(j: &Json, name: &str) -> f64 {
    j.get(name).and_then(Json::as_u64).unwrap_or(0) as f64
}

/// Server-side job time so far, from the per-tool latency histograms.
fn job_ms(stats: &Json) -> f64 {
    ["tquad", "quad", "gprof", "phases"]
        .iter()
        .filter_map(|t| stats.get("latency")?.get(t))
        .map(|h| {
            let n = h.get("count").and_then(Json::as_u64).unwrap_or(0) as f64;
            n * h.get("mean_micros").and_then(Json::as_f64).unwrap_or(0.0) / 1e3
        })
        .sum()
}

struct Running {
    server: Server,
    clients: Vec<Client>,
}

impl Running {
    fn stop(self) -> Result<(), String> {
        drop(self.clients);
        self.server.request_stop();
        self.server.join()
    }
}

/// Set-up: start a server, wait for it with a blocking ping, and make one
/// cold submit per app (the VM recording). Returns the server with its
/// connected clients, and the cold replies' digests.
fn setup(led: &mut Ledger) -> Result<(Running, Vec<(JobSpec, String)>), String> {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    })?;
    let addr = server.local_addr().to_string();
    let mut clients = (0..CLIENTS)
        .map(|_| Client::connect(&addr))
        .collect::<Result<Vec<_>, _>>()?;
    let t0 = Instant::now();
    clients[0].ping()?;
    led.record("profd.ping", ms_since(t0));
    let mut cold = Vec::new();
    for app in 0..APPS.len() {
        let spec = cold_spec(app);
        let t0 = Instant::now();
        let (json, _) = clients[0].submit(spec.clone())?;
        led.record("profd.cold", ms_since(t0));
        cold.push((spec, crate::ops::digest(json.render().as_bytes())));
    }
    Ok((Running { server, clients }, cold))
}

/// What one submit returned: digest of the rendered profile, memo hit,
/// rendered bytes.
type Reply = Result<(String, bool, usize), String>;

/// One client's closed loop over `specs`: submit, wait for the reply.
fn client_loop(client: &mut Client, specs: &[JobSpec], led: &mut Ledger) -> Vec<(f64, Reply)> {
    specs
        .iter()
        .map(|spec| {
            let t0 = Instant::now();
            let r = led.time("profd.submit", || client.submit(spec.clone()));
            let ms = ms_since(t0);
            led.end_op(ms);
            let r = r.map(|(json, hit)| {
                let text = json.render();
                if led.is_on() {
                    // The server renders this object before it sends it;
                    // time the same render here.
                    let t0 = Instant::now();
                    std::hint::black_box(json.render());
                    led.record("report.render", ms_since(t0));
                }
                (crate::ops::digest(text.as_bytes()), hit, text.len())
            });
            let layer = if matches!(r, Ok((_, true, _))) {
                "profd.hit"
            } else {
                "profd.replay"
            };
            led.record(layer, ms);
            (ms, r)
        })
        .collect()
}

/// The profd inputs replayed through `exec::run_tool`, to check the
/// server's replies against, with each app's guest instruction count and
/// the wfs capture's v3 bytes and events.
struct Reference {
    digests: BTreeMap<String, String>,
    guest_inst: [u64; APPS.len()],
    v3_bytes: usize,
    n_events: u64,
}

fn reference(specs: &BTreeMap<String, JobSpec>) -> Result<Reference, String> {
    let mut traces = Vec::new();
    let mut guest_inst = [0; APPS.len()];
    for (i, (app, scale)) in APPS.iter().enumerate() {
        let w = Workload::build(*app, *scale);
        let mut vm = w.make_vm()?;
        let h = vm.attach_tool(Box::new(tq_trace::TraceRecorder::new()));
        guest_inst[i] = vm.run(None).map_err(|e| e.to_string())?.icount;
        let trace = vm
            .detach_tool::<tq_trace::TraceRecorder>(h)
            .ok_or("the recorder came back as another tool")?
            .into_trace()
            .with_chunk_index(tq_trace::DEFAULT_CHUNKS)
            .map_err(|e| format!("chunk indexing failed: {e:?}"))?;
        traces.push(trace);
    }
    let mut v3 = Vec::new();
    traces[0]
        .save_as(&mut v3, tq_trace::TraceFormat::V3)
        .map_err(|e| format!("encode failed: {e}"))?;
    let digests = specs
        .iter()
        .map(|(key, spec)| {
            let json = tq_profd::exec::run_tool(spec, &traces[app_index(spec)], 2)?;
            Ok((key.clone(), crate::ops::digest(json.render().as_bytes())))
        })
        .collect::<Result<_, String>>()?;
    Ok(Reference {
        digests,
        guest_inst,
        v3_bytes: v3.len(),
        n_events: traces[0].n_events,
    })
}

fn app_index(spec: &JobSpec) -> usize {
    APPS.iter()
        .position(|a| *a == (spec.app, spec.scale))
        .expect("specs only name the two apps")
}

pub fn run(args: &Args, traced: bool) -> Result<Pass, String> {
    let seqs = sequences(args);
    let per_client = seqs[0].len();
    // Set-up repeats run between segments of the op sequence: the first
    // set-up's server serves every op; each later one is started, timed
    // and stopped while the clients wait.
    let points = setup_points(per_client, SETUP_REPEATS);
    let mut led = Ledger::new(traced);
    let mut pass = Pass::default();
    let mut main: Option<(Running, Json)> = None;
    let mut specs: BTreeMap<String, JobSpec> = BTreeMap::new();
    let mut replies: Vec<(JobSpec, f64, Reply)> = Vec::new();
    let mut wall = 0.0;
    for (k, &start) in points.iter().enumerate() {
        let end = points.get(k + 1).copied().unwrap_or(per_client);
        let t0 = Instant::now();
        let (running, cold) = setup(&mut led)?;
        pass.setup_s.push(t0.elapsed().as_secs_f64());
        for (spec, d) in cold {
            let key = spec_key(&spec);
            if !pass.check_digest(&key, d) {
                pass.errors
                    .push(format!("{key}: cold reply differs from an earlier set-up"));
            }
            specs.insert(key, spec);
        }
        match &mut main {
            None => {
                let mut running = running;
                let stats = running.clients[0].stats()?;
                main = Some((running, stats));
            }
            Some(_) => running.stop()?,
        }
        let (running, _) = main.as_mut().expect("the first set-up started the server");
        let t0 = Instant::now();
        let segment: Vec<(Ledger, Vec<(f64, Reply)>)> = std::thread::scope(|s| {
            let handles: Vec<_> = running
                .clients
                .iter_mut()
                .zip(&seqs)
                .map(|(client, seq)| {
                    let ops = &seq[start..end];
                    s.spawn(move || {
                        let mut l = Ledger::new(traced);
                        let r = client_loop(client, ops, &mut l);
                        (l, r)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        wall += t0.elapsed().as_secs_f64();
        for ((l, r), seq) in segment.into_iter().zip(&seqs) {
            led.absorb(l);
            for (spec, (ms, reply)) in seq[start..end].iter().zip(r) {
                specs.insert(spec_key(spec), spec.clone());
                replies.push((spec.clone(), ms, reply));
            }
        }
    }
    let (mut running, before) = main.ok_or("no set-up ran")?;
    let after = running.clients[0].stats()?;
    running.stop()?;
    pass.wall_s = wall;

    let t0 = Instant::now();
    let reference = reference(&specs)?;
    eprintln!(
        "# serve: {} distinct jobs, ops {wall:.1} s, reference replays {:.1} s",
        specs.len(),
        t0.elapsed().as_secs_f64()
    );
    let mut hits = 0u64;
    let mut report_bytes = 0u64;
    for (spec, ms, reply) in replies {
        let key = spec_key(&spec);
        let (ok, hit) = match reply {
            Ok((digest, hit, bytes)) => {
                report_bytes += bytes as u64;
                if !hit {
                    pass.guest_inst += reference.guest_inst[app_index(&spec)];
                }
                (pass.check_digest(&key, digest), hit)
            }
            Err(e) => {
                eprintln!("perfbench: op {key} failed: {e}");
                (false, false)
            }
        };
        hits += u64::from(hit);
        pass.ops.push(OpSample {
            class: format!(
                "{} {} {}-{} {}",
                if hit { "hit" } else { "replay" },
                spec.tool.as_str(),
                spec.app.as_str(),
                spec.scale.as_str(),
                spec.instr
            ),
            key,
            ms,
            ok,
        });
    }
    let mismatched: Vec<(String, String)> = pass
        .digests
        .iter()
        .filter_map(|(k, d)| match reference.digests.get(k) {
            Some(r) if r != d => Some((k.clone(), format!("server sent {d}, run_tool gives {r}"))),
            _ => None,
        })
        .collect();
    for (k, why) in mismatched {
        pass.fail_key(&k, &why);
    }

    let delta = |name: &str| stat(&after, name) - stat(&before, name);
    let n_ops = pass.ops.len() as f64;
    pass.capture_bytes_per_event = reference.v3_bytes as f64 / reference.n_events as f64;
    for (name, value) in [
        ("vm.guest_minst", pass.guest_inst as f64 / 1e6),
        ("report.bytes", report_bytes as f64),
        ("trace.events", reference.n_events as f64),
        ("trace.bytes_per_event", pass.capture_bytes_per_event),
        ("profd.memo_hits", delta("result_hits")),
        ("profd.capture_hits", delta("capture_mem_hits")),
        ("profd.vm_runs", stat(&after, "vm_runs")),
        ("profd.reduced_jobs", delta("reduced_jobs")),
    ] {
        pass.counts.insert(name.into(), value);
    }
    if hits as f64 != delta("result_hits") {
        pass.errors.push(format!(
            "clients saw {hits} memo hits, the server counted {}",
            delta("result_hits")
        ));
    }
    if traced {
        pass.layers = led.layer_medians();
        let client_ms: f64 = pass.ops.iter().map(|o| o.ms).sum();
        let job_ms_delta = job_ms(&after) - job_ms(&before);
        let replays = delta("capture_mem_hits");
        for (name, value, unit) in [
            ("profd.wait_ms", (client_ms - job_ms_delta) / n_ops, "ms"),
            (
                "profd.memo_hit_ratio",
                delta("result_hits") / n_ops,
                "fraction",
            ),
            (
                "profd.capture_hit_ratio",
                replays / (replays + delta("vm_runs")).max(1.0),
                "fraction",
            ),
            ("profd.sharded_replays", delta("sharded_replays"), "count"),
            (
                "profd.busy",
                delta("sheds") + delta("retries_observed"),
                "count",
            ),
            ("obs.unattributed_frac", led.unattributed_frac(), "fraction"),
        ] {
            pass.layers.insert(name.into(), (value, unit));
        }
    }
    Ok(pass)
}
