//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload live|capture-replay|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload is a fixed, seeded sequence of profiling ops whose op
//! count follows from `--seconds`. With `--trace 0` the last stdout line
//! is a JSON object with the end-to-end metrics; with `--trace 1` the same
//! sequence runs once untraced and once with layer spans on, and the line
//! carries the per-layer metrics. Every rendered profile is digested and
//! checked; see `perfbench/README.md` for the workloads, the metrics and
//! what each layer metric is expected to move.

mod ledger;
mod live;
mod ops;
mod replay;
mod serve;

use ledger::{median, quantile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Seed whose digests are pinned in `digests.tsv`.
const DEFAULT_SEED: u64 = 1;

/// The per-layer metrics a traced run prints, with their units. A layer
/// the workload bypasses reads 0.
const PER_LAYER: [(&str, &str); 40] = [
    ("app.build_ms", "ms"),
    ("vm.new_ms", "ms"),
    ("vm.run_tool_ms", "ms"),
    ("vm.record_ms", "ms"),
    ("vm.run_bare_ms", "ms"),
    ("vm.guest_minst", "Minst"),
    ("trace.index_ms", "ms"),
    ("trace.encode_ms", "ms"),
    ("trace.encode_mb_per_s", "MB/s"),
    ("trace.open_ms", "ms"),
    ("trace.replay_ms", "ms"),
    ("trace.replay_count_ms", "ms"),
    ("trace.events", "count"),
    ("trace.bytes_per_event", "B/event"),
    ("tquad.analysis_ms", "ms"),
    ("tquad.profile_ms", "ms"),
    ("tquad.phases_ms", "ms"),
    ("gprof.analysis_ms", "ms"),
    ("gprof.profile_ms", "ms"),
    ("quad.analysis_ms", "ms"),
    ("quad.profile_ms", "ms"),
    ("report.render_ms", "ms"),
    ("report.bytes", "count"),
    ("profd.ping_ms", "ms"),
    ("profd.submit_ms", "ms"),
    ("profd.hit_ms", "ms"),
    ("profd.replay_ms", "ms"),
    ("profd.cold_ms", "ms"),
    ("profd.wait_ms", "ms"),
    ("profd.memo_hit_ratio", "fraction"),
    ("profd.capture_hit_ratio", "fraction"),
    ("profd.memo_hits", "count"),
    ("profd.capture_hits", "count"),
    ("profd.vm_runs", "count"),
    ("profd.sharded_replays", "count"),
    ("profd.reduced_jobs", "count"),
    ("profd.busy", "count"),
    ("obs.trace_overhead_frac", "fraction"),
    ("obs.unattributed_frac", "fraction"),
    ("obs.traced_ops_per_s", "1/s"),
];

/// Runs need this many ops so at least ten fall above p90.
pub const MIN_OPS: usize = 100;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    record_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20,
        trace: false,
        record_digests: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--record-digests" {
            args.record_digests = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required (live|capture-replay|serve)".into());
    }
    Ok(args)
}

/// One timed op: its class (for the class table), latency and whether its
/// output checked out.
pub struct OpSample {
    pub class: String,
    pub key: String,
    pub ms: f64,
    pub ok: bool,
}

/// Everything one pass over a workload's op sequence measured.
#[derive(Default)]
pub struct Pass {
    pub ops: Vec<OpSample>,
    /// Wall time of the op sequence, set-up repeats excluded.
    pub wall_s: f64,
    /// Guest instructions whose events the ops analysed.
    pub guest_inst: u64,
    /// Seconds taken by each repeat of the set-up.
    pub setup_s: Vec<f64>,
    /// Encoded v3 bytes per event of the workload's capture.
    pub capture_bytes_per_event: f64,
    /// Counts that must repeat exactly for one seed.
    pub counts: BTreeMap<String, f64>,
    /// Rendered-output digest per op key.
    pub digests: BTreeMap<String, String>,
    /// Per-layer metrics: name → (value, unit).
    pub layers: BTreeMap<String, (f64, &'static str)>,
    /// Run-level check failures that no single op carries.
    pub errors: Vec<String>,
}

impl Pass {
    /// Record an op's output digest under `key`; a second op with the same
    /// key must produce the same digest.
    pub fn check_digest(&mut self, key: &str, digest: String) -> bool {
        match self.digests.get(key) {
            Some(d) if *d != digest => {
                eprintln!(
                    "perfbench: check failed: {key}: digest {digest} differs from earlier {d}"
                );
                false
            }
            Some(_) => true,
            None => {
                self.digests.insert(key.to_string(), digest);
                true
            }
        }
    }

    /// Charge every op with `key` as failed: its output did not check out.
    pub fn fail_key(&mut self, key: &str, why: &str) {
        eprintln!("perfbench: check failed: {key}: {why}");
        for o in self.ops.iter_mut().filter(|o| o.key == key) {
            o.ok = false;
        }
    }

    pub fn failed(&self) -> usize {
        self.ops.iter().filter(|o| !o.ok).count()
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops.len() as f64 / self.wall_s
    }

    fn latencies(&self) -> Vec<f64> {
        self.ops.iter().map(|o| o.ms).collect()
    }
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut tq_isa::prng::Rng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.index(i + 1));
    }
}

/// Op count for a workload built from blocks of `block_len` ops that take
/// about `block_s` seconds each: enough blocks to fill `seconds`, and at
/// least [`MIN_OPS`] ops.
pub fn n_blocks(seconds: u64, block_len: usize, block_s: f64) -> usize {
    let by_time = (seconds as f64 / block_s).round() as usize;
    by_time.max(MIN_OPS.div_ceil(block_len))
}

/// Indices of the ops before which a set-up repeat runs: `repeats`
/// points spread evenly over `n_ops` ops (the first is op 0).
pub fn setup_points(n_ops: usize, repeats: usize) -> Vec<usize> {
    (0..repeats).map(|k| k * n_ops / repeats).collect()
}

/// The process high-water mark in MB (VmHWM).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run_pass(args: &Args, traced: bool) -> Result<Pass, String> {
    match args.workload.as_str() {
        "live" => live::run(args, traced),
        "capture-replay" => replay::run(args, traced),
        "serve" => serve::run(args, traced),
        other => Err(format!(
            "unknown workload `{other}` (live|capture-replay|serve)"
        )),
    }
}

/// Print each op class's count and median, and the classes holding the
/// p50 and p90 ops, so a run shows where its percentiles fall.
fn print_classes(pass: &Pass) {
    let mut by_class: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for o in &pass.ops {
        by_class.entry(&o.class).or_default().push(o.ms);
    }
    let mut rows: Vec<(&str, Vec<f64>)> = by_class.into_iter().collect();
    rows.sort_by(|a, b| median(&a.1).total_cmp(&median(&b.1)));
    eprintln!("# op class                        ops   median ms   min ms   max ms");
    for (class, v) in &rows {
        eprintln!(
            "# {class:<30} {:>5} {:>11.1} {:>8.1} {:>8.1}",
            v.len(),
            median(v),
            quantile(v, 0.0),
            quantile(v, 1.0)
        );
    }
    let mut sorted: Vec<&OpSample> = pass.ops.iter().collect();
    sorted.sort_by(|a, b| a.ms.total_cmp(&b.ms));
    for (name, q) in [("p50", 0.5), ("p90", 0.9)] {
        let rank = (q * (sorted.len() - 1) as f64).round() as usize;
        let o = sorted[rank];
        eprintln!(
            "# {name} falls on op rank {rank} of {}: class {} ({:.1} ms)",
            sorted.len(),
            o.class,
            o.ms
        );
    }
}

fn end_to_end(pass: &Pass, failed: usize) -> BTreeMap<String, (f64, &'static str)> {
    let lat = pass.latencies();
    let mut m = BTreeMap::new();
    m.insert("setup_s".into(), (median(&pass.setup_s), "s"));
    m.insert("ops_per_s".into(), (pass.ops_per_s(), "1/s"));
    m.insert("op_p50_ms".into(), (quantile(&lat, 0.5), "ms"));
    m.insert("op_p90_ms".into(), (quantile(&lat, 0.9), "ms"));
    m.insert(
        "profiled_minst_per_s".into(),
        (pass.guest_inst as f64 / 1e6 / pass.wall_s, "Minst/s"),
    );
    m.insert("peak_rss_mb".into(), (peak_rss_mb(), "MB"));
    m.insert(
        "capture_bytes_per_event".into(),
        (pass.capture_bytes_per_event, "B/event"),
    );
    eprintln!(
        "# {} ops ({} samples for p50/p90), {failed} failed, failed_op_frac {}",
        lat.len(),
        lat.len(),
        failed as f64 / lat.len().max(1) as f64
    );
    m
}

/// Where the counts of earlier runs are kept: beside the executable, in
/// the build directory.
fn counts_file(args: &Args) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    // The build's digest keys the file, so counts from another build of
    // the program are never compared with this one's.
    let build = std::fs::read(&exe)
        .map(|b| ops::digest(&b))
        .map_err(|e| format!("read {}: {e}", exe.display()))?;
    let dir = exe
        .parent()
        .ok_or("executable has no directory")?
        .join("perfbench-counts");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir.join(format!(
        "{}-seed{}-s{}-{}.txt",
        args.workload,
        args.seed,
        args.seconds,
        &build[..16]
    )))
}

fn render_counts(counts: &BTreeMap<String, f64>) -> String {
    counts.iter().map(|(k, v)| format!("{k}\t{v}\n")).collect()
}

/// Compare this run's counts with the last run of the same build, workload,
/// seed and length; remember them for the next run.
fn check_counts_repeat(args: &Args, counts: &BTreeMap<String, f64>) -> Result<(), String> {
    let path = counts_file(args)?;
    let now = render_counts(counts);
    if let Ok(before) = std::fs::read_to_string(&path) {
        if before != now {
            return Err(format!(
                "counts differ from an earlier run with seed {}:\nearlier:\n{before}now:\n{now}",
                args.seed
            ));
        }
    }
    std::fs::write(&path, now).map_err(|e| format!("write {}: {e}", path.display()))
}

/// The pinned digests of the default seed, `key<TAB>digest` per line.
const DIGEST_TABLE: &str = include_str!("../digests.tsv");

fn parse_digest_table(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .filter_map(|l| l.split_once('\t'))
        .map(|(k, d)| (k.to_string(), d.to_string()))
        .collect()
}

/// For the default seed, every op key must be in the pinned table with the
/// same digest; ops whose key is not are charged as failed.
fn check_digest_table(pass: &mut Pass) {
    let table = parse_digest_table(DIGEST_TABLE);
    let bad: Vec<(String, String)> = pass
        .digests
        .iter()
        .filter_map(|(k, d)| match table.get(k) {
            Some(t) if t == d => None,
            Some(t) => Some((k.clone(), format!("digest {d}, digests.tsv has {t}"))),
            None => Some((k.clone(), "missing from digests.tsv".to_string())),
        })
        .collect();
    for (k, why) in bad {
        pass.fail_key(&k, &why);
    }
}

/// Merge this run's digests into the pinned table (maintenance: run once
/// per workload with the default seed after a deliberate output change).
fn record_digest_table(pass: &Pass) -> Result<(), String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("digests.tsv");
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    let mut table = parse_digest_table(&text);
    for (k, d) in &pass.digests {
        match table.insert(k.clone(), d.clone()) {
            Some(old) if old != *d => {
                return Err(format!(
                    "{k}: digest {d} conflicts with {old} in digests.tsv"
                ))
            }
            _ => {}
        }
    }
    let mut text = format!(
        "# Rendered-profile digests for --seed {DEFAULT_SEED}; written by --record-digests.\n"
    );
    for (k, d) in &table {
        text.push_str(&format!("{k}\t{d}\n"));
    }
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn print_result(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &BTreeMap<String, (f64, &'static str)>,
) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, (v, unit))| {
            format!(
                "\"{k}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn main() -> std::process::ExitCode {
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let mut pass = run_pass(&args, false)?;
    if args.record_digests {
        if args.seed != DEFAULT_SEED {
            return Err(format!("--record-digests needs --seed {DEFAULT_SEED}"));
        }
        record_digest_table(&pass)?;
    } else if args.seed == DEFAULT_SEED {
        check_digest_table(&mut pass);
    }
    print_classes(&pass);
    let mut errors = pass.errors.clone();
    let mut failed = pass.failed();
    let attempted = pass.ops.len();

    let metrics = if args.trace {
        let traced = run_pass(&args, true)?;
        if traced.counts != pass.counts {
            errors.push(format!(
                "counts of the traced pass differ from the untraced pass:\n{}vs\n{}",
                render_counts(&traced.counts),
                render_counts(&pass.counts)
            ));
        }
        if traced.digests != pass.digests {
            errors.push("digests of the traced pass differ from the untraced pass".into());
        }
        errors.extend(traced.errors.iter().cloned());
        failed += traced.failed();
        let overhead = 1.0 - traced.ops_per_s() / pass.ops_per_s();
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "obs.trace_overhead_frac" => overhead,
                    "obs.traced_ops_per_s" => traced.ops_per_s(),
                    _ => traced
                        .layers
                        .get(name)
                        .map(|v| v.0)
                        .or_else(|| traced.counts.get(name).copied())
                        .unwrap_or(0.0),
                };
                (name.to_string(), (value, unit))
            })
            .collect()
    } else {
        end_to_end(&pass, failed)
    };
    for (k, v) in &pass.counts {
        eprintln!("# count {k} = {v}");
    }
    if let Err(e) = check_counts_repeat(&args, &pass.counts) {
        errors.push(e);
    }
    for e in &errors {
        eprintln!("perfbench: check failed: {e}");
    }
    // A run-level mismatch is charged as a failed op, never dropped.
    let failed = (failed + errors.len()).min(attempted);
    print_result(failed == 0, attempted, failed, &metrics);
    Ok(())
}
