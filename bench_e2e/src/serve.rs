//! The serving read path: the `serve_mixed` workload (one tenant training in
//! a `dw_serve::Server` while a closed-loop client reads it through a
//! `Frontend`), and the scoring of a trained model that closes every
//! training workload.

use crate::host;
use crate::inputs::Inputs;
use crate::metrics::{json_num, loss_target, median, p50_p99, summarize, Outcome};
use dimmwitted::{AnalyticsTask, EpochStream, Optimizer};
use dw_matrix::SparseVector;
use dw_numa::MachineTopology;
use dw_serve::{Frontend, Predictor, Server, SessionSpec, SnapshotCell};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests per closed-loop batch.
pub const BATCH: usize = 8;

/// Snapshot loads per timed block of [`snapshot_load_ns`].
const LOADS_PER_BLOCK: usize = 1_000;

/// Client-side latencies and reply checks of a closed-loop reader.
///
/// Percentiles are taken per interval and the run reports their median, so
/// that a burst of host noise during one interval does not decide the run's
/// tail.  On `serve_mixed` an interval is one server cycle; the training
/// workloads pool all their runs into one interval, whose median then rests
/// on every batch of the run rather than on ~30 per-run medians.
#[derive(Debug, Default)]
pub struct Latencies {
    /// Submit-to-reply time of every request of the current interval, in
    /// microseconds.
    request_us: Vec<f64>,
    /// Median and 99th percentile of every finished interval.
    interval_p50: Vec<f64>,
    interval_p99: Vec<f64>,
    samples: usize,
    /// Seconds of each direct `Predictor::predict_batch` call.
    pub batch_seconds: Vec<f64>,
    /// Replies received, and seconds spent in the closed loop.
    pub served: u64,
    pub seconds: f64,
    /// Replies checked, and replies without a published version or with
    /// a non-finite score.
    pub attempted: u64,
    pub failed: u64,
}

impl Latencies {
    fn check(&mut self, version: u64, score: f64) {
        self.attempted += 1;
        if version == 0 || !score.is_finite() {
            self.failed += 1;
        }
    }

    fn push(&mut self, micros: f64) {
        self.request_us.push(micros);
        self.samples += 1;
    }

    /// One sample for a batch of `requests` that all waited `micros`: the
    /// same percentiles as one sample per request, at a `requests`-th of
    /// the memory.
    fn push_batch(&mut self, micros: f64, requests: usize) {
        self.request_us.push(micros);
        self.samples += requests;
    }

    /// Close the current interval.
    pub fn end_interval(&mut self) {
        if !self.request_us.is_empty() {
            let (p50, p99) = p50_p99(&self.request_us);
            self.interval_p50.push(p50);
            self.interval_p99.push(p99);
            self.request_us.clear();
        }
    }

    /// The end-to-end serving metrics, and the reply checks.
    pub fn report(&mut self, out: &mut Outcome) {
        self.end_interval();
        out.count(self.attempted, self.failed);
        out.set("predict_p50_us", median(&self.interval_p50));
        // Recorded, not end-to-end metrics: on a shared 2-vCPU host their
        // spread over seeds swings past any allowed bound whenever a
        // neighbour steals CPU for minutes, while the median holds.
        let throughput = self.served as f64 / self.seconds;
        out.note("predictions_per_s", json_num(throughput));
        out.note("predict_p99_us", json_num(median(&self.interval_p99)));
        out.note("predict_samples", json_num(self.samples as f64));
        let p50s: Vec<String> = self.interval_p50.iter().map(|&v| json_num(v)).collect();
        out.note("predict_interval_p50_us", format!("[{}]", p50s.join(", ")));
    }
}

/// A predictor over a single published snapshot of `model`.
pub fn published(task: &AnalyticsTask, model: &[f64], loss: f64) -> Predictor {
    let cell = Arc::new(SnapshotCell::new());
    cell.publish(1, loss, Duration::ZERO, model.to_vec());
    Predictor::new(Arc::clone(&task.objective), cell)
}

/// Score `batches` batches of held-out queries against the model `stream`
/// trained, closed loop: one batch at a time, each timed by the client.
/// Every request of a batch is answered when the batch returns, so each
/// counts the batch's time as its latency.
pub fn serve_trained(
    stream: &EpochStream,
    queries: &[SparseVector],
    batches: usize,
    lat: &mut Latencies,
) {
    let trace = stream.trace();
    let loss = trace.points.last().map_or(trace.initial_loss, |p| p.loss);
    let predictor = published(stream.task(), &stream.model(), loss);
    predict_loop(&predictor, queries, batches, lat);
}

/// The closed loop of [`serve_trained`] over an existing predictor.
pub fn predict_loop(
    predictor: &Predictor,
    queries: &[SparseVector],
    batches: usize,
    lat: &mut Latencies,
) {
    let started = Instant::now();
    for b in 0..batches {
        let start = (b * BATCH) % (queries.len() - BATCH + 1);
        let batch = &queries[start..start + BATCH];
        let tick = Instant::now();
        let replies = predictor.predict_batch(batch);
        let seconds = tick.elapsed().as_secs_f64();
        lat.batch_seconds.push(seconds);
        match replies {
            Some(predictions) => {
                for prediction in &predictions {
                    lat.check(prediction.version, prediction.score);
                }
                lat.push_batch(seconds * 1e6, predictions.len());
            }
            None => {
                lat.attempted += BATCH as u64;
                lat.failed += BATCH as u64;
            }
        }
        lat.served += BATCH as u64;
    }
    lat.seconds += started.elapsed().as_secs_f64();
}

/// Nanoseconds per snapshot load: the median over blocks of loads.
pub fn snapshot_load_ns(predictor: &Predictor) -> f64 {
    let blocks: Vec<f64> = (0..16)
        .map(|_| {
            let tick = Instant::now();
            for _ in 0..LOADS_PER_BLOCK {
                std::hint::black_box(predictor.snapshot());
            }
            tick.elapsed().as_secs_f64() * 1e9 / LOADS_PER_BLOCK as f64
        })
        .collect();
    median(&blocks)
}

/// The `serve_mixed` workload.
pub struct ServeWorkload {
    pub inputs: Inputs,
    /// Loss target as a share of the initial loss.
    pub target_ratio: f64,
    /// Server cycles per run: each builds a server, admits a fresh tenant,
    /// serves it for its share of the window, and evicts it.
    pub cycles: usize,
}

/// Epoch budget of the tenant: more than any window trains, so the tenant
/// trains until it is evicted.
const TENANT_EPOCHS: usize = 1_000_000;

/// What one server cycle measured.
#[derive(Default)]
struct Cycle {
    admit_s: f64,
    setup_s: f64,
    to_target: Option<(usize, f64)>,
    epoch_seconds: Vec<f64>,
    epochs_trained: usize,
    serve_seconds: f64,
    staleness: f64,
    versions: f64,
}

/// Run `w.cycles` server cycles in `seconds`; `traced` adds the direct
/// predictor and snapshot timings and reports per-layer metrics.
pub fn run(
    w: &ServeWorkload,
    machine: &MachineTopology,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Outcome {
    let mut out = Outcome::default();
    let (mut requests, mut batches) = (0, 0);
    let mut lat = Latencies::default();
    let mut reply_us = Vec::new();
    let mut cycles = Vec::new();
    let mut target = f64::NAN;
    let window = Instant::now();
    for index in 0..w.cycles {
        // Built outside the timer.  A front-end per cycle, like a fresh
        // tenant, so that no one thread placement decides the whole run.
        let task = w.inputs.fresh_task();
        let frontend = Frontend::new(1, BATCH);
        let rss_before = (index == 0).then(host::live_rss_bytes);
        let started = Instant::now();
        let server = Server::builder(machine.clone())
            .pool_workers(1)
            .trainers(1)
            .build();
        let handle = server.admit(
            SessionSpec::new("svm", task)
                .epochs(TENANT_EPOCHS)
                .seed(seed),
        );
        let mut cycle = Cycle {
            admit_s: started.elapsed().as_secs_f64(),
            ..Cycle::default()
        };
        let predictor = handle.predictor();
        while predictor.snapshot().is_none() {
            std::thread::sleep(Duration::from_micros(20));
        }
        cycle.setup_s = started.elapsed().as_secs_f64();
        if let Some(before) = rss_before {
            let added = host::live_rss_bytes().saturating_sub(before);
            out.set("setup_rss_mb", added as f64 / 1e6);
        }

        // Closed loop: send a batch, wait for every reply, repeat.
        let deadline = seconds * (index + 1) as f64 / w.cycles as f64;
        let serve_start = Instant::now();
        let mut seen: Vec<(usize, f64)> = Vec::new();
        let mut last_version = 0;
        let mut next = 0;
        while window.elapsed().as_secs_f64() < deadline || seen.len() < 3 {
            if next + BATCH > w.inputs.queries.len() {
                next = 0;
            }
            let batch = w.inputs.queries[next..next + BATCH].to_vec();
            next += BATCH;
            let tick = Instant::now();
            for ticket in frontend.submit_batch(&handle, batch) {
                let reply = ticket.wait();
                lat.push(tick.elapsed().as_secs_f64() * 1e6);
                lat.check(reply.version, reply.score);
                reply_us.push(reply.latency.as_secs_f64() * 1e6);
            }
            lat.served += BATCH as u64;
            if let Some(snapshot) = predictor.snapshot() {
                if snapshot.version != last_version {
                    last_version = snapshot.version;
                    seen.push((snapshot.epoch, snapshot.elapsed.as_secs_f64()));
                }
            }
            if traced && next % (16 * BATCH) == 0 {
                let tick = Instant::now();
                let direct = predictor.predict_batch(&w.inputs.queries[..BATCH]);
                lat.batch_seconds.push(tick.elapsed().as_secs_f64());
                std::hint::black_box(direct);
            }
        }
        lat.end_interval();
        cycle.serve_seconds = serve_start.elapsed().as_secs_f64();
        lat.seconds += cycle.serve_seconds;
        let stats = handle.stats();
        cycle.staleness = stats.staleness_epochs as f64;
        cycle.versions = stats.snapshot_version as f64;
        if traced {
            out.set("snapshot.load_ns", snapshot_load_ns(&predictor));
        }
        let (trace, _) = handle.evict();
        server.shutdown();
        requests += frontend.requests();
        batches += frontend.batches();
        frontend.shutdown();

        // Epochs are read from the snapshots the client saw: each carries
        // its epoch and the wall time since the stream started.
        cycle.epochs_trained = seen.last().map_or(0, |s| s.0) - seen.first().map_or(0, |s| s.0);
        cycle.epoch_seconds = seen
            .windows(2)
            .filter(|pair| pair[1].0 == pair[0].0 + 1)
            .map(|pair| pair[1].1 - pair[0].1)
            .collect();
        target = loss_target(trace.initial_loss, w.target_ratio);
        if index == 0 {
            let ratios: Vec<String> = trace
                .points
                .iter()
                .take(10)
                .map(|p| json_num(p.loss / trace.initial_loss))
                .collect();
            out.note(
                "first_cycle_loss_ratios",
                format!("[{}]", ratios.join(", ")),
            );
        }
        let crossing = trace
            .points
            .iter()
            .position(|p| p.loss <= target)
            .map(|i| i + 1);
        let all_finite = trace.points.iter().all(|p| p.loss.is_finite());
        cycle.to_target =
            crossing.and_then(|epoch| seen.iter().find(|s| s.0 >= epoch).map(|s| (epoch, s.1)));
        out.count(1, u64::from(!all_finite || cycle.to_target.is_none()));
        cycles.push(cycle);
    }
    out.set(
        "frontend.mean_batch",
        requests as f64 / batches.max(1) as f64,
    );

    let pick = |f: fn(&Cycle) -> f64| median(&cycles.iter().map(f).collect::<Vec<_>>());
    let epoch_seconds: Vec<f64> = cycles
        .iter()
        .flat_map(|c| c.epoch_seconds.clone())
        .collect();
    let epochs = summarize(&epoch_seconds);
    let reached: Vec<&(usize, f64)> = cycles.iter().filter_map(|c| c.to_target.as_ref()).collect();
    out.set("setup_s", pick(|c| c.setup_s));
    out.set(
        "time_to_target_s",
        median(&reached.iter().map(|r| r.1).collect::<Vec<_>>()),
    );
    out.set(
        "epochs_to_target",
        median(&reached.iter().map(|r| r.0 as f64).collect::<Vec<_>>()),
    );
    out.set("epoch_p50_s", epochs.p50);
    out.set("epoch_tail_s", epochs.tail);
    let trained: usize = cycles.iter().map(|c| c.epochs_trained).sum();
    let serve_seconds: f64 = cycles.iter().map(|c| c.serve_seconds).sum();
    out.set("train_epochs_per_s", trained as f64 / serve_seconds);
    lat.report(&mut out);
    out.note("epoch_samples", json_num(epochs.samples as f64));
    out.note("epoch_tail_percentile", json_num(epochs.tail_p));
    out.note("cycles", json_num(cycles.len() as f64));
    out.note("loss_target", json_num(target));
    out.note("target_ratio", json_num(w.target_ratio));
    out.note("batch", json_num(BATCH as f64));
    out.note("source_bytes", json_num(w.inputs.source_bytes() as f64));
    // The server keeps its tenant's matrix to itself: the layout bytes come
    // from the same plan materialized on a copy, after the window.
    let task = w.inputs.fresh_task();
    let plan = Optimizer::new(machine.clone()).choose_plan(&task);
    task.data.matrix.materialize_rows();
    crate::train::record_layouts(&mut out, &task, &plan);

    if traced {
        let task = w.inputs.fresh_task();
        let tick = Instant::now();
        std::hint::black_box(Optimizer::new(machine.clone()).choose_plan(&task));
        out.set("optimizer.choose_plan_s", tick.elapsed().as_secs_f64());
        out.set("serve.admit_s", pick(|c| c.admit_s));
        out.set("serve.first_snapshot_s", pick(|c| c.setup_s - c.admit_s));
        let (p50, p99) = p50_p99(&reply_us);
        out.set("frontend.reply_latency_p50_us", p50);
        out.set("frontend.reply_latency_p99_us", p99);
        out.set("predictor.predict_batch_s", median(&lat.batch_seconds));
        out.set("snapshot.staleness_epochs", pick(|c| c.staleness));
        out.set("snapshot.versions_published", pick(|c| c.versions));
        // The engine layers below the server run inside its trainer thread,
        // out of the benchmark's reach: the training workloads trace them.
        for (name, _) in crate::metrics::PER_LAYER {
            if out.get(name).is_none() {
                out.set(name, 0.0);
            }
        }
    }
    out
}
