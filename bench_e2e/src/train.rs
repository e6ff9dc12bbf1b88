//! The training workloads (`sgd_wide`, `scd_graph`): cold set-up, time and
//! epochs to a loss target, steady-state epoch time, then serving the
//! trained model.  The traced run drives the same set-up and epoch loop
//! call by call with a span around each layer.

use crate::host;
use crate::inputs::Inputs;
use crate::metrics::{json_num, json_str, loss_target, median, summarize, trace_hash, Outcome};
use crate::trace::Tracer;
use crate::{serve, SPILL_DIR};
use dimmwitted::plan::EpochAssignment;
use dimmwitted::sim_exec::simulate_epoch;
use dimmwitted::{
    AccessMethod, AnalyticsTask, DataReplicaSet, DataReplication, DimmWitted, EpochContext,
    ExecutionMode, ExecutionPlan, Executor, InterleavedExecutor, LayoutDecision, Optimizer,
    ResidencyDecision, RunConfig, SessionBuilder, ThreadedExecutor,
};
use dw_matrix::ooc::{DEFAULT_PAGE_BYTES, ENTRY_BYTES};
use dw_matrix::IndexEncoding;
use dw_numa::{MachineTopology, PlacementPolicy};
use dw_optim::{average_models, AtomicModel};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Training runs every untraced run makes at least, whatever `--seconds`.
const MIN_RUNS: usize = 3;

/// Epochs of the interleaved parity check.
const PARITY_EPOCHS: usize = 3;

/// One training workload.
pub struct TrainWorkload {
    pub inputs: Inputs,
    /// Explicit step size (`None`: the objective's default).
    pub step: Option<f64>,
    /// Memory budget below the source size, sending set-up through the
    /// out-of-core page cache.
    pub memory_budget: Option<usize>,
    /// Loss target as a share of the initial (all-zero model) loss.
    pub target_ratio: f64,
    /// Epochs of every training run (the budget the target must be met in).
    pub epochs: usize,
    /// Prediction batches served from the trained model after each run.
    pub predict_batches: usize,
    /// Wall seconds one training run takes on the reference host (2 vCPUs).
    /// An untraced run makes `--seconds / run_seconds` training runs: a
    /// count fixed by the arguments, so the epoch sample count, and with it
    /// the tail percentile, does not move with the host's speed.
    pub run_seconds: f64,
}

impl TrainWorkload {
    fn config(&self, seed: u64, mode: ExecutionMode) -> RunConfig {
        RunConfig {
            epochs: self.epochs,
            step_override: self.step,
            seed,
            mode,
            ..RunConfig::default()
        }
    }

    /// The session every measured run builds: the optimizer's plan on the
    /// detected machine.
    fn builder(
        &self,
        machine: &MachineTopology,
        task: AnalyticsTask,
        config: RunConfig,
    ) -> SessionBuilder {
        let mut builder = DimmWitted::on(machine.clone())
            .task(task)
            .plan_auto()
            .config(config);
        if let Some(budget) = self.memory_budget {
            builder = builder.memory_budget(budget).spill_dir(SPILL_DIR);
        }
        builder
    }

    /// Inputs and decisions every run records.
    fn record(&self, out: &mut Outcome, task: &AnalyticsTask, plan: &ExecutionPlan, target: f64) {
        record_layouts(out, task, plan);
        out.note("source_bytes", json_num(self.inputs.source_bytes() as f64));
        if let Some(budget) = self.memory_budget {
            out.note("memory_budget_bytes", json_num(budget as f64));
        }
        out.note("step", self.step.map_or("null".into(), json_num));
        out.note("target_ratio", json_num(self.target_ratio));
        out.note("loss_target", json_num(target));
        out.note("epoch_budget", json_num(self.epochs as f64));
    }
}

/// The matrix shape, the bytes of every materialized layout with its
/// encoded index sidecar, and the plan and kernel decision.
pub fn record_layouts(out: &mut Outcome, task: &AnalyticsTask, plan: &ExecutionPlan) {
    let matrix = &task.data.matrix;
    let encoded = plan.kernel.encoding == IndexEncoding::DeltaU16;
    out.note("rows", json_num(task.examples() as f64));
    out.note("cols", json_num(task.dim() as f64));
    out.note("nnz", json_num(matrix.nnz() as f64));
    if matrix.csr_materialized() {
        let csr = matrix.csr();
        out.note("csr_bytes", json_num(csr.size_bytes() as f64));
        if encoded {
            let bytes = csr.encoded_indices().size_bytes();
            out.note("csr_encoded_index_bytes", json_num(bytes as f64));
        }
    }
    if matrix.csc_materialized() {
        let csc = matrix.csc();
        out.note("csc_bytes", json_num(csc.size_bytes() as f64));
        if encoded {
            let bytes = csc.encoded_indices().size_bytes();
            out.note("csc_encoded_index_bytes", json_num(bytes as f64));
        }
    }
    out.note("plan", json_str(&plan.describe()));
    out.note("kernel", json_str(&plan.kernel.name()));
}

/// The untraced run: repeated cold training runs, as many as take about
/// `seconds` on the reference host.
pub fn run(w: &TrainWorkload, machine: &MachineTopology, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let planned = ((seconds / w.run_seconds).round() as usize).max(MIN_RUNS);
    let mut setups = Vec::new();
    let mut to_target = Vec::new();
    let mut epochs_to_target = Vec::new();
    let mut epoch_times = Vec::new();
    let (mut train_seconds, mut train_epochs) = (0.0, 0usize);
    let mut serving = serve::Latencies::default();
    let mut runs = 0;
    let mut run_p50s = Vec::new();
    let mut sim_seconds = f64::NAN;
    while runs < planned {
        // Built outside the timer: set-up starts from raw triplets.
        let task = w.inputs.fresh_task();
        // Only the first set-up runs in a process that has done nothing
        // else yet: it alone measures memory.
        let rss_before = (runs == 0).then(host::live_rss_bytes);
        let started = Instant::now();
        let mut stream = w
            .builder(machine, task, w.config(seed, ExecutionMode::Threaded))
            .build()
            .stream();
        setups.push(started.elapsed().as_secs_f64());
        if let Some(before) = rss_before {
            let added = host::live_rss_bytes().saturating_sub(before);
            out.set("setup_rss_mb", added as f64 / 1e6);
        }
        // The stream evaluated the initial loss during set-up; calling
        // `AnalyticsTask::initial_loss` before the timer would have
        // materialized CSR outside it.
        let target = loss_target(stream.trace().initial_loss, w.target_ratio);
        let mut crossed = None;
        let mut finite = true;
        let mut ratios = Vec::new();
        loop {
            let tick = Instant::now();
            let Some(event) = stream.next() else { break };
            let wall = tick.elapsed().as_secs_f64();
            train_seconds += wall;
            train_epochs += 1;
            // Epoch 1 also starts the worker pool: not steady state.
            if event.epoch > 1 {
                epoch_times.push(wall);
            }
            finite &= event.loss.is_finite();
            ratios.push(json_num(event.loss / stream.trace().initial_loss));
            if crossed.is_none() && event.loss <= target {
                crossed = Some((event.epoch, event.elapsed.as_secs_f64()));
            }
        }
        run_p50s.push(json_num(median(
            &epoch_times[epoch_times.len().saturating_sub(w.epochs - 1)..],
        )));
        let reached = finite && crossed.is_some();
        out.count(1, u64::from(!reached));
        if let Some((epoch, elapsed)) = crossed {
            epochs_to_target.push(epoch as f64);
            to_target.push(elapsed);
        }
        // A fresh copy of the queries per run, so that no one heap layout
        // decides the whole run's read path.
        let queries = w.inputs.queries.clone();
        serve::serve_trained(&stream, &queries, w.predict_batches, &mut serving);
        if runs == 0 {
            w.record(&mut out, stream.task(), stream.plan(), target);
            out.note("first_run_loss_ratios", format!("[{}]", ratios.join(", ")));
            out.note("executor", json_str(stream.executor_name()));
            let sim = simulate_epoch(
                &stream.task().data.stats(),
                stream.task().objective.row_update_density(),
                stream.plan(),
                machine,
            );
            sim_seconds = sim.seconds;
        }
        runs += 1;
    }
    let epochs = summarize(&epoch_times);
    out.set("setup_s", median(&setups));
    out.set("time_to_target_s", median(&to_target));
    out.set("epochs_to_target", median(&epochs_to_target));
    out.set("epoch_p50_s", epochs.p50);
    out.set("epoch_tail_s", epochs.tail);
    out.set("train_epochs_per_s", train_epochs as f64 / train_seconds);
    serving.report(&mut out);
    out.note("training_runs", json_num(runs as f64));
    out.note("run_epoch_p50_s", format!("[{}]", run_p50s.join(", ")));
    out.note("setup_samples", json_num(setups.len() as f64));
    out.note("epoch_samples", json_num(epochs.samples as f64));
    out.note("epoch_tail_percentile", json_num(epochs.tail_p));
    out.note("sim_epoch_s", json_num(sim_seconds));
    out.note(
        "sim_over_measured_epoch",
        json_num(sim_seconds / epochs.p50),
    );
    out
}

/// Everything the decomposed epoch loop needs beyond the task.
struct Loop<'a> {
    task: &'a AnalyticsTask,
    plan: &'a ExecutionPlan,
    machine: &'a MachineTopology,
    config: &'a RunConfig,
    data: &'a DataReplicaSet,
}

/// Per-epoch measurements of the decomposed loop.
#[derive(Default)]
struct LoopStats {
    steals: Vec<f64>,
    local_reads: Vec<f64>,
    busy_max: Vec<f64>,
    busy_mean: Vec<f64>,
    steal: Vec<f64>,
    dispatch: Vec<f64>,
    /// Wall time of every epoch but the first of each round.
    steady_epochs: Vec<f64>,
}

impl Loop<'_> {
    /// The epoch loop of `EpochStream::next`, one public call at a time:
    /// deal items, run the epoch, average the replicas, evaluate the loss.
    /// Returns the loss trace and the final model.
    fn run(
        &self,
        executor: &mut dyn Executor,
        epochs: usize,
        tracer: &mut Tracer,
        stats: &mut LoopStats,
    ) -> (Vec<f64>, Vec<f64>) {
        let task = self.task;
        let replicas: Vec<Arc<AtomicModel>> = (0..self.plan.locality_groups(self.machine))
            .map(|_| Arc::new(AtomicModel::zeros(task.dim())))
            .collect();
        let weights = match self.plan.data_replication {
            DataReplication::Importance { .. } if !self.plan.access.is_columnar() => Some(
                dimmwitted::importance::leverage_scores(&task.data.matrix, 1e-6),
            ),
            _ => None,
        };
        let mut assignment = EpochAssignment::for_plan(self.plan, self.machine);
        let mut step = self.config.step_override.unwrap_or_else(|| {
            if self.plan.access.is_columnar() {
                task.objective.default_col_step()
            } else {
                task.objective.default_step_for(&task.data)
            }
        });
        let mut losses = Vec::with_capacity(epochs);
        let mut model = vec![0.0; task.dim()];
        for epoch in 0..epochs {
            let span = tracer.begin("epoch");
            tracer.time("plan.fill", || {
                assignment.fill(
                    self.plan,
                    &task.data,
                    epoch,
                    self.config.seed,
                    weights.as_deref(),
                    Some(self.data),
                )
            });
            let ctx = EpochContext {
                task,
                plan: self.plan,
                config: self.config,
                machine: self.machine,
                assignment: &assignment,
                replicas: &replicas,
                data: self.data,
                step,
            };
            let run = tracer.begin("executor.run_epoch");
            let timing = executor.run_epoch(&ctx);
            tracer.end(run);
            model = tracer.time("model.average", || {
                let refs: Vec<&AtomicModel> = replicas.iter().map(Arc::as_ref).collect();
                let averaged = average_models(&refs);
                if replicas.len() > 1 {
                    for replica in &replicas {
                        replica.store_vec(&averaged);
                    }
                }
                averaged
            });
            let loss = tracer.time("objective.full_loss", || {
                task.objective.full_loss(&task.data, &model)
            });
            step *= task.objective.step_decay();
            tracer.end(span);
            losses.push(loss);
            if epoch > 0 {
                stats.steady_epochs.push(tracer.duration(span));
            }

            let feedback = timing.feedback(assignment.steals());
            let run_seconds = tracer.duration(run);
            stats.steals.push(assignment.steals() as f64);
            stats
                .local_reads
                .push(self.data.local_read_fraction(&assignment));
            stats.busy_max.push(feedback.busy_max_seconds);
            stats.busy_mean.push(feedback.busy_mean_seconds);
            stats.steal.push(feedback.steal_seconds);
            stats.dispatch.push(run_seconds - feedback.busy_max_seconds);
        }
        (losses, model)
    }
}

/// The traced run: set-up and epochs decomposed into spans per layer, the
/// kernels timed over one full pass, and the interleaved parity check
/// against `EpochStream`.
pub fn traced(w: &TrainWorkload, machine: &MachineTopology, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let window = Instant::now();
    let mut tracer = Tracer::new();
    let task = w.inputs.fresh_task();
    let config = w.config(seed, ExecutionMode::Threaded);

    // Set-up, in the order `Session::stream` performs it.
    let matrix = &task.data.matrix;
    let plan = tracer.time("optimizer.choose_plan", || {
        Optimizer::new(machine.clone())
            .with_memory_budget(w.memory_budget)
            .choose_plan(&task)
    });
    if let ResidencyDecision::Paged { budget_bytes, .. } = plan.residency {
        if matrix.has_coo_source() {
            let page_bytes = DEFAULT_PAGE_BYTES.min((budget_bytes / 4).max(ENTRY_BYTES));
            tracer
                .time("ooc.spill", || {
                    matrix.spill_source_to(Path::new(SPILL_DIR), page_bytes, budget_bytes)
                })
                .expect("spilling the source into the benchmark's directory");
        }
    }
    let prefetcher = matrix.start_prefetch(plan.residency.prefetch_depth());
    tracer.time("matrix.materialize_rows", || {
        if plan.layout == LayoutDecision::Dense {
            matrix.materialize_dense_rows();
        } else {
            matrix.materialize_rows();
        }
    });
    let needs_cols = plan.layout.includes_cols()
        || (plan.access == AccessMethod::RowWise && !task.kind.is_sgd_family());
    if needs_cols {
        tracer.time("matrix.materialize_cols", || matrix.materialize_cols());
    }
    drop(prefetcher);
    tracer.time("matrix.encode_indices", || {
        task.data
            .kernel
            .set(plan.kernel.variant, plan.kernel.encoding);
        if plan.kernel.encoding == IndexEncoding::DeltaU16 {
            matrix.materialize_encoded_indices();
        }
    });
    let data = tracer.time("replica.build", || {
        DataReplicaSet::build_with_binding(&plan, machine, PlacementPolicy::NumaAware, &task, true)
    });
    matrix.release_pages();
    let ooc = matrix.ooc_stats().unwrap_or_default();

    // Rounds until the window closes, each from a zero model: the epochs
    // through `EpochStream` untraced, then the same loop decomposed with
    // spans.  Alternating the two keeps host drift out of their ratio.
    let epoch_loop = Loop {
        task: &task,
        plan: &plan,
        machine,
        config: &config,
        data: &data,
    };
    let mut stats = LoopStats::default();
    let mut executor = ThreadedExecutor::new();
    let mut untraced = Vec::new();
    let mut initial_loss = f64::NAN;
    let mut model = Vec::new();
    let mut rounds = 0;
    while rounds == 0 || window.elapsed().as_secs_f64() < seconds {
        let mut stream = DimmWitted::on(machine.clone())
            .task(task.clone())
            .plan(plan.clone())
            .config(config.clone())
            .build()
            .stream();
        initial_loss = stream.trace().initial_loss;
        loop {
            let tick = Instant::now();
            let Some(event) = stream.next() else { break };
            if event.epoch > 1 {
                untraced.push(tick.elapsed().as_secs_f64());
            }
        }
        drop(stream);
        let (losses, last) = epoch_loop.run(&mut executor, w.epochs, &mut tracer, &mut stats);
        let finite = losses.iter().all(|l| l.is_finite());
        out.count(1, u64::from(!finite));
        model = last;
        rounds += 1;
    }

    // One full kernel pass over every item against the trained model.
    let (variant, encoding) = (plan.kernel.variant, plan.kernel.encoding);
    let row_pass = tracer.time("kernel.row_pass", || {
        (0..task.examples())
            .map(|i| matrix.row_dot_with(i, &model, variant, encoding))
            .sum::<f64>()
    });
    std::hint::black_box(row_pass);
    if matrix.csc_materialized() {
        let dual: Vec<f64> = vec![1.0; task.examples()];
        let col_pass = tracer.time("kernel.col_pass", || {
            (0..task.dim())
                .map(|j| matrix.col_dot_with(j, &dual, variant, encoding))
                .sum::<f64>()
        });
        std::hint::black_box(col_pass);
    }
    let nnz = matrix.nnz();
    let index_bytes = if encoding == IndexEncoding::DeltaU16 {
        matrix.csr().encoded_indices().size_bytes()
    } else {
        nnz * 4
    };
    let row_bytes = (index_bytes + nnz * 8) as f64;

    // Parity: the decomposed loop must reproduce `EpochStream` bit for bit
    // under the deterministic executor.
    let parity_config = RunConfig {
        epochs: PARITY_EPOCHS,
        ..w.config(seed, ExecutionMode::Interleaved)
    };
    let stream_losses: Vec<f64> = DimmWitted::on(machine.clone())
        .task(task.clone())
        .plan(plan.clone())
        .config(parity_config.clone())
        .build()
        .stream()
        .map(|event| event.loss)
        .collect();
    let parity_loop = Loop {
        config: &parity_config,
        ..epoch_loop
    };
    let (loop_losses, _) = parity_loop.run(
        &mut InterleavedExecutor::new(),
        PARITY_EPOCHS,
        &mut Tracer::new(),
        &mut LoopStats::default(),
    );
    let (stream_hash, loop_hash) = (trace_hash(&stream_losses), trace_hash(&loop_losses));
    out.count(1, u64::from(stream_hash != loop_hash));
    out.note(
        "parity_stream_hash",
        json_str(&format!("{stream_hash:016x}")),
    );
    out.note("parity_loop_hash", json_str(&format!("{loop_hash:016x}")));

    // Serving the trained model.
    let mut serving = serve::Latencies::default();
    let trained = serve::published(&task, &model, initial_loss);
    serve::predict_loop(&trained, &w.inputs.queries, w.predict_batches, &mut serving);
    out.count(serving.attempted, serving.failed);
    out.set("predictor.predict_batch_s", median(&serving.batch_seconds));
    out.set("snapshot.load_ns", serve::snapshot_load_ns(&trained));
    out.set("snapshot.staleness_epochs", 0.0);
    out.set("snapshot.versions_published", 1.0);

    // Reduce the spans.
    let per_epoch = |name: &str| median(&tracer.durations(name));
    let single = |name: &str| tracer.total(name);
    out.set("optimizer.choose_plan_s", single("optimizer.choose_plan"));
    out.set("ooc.spill_s", single("ooc.spill"));
    out.set("ooc.pages_faulted", ooc.faults as f64);
    out.set("ooc.io_bytes", ooc.io_bytes as f64);
    out.set("ooc.prefetch_hits", ooc.prefetch_hits as f64);
    out.set(
        "matrix.materialize_rows_s",
        single("matrix.materialize_rows"),
    );
    out.set(
        "matrix.materialize_cols_s",
        single("matrix.materialize_cols"),
    );
    out.set("matrix.encode_indices_s", single("matrix.encode_indices"));
    out.set("matrix.resident_bytes", matrix.resident_bytes() as f64);
    out.set("replica.build_s", single("replica.build"));
    out.set("replica.local_read_fraction", median(&stats.local_reads));
    out.set("plan.fill_s", per_epoch("plan.fill"));
    out.set("plan.steals", median(&stats.steals));
    out.set("executor.run_epoch_s", per_epoch("executor.run_epoch"));
    out.set("executor.busy_max_s", median(&stats.busy_max));
    out.set("executor.busy_mean_s", median(&stats.busy_mean));
    out.set("executor.steal_s", median(&stats.steal));
    out.set("executor.dispatch_overhead_s", median(&stats.dispatch));
    out.set("kernel.row_pass_s", single("kernel.row_pass"));
    out.set("kernel.col_pass_s", single("kernel.col_pass"));
    out.set("kernel.row_bytes", row_bytes);
    out.set(
        "kernel.row_gbps",
        row_bytes / single("kernel.row_pass") / 1e9,
    );
    out.set("model.average_s", per_epoch("model.average"));
    out.set("objective.full_loss_s", per_epoch("objective.full_loss"));
    let phases = [
        "plan.fill",
        "executor.run_epoch",
        "model.average",
        "objective.full_loss",
    ];
    let phase_sum: f64 = phases.iter().map(|name| single(name)).sum();
    let traced_p50 = median(&stats.steady_epochs);
    let untraced_p50 = summarize(&untraced).p50;
    out.set("trace.epoch_wall_s", traced_p50);
    out.set("trace.phase_coverage", phase_sum / single("epoch"));
    out.set("trace.overhead_ratio", traced_p50 / untraced_p50);
    let sim = simulate_epoch(
        &task.data.stats(),
        task.objective.row_update_density(),
        &plan,
        machine,
    );
    out.set("sim.epoch_s", sim.seconds);
    out.set("sim.error_ratio", sim.seconds / untraced_p50);
    for name in [
        "serve.admit_s",
        "serve.first_snapshot_s",
        "frontend.reply_latency_p50_us",
        "frontend.reply_latency_p99_us",
        "frontend.mean_batch",
    ] {
        out.set(name, 0.0);
    }

    w.record(
        &mut out,
        &task,
        &plan,
        loss_target(initial_loss, w.target_ratio),
    );
    out.note("untraced_epoch_p50_s", json_num(untraced_p50));
    out.note("traced_rounds", json_num(rounds as f64));
    let self_times: Vec<String> = ["epoch", "executor.run_epoch", "objective.full_loss"]
        .iter()
        .map(|name| format!("{}: {}", json_str(name), json_num(tracer.total_self(name))))
        .collect();
    out.note("self_time_s", format!("{{{}}}", self_times.join(", ")));
    out
}
