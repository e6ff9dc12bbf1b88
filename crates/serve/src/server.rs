//! The request front-end: an in-process prediction queue with batching.
//!
//! A serving deployment does not call [`Predictor::predict`] inline — it
//! queues requests and lets dedicated workers drain them, because draining
//! is where batching happens: a worker pops a run of requests bound for the
//! same session and scores them against **one** snapshot load, so queueing
//! pressure amortizes the read path instead of multiplying it.  This is the
//! in-process analogue of a network front door (no external deps; the
//! workspace is offline), shaped so a socket listener could feed the same
//! queue.
//!
//! Request latency is measured enqueue→reply and recorded into the owning
//! session's [`SessionStats`], so `predictions/s`, p50 and p99 land in the
//! same [`StatsReport`](crate::stats::StatsReport) as the training-side
//! counters.
//!
//! [`SessionStats`]: crate::stats::SessionStats

use crate::registry::SessionHandle;
use crate::snapshot::SnapshotCell;
use crate::stats::SessionStats;
use dw_matrix::SparseVector;
use dw_optim::Objective;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A completed prediction, as delivered to the requester.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictReply {
    /// The objective's score against the snapshot used.
    pub score: f64,
    /// Snapshot version the batch was scored against (0 if none was
    /// published yet — then `score` is NaN).
    pub version: u64,
    /// Training epoch of that snapshot.
    pub epoch: usize,
    /// Enqueue-to-reply latency.
    pub latency: Duration,
}

/// The requester's end of one queued prediction.
#[derive(Debug)]
pub struct Ticket {
    rx: Receiver<PredictReply>,
}

impl Ticket {
    /// Block until the front-end replies.
    pub fn wait(self) -> PredictReply {
        self.rx.recv().expect("front-end dropped the request")
    }
}

/// One queued request.
struct QueuedRequest {
    session: u64,
    cell: Arc<SnapshotCell>,
    objective: Arc<dyn Objective>,
    stats: Arc<SessionStats>,
    input: SparseVector,
    enqueued: Instant,
    reply: Sender<PredictReply>,
}

struct FrontendCore {
    queue: Mutex<VecDeque<QueuedRequest>>,
    available: Condvar,
    stop: AtomicBool,
    max_batch: usize,
    /// Drained batches and requests, for observing amortization.
    batches: AtomicU64,
    requests: AtomicU64,
}

/// The in-process request front door.
pub struct Frontend {
    core: Arc<FrontendCore>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Frontend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Frontend")
            .field("workers", &self.workers.len())
            .field("max_batch", &self.core.max_batch)
            .field("batches", &self.batches())
            .field("requests", &self.requests())
            .finish()
    }
}

impl Frontend {
    /// Spawn `workers` drain threads batching up to `max_batch` same-session
    /// requests per snapshot load.
    pub fn new(workers: usize, max_batch: usize) -> Self {
        let core = Arc::new(FrontendCore {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            stop: AtomicBool::new(false),
            max_batch: max_batch.max(1),
            batches: AtomicU64::new(0),
            requests: AtomicU64::new(0),
        });
        let workers = (0..workers.max(1))
            .map(|w| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("dw-frontend-{w}"))
                    .spawn(move || drain_loop(&core))
                    .expect("failed to spawn front-end worker")
            })
            .collect();
        Frontend { core, workers }
    }

    /// Queue one prediction against `session`'s current snapshot.
    pub fn submit(&self, session: &SessionHandle, input: SparseVector) -> Ticket {
        self.submit_batch(session, vec![input])
            .pop()
            .expect("one ticket per input")
    }

    /// Queue a whole batch (one ticket per input, in order).  Every request
    /// lands in the queue under one lock before any worker is woken, so a
    /// drain worker sees the batch whole and can score up to `max_batch` of
    /// it against one snapshot load.
    pub fn submit_batch(&self, session: &SessionHandle, inputs: Vec<SparseVector>) -> Vec<Ticket> {
        self.enqueue(
            session.id(),
            &session.snapshot_cell(),
            &session.objective(),
            &session.stats_sink(),
            inputs,
        )
    }

    /// Push one request per input for one session under a single lock, then
    /// wake one drain worker for a lone request or all of them for a batch.
    fn enqueue(
        &self,
        session: u64,
        cell: &Arc<SnapshotCell>,
        objective: &Arc<dyn Objective>,
        stats: &Arc<SessionStats>,
        inputs: Vec<SparseVector>,
    ) -> Vec<Ticket> {
        let enqueued = Instant::now();
        let (tickets, requests): (Vec<Ticket>, Vec<QueuedRequest>) = inputs
            .into_iter()
            .map(|input| {
                let (tx, rx) = channel();
                let request = QueuedRequest {
                    session,
                    cell: Arc::clone(cell),
                    objective: Arc::clone(objective),
                    stats: Arc::clone(stats),
                    input,
                    enqueued,
                    reply: tx,
                };
                (Ticket { rx }, request)
            })
            .unzip();
        self.core
            .queue
            .lock()
            .expect("front-end queue poisoned")
            .extend(requests);
        if tickets.len() == 1 {
            self.core.available.notify_one();
        } else {
            self.core.available.notify_all();
        }
        tickets
    }

    /// Batches drained so far (for observing amortization: `requests() /
    /// batches()` is the mean batch size).
    pub fn batches(&self) -> u64 {
        self.core.batches.load(Ordering::Relaxed)
    }

    /// Requests drained so far.
    pub fn requests(&self) -> u64 {
        self.core.requests.load(Ordering::Relaxed)
    }

    /// Drain outstanding requests and join the workers.
    pub fn shutdown(mut self) {
        self.stop_workers();
    }

    fn stop_workers(&mut self) {
        self.core.stop.store(true, Ordering::Release);
        self.core.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Frontend {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

/// Pop the head request plus up to `max_batch - 1` more *for the same
/// session* (preserving queue order of everything else).
fn take_batch(queue: &mut VecDeque<QueuedRequest>, max_batch: usize) -> Vec<QueuedRequest> {
    let mut batch = Vec::new();
    let Some(head) = queue.pop_front() else {
        return batch;
    };
    let session = head.session;
    batch.push(head);
    let mut index = 0;
    while batch.len() < max_batch && index < queue.len() {
        if queue[index].session == session {
            batch.push(queue.remove(index).expect("index in bounds"));
        } else {
            index += 1;
        }
    }
    batch
}

fn drain_loop(core: &FrontendCore) {
    loop {
        let batch = {
            let mut queue = core.queue.lock().expect("front-end queue poisoned");
            while queue.is_empty() {
                if core.stop.load(Ordering::Acquire) {
                    return;
                }
                queue = core
                    .available
                    .wait_timeout(queue, Duration::from_millis(1))
                    .expect("front-end queue poisoned")
                    .0;
            }
            take_batch(&mut queue, core.max_batch)
        };
        if batch.is_empty() {
            continue;
        }
        core.batches.fetch_add(1, Ordering::Relaxed);
        core.requests
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        // One snapshot load serves the whole batch — the amortization the
        // queue exists for.  All requests in a batch share one session, so
        // cell/objective/stats are the same Arcs.
        let snapshot = batch[0].cell.load();
        let stats = Arc::clone(&batch[0].stats);
        let mut latencies = Vec::with_capacity(batch.len());
        let mut replies = Vec::with_capacity(batch.len());
        for request in batch {
            let (score, version, epoch) = match &snapshot {
                Some(snap) => (
                    request.objective.score(&request.input, snap.model()),
                    snap.version,
                    snap.epoch,
                ),
                None => (f64::NAN, 0, 0),
            };
            let latency = request.enqueued.elapsed();
            latencies.push(latency);
            replies.push((
                request.reply,
                PredictReply {
                    score,
                    version,
                    epoch,
                    latency,
                },
            ));
        }
        // Record before replying: a caller who has seen every ticket resolve
        // must also see every one of those predictions in the stats.
        stats.record_predictions(&latencies);
        for (reply, message) in replies {
            let _ = reply.send(message);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_batch_groups_one_session_and_preserves_others() {
        let (tx, _rx) = channel();
        let cell = Arc::new(SnapshotCell::new());
        let stats = Arc::new(SessionStats::new());
        let objective: Arc<dyn Objective> = Arc::new(dw_optim::SvmHinge::default());
        let mut queue: VecDeque<QueuedRequest> = [0u64, 1, 0, 0, 1, 0]
            .iter()
            .map(|&session| QueuedRequest {
                session,
                cell: Arc::clone(&cell),
                objective: Arc::clone(&objective),
                stats: Arc::clone(&stats),
                input: SparseVector::new(),
                enqueued: Instant::now(),
                reply: tx.clone(),
            })
            .collect();
        let batch = take_batch(&mut queue, 3);
        assert_eq!(batch.len(), 3, "head session 0 batched up to the cap");
        assert!(batch.iter().all(|r| r.session == 0));
        assert_eq!(
            queue.iter().map(|r| r.session).collect::<Vec<_>>(),
            vec![1, 1, 0],
            "other sessions keep their order; the overflow request waits"
        );
        let rest = take_batch(&mut queue, 3);
        assert_eq!(rest.len(), 2);
        assert!(rest.iter().all(|r| r.session == 1));
    }

    #[test]
    fn a_submitted_batch_drains_as_one_batch() {
        let frontend = Frontend::new(1, 8);
        let cell = Arc::new(SnapshotCell::new());
        let objective: Arc<dyn Objective> = Arc::new(dw_optim::SvmHinge::default());
        let stats = Arc::new(SessionStats::new());
        let inputs = (0..8)
            .map(|i| SparseVector::from_parts(vec![i], vec![1.0]))
            .collect();
        let tickets = frontend.enqueue(7, &cell, &objective, &stats, inputs);
        for reply in tickets.into_iter().map(Ticket::wait) {
            assert_eq!(reply.version, 0, "nothing published yet");
            assert!(reply.score.is_nan());
        }
        assert_eq!(frontend.requests(), 8);
        assert_eq!(frontend.batches(), 1, "max_batch inputs drain in one batch");
        frontend.shutdown();
    }

    #[test]
    fn empty_queue_yields_empty_batch() {
        let mut queue = VecDeque::new();
        assert!(take_batch(&mut queue, 4).is_empty());
    }
}
