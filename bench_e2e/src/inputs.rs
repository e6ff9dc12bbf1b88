//! Workload inputs, generated from the seed.  The engine only ever sees the
//! generated matrices, labels and query rows.

use dimmwitted::{AnalyticsTask, ModelKind};
use dw_data::generators::{graph_edges, sparse_classification_into};
use dw_data::TripletSink;
use dw_matrix::{CooMatrix, DataMatrix, SparseVector};
use dw_optim::TaskData;

/// Label noise of the synthetic text corpora (the repository's datasets use
/// the same rate).
const LABEL_NOISE: f64 = 0.05;

/// A training matrix with its labels or vertex costs, plus held-out query
/// rows for the serving read path.
pub struct Inputs {
    pub kind: ModelKind,
    pub train: CooMatrix,
    pub labels: Vec<f64>,
    pub costs: Vec<f64>,
    pub queries: Vec<SparseVector>,
}

impl Inputs {
    /// A fresh task over a new [`DataMatrix`] built from a copy of the
    /// triplets.  Every measured set-up needs its own: a cloned task shares
    /// its matrix, whose layouts would already be materialized.
    pub fn fresh_task(&self) -> AnalyticsTask {
        let matrix = DataMatrix::from_coo(self.train.clone());
        let data = if self.kind.is_sgd_family() {
            TaskData::supervised(matrix, self.labels.clone())
        } else {
            TaskData::graph(matrix, self.costs.clone())
        };
        AnalyticsTask::new(self.kind.name(), data, self.kind)
    }

    /// Bytes of the canonical triplet source.
    pub fn source_bytes(&self) -> usize {
        self.train.size_bytes()
    }
}

/// Routes the generator's rows: the first `train_rows` into the training
/// matrix, the rest into held-out query vectors.
struct SplitSink {
    train: CooMatrix,
    train_rows: usize,
    queries: Vec<SparseVector>,
}

impl TripletSink for SplitSink {
    fn push_entry(&mut self, row: usize, col: usize, value: f64) {
        if row < self.train_rows {
            self.train
                .push(row, col, value)
                .expect("generator produces in-bounds entries");
            return;
        }
        let query = row - self.train_rows;
        if self.queries.len() <= query {
            self.queries.resize_with(query + 1, SparseVector::new);
        }
        let col = u32::try_from(col).expect("column fits u32");
        self.queries[query].push(col, value);
    }
}

/// A sparse classification corpus: `rows` training rows and `queries`
/// held-out rows drawn from the same planted separator.
pub fn classification(
    kind: ModelKind,
    rows: usize,
    cols: usize,
    nnz_per_row: usize,
    queries: usize,
    seed: u64,
) -> Inputs {
    let mut sink = SplitSink {
        train: CooMatrix::new(rows, cols),
        train_rows: rows,
        queries: Vec::with_capacity(queries),
    };
    let (mut labels, _) = sparse_classification_into(
        rows + queries,
        cols,
        nnz_per_row,
        LABEL_NOISE,
        seed,
        &mut sink,
    );
    labels.truncate(rows);
    Inputs {
        kind,
        train: sink.train,
        labels,
        costs: Vec::new(),
        queries: sink.queries,
    }
}

/// A preferential-attachment graph's edge-incidence matrix for label
/// propagation, plus `queries` vertex pairs shaped like incidence rows.
pub fn graph(kind: ModelKind, vertices: usize, edges: usize, queries: usize, seed: u64) -> Inputs {
    let graph = graph_edges(vertices, edges, seed);
    let mut state = seed ^ 0x5eed_f9a7e;
    let mut next = move || {
        state = splitmix64(state);
        (state % vertices as u64) as u32
    };
    let queries = (0..queries)
        .map(|_| {
            let u = next();
            let v = (u + 1 + next() % (vertices as u32 - 1)) % vertices as u32;
            let (a, b) = (u.min(v), u.max(v));
            SparseVector::from_parts(vec![a, b], vec![1.0, 1.0])
        })
        .collect();
    Inputs {
        kind,
        train: graph.incidence,
        labels: Vec::new(),
        costs: graph.vertex_costs,
        queries,
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_splits_rows_into_train_and_queries() {
        let inputs = classification(ModelKind::Lr, 50, 300, 6, 10, 3);
        assert_eq!(inputs.train.rows(), 50);
        assert_eq!(inputs.labels.len(), 50);
        assert_eq!(inputs.queries.len(), 10);
        assert!(inputs.queries.iter().all(|q| q.nnz() > 0));
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let a = graph(ModelKind::Qp, 100, 300, 20, 9);
        let b = graph(ModelKind::Qp, 100, 300, 20, 9);
        let c = graph(ModelKind::Qp, 100, 300, 20, 10);
        assert_eq!(a.train.entries(), b.train.entries());
        assert_eq!(a.queries, b.queries);
        assert_ne!(a.train.entries(), c.train.entries());
    }
}
