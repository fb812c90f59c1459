//! The workloads: seeded inputs, the cases each workload simulates, and
//! the timing-free references every case result is checked against.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sc_gpm::{exec, App, Plan};
use sc_graph::datasets::DatasetSpec;
use sc_graph::{powerlaw_graph, CsrGraph, Dataset, PowerLawConfig};
use sc_tensor::datasets::{MatrixSpec, TensorSpec};
use sc_tensor::dense::{matmul_reference, ttm_reference, ttv_reference};
use sc_tensor::{
    random_matrix, CscMatrix, CsfTensor, CsrMatrix, MatrixDataset, MatrixLayout, TensorDataset,
};
use sparsecore::SparseCoreConfig;
use std::collections::HashSet;
use std::time::Instant;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// GPM apps on the SparseCore stream backend (`core` Engine).
    GpmStream,
    /// The same GPM cases on the scalar CPU baseline (`sc-cpu`/`sc-mem`).
    GpmScalar,
    /// Value-stream tensor kernels on the one-SU stream backend.
    TensorStream,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] =
        [Workload::GpmStream, Workload::GpmScalar, Workload::TensorStream];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GpmStream => "gpm_stream",
            Workload::GpmScalar => "gpm_scalar",
            Workload::TensorStream => "tensor_stream",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Does the workload simulate on the SparseCore `Engine`?
    pub fn uses_engine(self) -> bool {
        self != Workload::GpmScalar
    }

    /// Is it a GPM workload (driven by `sc-gpm`)?
    pub fn is_gpm(self) -> bool {
        self != Workload::TensorStream
    }

    /// The engine configuration, with the sanitizer pinned off so that
    /// `SC_SANITIZE` in the environment cannot change what is measured.
    pub fn engine_config(self) -> SparseCoreConfig {
        let base = match self {
            Workload::TensorStream => SparseCoreConfig::paper_one_su(),
            _ => SparseCoreConfig::paper(),
        };
        SparseCoreConfig { sanitize: false, ..base }
    }
}

/// The GPM apps both GPM workloads run, in case order.
pub const APPS: [App; 5] =
    [App::ThreeChain, App::TailedTriangle, App::Triangle, App::Clique4, App::Clique5];
/// Inner-product row sampling (fig15's stride for a ~1 K-row matrix).
pub const INNER_ROW_SAMPLE: usize = 4;
/// TTV/TTM fiber sampling (fig15's stride).
pub const FIBER_STRIDE: usize = 16;
/// TTM factor-matrix rank (fig15's rank).
pub const TTM_RANK: usize = 8;

/// Input sizes and simulated memory layout.
#[derive(Debug, Clone, Copy)]
pub struct Shapes {
    /// The two GPM graphs.
    pub graphs: [DatasetSpec; 2],
    /// The spmspm matrix.
    pub matrix: MatrixSpec,
    /// The TTV/TTM tensor.
    pub tensor: TensorSpec,
}

impl Shapes {
    /// The paper-shaped inputs: email-eu-core and wiki-vote graphs, the
    /// email-eu-core matrix and the Uber tensor, at the sizes of
    /// `Dataset::build` / `MatrixDataset::build` / `TensorDataset::build`.
    pub fn paper() -> Shapes {
        Shapes {
            graphs: [Dataset::EmailEuCore.spec(), Dataset::WikiVote.spec()],
            matrix: MatrixDataset::EmailEuCore.spec(),
            tensor: TensorDataset::UberPickups.spec(),
        }
    }
}

/// Memory regions of the matrix and tensor, as the dataset builders
/// assign them.
const MATRIX_REGION: u64 = MatrixDataset::EmailEuCore as u64;
const TENSOR_REGION: u64 = 16 + TensorDataset::UberPickups as u64;

/// A per-input seed from the workload seed (splitmix64 finalizer), so
/// each input gets its own stream and every workload seed changes all.
fn input_seed(seed: u64, input: u64) -> u64 {
    let mut z = seed ^ input.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `sc_tensor::random_tensor` with one change: the last fiber is capped
/// at `dims[2]` entries. The library gives the last fiber the whole
/// remainder, and when that exceeds `dims[2]` its distinct-key loop never
/// ends: at the Uber shape this happens for about 1 seed in 40 (workload
/// seed 2 among them). Whenever the library function terminates, this
/// returns the identical tensor (tested).
fn random_tensor_capped(dims: [usize; 3], num_fibers: usize, nnz: usize, seed: u64) -> CsfTensor {
    assert!(num_fibers <= dims[0] * dims[1], "too many fibers for dims {dims:?}");
    assert!(nnz >= num_fibers, "need at least one entry per fiber");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fibers = HashSet::with_capacity(num_fibers * 2);
    while fibers.len() < num_fibers {
        let i = rng.gen_range(0..dims[0]) as u32;
        let j = rng.gen_range(0..dims[1]) as u32;
        fibers.insert((i, j));
    }
    let mut fibers: Vec<(u32, u32)> = fibers.into_iter().collect();
    fibers.sort_unstable();
    let mean = nnz as f64 / num_fibers as f64;
    let mut entries = Vec::with_capacity(nnz);
    let mut remaining = nnz;
    for (n, &(i, j)) in fibers.iter().enumerate() {
        let left = num_fibers - n;
        let target = if left == 1 {
            remaining.min(dims[2])
        } else {
            let jitter = rng.gen_range(0.5..1.5);
            ((mean * jitter).round() as usize).clamp(1, dims[2]).min(remaining - (left - 1))
        };
        let mut ks = HashSet::with_capacity(target * 2);
        while ks.len() < target {
            ks.insert(rng.gen_range(0..dims[2]) as u32);
        }
        let mut ks: Vec<u32> = ks.into_iter().collect();
        ks.sort_unstable();
        for k in ks {
            entries.push((i, j, k, rng.gen_range(0.1..=1.0)));
        }
        remaining -= target;
    }
    CsfTensor::from_entries(dims, &entries)
}

/// The tensor kernels' operands.
#[derive(Debug, Clone)]
pub struct TensorInputs {
    /// The square matrix `A` (spmspm computes `A * A`).
    pub a: CsrMatrix,
    /// `A` in CSC form.
    pub a_csc: CscMatrix,
    /// The 3-tensor.
    pub t: CsfTensor,
    /// The dense TTV vector.
    pub v: Vec<f64>,
    /// The dense TTM factor rows.
    pub factor: Vec<Vec<f64>>,
}

/// A workload's generated inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// GPM graphs (empty for `tensor_stream`).
    pub graphs: Vec<CsrGraph>,
    /// Compiled plans per app of [`APPS`] (empty for `tensor_stream`).
    pub plans: Vec<Vec<Plan>>,
    /// Tensor operands (`tensor_stream` only).
    pub tensor: Option<TensorInputs>,
    /// Graph names, for case labels.
    graph_names: Vec<&'static str>,
}

/// Host seconds of one setup, per layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `sc-graph` generation.
    pub graph_s: f64,
    /// `sc-tensor` generation, including the CSC transpose.
    pub tensor_s: f64,
    /// `sc-gpm` `Plan::compile`.
    pub plan_s: f64,
}

impl SetupTimes {
    /// The whole setup.
    pub fn total(&self) -> f64 {
        self.graph_s + self.tensor_s + self.plan_s
    }
}

/// Generate a workload's inputs from `seed`, timing each layer.
pub fn setup(w: Workload, seed: u64, shapes: &Shapes) -> (Inputs, SetupTimes) {
    let mut times = SetupTimes::default();
    let mut inputs =
        Inputs { graphs: Vec::new(), plans: Vec::new(), tensor: None, graph_names: Vec::new() };
    if w.is_gpm() {
        let t = Instant::now();
        for (i, spec) in shapes.graphs.iter().enumerate() {
            inputs.graphs.push(powerlaw_graph(PowerLawConfig {
                num_vertices: spec.num_vertices,
                num_edges: spec.num_edges,
                max_degree: spec.max_degree,
                seed: input_seed(seed, i as u64 + 1),
            }));
            inputs.graph_names.push(spec.name);
        }
        times.graph_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        inputs.plans = APPS.iter().map(|app| app.plans()).collect();
        times.plan_s = t.elapsed().as_secs_f64();
    } else {
        let t = Instant::now();
        let (m, ts) = (shapes.matrix, shapes.tensor);
        let mut a = random_matrix(m.dim, m.dim, m.nnz, input_seed(seed, 3));
        a.set_layout(MatrixLayout::region(MATRIX_REGION));
        let a_csc = a.to_csc();
        let mut t3 = random_tensor_capped(ts.dims, ts.num_fibers, ts.nnz, input_seed(seed, 4));
        t3.set_layout(MatrixLayout::region(TENSOR_REGION));
        // The dense operands are fig15's.
        let d2 = ts.dims[2];
        let v = (0..d2).map(|i| 0.5 + (i % 17) as f64 * 0.1).collect();
        let factor = (0..TTM_RANK)
            .map(|k| (0..d2).map(|l| ((k * 7 + l) % 13) as f64 * 0.1 + 0.5).collect())
            .collect();
        inputs.tensor = Some(TensorInputs { a, a_csc, t: t3, v, factor });
        times.tensor_s = t.elapsed().as_secs_f64();
    }
    (inputs, times)
}

/// One simulation a workload runs per pass, on a fresh backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Case {
    /// App `APPS[app]` on graph `graph`.
    Gpm {
        /// Index into [`Inputs::graphs`].
        graph: usize,
        /// Index into [`APPS`].
        app: usize,
    },
    /// Row-sampled inner-product `A * A`.
    Inner,
    /// Outer-product `A * A`.
    Outer,
    /// Gustavson `A * A`.
    Gustavson,
    /// Fiber-sampled TTV.
    Ttv,
    /// Fiber-sampled TTM.
    Ttm,
}

/// The cases of a workload, in pass order.
pub fn cases(w: Workload, inputs: &Inputs) -> Vec<Case> {
    if w.is_gpm() {
        (0..inputs.graphs.len())
            .flat_map(|graph| (0..APPS.len()).map(move |app| Case::Gpm { graph, app }))
            .collect()
    } else {
        vec![Case::Inner, Case::Outer, Case::Gustavson, Case::Ttv, Case::Ttm]
    }
}

impl Case {
    /// A short label, e.g. `TT/wiki-vote` or `inner`.
    pub fn label(self, inputs: &Inputs) -> String {
        match self {
            Case::Gpm { graph, app } => {
                format!("{}/{}", APPS[app].tag(), inputs.graph_names[graph])
            }
            Case::Inner => "inner".into(),
            Case::Outer => "outer".into(),
            Case::Gustavson => "gustavson".into(),
            Case::Ttv => "ttv".into(),
            Case::Ttm => "ttm".into(),
        }
    }
}

/// A case's functional result.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// GPM embedding count.
    Count(u64),
    /// spmspm product (only the simulated rows are populated).
    Matrix(CsrMatrix),
    /// TTV output (only the sampled fibers' cells are populated).
    Ttv(Vec<Vec<f64>>),
    /// TTM output (only the sampled fibers' cells are populated).
    Ttm(Vec<Vec<Vec<f64>>>),
}

/// FNV-1a over 64-bit words.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

impl Output {
    /// An exact checksum of the result (bit patterns, not closeness).
    pub fn checksum(&self) -> u64 {
        match self {
            Output::Count(c) => *c,
            Output::Matrix(m) => fnv1a((0..m.rows()).flat_map(|r| {
                let row = r as u64;
                m.row_indices(r)
                    .iter()
                    .zip(m.row_values(r))
                    .flat_map(move |(&c, v)| [row, u64::from(c), v.to_bits()])
            })),
            Output::Ttv(z) => fnv1a(z.iter().flatten().map(|x| x.to_bits())),
            Output::Ttm(z) => fnv1a(z.iter().flatten().flatten().map(|x| x.to_bits())),
        }
    }
}

/// Timing-free reference results.
#[derive(Debug, Clone)]
pub struct References {
    /// GPM counts per graph per app, from `exec::count` over
    /// `sc_accel::WorkCounter` (the `setops` functional reference).
    gpm: Vec<Vec<u64>>,
    /// Dense `A * A`.
    product: Vec<Vec<f64>>,
    /// Dense TTV.
    ttv: Vec<Vec<f64>>,
    /// Dense TTM.
    ttm: Vec<Vec<Vec<f64>>>,
}

/// Compute the references of a workload's inputs.
pub fn references(inputs: &Inputs) -> References {
    let gpm = inputs
        .graphs
        .iter()
        .map(|g| {
            inputs
                .plans
                .iter()
                .map(|plans| {
                    let mut counter = sc_accel::WorkCounter::new(g);
                    plans.iter().map(|p| exec::count(g, p, &mut counter)).sum()
                })
                .collect()
        })
        .collect();
    let mut refs = References { gpm, product: Vec::new(), ttv: Vec::new(), ttm: Vec::new() };
    if let Some(ti) = &inputs.tensor {
        refs.product = matmul_reference(&ti.a, &ti.a);
        refs.ttv = ttv_reference(&ti.t, &ti.v);
        refs.ttm = ttm_reference(&ti.t, &ti.factor);
    }
    refs
}

fn close(x: f64, y: f64) -> bool {
    (x - y).abs() <= 1e-9 * y.abs().max(1.0)
}

/// Do `m`'s rows `rows` match the dense reference?
fn rows_match(m: &CsrMatrix, reference: &[Vec<f64>], rows: impl Iterator<Item = usize>) -> bool {
    let cols = reference.first().map_or(0, Vec::len);
    if m.rows() != reference.len() || m.cols() != cols {
        return false;
    }
    let mut dense = vec![0.0; cols];
    rows.into_iter().all(|r| {
        dense.fill(0.0);
        for (&c, &v) in m.row_indices(r).iter().zip(m.row_values(r)) {
            dense[c as usize] = v;
        }
        dense.iter().zip(&reference[r]).all(|(&x, &y)| close(x, y))
    })
}

/// Does a case's result agree with the reference? Sampled kernels are
/// checked on the rows/fibers they simulated.
pub fn check(case: Case, out: &Output, inputs: &Inputs, refs: &References) -> bool {
    match (case, out) {
        (Case::Gpm { graph, app }, Output::Count(c)) => *c == refs.gpm[graph][app],
        (Case::Inner, Output::Matrix(m)) => {
            rows_match(m, &refs.product, (0..m.rows()).step_by(INNER_ROW_SAMPLE))
        }
        (Case::Outer | Case::Gustavson, Output::Matrix(m)) => {
            rows_match(m, &refs.product, 0..m.rows())
        }
        (Case::Ttv, Output::Ttv(z)) => {
            let t = &inputs.tensor.as_ref().expect("tensor case without tensor inputs").t;
            (0..t.num_fibers()).step_by(FIBER_STRIDE).all(|n| {
                let f = t.fiber(n);
                let (i, j) = (f.i as usize, f.j as usize);
                close(z[i][j], refs.ttv[i][j])
            })
        }
        (Case::Ttm, Output::Ttm(z)) => {
            let t = &inputs.tensor.as_ref().expect("tensor case without tensor inputs").t;
            (0..t.num_fibers()).step_by(FIBER_STRIDE).all(|n| {
                let f = t.fiber(n);
                let (i, j) = (f.i as usize, f.j as usize);
                z[i][j].len() == refs.ttm[i][j].len()
                    && z[i][j].iter().zip(&refs.ttm[i][j]).all(|(&x, &y)| close(x, y))
            })
        }
        _ => false,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Small inputs that keep the unit tests fast.
    pub(crate) fn tiny() -> Shapes {
        let p = Shapes::paper();
        Shapes {
            graphs: [
                DatasetSpec { num_vertices: 60, num_edges: 400, max_degree: 30, ..p.graphs[0] },
                DatasetSpec { num_vertices: 90, num_edges: 500, max_degree: 40, ..p.graphs[1] },
            ],
            matrix: MatrixSpec { dim: 40, nnz: 240, ..p.matrix },
            tensor: TensorSpec { dims: [6, 10, 40], num_fibers: 50, nnz: 300, ..p.tensor },
        }
    }

    #[test]
    fn the_seed_drives_every_input() {
        let (a, _) = setup(Workload::GpmStream, 1, &tiny());
        let (b, _) = setup(Workload::GpmStream, 1, &tiny());
        let (c, _) = setup(Workload::GpmStream, 2, &tiny());
        assert_eq!(a.graphs, b.graphs);
        for (x, y) in a.graphs.iter().zip(&c.graphs) {
            assert_ne!(x, y);
        }
        let (a, _) = setup(Workload::TensorStream, 1, &tiny());
        let (c, _) = setup(Workload::TensorStream, 2, &tiny());
        let (ta, tc) = (a.tensor.unwrap(), c.tensor.unwrap());
        assert_ne!(ta.a, tc.a);
        assert_ne!(ta.t, tc.t);
    }

    #[test]
    fn capped_tensor_generator_matches_sc_tensor_where_that_terminates() {
        let s = Shapes::paper().tensor;
        // Workload seeds 1 and 3 are among those the library handles.
        for seed in [1, 3] {
            let seed = input_seed(seed, 4);
            assert_eq!(
                random_tensor_capped(s.dims, s.num_fibers, s.nnz, seed),
                sc_tensor::random_tensor(s.dims, s.num_fibers, s.nnz, seed)
            );
        }
        // Workload seed 2 is one on which the library never returns.
        let t = random_tensor_capped(s.dims, s.num_fibers, s.nnz, input_seed(2, 4));
        assert_eq!(t.num_fibers(), s.num_fibers);
        assert!(t.nnz() <= s.nnz);
    }

    #[test]
    fn paper_shapes_match_the_dataset_builders() {
        let p = Shapes::paper();
        assert_eq!(
            (p.graphs[0].num_vertices, p.graphs[0].num_edges, p.graphs[0].max_degree),
            (1000, 16_100, 345)
        );
        assert_eq!(
            (p.graphs[1].num_vertices, p.graphs[1].num_edges, p.graphs[1].max_degree),
            (7000, 104_000, 1065)
        );
        assert_eq!((p.matrix.dim, p.matrix.nnz), (1005, 25_571));
        assert_eq!(p.tensor.dims, [430, 1100, 1700]);
        assert_eq!(
            MatrixDataset::EmailEuCore.build().layout(),
            &MatrixLayout::region(MATRIX_REGION)
        );
    }

    #[test]
    fn every_engine_config_pins_the_sanitizer_off() {
        for w in Workload::ALL {
            assert!(!w.engine_config().sanitize, "{w:?}");
        }
        assert_eq!(Workload::TensorStream.engine_config().num_sus, 1);
    }
}
