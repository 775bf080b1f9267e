//! The traffic mixes and their seeded request streams.
//!
//! A stream is a pure function of `(workload, seed, connection)`: the
//! server sees only the requests it yields. Popularity ranks, value
//! pools and op shares are fixed per workload, so two seeds draw the
//! same mix and differ only in the order and the picks.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Zipf storm of microsecond requests: wire, server, template cache
    /// and instantiate overheads dominate.
    StormSmall,
    /// `run` of parametric-subscript shapes: the inspector and the
    /// verdict cache do the work.
    InspectMixed,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 2] = [Workload::StormSmall, Workload::InspectMixed];

/// Closed-loop client connections of every workload (capped at the
/// machine width by the driver).
pub const CONNECTIONS: usize = 2;

/// A wire operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `plan` by source.
    Plan,
    /// `instantiate` at one valuation.
    Instantiate,
    /// `run` at one valuation and memory seed.
    Run,
}

impl Op {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            Op::Plan => "plan",
            Op::Instantiate => "instantiate",
            Op::Run => "run",
        }
    }
}

/// The shape a request names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShapeRef {
    /// An index into the workload's warm shape table.
    Warm(usize),
    /// A shape no earlier request named (unique per stream position and
    /// connection), planned from scratch.
    Cold(u64),
}

/// One generated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Operation.
    pub op: Op,
    /// Shape.
    pub shape: ShapeRef,
    /// Value of the shape's one parameter (`instantiate` and `run`).
    pub value: i64,
    /// Memory seed (`run` only).
    pub seed: u64,
}

/// A warm shape: loop source plus its one symbolic parameter.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Loop DSL source.
    pub source: String,
    /// The parameter left symbolic.
    pub param: &'static str,
}

const PAPER41_SYM: &str = "for i1 = 0..N { for i2 = 0..N {
   A[5*i1 + i2, 7*i1 + 2*i2] = A[i1 + i2 + 4, i1 + 2*i2 + 6] + 1;
 } }";
const PAPER42_SYM: &str = "for i1 = 0..N { for i2 = 0..N {
   A[i1, 3*i2 + 2] = B[i1, i2] + 1;
   B[3*i1 + 2, i1 + i2 + 1] = A[i1, i2] + 2;
 } }";
const STENCIL_SYM: &str = "for i = 1..N { for j = 1..N {
   A[i, j] = A[i - 1, j] + A[i, j - 1];
 } }";

/// Paper §4.1 with the first write/read coordinate shifted by `K`: the
/// hull plan certifies at every `K`, and one audit certifies all of them.
const SHIFTED41_K: &str = "for i1 = 0..=19 { for i2 = 0..=19 {
   A[5*i1 + i2 + K, 7*i1 + 2*i2] = A[i1 + i2 + 4 + K, i1 + 2*i2 + 6] + 1;
 } }";
/// Row shift: refined for `0 < |K| < 25`, certified intervals beyond.
const ROWSHIFT_K: &str = "for i1 = 0..=24 { for i2 = 0..=24 {
   A[i1 + K, i2] = A[i1, i2] + B[2*i1 + i2, i1] + C[i1 + 2*i2, i2] + D[i1 + i2, 2*i1] + 1;
 } }";
/// Parity mix: odd `K` is rejected, even `K` certified, each per point.
const PARITY_K: &str = "for i = 0..=999 { A[i + K] = A[i - 2] + 1; }";
/// Shifted chain: refined for `0 < |K| < 20`, certified on `K >= 20`.
const CHAIN_K: &str = "for i = 0..=19 { A[i + K] = A[i] + 1; }";

/// The `idx`-th one-parameter recurrence of the zipf storm: the
/// dependence distance `idx + 2` gives each its own structural hash.
pub fn recurrence_source(idx: usize) -> String {
    format!("for i = 1..=N {{ A[i + {d}] = A[i] + 1; }}", d = idx + 2)
}

/// A never-seen storm shape: distances from 1000 up cannot collide with
/// the warm recurrences.
pub fn cold_source(id: u64) -> String {
    format!("for i = 1..=N {{ A[i + {d}] = A[i] + 1; }}", d = 1000 + id)
}

/// Zipf exponent of storm shape popularity.
const ZIPF_S: f64 = 1.1;
/// Zipf ranks (0-based) that the three 2-D paper shapes occupy among
/// the 64 recurrences in the storm. §4.1 at rank 2 makes its N=64 runs
/// (1.8 MiB of arrays each) 2.5% of all runs, so `run_p99_us` falls
/// inside that one population: the memory-bound tail. At a share near
/// 1% the p99 would straddle two populations and jump between them from
/// seed to seed.
const STORM_2D_RANKS: [usize; 3] = [2, 7, 15];
/// Storm values of `N`.
const STORM_N: [i64; 3] = [8, 24, 64];
/// Every `STORM_COLD_EVERY`-th storm `plan` of a connection names a
/// never-seen shape.
const STORM_COLD_EVERY: u64 = 20;
/// Storm and inspect memory seeds are drawn from `1..=SEEDS`.
const STORM_SEEDS: u64 = 4;
const INSPECT_SEEDS: u64 = 2;
/// Requests per `inspect_mixed` shape in one block, by valuation class.
const INSPECT_HOT: usize = 19;
const INSPECT_INTERVAL: usize = 4;
const INSPECT_FRESH: usize = 2;

/// Where an `inspect_mixed` valuation comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Hot,
    Interval,
    Fresh,
}

/// One position of a block: the part of a request the block fixes.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Storm(Op),
    Inspect(usize, Class),
}

/// The fixed-share block a stream deals out in a seeded order, so every
/// seed sends exactly the same mix: ten storm requests are six
/// `instantiate`, three `plan` and one `run`; each inspect shape gets 19 hot, 4 interval and 2
/// fresh valuations per hundred requests.
fn block(workload: Workload) -> Vec<Slot> {
    match workload {
        Workload::StormSmall => [(Op::Instantiate, 6), (Op::Plan, 3), (Op::Run, 1)]
            .into_iter()
            .flat_map(|(op, n)| std::iter::repeat_n(Slot::Storm(op), n))
            .collect(),
        Workload::InspectMixed => (0..4)
            .flat_map(|shape| {
                [
                    (Class::Hot, INSPECT_HOT),
                    (Class::Interval, INSPECT_INTERVAL),
                    (Class::Fresh, INSPECT_FRESH),
                ]
                .into_iter()
                .flat_map(move |(class, n)| std::iter::repeat_n(Slot::Inspect(shape, class), n))
            })
            .collect(),
    }
}

/// The valuation pools of one `inspect_mixed` shape.
struct Pools {
    /// A few repeated valuations: cached point (or interval) hits.
    hot: Vec<i64>,
    /// Valuations inside a certified interval: interval hits.
    interval: Vec<i64>,
    /// Many point-local valuations, far more than the verdict cache
    /// holds: fresh audits and evictions.
    fresh: Vec<i64>,
}

fn inspect_pools(shape: usize) -> Pools {
    let range = |r: std::ops::RangeInclusive<i64>| r.collect::<Vec<_>>();
    let both = |a: std::ops::RangeInclusive<i64>, b: std::ops::RangeInclusive<i64>| {
        a.chain(b).collect::<Vec<_>>()
    };
    match shape {
        // Certified everywhere, by one interval: every class hits it.
        0 => Pools {
            hot: range(0..=50),
            interval: range(0..=50),
            fresh: range(0..=50),
        },
        1 => Pools {
            hot: vec![1, 2, 3],
            interval: range(25..=120),
            fresh: both(-24..=-1, 4..=24),
        },
        2 => Pools {
            hot: vec![1, 2, 3],
            interval: range(998..=1100),
            fresh: range(4..=400),
        },
        _ => Pools {
            hot: vec![1, 2, 3],
            interval: both(-200..=-20, 20..=200),
            fresh: both(-19..=-1, 4..=19),
        },
    }
}

impl Workload {
    /// Parse a `--workload` name.
    pub fn from_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// The name `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StormSmall => "storm_small",
            Workload::InspectMixed => "inspect_mixed",
        }
    }

    /// The warm shapes, planned during set-up.
    pub fn shapes(self) -> Vec<Shape> {
        let sym = |source: &str, param| Shape {
            source: source.to_string(),
            param,
        };
        match self {
            Workload::StormSmall => {
                let mut recurrences = (0..64).map(|i| sym(&recurrence_source(i), "N"));
                let mut paper = [PAPER41_SYM, PAPER42_SYM, STENCIL_SYM].into_iter();
                (0..67)
                    .map(|rank| match STORM_2D_RANKS.contains(&rank) {
                        true => sym(paper.next().expect("three 2-D ranks"), "N"),
                        false => recurrences.next().expect("64 recurrences"),
                    })
                    .collect()
            }
            Workload::InspectMixed => [SHIFTED41_K, ROWSHIFT_K, PARITY_K, CHAIN_K]
                .into_iter()
                .map(|s| sym(s, "K"))
                .collect(),
        }
    }

    /// Every `(warm shape, value, seed)` a `run` request of this
    /// workload can name — the keys the reference checksums cover.
    pub fn run_keys(self) -> Vec<(usize, i64, u64)> {
        let mut keys = Vec::new();
        let mut add = |shape: usize, values: &[i64], seeds: u64| {
            let mut values = values.to_vec();
            values.sort_unstable();
            values.dedup();
            for &v in &values {
                keys.extend((1..=seeds).map(|s| (shape, v, s)));
            }
        };
        match self {
            Workload::StormSmall => (0..67).for_each(|s| add(s, &STORM_N, STORM_SEEDS)),
            Workload::InspectMixed => (0..4).for_each(|s| {
                let p = inspect_pools(s);
                add(s, &[p.hot, p.interval, p.fresh].concat(), INSPECT_SEEDS)
            }),
        }
        keys
    }
}

/// The request stream of one connection.
pub struct Stream {
    workload: Workload,
    rng: StdRng,
    conn: u64,
    plans: u64,
    pending: Vec<Slot>,
    zipf_cdf: Vec<f64>,
    pools: Vec<Pools>,
}

impl Stream {
    /// The stream connection `conn` sends under `seed`.
    pub fn new(workload: Workload, seed: u64, conn: usize) -> Stream {
        let mut cdf = Vec::new();
        let mut acc = 0.0;
        for rank in 1..=67 {
            acc += 1.0 / (rank as f64).powf(ZIPF_S);
            cdf.push(acc);
        }
        let mix = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((conn as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
        Stream {
            workload,
            rng: StdRng::seed_from_u64(mix),
            conn: conn as u64,
            plans: 0,
            pending: Vec::new(),
            zipf_cdf: cdf,
            pools: (0..4).map(inspect_pools).collect(),
        }
    }

    /// The next slot, dealing a freshly shuffled block when one runs out.
    fn slot(&mut self) -> Slot {
        if self.pending.is_empty() {
            self.pending = block(self.workload);
            for i in (1..self.pending.len()).rev() {
                let j = self.rng.gen_range(0..=i);
                self.pending.swap(i, j);
            }
        }
        self.pending.pop().expect("blocks are never empty")
    }

    fn zipf(&mut self) -> usize {
        let u = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let target = u * self.zipf_cdf[self.zipf_cdf.len() - 1];
        self.zipf_cdf.iter().position(|&c| c >= target).unwrap_or(0)
    }

    fn storm(&mut self, op: Op) -> Request {
        if op == Op::Plan {
            self.plans += 1;
            if self.plans.is_multiple_of(STORM_COLD_EVERY) {
                return Request {
                    op,
                    shape: ShapeRef::Cold((self.plans << 8) | self.conn),
                    value: 0,
                    seed: 0,
                };
            }
        }
        let shape = ShapeRef::Warm(self.zipf());
        let value = STORM_N[self.rng.gen_range(0..STORM_N.len())];
        let seed = match op {
            Op::Run => self.rng.gen_range(1..=STORM_SEEDS),
            _ => 0,
        };
        Request {
            op,
            shape,
            value,
            seed,
        }
    }

    fn inspect(&mut self, shape: usize, class: Class) -> Request {
        let pools = &self.pools[shape];
        let pool = match class {
            Class::Hot => &pools.hot,
            Class::Interval => &pools.interval,
            Class::Fresh => &pools.fresh,
        };
        let value = pool[self.rng.gen_range(0..pool.len())];
        Request {
            op: Op::Run,
            shape: ShapeRef::Warm(shape),
            value,
            seed: self.rng.gen_range(1..=INSPECT_SEEDS),
        }
    }
}

impl Iterator for Stream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        Some(match self.slot() {
            Slot::Storm(op) => self.storm(op),
            Slot::Inspect(shape, class) => self.inspect(shape, class),
        })
    }
}

/// A workload's shapes with their JSON-quoted sources, for rendering
/// request frames.
pub struct Catalog {
    /// The warm shapes.
    pub shapes: Vec<Shape>,
    quoted: Vec<String>,
}

fn quote(s: &str) -> String {
    pdm_service::json::render(&pdm_service::json::Json::Str(s.to_string()))
}

impl Catalog {
    /// The catalog of `workload`.
    pub fn new(workload: Workload) -> Catalog {
        let shapes = workload.shapes();
        let quoted = shapes.iter().map(|s| quote(&s.source)).collect();
        Catalog { shapes, quoted }
    }

    /// The `plan` frame of warm shape `idx` (the set-up request).
    pub fn plan_frame(&self, idx: usize) -> String {
        self.render(&Request {
            op: Op::Plan,
            shape: ShapeRef::Warm(idx),
            value: 0,
            seed: 0,
        })
    }

    /// The request frame the client sends.
    pub fn render(&self, req: &Request) -> String {
        let (source, param) = match req.shape {
            ShapeRef::Warm(i) => (self.quoted[i].clone(), self.shapes[i].param),
            ShapeRef::Cold(id) => (quote(&cold_source(id)), "N"),
        };
        let head = format!(
            r#"{{"op":"{}","source":{source},"params":["{param}"]"#,
            req.op.name()
        );
        match req.op {
            Op::Plan => format!("{head}}}"),
            Op::Instantiate => format!(r#"{head},"values":{{"{param}":{}}}}}"#, req.value),
            Op::Run => format!(
                r#"{head},"values":{{"{param}":{}}},"seed":{}}}"#,
                req.value, req.seed
            ),
        }
    }
}
