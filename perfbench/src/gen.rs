//! Seeded inputs: datasets (written as CSV), query sets, write streams and
//! the open-loop arrival schedule. Everything here is a pure function of
//! the run seed, and owned by the benchmark: the program under test only
//! ever sees the generated CSV files and wire requests.

use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;

/// SplitMix64: small, fast and fully specified, so the same seed gives the
/// same inputs on every platform and every commit.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// An independent stream for one purpose (`tag`) of the same seed.
    pub fn fork(&self, tag: u64) -> Rng {
        let mut r = Rng(self.0 ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u = 1.0 - self.f64();
        let v = self.f64();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// A generated dataset: row-major points in `[0, 1]^dim` plus group labels.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    pub name: String,
    pub dim: usize,
    pub points: Vec<f64>,
    pub groups: Vec<usize>,
}

impl Table {
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    pub fn point(&self, i: usize) -> &[f64] {
        &self.points[i * self.dim..(i + 1) * self.dim]
    }

    /// Per-column maxima: the server normalizes each column by its maximum,
    /// so appended rows are expressed in these units.
    pub fn col_max(&self) -> Vec<f64> {
        let mut m = vec![0.0f64; self.dim];
        for p in self.points.chunks_exact(self.dim) {
            for (c, &v) in p.iter().enumerate() {
                m[c] = m[c].max(v);
            }
        }
        m
    }

    /// The CSV the server loads: `attr_1,…,attr_d,group`, no header, floats
    /// in shortest round-trip form so the server parses the exact bits.
    pub fn to_csv(&self) -> String {
        let mut s = String::with_capacity(self.len() * (self.dim * 20 + 4));
        for (p, g) in self.points.chunks_exact(self.dim).zip(&self.groups) {
            for v in p {
                write!(s, "{v},").expect("writing to a String cannot fail");
            }
            writeln!(s, "{g}").expect("writing to a String cannot fail");
        }
        s
    }

    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        let mut f = io::BufWriter::new(std::fs::File::create(path)?);
        f.write_all(self.to_csv().as_bytes())?;
        f.flush()
    }
}

/// Anti-correlated points (Börzsönyi et al.): every coordinate starts on
/// the plane `Σ x = d/2`, then mass moves between random coordinate pairs.
/// Almost no point dominates another, so the skyline holds about half of
/// the rows at `d = 4` — the paper's hard case for BiGreedy.
pub fn anticorrelated(rng: &mut Rng, name: &str, n: usize, d: usize, c: usize) -> Table {
    let mut points = Vec::with_capacity(n * d);
    let mut x = vec![0.0f64; d];
    while points.len() < n * d {
        let v = (0.5 + 0.05 * rng.normal()).clamp(0.0, 1.0);
        let l = v.min(1.0 - v);
        x.iter_mut().for_each(|c| *c = v);
        for _ in 0..d {
            let i = rng.below(d);
            let j = (i + 1 + rng.below(d - 1)) % d;
            let delta = rng.range(-l, l);
            x[i] += delta;
            x[j] -= delta;
        }
        if x.iter().all(|c| (0.0..=1.0).contains(c)) {
            points.extend_from_slice(&x);
        }
    }
    finish(name, d, points, c)
}

/// Independent uniform points: a small skyline, so solves are cheap.
pub fn independent(rng: &mut Rng, name: &str, n: usize, d: usize, c: usize) -> Table {
    let points = (0..n * d).map(|_| rng.f64()).collect();
    finish(name, d, points, c)
}

/// Groups by attribute-sum quantile, `c` equal groups (the paper's scheme).
fn finish(name: &str, d: usize, points: Vec<f64>, c: usize) -> Table {
    let n = points.len() / d;
    let sum = |i: usize| -> f64 { points[i * d..(i + 1) * d].iter().sum() };
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| sum(a).total_cmp(&sum(b)).then(a.cmp(&b)));
    let mut groups = vec![0usize; n];
    for (rank, &i) in order.iter().enumerate() {
        groups[i] = (rank * c / n).min(c - 1);
    }
    Table {
        name: name.to_string(),
        dim: d,
        points,
        groups,
    }
}

/// One BiGreedy query in skyline form (the serving default).
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    pub dataset: String,
    pub k: usize,
    pub alpha: f64,
    pub seed: u64,
}

impl QuerySpec {
    pub fn new(dataset: &str, k: usize, alpha: f64, seed: u64) -> QuerySpec {
        QuerySpec {
            dataset: dataset.to_string(),
            k,
            alpha,
            seed,
        }
    }

    /// The request line, newline included.
    pub fn wire(&self) -> String {
        format!(
            "QUERY dataset={} k={} alg=bigreedy alpha={} seed={}\n",
            self.dataset, self.k, self.alpha, self.seed
        )
    }

    /// The same query as the service's typed model (all other fields at
    /// their defaults, exactly as the server fills them in).
    pub fn to_query(&self) -> fairhms_service::Query {
        let mut q = fairhms_service::Query::new(self.dataset.clone(), self.k);
        q.alg = "bigreedy".to_string();
        q.alpha = self.alpha;
        q.seed = self.seed;
        q
    }
}

/// What one write does.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Append a row; `dominating` rows are built to change the skyline.
    Append {
        row: Vec<f64>,
        group: usize,
        dominating: bool,
    },
    /// Delete a row by its current id.
    Delete { row: usize },
}

/// One catalog mutation of a named dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Mutation {
    pub dataset: String,
    pub op: Op,
}

impl Mutation {
    /// The request line, newline included.
    pub fn wire(&self) -> String {
        let name = &self.dataset;
        match &self.op {
            Op::Append { row, group, .. } => {
                let coords: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                format!(
                    "APPEND name={name} row={} group={group}\n",
                    coords.join(",")
                )
            }
            Op::Delete { row } => format!("DELETE name={name} row={row}\n"),
        }
    }

    pub fn kind(&self) -> &'static str {
        match self.op {
            Op::Append {
                dominating: false, ..
            } => "append_dominated",
            Op::Append {
                dominating: true, ..
            } => "append_dominating",
            Op::Delete { .. } => "delete",
        }
    }
}

/// `"N (a kind1, b kind2, …)"`: the mix of a write stream, for the record.
pub fn describe(writes: &[Mutation]) -> String {
    let mut counts = std::collections::BTreeMap::new();
    for w in writes {
        *counts.entry(w.kind()).or_insert(0usize) += 1;
    }
    let parts: Vec<String> = counts.iter().map(|(k, n)| format!("{n} {k}")).collect();
    format!("{} ({})", writes.len(), parts.join(", "))
}

/// A stream of `count` writes:
/// * about one in forty appends to `sky_table` a row that dominates the
///   largest-sum row of a random group, and the rows appended to that group
///   before it: each coordinate moves a further 3% of its way towards
///   0.999. So every one of them changes that group's skyline, while
///   knocking out only the few rows next to it, and the skyline keeps its
///   size (they are evenly spaced, so every run has the same number);
/// * the rest append to `table` a dominated row (every coordinate in
///   `[0.02, 0.12)`, far below the data) or delete its highest row id when
///   that row is one of these dominated appends — so neither deletes nor
///   dominated appends move a skyline row.
///
/// Coordinates are in the server's units (each column divided by its
/// maximum) and never exceed 1, so no write forces a re-normalization.
pub fn write_stream(
    rng: &mut Rng,
    table: &Table,
    sky_table: &Table,
    count: usize,
) -> Vec<Mutation> {
    let dominating_every = 40.min(count.max(1));
    let col_max = sky_table.col_max();
    let groups_of = |t: &Table| 1 + t.groups.iter().copied().max().unwrap_or(0);
    let sky_groups = groups_of(sky_table);
    let norm = |i: usize| -> Vec<f64> {
        sky_table
            .point(i)
            .iter()
            .zip(&col_max)
            .map(|(v, m)| v / m)
            .collect()
    };
    let sum = |i: usize| -> f64 { norm(i).iter().sum() };
    // The largest-sum row of each group is on that group's skyline.
    let mut top: Vec<Option<usize>> = vec![None; sky_groups];
    for i in 0..sky_table.len() {
        let g = sky_table.groups[i];
        if top[g].is_none_or(|t| sum(i) > sum(t)) {
            top[g] = Some(i);
        }
    }
    let same = table.name == sky_table.name;
    let groups = groups_of(table);
    let at = |t: &Table, op: Op| Mutation {
        dataset: t.name.clone(),
        op,
    };
    let mut raised = vec![0usize; sky_groups];
    let mut rows = table.len();
    // Ids of appended dominated rows, in append order.
    let mut dominated_ids: Vec<usize> = Vec::new();
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        if i % dominating_every == dominating_every / 2 {
            let g = rng.below(sky_groups);
            raised[g] += 1;
            let shrink = 0.97f64.powi(raised[g] as i32);
            let base = norm(top[g].expect("every group has rows"));
            let row = base
                .iter()
                .map(|&v| {
                    if v >= 0.999 {
                        v
                    } else {
                        0.999 - (0.999 - v) * shrink
                    }
                })
                .collect();
            out.push(at(
                sky_table,
                Op::Append {
                    row,
                    group: g,
                    dominating: true,
                },
            ));
            rows += usize::from(same);
        } else if rng.f64() < 0.45 && dominated_ids.last() == Some(&(rows - 1)) {
            dominated_ids.pop();
            rows -= 1;
            out.push(at(table, Op::Delete { row: rows }));
        } else {
            let row = (0..table.dim).map(|_| rng.range(0.02, 0.12)).collect();
            out.push(at(
                table,
                Op::Append {
                    row,
                    group: rng.below(groups),
                    dominating: false,
                },
            ));
            dominated_ids.push(rows);
            rows += 1;
        }
    }
    out
}

/// `n` arrival times (ns) of a Poisson process conditioned on `n` arrivals
/// in `[0, seconds)`: sorted uniform points. Fixing the count keeps the
/// sample sizes of every percentile the same in every run.
pub fn poisson_arrivals(rng: &mut Rng, n: usize, seconds: f64) -> Vec<u64> {
    let mut t: Vec<u64> = (0..n).map(|_| (rng.f64() * seconds * 1e9) as u64).collect();
    t.sort_unstable();
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = anticorrelated(&mut Rng::new(7), "a", 500, 4, 3);
        let b = anticorrelated(&mut Rng::new(7), "a", 500, 4, 3);
        assert_eq!(a, b);
        assert_eq!(a.to_csv(), b.to_csv());
        let c = anticorrelated(&mut Rng::new(8), "a", 500, 4, 3);
        assert_ne!(a.points, c.points);
        let w1 = write_stream(&mut Rng::new(3), &a, &a, 100);
        let w2 = write_stream(&mut Rng::new(3), &a, &a, 100);
        assert_eq!(w1, w2);
        assert_eq!(
            poisson_arrivals(&mut Rng::new(1), 50, 2.0),
            poisson_arrivals(&mut Rng::new(1), 50, 2.0)
        );
    }

    #[test]
    fn tables_are_in_range_and_grouped() {
        let t = anticorrelated(&mut Rng::new(1), "t", 900, 4, 3);
        assert_eq!(t.len(), 900);
        assert!(t.points.iter().all(|v| (0.0..=1.0).contains(v)));
        for g in 0..3 {
            assert_eq!(t.groups.iter().filter(|&&x| x == g).count(), 300);
        }
        let u = independent(&mut Rng::new(1), "u", 100, 3, 2);
        assert_eq!(u.points.len(), 300);
    }

    #[test]
    fn csv_round_trips_exact_bits() {
        let t = independent(&mut Rng::new(2), "u", 20, 3, 2);
        let parsed: Vec<f64> = t
            .to_csv()
            .lines()
            .flat_map(|l| {
                let f: Vec<&str> = l.split(',').collect();
                f[..3]
                    .iter()
                    .map(|s| s.parse::<f64>().unwrap())
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(parsed, t.points);
    }

    #[test]
    fn write_stream_deletes_only_dominated_appends() {
        let t = anticorrelated(&mut Rng::new(4), "t", 400, 4, 3);
        let ws = write_stream(&mut Rng::new(9), &t, &t, 200);
        let mut rows = t.len();
        let mut appended: Vec<bool> = Vec::new(); // dominating flag per appended row
        for w in &ws {
            match &w.op {
                Op::Append { dominating, .. } => {
                    appended.push(*dominating);
                    rows += 1;
                }
                Op::Delete { row } => {
                    assert_eq!(*row, rows - 1, "deletes remove the highest id");
                    assert_eq!(appended.pop(), Some(false), "only dominated appends go");
                    rows -= 1;
                }
            }
        }
        let dominating = ws
            .iter()
            .filter(|w| w.kind() == "append_dominating")
            .count();
        assert_eq!(dominating, 5);
        assert!(ws.iter().any(|w| w.kind() == "delete"));
    }

    #[test]
    fn only_dominating_appends_move_the_skyline() {
        use fairhms_service::{Catalog, CatalogConfig};
        let main = anticorrelated(&mut Rng::new(6), "main", 600, 4, 3);
        let aux = anticorrelated(&mut Rng::new(7), "aux", 200, 4, 3);
        let same = write_stream(&mut Rng::new(2), &main, &main, 160);
        let split = write_stream(&mut Rng::new(2), &main, &aux, 160);
        assert!(split
            .iter()
            .all(|w| (w.dataset == "aux") == (w.kind() == "append_dominating")));
        for stream in [same, split] {
            let catalog = Catalog::with_config(CatalogConfig::default());
            for t in [&main, &aux] {
                let (p, g) = (t.points.clone(), t.groups.clone());
                let data = fairhms_data::Dataset::new(&t.name, 4, p, g, vec![]).unwrap();
                catalog.insert_named(t.name.clone(), data).unwrap();
            }
            for w in &stream {
                let out = match &w.op {
                    Op::Append { row, group, .. } => catalog.append_row(&w.dataset, row, *group),
                    Op::Delete { row } => catalog.delete_row(&w.dataset, *row),
                }
                .unwrap();
                assert_eq!(out.sky_changed, w.kind() == "append_dominating", "{w:?}");
                assert!(!out.rebuilt, "{w:?} forced a re-normalization");
            }
        }
    }
}
