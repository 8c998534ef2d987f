//! Incidence matrices and non-negative T- and P-invariant bases.
//!
//! A T-invariant is a non-negative integer vector `x` with `C·x = 0`, where
//! `C` is the incidence matrix. Firing any sequence containing each
//! transition `t_j` exactly `x_j` times from a marking `M` (if fireable)
//! leads back to `M`. The scheduler uses a non-negative basis of
//! T-invariants both as a quick non-schedulability test (no basis ⇒ no
//! schedule) and to sort ECSs during the search (Sec. 5.5.2 of the paper).
//!
//! A P-invariant (place semiflow) is the dual: a non-negative vector `y`
//! with `yᵀ·C = 0`, so the weighted token count `y·M` is conserved by
//! every firing. Covering P-invariants prove structural place bounds
//! (`M[p] ≤ (y·M0)/y[p]`), which the structural analyzer
//! ([`crate::structural`]) turns into diagnostics and termination bounds.
//!
//! Both bases are computed with the classical Farkas / Fourier–Motzkin
//! elimination — on `[Cᵀ | I]` for T-invariants and on `[C | I]` for
//! P-invariants — producing the minimal-support semiflows of the net.

use crate::ids::{PlaceId, TransitionId};
use crate::net::PetriNet;
use serde::{Deserialize, Serialize};

/// Dense incidence matrix `C` with `C[p][t] = F(t, p) − F(p, t)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IncidenceMatrix {
    rows: Vec<Vec<i64>>,
    num_places: usize,
    num_transitions: usize,
}

impl IncidenceMatrix {
    /// Number of places (rows).
    pub fn num_places(&self) -> usize {
        self.num_places
    }

    /// Number of transitions (columns).
    pub fn num_transitions(&self) -> usize {
        self.num_transitions
    }

    /// Entry `C[p][t]`.
    pub fn entry(&self, p: PlaceId, t: TransitionId) -> i64 {
        self.rows[p.index()][t.index()]
    }

    /// Row of the matrix for place `p`.
    pub fn row(&self, p: PlaceId) -> &[i64] {
        &self.rows[p.index()]
    }

    /// Computes `C·x` for a transition-indexed vector `x`.
    ///
    /// # Panics
    /// Panics if `x.len()` differs from the number of transitions.
    pub fn apply(&self, x: &[i64]) -> Vec<i64> {
        assert_eq!(x.len(), self.num_transitions);
        self.rows
            .iter()
            .map(|row| row.iter().zip(x).map(|(c, v)| c * v).sum())
            .collect()
    }
}

/// Builds the incidence matrix of `net`.
pub fn incidence_matrix(net: &PetriNet) -> IncidenceMatrix {
    let np = net.num_places();
    let nt = net.num_transitions();
    let mut rows = vec![vec![0i64; nt]; np];
    for t in net.transition_ids() {
        for (p, w) in net.preset(t) {
            rows[p.index()][t.index()] -= *w as i64;
        }
        for (p, w) in net.postset(t) {
            rows[p.index()][t.index()] += *w as i64;
        }
    }
    IncidenceMatrix {
        rows,
        num_places: np,
        num_transitions: nt,
    }
}

/// A non-negative T-invariant: firing counts per transition.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TInvariant {
    counts: Vec<u64>,
}

impl TInvariant {
    /// Creates an invariant from explicit firing counts.
    pub fn from_counts(counts: Vec<u64>) -> Self {
        TInvariant { counts }
    }

    /// Number of firings of transition `t` in this invariant.
    pub fn count(&self, t: TransitionId) -> u64 {
        self.counts[t.index()]
    }

    /// Raw counts, indexed by transition.
    pub fn as_slice(&self) -> &[u64] {
        &self.counts
    }

    /// Transitions with a non-zero firing count (the *support*).
    pub fn support(&self) -> Vec<TransitionId> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, _)| TransitionId::new(i))
            .collect()
    }

    /// Returns `true` if transition `t` appears in the invariant.
    pub fn contains(&self, t: TransitionId) -> bool {
        self.counts[t.index()] > 0
    }

    /// Returns `true` if the invariant is identically zero.
    pub fn is_zero(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Component-wise sum of two invariants.
    ///
    /// # Panics
    /// Panics if the invariants have different lengths.
    pub fn sum(&self, other: &TInvariant) -> TInvariant {
        assert_eq!(self.counts.len(), other.counts.len());
        TInvariant {
            counts: self
                .counts
                .iter()
                .zip(&other.counts)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// Verifies `C·x = 0` against a net, in `O(arcs)` over the presets
    /// and postsets of the support.
    ///
    /// # Panics
    /// Panics if the invariant's length differs from the number of
    /// transitions.
    pub fn is_valid_for(&self, net: &PetriNet) -> bool {
        assert_eq!(self.counts.len(), net.num_transitions());
        let support = self.support();
        let lines = transition_lines(net, &support);
        let terms = lines
            .iter()
            .zip(&support)
            .map(|(line, t)| (line.as_slice(), self.count(*t)));
        annuls(terms, &mut vec![0; net.num_places()])
    }
}

/// A non-negative P-invariant (place semiflow): weights per place with
/// `yᵀ·C = 0`.
///
/// For every reachable marking `M`, the weighted token count
/// `Σ_p y[p]·M[p]` equals the one of the initial marking, so every place
/// in the invariant's support is structurally bounded by
/// `(y·M0) / y[p]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PInvariant {
    weights: Vec<u64>,
}

impl PInvariant {
    /// Creates an invariant from explicit place weights.
    pub fn from_weights(weights: Vec<u64>) -> Self {
        PInvariant { weights }
    }

    /// Weight of place `p` in this invariant.
    pub fn weight(&self, p: PlaceId) -> u64 {
        self.weights[p.index()]
    }

    /// Raw weights, indexed by place.
    pub fn as_slice(&self) -> &[u64] {
        &self.weights
    }

    /// Places with a non-zero weight (the *support*).
    pub fn support(&self) -> Vec<PlaceId> {
        self.weights
            .iter()
            .enumerate()
            .filter(|(_, &w)| w > 0)
            .map(|(i, _)| PlaceId::new(i))
            .collect()
    }

    /// Returns `true` if place `p` appears in the invariant.
    pub fn contains(&self, p: PlaceId) -> bool {
        self.weights[p.index()] > 0
    }

    /// Returns `true` if the invariant is identically zero.
    pub fn is_zero(&self) -> bool {
        self.weights.iter().all(|&w| w == 0)
    }

    /// The conserved quantity `Σ_p y[p]·m[p]` for a marking given as raw
    /// token counts.
    ///
    /// # Panics
    /// Panics if `marking.len()` differs from the number of places.
    pub fn weighted_tokens(&self, marking: &[u32]) -> u64 {
        assert_eq!(marking.len(), self.weights.len());
        self.weights
            .iter()
            .zip(marking)
            .map(|(&w, &m)| w * m as u64)
            .sum()
    }

    /// Verifies `yᵀ·C = 0` against a net, in `O(arcs)`.
    pub fn is_valid_for(&self, net: &PetriNet) -> bool {
        let all: Vec<TransitionId> = net.transition_ids().collect();
        let lines = place_lines(&transition_lines(net, &all), net.num_places());
        let terms = lines
            .iter()
            .zip(&self.weights[..net.num_places()])
            .filter(|(_, &w)| w > 0)
            .map(|(line, &w)| (line.as_slice(), w));
        annuls(terms, &mut vec![0; net.num_transitions()])
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// A sparse vector as sorted `(column, value)` pairs with zero values
/// elided: a line of the incidence matrix, or a working row of the
/// Farkas elimination.
///
/// FlowC-derived nets have incidence columns with 2–4 non-zeros, so a
/// sparse row is an order of magnitude smaller than its dense `np + nt`
/// counterpart — and every elimination step (lookup, combine, dedup)
/// scales with the non-zero count instead of the net size.
pub(crate) type SparseRow = Vec<(u32, i64)>;

/// Column `j` of the incidence matrix restricted to `columns`: the
/// `(place, post − pre)` entries of transition `columns[j]`, built from
/// its preset and postset.
fn transition_lines(net: &PetriNet, columns: &[TransitionId]) -> Vec<SparseRow> {
    columns
        .iter()
        .map(|&t| {
            let mut line: SparseRow = net
                .preset(t)
                .iter()
                .map(|&(p, w)| (p.index() as u32, -(w as i64)))
                .chain(
                    net.postset(t)
                        .iter()
                        .map(|&(p, w)| (p.index() as u32, w as i64)),
                )
                .collect();
            line.sort_unstable_by_key(|&(p, _)| p);
            line.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    kept.1 += later.1;
                }
                same
            });
            line.retain(|&(_, v)| v != 0);
            line
        })
        .collect()
}

/// The same restricted matrix by rows: for every place, its
/// `(j, post − pre)` entries over the transitions of `transition_lines`.
fn place_lines(transition_lines: &[SparseRow], np: usize) -> Vec<SparseRow> {
    let mut lines = vec![SparseRow::new(); np];
    for (j, line) in transition_lines.iter().enumerate() {
        for &(p, v) in line {
            lines[p as usize].push((j as u32, v));
        }
    }
    lines
}

/// Whether `Σ x·line` over `terms` is the zero vector: the semiflow
/// equation checked over a vector's support only, in `O(entries)`.
/// `residual` is scratch that is all zeros on entry and on return. The
/// sums wrap, like the dense matrix product of a release build.
fn annuls<'a>(
    terms: impl Iterator<Item = (&'a [(u32, i64)], u64)> + Clone,
    residual: &mut [i64],
) -> bool {
    for (line, x) in terms.clone() {
        for &(c, v) in line {
            let slot = &mut residual[c as usize];
            *slot = slot.wrapping_add((x as i64).wrapping_mul(v));
        }
    }
    let mut zero = true;
    for (line, _) in terms {
        for &(c, _) in line {
            zero &= residual[c as usize] == 0;
            residual[c as usize] = 0;
        }
    }
    zero
}

/// `line` followed by a unit entry in column `col` (past every column of
/// `line`): the initial elimination row of one unknown.
fn unit_row(line: &[(u32, i64)], col: usize) -> SparseRow {
    let mut row = Vec::with_capacity(line.len() + 1);
    row.extend_from_slice(line);
    row.push((col as u32, 1));
    row
}

/// The value of `row` in column `col` (0 if elided).
fn value_at(row: &[(u32, i64)], col: u32) -> i64 {
    match row.binary_search_by_key(&col, |&(c, _)| c) {
        Ok(i) => row[i].1,
        Err(_) => 0,
    }
}

/// Writes `fa·a + fb·b` into `out`, merged in one pass over both sorted
/// entry lists; resulting zeros are elided.
fn combine_into(a: &[(u32, i64)], fa: i64, b: &[(u32, i64)], fb: i64, out: &mut SparseRow) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let (col, v) = match (a.get(i), b.get(j)) {
            (Some(&(ca, va)), Some(&(cb, vb))) => {
                if ca < cb {
                    i += 1;
                    (ca, fa * va)
                } else if cb < ca {
                    j += 1;
                    (cb, fb * vb)
                } else {
                    i += 1;
                    j += 1;
                    (ca, fa * va + fb * vb)
                }
            }
            (Some(&(ca, va)), None) => {
                i += 1;
                (ca, fa * va)
            }
            (None, Some(&(cb, vb))) => {
                j += 1;
                (cb, fb * vb)
            }
            (None, None) => unreachable!(),
        };
        if v != 0 {
            out.push((col, v));
        }
    }
}

/// Divides every value by the gcd of their absolute values.
fn normalize(row: &mut [(u32, i64)]) {
    let g = row.iter().map(|&(_, v)| v.unsigned_abs()).fold(0u64, gcd);
    if g > 1 {
        for (_, v) in row.iter_mut() {
            *v /= g as i64;
        }
    }
}

/// An order-dependent 64-bit fingerprint of the entries. Used to bucket
/// rows for deduplication; candidates sharing a fingerprint are compared
/// exactly, so a collision can only cost time.
fn fingerprint(row: &[(u32, i64)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(c, v) in row {
        h ^= (c as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        h ^= v as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// End of a fingerprint chain in [`RowSlab`].
const NO_ROW: u32 = u32::MAX;

/// The working rows of one Farkas elimination, in a slab indexed by
/// creation order.
///
/// Creation order is the classical row order: a round keeps its zero
/// rows in order and appends its new combinations, so the live rows,
/// read by ascending id, are exactly the row list of the dense
/// algorithm. The dedup index, the per-column occurrence lists and the
/// per-column sign counts persist across rounds and change only when a
/// row is inserted or removed, so a round costs time in proportion to
/// the rows its pivot touches, not to the row count.
struct RowSlab {
    /// Number of leading columns to eliminate.
    ncols: usize,
    /// Entries by row id; a round empties its pivot rows when it ends.
    rows: Vec<SparseRow>,
    fingerprints: Vec<u64>,
    alive: Vec<bool>,
    /// Next row id in the same fingerprint chain, or [`NO_ROW`].
    chain: Vec<u32>,
    /// Chain head per fingerprint, over the live indexed rows.
    heads: crate::fx::FxHashMap<u64, u32>,
    /// Per column to eliminate: the ids of the rows created with a
    /// non-zero there, removed ones included (filtered on read).
    occurrences: Vec<Vec<u32>>,
    /// Live rows with a positive / negative entry, per column to eliminate.
    pos: Vec<usize>,
    neg: Vec<usize>,
    live: usize,
}

impl RowSlab {
    fn new(ncols: usize) -> Self {
        RowSlab {
            ncols,
            rows: Vec::new(),
            fingerprints: Vec::new(),
            alive: Vec::new(),
            chain: Vec::new(),
            heads: Default::default(),
            occurrences: vec![Vec::new(); ncols],
            pos: vec![0; ncols],
            neg: vec![0; ncols],
            live: 0,
        }
    }

    /// Whether a live indexed row equals `row` (with fingerprint `fp`).
    fn contains(&self, row: &[(u32, i64)], fp: u64) -> bool {
        let mut id = self.heads.get(&fp).copied().unwrap_or(NO_ROW);
        while id != NO_ROW {
            if self.rows[id as usize] == row {
                return true;
            }
            id = self.chain[id as usize];
        }
        false
    }

    /// Adds `row` as a live row; `indexed` also enters it into the dedup
    /// index.
    fn push(&mut self, row: SparseRow, fp: u64, indexed: bool) {
        let id = self.rows.len() as u32;
        self.chain.push(if indexed {
            self.heads.insert(fp, id).unwrap_or(NO_ROW)
        } else {
            NO_ROW
        });
        self.rows.push(row);
        self.fingerprints.push(fp);
        self.alive.push(true);
        self.live += 1;
        self.count(id, true);
    }

    /// Takes live row `id` out of the sign counts and, if `indexed`, out
    /// of the dedup index. Its entries stay readable.
    fn remove(&mut self, id: u32, indexed: bool) {
        let i = id as usize;
        if indexed {
            let fp = self.fingerprints[i];
            let head = self.heads[&fp];
            if head == id {
                match self.chain[i] {
                    NO_ROW => self.heads.remove(&fp),
                    next => self.heads.insert(fp, next),
                };
            } else {
                let mut prev = head as usize;
                while self.chain[prev] != id {
                    prev = self.chain[prev] as usize;
                }
                self.chain[prev] = self.chain[i];
            }
        }
        self.count(id, false);
        self.alive[i] = false;
        self.live -= 1;
    }

    /// Adds (`insert`) or retracts the entries of row `id` in the columns
    /// to eliminate to the sign counts; an insert also records the row's
    /// occurrences.
    fn count(&mut self, id: u32, insert: bool) {
        let row = &self.rows[id as usize];
        for &(c, v) in row.iter().take_while(|&&(c, _)| (c as usize) < self.ncols) {
            let c = c as usize;
            let slot = if v > 0 {
                &mut self.pos[c]
            } else {
                &mut self.neg[c]
            };
            if insert {
                *slot += 1;
                self.occurrences[c].push(id);
            } else {
                *slot -= 1;
            }
        }
    }

    /// The live rows in row order.
    fn into_live_rows(self) -> Vec<SparseRow> {
        self.rows
            .into_iter()
            .zip(self.alive)
            .filter_map(|(row, alive)| alive.then_some(row))
            .collect()
    }
}

/// The rows surviving one Farkas elimination run, plus whether the run
/// eliminated every column or bailed at the row cap.
pub(crate) struct Elimination {
    pub(crate) rows: Vec<SparseRow>,
    /// `false` when the run hit `row_cap` and returned the partial row set
    /// of the round in progress. The surviving finished rows still yield
    /// valid invariants, but the set is no longer exhaustive — callers
    /// proving *negative* facts (no invariant covers place `p`) must treat
    /// an incomplete run as "unknown".
    pub(crate) complete: bool,
}

/// Eliminates columns `0..ncols` from `rows`, one column at a time, always
/// picking the column that produces the fewest new combinations (a
/// standard heuristic that keeps the intermediate row count small; ties
/// go to the first such column of `remaining`). Each round keeps the rows
/// that are zero in the pivot column and appends the deduplicated
/// combinations of every (positive, negative) pair of the others. The
/// number of rows is capped at `row_cap`, checked after every
/// combination.
///
/// Pivots, row order and bail-out point are those of the dense oracle
/// ([`t_invariant_basis_dense`]), but a round touches only the rows with a
/// non-zero in its pivot column (see [`RowSlab`]).
pub(crate) fn eliminate(rows: Vec<SparseRow>, ncols: usize, row_cap: usize) -> Elimination {
    if ncols == 0 {
        return Elimination {
            rows,
            complete: true,
        };
    }
    let mut slab = RowSlab::new(ncols);
    // Repeated input rows count towards the first pivot choice, then the
    // first round drops them, as the dense algorithm's dedup does. (Their
    // combinations would only repeat those of their first copy.)
    let mut repeats = Vec::new();
    for row in rows {
        let fp = fingerprint(&row);
        let first = !slab.contains(&row, fp);
        if !first {
            repeats.push(slab.rows.len() as u32);
        }
        slab.push(row, fp, first);
    }

    let mut remaining: Vec<usize> = (0..ncols).collect();
    let mut combined = SparseRow::new();
    while !remaining.is_empty() {
        let (best_idx, _) = remaining
            .iter()
            .enumerate()
            .map(|(i, &p)| (i, slab.pos[p] * slab.neg[p] + slab.pos[p] + slab.neg[p]))
            .min_by_key(|(_, cost)| *cost)
            .expect("remaining is non-empty");
        let p = remaining.swap_remove(best_idx);
        for id in repeats.drain(..) {
            slab.remove(id, false);
        }

        let pivots: Vec<u32> = std::mem::take(&mut slab.occurrences[p])
            .into_iter()
            .filter(|&id| slab.alive[id as usize])
            .collect();
        let (mut positives, mut negatives) = (Vec::new(), Vec::new());
        for &id in &pivots {
            slab.remove(id, true);
            match value_at(&slab.rows[id as usize], p as u32) {
                v if v > 0 => positives.push((id as usize, v)),
                v => negatives.push((id as usize, v)),
            }
        }
        for &(rp, a) in &positives {
            for &(rn, nb) in &negatives {
                let b = -nb;
                let l = (a / gcd(a as u64, b as u64) as i64) * b;
                combine_into(&slab.rows[rp], l / a, &slab.rows[rn], l / b, &mut combined);
                normalize(&mut combined);
                let fp = fingerprint(&combined);
                if !slab.contains(&combined, fp) {
                    slab.push(combined.clone(), fp, true);
                }
                if slab.live > row_cap {
                    // Bail out conservatively: the finished rows of the
                    // partial set are still valid invariants.
                    return Elimination {
                        rows: slab.into_live_rows(),
                        complete: false,
                    };
                }
            }
        }
        for &id in &pivots {
            slab.rows[id as usize] = SparseRow::new();
        }
    }
    Elimination {
        rows: slab.into_live_rows(),
        complete: true,
    }
}

/// Admits the rows an elimination left as semiflows. A row qualifies when
/// its residual columns `0..nres` all vanished and its other entries —
/// column `nres + j` weighting `lines[j]` — are positive. Each one is
/// checked against `lines` (`Σ_j x_j·lines[j] = 0`, over its support
/// only), duplicates are dropped, and the result is filtered to minimal
/// support. Returns dense vectors, one entry per line.
fn collect_semiflows(rows: &[SparseRow], nres: usize, lines: &[SparseRow]) -> Vec<Vec<u64>> {
    let mut residual = vec![0i64; nres];
    let mut seen: crate::fx::FxHashSet<&[(u32, i64)]> = Default::default();
    let mut found = Vec::new();
    for row in rows {
        // The residual columns sort first: the first entry tells whether
        // any is left (an empty row is no semiflow either).
        let finished = row.first().is_some_and(|&(c, _)| c as usize >= nres);
        if !finished || row.iter().any(|&(_, v)| v < 0) {
            continue;
        }
        let terms = row
            .iter()
            .map(|&(c, v)| (lines[c as usize - nres].as_slice(), v as u64));
        if annuls(terms, &mut residual) && seen.insert(row) {
            let mut x = vec![0u64; lines.len()];
            for &(c, v) in row {
                x[c as usize - nres] = v as u64;
            }
            found.push(x);
        }
    }
    minimal_support(found)
}

/// Keeps the vectors no other vector's strictly smaller support is
/// contained in — a minimal-support basis, in input order.
fn minimal_support(vectors: Vec<Vec<u64>>) -> Vec<Vec<u64>> {
    let supports: Vec<Vec<u32>> = vectors
        .iter()
        .map(|x| (0..x.len() as u32).filter(|&i| x[i as usize] > 0).collect())
        .collect();
    // Sorted supports: `small ⊆ big` in one forward pass over `big`.
    let within = |small: &[u32], big: &[u32]| {
        let mut rest = big.iter();
        small.iter().all(|s| rest.any(|b| b == s))
    };
    vectors
        .into_iter()
        .zip(&supports)
        .filter(|(_, sup)| {
            !supports
                .iter()
                .any(|other| other.len() < sup.len() && within(other, sup))
        })
        .map(|(x, _)| x)
        .collect()
}

/// Computes a non-negative basis of T-invariants (minimal-support
/// semiflows) of `net` using Farkas elimination over sparse rows.
///
/// The result may be empty, which the scheduler interprets as "no cyclic
/// schedule can exist". The number of intermediate rows is capped at
/// `row_cap` to guard against the (exponential) worst case; nets produced
/// from FlowC specifications stay far below the cap.
///
/// The elimination pivots, combination order and dedup-by-content are
/// identical to the retained dense implementation
/// ([`t_invariant_basis_dense`]), so both produce the same basis in the
/// same order; the property suite asserts this on random nets.
pub fn t_invariant_basis(net: &PetriNet, row_cap: usize) -> Vec<TInvariant> {
    let np = net.num_places();
    let all: Vec<TransitionId> = net.transition_ids().collect();
    let lines = transition_lines(net, &all);
    // One row per transition: the incidence column plus a unit
    // firing-count entry.
    let rows = lines
        .iter()
        .enumerate()
        .map(|(t, line)| unit_row(line, np + t))
        .collect();
    let elim = eliminate(rows, np, row_cap);
    collect_semiflows(&elim.rows, np, &lines)
        .into_iter()
        .map(TInvariant::from_counts)
        .collect()
}

/// Computes a non-negative basis of P-invariants (minimal-support place
/// semiflows) of `net` — the Farkas dual of [`t_invariant_basis`], run on
/// the transposed incidence matrix `[C | I]` with the same sparse rows,
/// pivot heuristic and `row_cap` bail-out discipline.
///
/// Every returned invariant satisfies `yᵀ·C = 0` (verified before it is
/// admitted); the result may be empty, e.g. for nets whose sources pump
/// tokens into every conservative component.
pub fn p_invariant_basis(net: &PetriNet, row_cap: usize) -> Vec<PInvariant> {
    p_invariant_elimination(net, row_cap).0
}

/// [`p_invariant_basis`] plus the completeness of the underlying
/// elimination: `true` means the returned basis contains *every*
/// minimal-support semiflow, so "no invariant covers `p`" is a proof.
pub fn p_invariant_elimination(net: &PetriNet, row_cap: usize) -> (Vec<PInvariant>, bool) {
    let (np, nt) = (net.num_places(), net.num_transitions());
    let all: Vec<TransitionId> = net.transition_ids().collect();
    let lines = place_lines(&transition_lines(net, &all), np);
    // One row per place: the incidence row plus a unit weight entry.
    // Transition columns come first so the elimination removes exactly
    // them.
    let rows = lines
        .iter()
        .enumerate()
        .map(|(p, line)| unit_row(line, nt + p))
        .collect();
    let elim = eliminate(rows, nt, row_cap);
    let basis = collect_semiflows(&elim.rows, nt, &lines)
        .into_iter()
        .map(PInvariant::from_weights)
        .collect();
    (basis, elim.complete)
}

/// Computes generators of the cone `{ y ≥ 0 : yᵀ·C' ≤ 0 }`, where `C'` is
/// the incidence matrix restricted to the transition `columns` — the
/// *sur-invariants* of the restricted net. A place covered by a generator
/// can never gain tokens through those transitions beyond `(y·M0)/y[p]`;
/// when the returned flag is `true` the generator set is exhaustive, so a
/// place covered by *no* generator is provably structurally unbounded
/// under the restricted transitions (Memmi–Roucairol).
///
/// Implemented as a semiflow computation with one slack unknown per
/// column: `yᵀC' + s = 0, (y, s) ≥ 0`.
pub(crate) fn surinvariant_cover(
    net: &PetriNet,
    columns: &[TransitionId],
    row_cap: usize,
) -> (Vec<Vec<u64>>, bool) {
    let np = net.num_places();
    let nc = columns.len();
    let lines = place_lines(&transition_lines(net, columns), np);
    // Rows for the place unknowns y_p …
    let mut rows: Vec<SparseRow> = lines
        .iter()
        .enumerate()
        .map(|(p, line)| unit_row(line, nc + p))
        .collect();
    // … and for the slack unknowns s_j (one per eliminated column).
    rows.extend((0..nc).map(|j| vec![(j as u32, 1), ((nc + np + j) as u32, 1)]));

    let elim = eliminate(rows, nc, row_cap);
    let mut result: Vec<Vec<u64>> = Vec::new();
    let mut seen: crate::fx::FxHashSet<&[(u32, i64)]> = Default::default();
    for row in &elim.rows {
        if row.iter().any(|&(c, v)| (c as usize) < nc || v < 0) {
            continue;
        }
        // The place part: every entry before the slack columns.
        let places = &row[..row.partition_point(|&(c, _)| (c as usize) < nc + np)];
        if places.is_empty() {
            continue;
        }
        let mut weights = vec![0u64; np];
        for &(c, v) in places {
            weights[c as usize - nc] = v as u64;
        }
        // Soundness check mirroring `is_valid_for`: yᵀ·C' ≤ 0 per column.
        let sound = columns.iter().all(|&t| {
            let mut sum = 0i64;
            for (p, w) in net.preset(t) {
                sum -= weights[p.index()] as i64 * *w as i64;
            }
            for (p, w) in net.postset(t) {
                sum += weights[p.index()] as i64 * *w as i64;
            }
            sum <= 0
        });
        if sound && seen.insert(places) {
            result.push(weights);
        }
    }
    (result, elim.complete)
}

/// The original dense-row Farkas elimination, retained as the
/// differential-testing oracle for [`t_invariant_basis`] (and as the
/// baseline the benchmark suite measures the sparse rework against). Do
/// not use it in production paths.
pub fn t_invariant_basis_dense(net: &PetriNet, row_cap: usize) -> Vec<TInvariant> {
    let np = net.num_places();
    let nt = net.num_transitions();
    let c = incidence_matrix(net);

    // Each working row is [a | b]: a has one entry per place (the residual
    // C·x restricted to that combination), b has one entry per transition
    // (the firing counts accumulated so far).
    let mut rows: Vec<Vec<i64>> = Vec::with_capacity(nt);
    for t in 0..nt {
        let mut row = vec![0i64; np + nt];
        for (p, slot) in row.iter_mut().enumerate().take(np) {
            *slot = c.rows[p][t];
        }
        row[np + t] = 1;
        rows.push(row);
    }

    let rows = eliminate_dense(rows, np, row_cap);
    let valid = |x: &[u64]| {
        let x: Vec<i64> = x.iter().map(|&v| v as i64).collect();
        c.apply(&x).iter().all(|&v| v == 0)
    };
    collect_dense(&rows, np, valid)
        .into_iter()
        .map(TInvariant::from_counts)
        .collect()
}

/// Dense-row Farkas elimination for the P-invariant basis, the
/// differential-testing oracle for [`p_invariant_basis`] (and the baseline
/// the benchmark suite measures the sparse dual against). Do not use it in
/// production paths.
pub fn p_invariant_basis_dense(net: &PetriNet, row_cap: usize) -> Vec<PInvariant> {
    let np = net.num_places();
    let nt = net.num_transitions();
    let c = incidence_matrix(net);

    // Each working row is [a | b]: a has one entry per transition (the
    // residual yᵀ·C restricted to that combination), b one entry per place
    // (the weights accumulated so far).
    let mut rows: Vec<Vec<i64>> = Vec::with_capacity(np);
    for p in 0..np {
        let mut row = vec![0i64; nt + np];
        row[..nt].copy_from_slice(&c.rows[p]);
        row[nt + p] = 1;
        rows.push(row);
    }

    let rows = eliminate_dense(rows, nt, row_cap);
    let valid =
        |y: &[u64]| (0..nt).all(|t| (0..np).map(|p| y[p] as i64 * c.rows[p][t]).sum::<i64>() == 0);
    collect_dense(&rows, nt, valid)
        .into_iter()
        .map(PInvariant::from_weights)
        .collect()
}

/// The dense Farkas elimination of columns `0..ncols` behind both
/// oracles: every round scans every row for the pivot choice and
/// rebuilds the row list with a content-hashed dedup set.
fn eliminate_dense(mut rows: Vec<Vec<i64>>, ncols: usize, row_cap: usize) -> Vec<Vec<i64>> {
    let mut remaining: Vec<usize> = (0..ncols).collect();
    while !remaining.is_empty() {
        let (best_idx, _) = remaining
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let pos = rows.iter().filter(|r| r[p] > 0).count();
                let neg = rows.iter().filter(|r| r[p] < 0).count();
                (i, pos * neg + pos + neg)
            })
            .min_by_key(|(_, cost)| *cost)
            .expect("remaining is non-empty");
        let p = remaining.swap_remove(best_idx);

        let mut seen: std::collections::HashSet<Vec<i64>> = std::collections::HashSet::new();
        let mut next: Vec<Vec<i64>> = Vec::new();
        let (zeros, nonzeros): (Vec<_>, Vec<_>) = rows.into_iter().partition(|r| r[p] == 0);
        for row in zeros {
            if seen.insert(row.clone()) {
                next.push(row);
            }
        }
        let positives: Vec<&Vec<i64>> = nonzeros.iter().filter(|r| r[p] > 0).collect();
        let negatives: Vec<&Vec<i64>> = nonzeros.iter().filter(|r| r[p] < 0).collect();
        for rp in &positives {
            for rn in &negatives {
                let a = rp[p];
                let b = -rn[p];
                let l = (a / gcd(a as u64, b as u64) as i64) * b;
                let fa = l / a;
                let fb = l / b;
                let mut combined: Vec<i64> = rp
                    .iter()
                    .zip(rn.iter())
                    .map(|(x, y)| fa * x + fb * y)
                    .collect();
                let g = combined
                    .iter()
                    .map(|v| v.unsigned_abs())
                    .filter(|&v| v != 0)
                    .fold(0u64, gcd);
                if g > 1 {
                    for v in combined.iter_mut() {
                        *v /= g as i64;
                    }
                }
                if seen.insert(combined.clone()) {
                    next.push(combined);
                }
                if next.len() > row_cap {
                    return next;
                }
            }
        }
        rows = next;
    }
    rows
}

/// The dense oracles' collector: rows with a zero residual part
/// (`..nres`) and a non-zero, non-negative rest that passes `valid`,
/// first copies only, filtered to minimal support.
fn collect_dense(rows: &[Vec<i64>], nres: usize, valid: impl Fn(&[u64]) -> bool) -> Vec<Vec<u64>> {
    let mut result: Vec<Vec<u64>> = Vec::new();
    for row in rows {
        let (residual, x) = row.split_at(nres);
        if residual.iter().any(|&v| v != 0) || x.iter().all(|&v| v == 0) || x.iter().any(|&v| v < 0)
        {
            continue;
        }
        let x: Vec<u64> = x.iter().map(|&v| v as u64).collect();
        if valid(&x) && !result.contains(&x) {
            result.push(x);
        }
    }
    minimal_support(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{NetBuilder, TransitionKind};

    fn producer_consumer() -> PetriNet {
        // src -> buf -> cons, cons -> done (a simple pipeline with a cycle
        // through the process place to make a T-invariant possible).
        let mut b = NetBuilder::new("pc");
        let buf = b.place("buf", 0);
        let idle = b.place("idle", 1);
        let src = b.transition("produce", TransitionKind::UncontrollableSource);
        let cons = b.transition("consume", TransitionKind::Internal);
        b.arc_t2p(src, buf, 1);
        b.arc_p2t(buf, cons, 1);
        b.arc_p2t(idle, cons, 1);
        b.arc_t2p(cons, idle, 1);
        b.build().unwrap()
    }

    #[test]
    fn incidence_matrix_entries() {
        let net = producer_consumer();
        let c = incidence_matrix(&net);
        let buf = net.place_by_name("buf").unwrap();
        let src = net.transition_by_name("produce").unwrap();
        let cons = net.transition_by_name("consume").unwrap();
        assert_eq!(c.entry(buf, src), 1);
        assert_eq!(c.entry(buf, cons), -1);
        assert_eq!(c.num_places(), 2);
        assert_eq!(c.num_transitions(), 2);
    }

    #[test]
    fn invariant_basis_of_pipeline() {
        let net = producer_consumer();
        let basis = t_invariant_basis(&net, 10_000);
        assert_eq!(basis.len(), 1);
        let inv = &basis[0];
        assert!(inv.is_valid_for(&net));
        let src = net.transition_by_name("produce").unwrap();
        let cons = net.transition_by_name("consume").unwrap();
        assert_eq!(inv.count(src), 1);
        assert_eq!(inv.count(cons), 1);
        assert_eq!(inv.support(), vec![src, cons]);
    }

    #[test]
    fn weighted_invariant_counts() {
        // a produces 2 tokens, b consumes 3: the minimal invariant fires a
        // three times and b twice.
        let mut bld = NetBuilder::new("weights");
        let p = bld.place("p", 0);
        let a = bld.transition("a", TransitionKind::UncontrollableSource);
        let b = bld.transition("b", TransitionKind::Internal);
        bld.arc_t2p(a, p, 2);
        bld.arc_p2t(p, b, 3);
        let net = bld.build().unwrap();
        let basis = t_invariant_basis(&net, 10_000);
        assert_eq!(basis.len(), 1);
        let a = net.transition_by_name("a").unwrap();
        let b = net.transition_by_name("b").unwrap();
        assert_eq!(basis[0].count(a), 3);
        assert_eq!(basis[0].count(b), 2);
    }

    #[test]
    fn no_invariant_for_pure_accumulator() {
        // A net that only produces tokens has no (non-trivial) T-invariant.
        let mut b = NetBuilder::new("acc");
        let p = b.place("p", 0);
        let src = b.transition("src", TransitionKind::UncontrollableSource);
        b.arc_t2p(src, p, 1);
        let net = b.build().unwrap();
        let basis = t_invariant_basis(&net, 10_000);
        assert!(basis.is_empty());
    }

    #[test]
    fn invariant_helpers() {
        let inv = TInvariant::from_counts(vec![0, 2, 1]);
        assert!(!inv.is_zero());
        assert!(inv.contains(TransitionId::new(1)));
        assert!(!inv.contains(TransitionId::new(0)));
        let sum = inv.sum(&TInvariant::from_counts(vec![1, 0, 0]));
        assert_eq!(sum.as_slice(), &[1, 2, 1]);
        assert!(TInvariant::from_counts(vec![0, 0]).is_zero());
    }

    fn choice_net() -> PetriNet {
        let mut bld = NetBuilder::new("choice");
        let idle = bld.place("idle", 1);
        let mid = bld.place("mid", 0);
        let start = bld.transition("start", TransitionKind::Internal);
        let left = bld.transition("left", TransitionKind::Internal);
        let right = bld.transition("right", TransitionKind::Internal);
        bld.arc_p2t(idle, start, 1);
        bld.arc_t2p(start, mid, 1);
        bld.arc_p2t(mid, left, 1);
        bld.arc_p2t(mid, right, 1);
        bld.arc_t2p(left, idle, 1);
        bld.arc_t2p(right, idle, 1);
        bld.build().unwrap()
    }

    #[test]
    fn p_invariant_basis_of_pipeline() {
        // The source pumps `buf`, so only the conservative `idle` place is
        // covered by a semiflow.
        let net = producer_consumer();
        let basis = p_invariant_basis(&net, 10_000);
        assert_eq!(basis.len(), 1);
        let inv = &basis[0];
        assert!(inv.is_valid_for(&net));
        let idle = net.place_by_name("idle").unwrap();
        let buf = net.place_by_name("buf").unwrap();
        assert_eq!(inv.weight(idle), 1);
        assert!(!inv.contains(buf));
        assert_eq!(inv.support(), vec![idle]);
        assert_eq!(inv.weighted_tokens(net.initial_marking().as_slice()), 1);
    }

    #[test]
    fn p_invariant_of_choice_net_covers_both_places() {
        // idle + mid is conserved: one token circulates through the choice.
        let net = choice_net();
        let (basis, complete) = p_invariant_elimination(&net, 10_000);
        assert!(complete);
        assert_eq!(basis.len(), 1);
        let idle = net.place_by_name("idle").unwrap();
        let mid = net.place_by_name("mid").unwrap();
        assert_eq!(basis[0].weight(idle), 1);
        assert_eq!(basis[0].weight(mid), 1);
        assert!(basis[0].is_valid_for(&net));
    }

    #[test]
    fn weighted_p_invariant_weights() {
        // t moves tokens 2-from-a, 3-into-b: conservation needs 3·a + 2·b.
        let mut bld = NetBuilder::new("pweights");
        let a = bld.place("a", 6);
        let b = bld.place("b", 0);
        let t = bld.transition("t", TransitionKind::Internal);
        bld.arc_p2t(a, t, 2);
        bld.arc_t2p(t, b, 3);
        let net = bld.build().unwrap();
        let basis = p_invariant_basis(&net, 10_000);
        assert_eq!(basis.len(), 1);
        let a = net.place_by_name("a").unwrap();
        let b = net.place_by_name("b").unwrap();
        assert_eq!(basis[0].weight(a), 3);
        assert_eq!(basis[0].weight(b), 2);
        assert_eq!(
            basis[0].weighted_tokens(net.initial_marking().as_slice()),
            18
        );
    }

    #[test]
    fn p_invariant_dense_oracle_agrees_on_fixtures() {
        for net in [producer_consumer(), choice_net()] {
            assert_eq!(
                p_invariant_basis(&net, 10_000),
                p_invariant_basis_dense(&net, 10_000),
                "sparse and dense P-bases differ on {}",
                net.name()
            );
        }
    }

    #[test]
    fn p_invariant_helpers() {
        let inv = PInvariant::from_weights(vec![0, 2, 1]);
        assert!(!inv.is_zero());
        assert!(inv.contains(PlaceId::new(1)));
        assert!(!inv.contains(PlaceId::new(0)));
        assert_eq!(inv.as_slice(), &[0, 2, 1]);
        assert_eq!(inv.weighted_tokens(&[5, 1, 3]), 5);
        assert!(PInvariant::from_weights(vec![0, 0]).is_zero());
    }

    #[test]
    fn surinvariant_cover_of_choice_net_is_total() {
        // No sources: every place is covered by a sur-invariant, which is
        // exactly the structural-boundedness certificate.
        let net = choice_net();
        let (cover, complete) =
            surinvariant_cover(&net, &net.transition_ids().collect::<Vec<_>>(), 10_000);
        assert!(complete);
        for p in net.place_ids() {
            assert!(
                cover.iter().any(|y| y[p.index()] > 0),
                "place {p} uncovered"
            );
        }
    }

    #[test]
    fn surinvariant_cover_misses_accumulator_place() {
        // An internal transition strictly grows `p`: no y ≥ 0 with
        // yᵀC ≤ 0 can cover it, and the complete elimination proves it.
        let mut bld = NetBuilder::new("pump");
        let p = bld.place("p", 1);
        let t = bld.transition("t", TransitionKind::Internal);
        bld.arc_p2t(p, t, 1);
        bld.arc_t2p(t, p, 2);
        let net = bld.build().unwrap();
        let (cover, complete) =
            surinvariant_cover(&net, &net.transition_ids().collect::<Vec<_>>(), 10_000);
        assert!(complete);
        let p = net.place_by_name("p").unwrap();
        assert!(cover.iter().all(|y| y[p.index()] == 0));
    }

    #[test]
    fn choice_net_has_two_invariants() {
        // A choice place with two branches that both return to the idle
        // place yields two minimal invariants (one per branch).
        let mut bld = NetBuilder::new("choice");
        let idle = bld.place("idle", 1);
        let mid = bld.place("mid", 0);
        let start = bld.transition("start", TransitionKind::Internal);
        let left = bld.transition("left", TransitionKind::Internal);
        let right = bld.transition("right", TransitionKind::Internal);
        bld.arc_p2t(idle, start, 1);
        bld.arc_t2p(start, mid, 1);
        bld.arc_p2t(mid, left, 1);
        bld.arc_p2t(mid, right, 1);
        bld.arc_t2p(left, idle, 1);
        bld.arc_t2p(right, idle, 1);
        let net = bld.build().unwrap();
        let basis = t_invariant_basis(&net, 10_000);
        assert_eq!(basis.len(), 2);
        for inv in &basis {
            assert!(inv.is_valid_for(&net));
        }
    }
}
