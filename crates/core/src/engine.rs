//! Query evaluation: structural phase (bitmap algebra) and measure fetch.
//!
//! Every phase is written once, generic over a [`ColumnSource`]: the
//! in-memory [`MasterRelation`] and the disk store's cached columns plan,
//! fetch and count cost identically, so the two media answer — and
//! account — every request the same way.

use std::convert::Infallible;
use std::ops::{Deref, Range};

use graphbi_bitmap::Bitmap;
use graphbi_columnstore::{AggViewId, IoStats, MasterRelation, SparseColumn, ViewId};
use graphbi_graph::{
    AggState, EdgeId, GraphError, GraphQuery, PathAggQuery, PathAggResult, QueryExpr, QueryResult,
    Universe,
};
use graphbi_views::{cover_path, rewrite_query_ranked, PathSegment};

use crate::session::{QueryRequest, RequestKind, Response, SessionError};
use crate::viewmgr::{AggViewDef, ViewCatalog};

/// Evaluation knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvalOptions {
    /// Rewrite queries over materialized views (`false` reproduces the
    /// paper's "oblivious" baseline plans).
    pub use_views: bool,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions { use_views: true }
    }
}

impl EvalOptions {
    /// The view-oblivious plan.
    pub fn oblivious() -> EvalOptions {
        EvalOptions { use_views: false }
    }
}

/// The columns a plan reads, whatever medium holds them. Each fetch counts
/// its logical column on `stats`; a disk source additionally counts the
/// physical `disk_reads`/`disk_bytes` of cache misses.
pub(crate) trait ColumnSource: Sync {
    /// Fetch failure ([`Infallible`] in memory).
    type Error;
    /// A fetched bitmap column.
    type Bitmap<'a>: Deref<Target = Bitmap> + Sync
    where
        Self: 'a;
    /// A fetched measure column.
    type Column<'a>: Deref<Target = SparseColumn> + Sync
    where
        Self: 'a;

    /// The edge bitmap `b_edge`.
    fn edge_bitmap(
        &self,
        edge: EdgeId,
        stats: &mut IoStats,
    ) -> Result<Self::Bitmap<'_>, Self::Error>;
    /// A graph-view bitmap `b_v`.
    fn view_bitmap(
        &self,
        view: ViewId,
        stats: &mut IoStats,
    ) -> Result<Self::Bitmap<'_>, Self::Error>;
    /// The measure column `m_edge`.
    fn edge_measures(
        &self,
        edge: EdgeId,
        stats: &mut IoStats,
    ) -> Result<Self::Column<'_>, Self::Error>;
    /// An aggregate-view column `(m_p, b_p)`.
    fn agg_view(
        &self,
        view: AggViewId,
        stats: &mut IoStats,
    ) -> Result<Self::Column<'_>, Self::Error>;
    /// Tie-break rank of a graph view in the rewrite's set cover, lower =
    /// more selective; read without a counted fetch.
    fn view_rank(&self, view: ViewId) -> u64;
    /// Partition-touch accounting for the edges one phase reads.
    fn note_partitions(&self, edges: &[EdgeId], stats: &mut IoStats);
    /// The vertical sub-relation holding `edge`.
    fn partition_of(&self, edge: EdgeId) -> usize;
    /// Number of records.
    fn record_count(&self) -> u64;

    /// The horizontal record ranges of an `shards`-way scan.
    fn shard_ranges(&self, shards: usize) -> Vec<Range<u32>> {
        graphbi_columnstore::shard_ranges(self.record_count(), shards)
    }
}

impl ColumnSource for MasterRelation {
    type Error = Infallible;
    type Bitmap<'a> = &'a Bitmap;
    type Column<'a> = &'a SparseColumn;

    fn edge_bitmap(&self, edge: EdgeId, stats: &mut IoStats) -> Result<&Bitmap, Infallible> {
        Ok(MasterRelation::edge_bitmap(self, edge, stats))
    }

    fn view_bitmap(&self, view: ViewId, stats: &mut IoStats) -> Result<&Bitmap, Infallible> {
        Ok(MasterRelation::view_bitmap(self, view, stats))
    }

    fn edge_measures(
        &self,
        edge: EdgeId,
        stats: &mut IoStats,
    ) -> Result<&SparseColumn, Infallible> {
        Ok(MasterRelation::edge_measures(self, edge, stats))
    }

    fn agg_view(&self, view: AggViewId, stats: &mut IoStats) -> Result<&SparseColumn, Infallible> {
        Ok(MasterRelation::agg_view(self, view, stats))
    }

    /// Cardinality, peeked from the resident bitmap.
    fn view_rank(&self, view: ViewId) -> u64 {
        self.view_bitmap_uncounted(view).cardinality_hint()
    }

    fn note_partitions(&self, edges: &[EdgeId], stats: &mut IoStats) {
        MasterRelation::note_partitions(self, edges, stats);
    }

    fn partition_of(&self, edge: EdgeId) -> usize {
        MasterRelation::partition_of(self, edge)
    }

    fn record_count(&self) -> u64 {
        MasterRelation::record_count(self)
    }
}

/// The bitmap columns a structural plan will intersect, fetched (and
/// cost-accounted) once up front and ordered cheapest-first by
/// [`Bitmap::cardinality_hint`]. Returning the handles separately from
/// combining them is what lets the sharded path intersect per record range
/// without re-counting fetches per shard; the selectivity order keeps the
/// conjunction accumulator as small as possible from the first AND on.
pub(crate) fn plan_bitmaps<'s, S: ColumnSource>(
    src: &'s S,
    catalog: &ViewCatalog,
    query: &GraphQuery,
    opts: EvalOptions,
    stats: &mut IoStats,
) -> Result<Vec<S::Bitmap<'s>>, S::Error> {
    let mut bitmaps = Vec::with_capacity(query.len());
    if opts.use_views && !catalog.graph_views.is_empty() {
        // Coverage ties in the set cover go to the most selective view,
        // ranked without a counted fetch.
        let plan = rewrite_query_ranked(query, &catalog.graph_view_edges(), |vi| {
            src.view_rank(catalog.graph_views[vi].id)
        });
        for &vi in &plan.views {
            bitmaps.push(src.view_bitmap(catalog.graph_views[vi].id, stats)?);
        }
        for &e in &plan.residual_edges {
            bitmaps.push(src.edge_bitmap(e, stats)?);
        }
        if !plan.residual_edges.is_empty() {
            src.note_partitions(&plan.residual_edges, stats);
        }
    } else {
        for &e in query.edges() {
            bitmaps.push(src.edge_bitmap(e, stats)?);
        }
        src.note_partitions(query.edges(), stats);
    }
    bitmaps.sort_by_key(|b| b.cardinality_hint());
    Ok(bitmaps)
}

/// Intersects the plan's bitmaps, splitting the record space into `shards`
/// horizontal ranges evaluated on worker threads when `shards > 1`. The
/// per-shard conjunctions touch disjoint record ranges, so stitching them
/// back in range order yields exactly the serial intersection.
///
/// Only the cheapest operand is sliced per shard: the slice confines the
/// accumulator to the shard's record range, after which in-place ANDs with
/// the *whole* remaining bitmaps stay range-confined for free. A shard whose
/// accumulator drains skips its remaining operands entirely.
pub(crate) fn and_many_sharded(bitmaps: &[&Bitmap], record_count: u64, shards: usize) -> Bitmap {
    if shards <= 1 || record_count == 0 || bitmaps.is_empty() {
        let mut sp = graphbi_obs::span("phase.structural");
        let out = Bitmap::and_many(bitmaps.iter().copied());
        sp.attr("matches", out.len());
        return out;
    }
    let mut sp = graphbi_obs::span("phase.structural");
    let mut ordered: Vec<&Bitmap> = bitmaps.to_vec();
    ordered.sort_by_key(|b| b.cardinality_hint());
    if ordered[0].is_empty() {
        sp.attr("matches", 0);
        return Bitmap::new();
    }
    let ranges = graphbi_columnstore::shard_ranges(record_count, shards);
    let parts = crate::parallel::run_indexed(ranges.len(), shards, |s| {
        let mut shard_sp = graphbi_obs::span("shard.structural");
        shard_sp.attr("shard", s as u64);
        let mut acc = ordered[0].slice(ranges[s].clone());
        for b in &ordered[1..] {
            if acc.is_empty() {
                break;
            }
            acc.and_inplace(b);
        }
        shard_sp.attr("matches", acc.len());
        acc
    });
    drop(sp);
    let mut sp = graphbi_obs::span("phase.merge");
    sp.attr("parts", parts.len() as u64);
    let mut out = Bitmap::new();
    for p in &parts {
        out.append_disjoint(p);
    }
    sp.attr("matches", out.len());
    out
}

/// Structural phase: the bitmap of records containing the query graph.
pub(crate) fn structural<S: ColumnSource>(
    src: &S,
    catalog: &ViewCatalog,
    query: &GraphQuery,
    opts: EvalOptions,
    shards: usize,
    stats: &mut IoStats,
) -> Result<Bitmap, S::Error> {
    if query.is_empty() {
        let mut sp = graphbi_obs::span("phase.plan");
        sp.attr("estimated_matches", src.record_count());
        return Ok(Bitmap::from_range(
            0..u32::try_from(src.record_count()).expect("record count fits u32"),
        ));
    }
    let mut sp = graphbi_obs::span("phase.plan");
    let (base_before, view_before) = (stats.bitmap_columns, stats.view_bitmap_columns);
    let bitmaps = plan_bitmaps(src, catalog, query, opts, stats)?;
    if sp.is_live() {
        sp.attr("bitmap_columns", stats.bitmap_columns - base_before);
        sp.attr(
            "view_bitmap_columns",
            stats.view_bitmap_columns - view_before,
        );
        // The plan's match estimate: the rarest bitmap bounds the result
        // (the same quantity `GraphStore::explain` reports). The list is
        // already sorted cheapest-first.
        sp.attr(
            "estimated_matches",
            bitmaps.first().map_or(0, |b| b.cardinality_hint()),
        );
    }
    drop(sp);
    let bitmaps: Vec<&Bitmap> = bitmaps.iter().map(|b| &**b).collect();
    Ok(and_many_sharded(&bitmaps, src.record_count(), shards))
}

/// Evaluates a logical combination of graph queries as bitmap algebra
/// (§3.2): `AND → ∩`, `OR → ∪`, `AND NOT → −`.
pub(crate) fn eval_expr<S: ColumnSource>(
    src: &S,
    catalog: &ViewCatalog,
    expr: &QueryExpr,
    opts: EvalOptions,
    shards: usize,
    stats: &mut IoStats,
) -> Result<Bitmap, S::Error> {
    let mut eval = |e: &QueryExpr| eval_expr(src, catalog, e, opts, shards, stats);
    Ok(match expr {
        QueryExpr::Atom(q) => structural(src, catalog, q, opts, shards, stats)?,
        QueryExpr::And(a, b) => eval(a)?.and(&eval(b)?),
        QueryExpr::Or(a, b) => eval(a)?.or(&eval(b)?),
        QueryExpr::AndNot(a, b) => eval(a)?.and_not(&eval(b)?),
    })
}

/// Graph-query evaluation: matching records plus the measures of the
/// query's edges (§4.2's SELECT).
pub(crate) fn evaluate<S: ColumnSource>(
    src: &S,
    catalog: &ViewCatalog,
    query: &GraphQuery,
    opts: EvalOptions,
    shards: usize,
    stats: &mut IoStats,
) -> Result<QueryResult, S::Error> {
    let ids = structural(src, catalog, query, opts, shards, stats)?;
    let edges = query.edges().to_vec();
    let measures = fetch_measure_matrix(src, &edges, &ids, shards, stats)?;
    Ok(QueryResult {
        records: ids.to_vec(),
        edges,
        measures,
    })
}

/// Measure-fetch phase: the record-major measure matrix of `edges` over the
/// matching records.
///
/// Columns are gathered per vertical partition; when the query spans several
/// sub-relations, the per-partition row groups are stitched back together by
/// record id — the §6.1 recid join, whose cost [`IoStats::join_rows`]
/// tracks and Figure 5 measures.
pub(crate) fn fetch_measure_matrix<S: ColumnSource>(
    src: &S,
    edges: &[EdgeId],
    ids: &Bitmap,
    shards: usize,
    stats: &mut IoStats,
) -> Result<Vec<f64>, S::Error> {
    let n = usize::try_from(ids.len()).expect("result fits usize");
    let w = edges.len();
    let mut sp = graphbi_obs::span("phase.measure");
    if w == 0 || n == 0 {
        // Provably-empty result: no row can reference any measure column, so
        // the planner skips the fetches outright. The count depends only on
        // `ids` — never the shard split — so serial and sharded runs agree.
        stats.fetches_skipped += w as u64;
        sp.attr("fetches_skipped", w as u64);
        return Ok(Vec::new());
    }
    src.note_partitions(edges, stats);

    // Fetch (and cost-account) every column once up front, whatever the
    // shard count; shard workers only gather from the shared handles.
    let mut cols = Vec::with_capacity(w);
    let mut partitions = std::collections::BTreeSet::new();
    for &e in edges {
        partitions.insert(src.partition_of(e));
        cols.push(src.edge_measures(e, stats)?);
    }
    stats.values_fetched += (n * w) as u64;
    if partitions.len() > 1 {
        // Every result row participates in (parts−1) recid joins.
        stats.join_rows += (n * (partitions.len() - 1)) as u64;
    }
    if sp.is_live() {
        sp.attr("measure_columns", w as u64);
        sp.attr("values_fetched", (n * w) as u64);
    }

    let gather_block = |sub: &Bitmap| -> Vec<f64> {
        let sn = usize::try_from(sub.len()).expect("result fits usize");
        let mut block = vec![0.0f64; sn * w];
        for (j, col) in cols.iter().enumerate() {
            // Fused gather-transpose: each value streams straight into its
            // record-major slot (the join's output materialization) without
            // an intermediate column vector.
            let mut i = 0;
            col.fold_over(sub, |v| {
                block[i * w + j] = v;
                i += 1;
            });
            debug_assert_eq!(i, sn, "result ids must be subset of presence");
        }
        block
    };

    if shards <= 1 {
        return Ok(gather_block(ids));
    }
    // Record ranges are disjoint and ordered, so concatenating the
    // record-major shard blocks reproduces the serial matrix exactly.
    let ranges = src.shard_ranges(shards);
    let blocks = crate::parallel::run_indexed(ranges.len(), shards, |s| {
        let mut shard_sp = graphbi_obs::span("shard.measure");
        shard_sp.attr("shard", s as u64);
        gather_block(&ids.slice(ranges[s].clone()))
    });
    drop(sp);
    let mut sp = graphbi_obs::span("phase.merge");
    sp.attr("parts", blocks.len() as u64);
    let mut out = Vec::with_capacity(n * w);
    for b in blocks {
        out.extend_from_slice(&b);
    }
    Ok(out)
}

/// One maximal path of an aggregation query, resolved to the edges its fold
/// reads: the consecutive edges in path order, then the path's self-edge
/// elements.
pub(crate) struct PathEdges {
    cons: Vec<EdgeId>,
    extras: Vec<EdgeId>,
}

/// Resolves the maximal paths of `query` — the part of path aggregation
/// that can fail on the query alone (a cyclic pattern), before any column
/// is read.
pub(crate) fn resolve_paths(
    universe: &Universe,
    query: &GraphQuery,
) -> Result<Vec<PathEdges>, GraphError> {
    query
        .maximal_paths(universe)?
        .iter()
        .map(|path| {
            let cons: Vec<EdgeId> = path
                .nodes()
                .windows(2)
                .map(|w| {
                    universe
                        .find_edge(w[0], w[1])
                        .expect("maximal path edges exist in universe")
                })
                .collect();
            let extras = path
                .elements(universe)?
                .into_iter()
                .filter(|e| !cons.contains(e))
                .collect();
            Ok(PathEdges { cons, extras })
        })
        .collect()
}

/// Path-aggregation phase (§3.4): per matching record, applies the query's
/// function along each of its resolved `paths`, composing materialized
/// aggregate views where the tiling finds them.
pub(crate) fn path_aggregate<S: ColumnSource>(
    src: &S,
    catalog: &ViewCatalog,
    paq: &PathAggQuery,
    paths: &[PathEdges],
    opts: EvalOptions,
    shards: usize,
    stats: &mut IoStats,
) -> Result<PathAggResult, S::Error> {
    let ids = structural(src, catalog, &paq.query, opts, shards, stats)?;
    let n = usize::try_from(ids.len()).expect("result fits usize");
    let path_count = paths.len();

    let (avail_idx, avail_seqs) = if opts.use_views {
        catalog.compatible_agg_views(paq.func)
    } else {
        (Vec::new(), Vec::new())
    };

    // One measure source per fetched column, in the exact order the serial
    // engine folds them into the per-record state: cover segments first
    // (views merge pre-aggregated states, edges push raw values), then the
    // path's self-edge extras.
    enum Source<'a, C> {
        View { def: &'a AggViewDef, col: C },
        Edge(C),
    }

    // Plan phase: resolve every path's sources once, counting every fetch
    // exactly as the serial engine does — shard workers never touch stats.
    let mut sp = graphbi_obs::span("phase.plan");
    let before = (
        stats.measure_columns,
        stats.agg_view_columns,
        stats.fetches_skipped,
    );
    let mut plans: Vec<Vec<Source<S::Column<'_>>>> = Vec::with_capacity(path_count);
    for PathEdges { cons, extras } in paths {
        let cover = cover_path(cons, &avail_seqs);
        if n == 0 {
            // No matching record: every source fetch this path would have
            // made is provably useless, so skip (and count) them all. The
            // skip depends only on the structural result, keeping serial and
            // sharded stats identical.
            stats.fetches_skipped += (cover.segments.len() + extras.len()) as u64;
            plans.push(Vec::new());
            continue;
        }
        let mut sources = Vec::new();
        let mut fetched_base: Vec<EdgeId> = extras.clone();
        for seg in &cover.segments {
            match *seg {
                PathSegment::View { view, .. } => {
                    let def = &catalog.agg_views[avail_idx[view]];
                    sources.push(Source::View {
                        def,
                        col: src.agg_view(def.id, stats)?,
                    });
                }
                PathSegment::Edge(e) => {
                    sources.push(Source::Edge(src.edge_measures(e, stats)?));
                    fetched_base.push(e);
                }
            }
        }
        for &e in extras {
            sources.push(Source::Edge(src.edge_measures(e, stats)?));
        }
        stats.values_fetched += (n * sources.len()) as u64;
        if !fetched_base.is_empty() {
            src.note_partitions(&fetched_base, stats);
        }
        plans.push(sources);
    }
    if sp.is_live() {
        sp.attr("measure_columns", stats.measure_columns - before.0);
        sp.attr("agg_view_columns", stats.agg_view_columns - before.1);
        sp.attr("fetches_skipped", stats.fetches_skipped - before.2);
    }
    drop(sp);

    // Compute phase: fold each record's sources in plan order. Records are
    // independent, so a shard computes its record range's block without
    // changing any per-record operation order — values come out identical
    // to the serial pass.
    let compute = |sub: &Bitmap| -> Vec<f64> {
        let sn = usize::try_from(sub.len()).expect("result fits usize");
        let mut values = vec![f64::NAN; sn * path_count];
        for (pi, sources) in plans.iter().enumerate() {
            let mut states = vec![AggState::empty(); sn];
            for source in sources {
                // Fused gather-aggregate: measure values stream from the
                // column straight into the per-record aggregate states, with
                // no intermediate value vector.
                let mut i = 0;
                match source {
                    Source::View { def, col } => col.fold_over(sub, |v| {
                        states[i].merge(&def.state_of(v));
                        i += 1;
                    }),
                    Source::Edge(col) => col.fold_over(sub, |v| {
                        states[i].push(v);
                        i += 1;
                    }),
                }
            }
            for (i, s) in states.iter().enumerate() {
                // NaN marks "no measured element on this path for this
                // record" (SQL NULL); COUNT still finalizes to zero.
                values[i * path_count + pi] = s.finalize(paq.func).unwrap_or(f64::NAN);
            }
        }
        values
    };

    let sp = graphbi_obs::span("phase.measure");
    let values = if shards <= 1 {
        compute(&ids)
    } else {
        // Record-major blocks over disjoint, ordered record ranges
        // concatenate into the full matrix.
        let ranges = src.shard_ranges(shards);
        let blocks = crate::parallel::run_indexed(ranges.len(), shards, |s| {
            let mut shard_sp = graphbi_obs::span("shard.measure");
            shard_sp.attr("shard", s as u64);
            compute(&ids.slice(ranges[s].clone()))
        });
        drop(sp);
        let mut msp = graphbi_obs::span("phase.merge");
        msp.attr("parts", blocks.len() as u64);
        let mut out = Vec::with_capacity(n * path_count);
        for b in blocks {
            out.extend_from_slice(&b);
        }
        out
    };

    Ok(PathAggResult {
        records: ids.to_vec(),
        path_count,
        values,
    })
}

/// Answers one request from `src` — the executor behind every backend's
/// [`crate::Session::execute`].
pub(crate) fn execute<S: ColumnSource>(
    universe: &Universe,
    src: &S,
    catalog: &ViewCatalog,
    request: &QueryRequest,
) -> Result<(Response, IoStats), SessionError>
where
    SessionError: From<S::Error>,
{
    let (opts, shards) = (request.options, request.shards);
    let mut stats = IoStats::new();
    let response = match &request.kind {
        RequestKind::Graph(q) => {
            Response::Records(evaluate(src, catalog, q, opts, shards, &mut stats)?)
        }
        RequestKind::Expr(e) => {
            Response::Matches(eval_expr(src, catalog, e, opts, shards, &mut stats)?)
        }
        RequestKind::Aggregate(p) => {
            let paths = resolve_paths(universe, &p.query)?;
            Response::Aggregates(path_aggregate(
                src, catalog, p, &paths, opts, shards, &mut stats,
            )?)
        }
    };
    Ok((response, stats))
}
