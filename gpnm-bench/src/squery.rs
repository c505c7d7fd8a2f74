//! `paper_squery`: the paper's own measurement — the processing time of
//! the subsequent query after a batch of pattern and data updates — on a
//! single-pattern `GpnmEngine` with its default (partitioned dense)
//! backend.
//!
//! Every "tick" is one `subsequent_query(batch_i, UA-GPNM)` on a clone of
//! the prepared engine (the clone is not timed), so each query starts
//! from the same prepared state and no stationarity rule is needed. Like
//! the host workloads, a run replays one round of sessions until its time
//! is up and takes a query's time as the fastest of its replays.

use std::time::{Duration, Instant};

use gpnm_distance::SlenBackend;
use gpnm_engine::{ExecStats, GpnmEngine, Strategy};
use gpnm_graph::{DataGraph, PatternGraph};
use gpnm_matcher::{MatchResult, MatchSemantics};
use gpnm_pool::WorkerPool;

use crate::calib::Calibrator;
use crate::host::calibration_note;
use crate::inputs::{data_set, fold_batch_hash, tick_batch, DataSet};
use crate::metrics::{Fingerprint, Outcome};
use crate::spec::Spec;
use crate::stats::{
    deciles, highest_supported_percentile, mean, median, percentile, samples_beyond,
};
use crate::{peak_rss_mb, session_plan, RunOpts};

/// Every how many queries the result is checked against a fresh engine.
const VERIFY_EVERY: u64 = 16;

/// Batches on which INC-GPNM is timed next to UA-GPNM in the traced run.
const INC_BATCHES: usize = 20;

const SEMANTICS: MatchSemantics = MatchSemantics::Simulation;

/// `setup_s`: graph handed over → index built, initial query answered,
/// partition prepared.
fn prepare(data: &DataSet) -> (GpnmEngine, Duration, Duration) {
    let (graph, pattern) = (data.graph.clone(), data.patterns[0].clone());
    let t = Instant::now();
    let mut engine = GpnmEngine::new(graph, pattern, SEMANTICS);
    let build = t.elapsed();
    engine.initial_query();
    engine.prepare_partition();
    (engine, build, t.elapsed())
}

/// One timed query on a clone of `base`. Returns the engine it ran on.
fn query(
    base: &GpnmEngine,
    batch: &gpnm_updates::UpdateBatch,
    strategy: Strategy,
) -> Result<(GpnmEngine, Duration, ExecStats), String> {
    let mut engine = base.clone();
    let t = Instant::now();
    let stats = engine.subsequent_query(batch, strategy);
    let took = t.elapsed();
    Ok((engine, took, stats.map_err(|e| e.to_string())?))
}

/// What a query left behind, kept until its session ends: the post-batch
/// graph and pattern, and the incremental answer.
struct Answer {
    tick: u64,
    graph: DataGraph,
    pattern: PatternGraph,
    result: MatchResult,
}

/// The incremental answer must equal the initial query of a fresh engine
/// built over the post-batch graph and pattern.
fn verify(spec: &Spec, answer: Answer, out: &mut Outcome) {
    let mut fresh = GpnmEngine::new(answer.graph, answer.pattern, SEMANTICS);
    let expected = fresh.initial_query();
    out.check(expected == &answer.result, || {
        format!(
            "{}: query {}: incremental result differs from a from-scratch match",
            spec.name, answer.tick
        )
    });
}

/// Run the workload; `traced` selects which metric set is produced (the
/// program is the same — the engine's layer split is the `ExecStats` every
/// query returns). Like the host workloads the run is a sequence of
/// sessions, each preparing the engine afresh, so `setup_s` is a median
/// over many set-ups.
pub fn run(spec: &Spec, opts: &RunOpts, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let data = data_set(spec);
    // One slot per measured query of a round; a slot's time is the fastest
    // of its replays. Counts and `ExecStats` come from the first round.
    let mut tick_ms = vec![f64::INFINITY; spec.slots()];
    // The first round's own times, which its `ExecStats` split adds up to.
    let mut first_round_ms: Vec<f64> = Vec::new();
    let mut inc_over_ua: Vec<f64> = Vec::new();
    let (mut setup_s, mut build_ms, mut initial_match_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut sums = ExecStats::default();
    let mut gen_time = Duration::ZERO;
    let (mut batch_hash, mut matches_end) = (0u64, 0u64);
    let (mut index_rows, mut index_bytes) = (0, 0);
    let mut rss = 0.0;
    let mut cal = Calibrator::new();

    for (round, index) in session_plan(spec.sessions, opts.seconds) {
        let first_round = round == 0;
        out.rounds = round + 1;
        cal.sample();
        let (base, build, total) = prepare(&data);
        cal.sample();
        setup_s.push(total.as_secs_f64());
        build_ms.push(build.as_secs_f64() * 1e3);
        initial_match_ms.push((total - build).as_secs_f64() * 1e3);
        index_rows = base.backend().resident_rows();
        index_bytes = base.backend().mem_bytes();
        let mut answers = Vec::new();
        for step in 0..spec.warmup + spec.session_ticks {
            let tick = spec.first_tick(index) + step as u64;
            let t = Instant::now();
            let batch = tick_batch(
                spec,
                base.graph(),
                base.pattern(),
                &data.interner,
                opts.seed,
                tick,
            );
            let gen = t.elapsed();
            if first_round {
                batch_hash = fold_batch_hash(batch_hash, &batch);
            }
            out.attempted += 1;
            cal.poll();
            let (engine, took, stats) = query(&base, &batch, Strategy::UaGpnm).map_err(|e| {
                out.failed += 1;
                e
            })?;
            let Some(measured) = step.checked_sub(spec.warmup) else {
                continue;
            };
            let slot = index * spec.session_ticks + measured;
            tick_ms[slot] = tick_ms[slot].min(took.as_secs_f64() * 1e3);
            if measured as u64 % VERIFY_EVERY == 0 {
                answers.push(Answer {
                    tick,
                    graph: engine.graph().clone(),
                    pattern: engine.pattern().clone(),
                    result: engine.result().clone(),
                });
            }
            if !first_round {
                continue;
            }
            gen_time += gen;
            first_round_ms.push(took.as_secs_f64() * 1e3);
            if traced && inc_over_ua.len() < INC_BATCHES {
                let (_, took_inc, _) = query(&base, &batch, Strategy::IncGpnm)?;
                inc_over_ua.push(took_inc.as_secs_f64() / took.as_secs_f64().max(1e-12));
            }
            matches_end += engine.result().total_matches() as u64;
            sums.updates_submitted += stats.updates_submitted;
            sums.updates_after_reduction += stats.updates_after_reduction;
            sums.eliminated += stats.eliminated;
            sums.repair_calls += stats.repair_calls;
            sums.slen_changes += stats.slen_changes;
            sums.reduce_time += stats.reduce_time;
            sums.detect_time += stats.detect_time;
            sums.tree_time += stats.tree_time;
            sums.slen_time += stats.slen_time;
            sums.repair_time += stats.repair_time;
        }
        // The engine under test is gone before a reference engine is
        // built, so the checks never add to the process's peak memory.
        drop(base);
        for answer in answers {
            verify(spec, answer, &mut out);
        }
        // Read when the first round ends, not the first session: a query
        // in twenty needs one more matrix-sized allocation, and which
        // session meets the first one depends on the seed.
        if first_round {
            rss = peak_rss_mb();
        }
    }

    let ticks = tick_ms.len().max(1) as f64;
    let per_tick_ms = |d: Duration| d.as_secs_f64() * 1e3 / ticks;
    let per_tick_us = |d: Duration| d.as_secs_f64() * 1e6 / ticks;
    out.samples = tick_ms.len();
    out.fingerprint = Fingerprint {
        ticks: spec.first_tick(spec.sessions),
        matches_end,
        slen_changes: sums.slen_changes as u64,
        repair_calls: sums.repair_calls as u64,
        updates_applied: sums.updates_after_reduction as u64,
        batch_hash,
    };
    let replays = setup_s.len() as f64 / spec.sessions as f64;
    if traced {
        out.set("updates.reduce_us", per_tick_us(sums.reduce_time));
        out.set("updates.detect_us", per_tick_us(sums.detect_time));
        out.set("updates.ehtree_us", per_tick_us(sums.tree_time));
        out.set(
            "updates.net_ratio",
            sums.updates_after_reduction as f64 / sums.updates_submitted.max(1) as f64,
        );
        out.set(
            "updates.eliminated_ratio",
            sums.eliminated as f64 / sums.updates_after_reduction.max(1) as f64,
        );
        out.set("graph.nodes_end", data.graph.node_count() as f64);
        out.set("graph.edges_end", data.graph.edge_count() as f64);
        out.set("distance.build_ms", median(&build_ms));
        out.set("distance.repair_us", per_tick_us(sums.slen_time));
        out.set("distance.slen_changes", sums.slen_changes as f64 / ticks);
        out.set("distance.resident_rows", index_rows as f64);
        out.set(
            "distance.index_mib",
            index_bytes as f64 / (1u64 << 20) as f64,
        );
        out.set("distance.cache_hit_ratio", 1.0);
        out.set("matcher.initial_match_ms", median(&initial_match_ms));
        out.set("matcher.repair_us", per_tick_us(sums.repair_time));
        out.set("matcher.repair_calls", sums.repair_calls as f64 / ticks);
        out.set("matcher.matches_end", matches_end as f64);
        out.set("engine.squery_slen_ms", per_tick_ms(sums.slen_time));
        out.set(
            "engine.squery_detect_ms",
            per_tick_ms(sums.detect_time + sums.tree_time),
        );
        out.set("engine.squery_repair_ms", per_tick_ms(sums.repair_time));
        out.set("engine.inc_over_ua", median(&inc_over_ua));
        out.set("pool.lanes", WorkerPool::global().lanes() as f64);
        out.set("workload.gen_us", per_tick_us(gen_time));
        let host_mean_us = mean(&first_round_ms) * 1e3;
        out.set("trace.ticks", first_round_ms.len() as f64);
        out.set("trace.host_tick_p50_us", median(&first_round_ms) * 1e3);
        out.set("trace.host_tick_mean_us", host_mean_us);
        // The engine reports its own split, so the "staged" side is the sum
        // of the phases it attributes; the rest is unattributed overhead.
        let phase_us = per_tick_us(sums.phase_sum());
        out.set("trace.staged_tick_mean_us", phase_us);
        out.set("trace.staged_tick_p50_us", phase_us);
        out.set("trace.staged_over_host", phase_us / host_mean_us.max(1e-9));
        out.set("service.apply_overhead_us", host_mean_us - phase_us);
    } else {
        // As for the host workloads: fastest replays over the kernel's
        // fastest moments, the median set-up over the kernel's median.
        tick_ms
            .iter_mut()
            .for_each(|ms| *ms /= cal.fastest_of(replays));
        let busy_s: f64 = tick_ms.iter().sum::<f64>() / 1e3;
        out.set("updates_per_s", sums.updates_submitted as f64 / busy_s);
        out.set("tick_p50_ms", median(&tick_ms));
        out.set("tick_p90_ms", percentile(&tick_ms, 90.0));
        out.set("peak_rss_mb", rss);
        out.set("setup_s", median(&setup_s) / cal.typical());
    }
    out.notes.push(format!(
        "{}: {} query slots ({} beyond p90; the sample supports up to p{}), each the fastest of its \
         replays over {} rounds ({} set-ups), {} updates/batch ({} pattern), gen {:.1} us/batch",
        spec.name,
        tick_ms.len(),
        samples_beyond(tick_ms.len(), 90.0),
        highest_supported_percentile(tick_ms.len()).unwrap_or(0.0),
        out.rounds,
        setup_s.len(),
        spec.protocol().total(),
        spec.pattern_updates,
        per_tick_us(gen_time),
    ));
    out.notes.push(format!(
        "{}: query ms deciles {:.2?}",
        spec.name,
        deciles(&tick_ms)
    ));
    if !traced {
        out.notes.push(calibration_note(spec.name, &cal, replays));
    }
    Ok(out)
}
