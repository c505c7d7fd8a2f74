//! `gpnm` — command-line GPNM over SNAP-style edge lists.
//!
//! ```text
//! gpnm match  <edge-list> [--backend B] [--labels N] [--pattern-nodes N] [--seed S]
//! gpnm bench  <edge-list> [--backend B] [--labels N] [--updates N] [--seed S]
//! gpnm smoke  [--backend B] [--nodes N] [--edges M] [--labels N] [--updates N] [--seed S]
//! gpnm replay [--backend B] [--nodes N] [--edges M] [--patterns K] [--ticks T]
//!             [--updates N] [--trace FILE] [--labels N] [--seed S]
//!             [--shards K] [--stats] [--stats-json FILE] [--subscribe]
//!             [--trace-summary] [--trace-out FILE] [--metrics-out FILE]
//! gpnm demo
//! ```
//!
//! `match` loads a whitespace edge list (labels assigned by
//! `gpnm_workload::datasets::from_edge_list`'s community-coherent scheme,
//! since SNAP graphs are unlabeled), generates a random pattern and prints
//! the match table. `bench` additionally generates an update batch and
//! compares the paper's three strategies. `smoke` generates a power-law social
//! graph in-process (no file needed) and runs an initial + subsequent
//! query — the large-graph CI entry point. `replay` is the
//! continuous-query mode: register `--patterns` standing patterns on one
//! `GpnmService`, stream `--ticks` data-update batches (generated, or
//! parsed from a `--trace` file of `---`-separated trace chunks), and
//! print the per-tick, per-pattern match deltas. With `--shards K` the
//! patterns are dealt round-robin across a K-shard `GpnmCluster` (the
//! `i`-th on shard `i % K`) and every tick fans out to all shards in
//! parallel; each shard (or the single service) refreshes its patterns
//! one after another. `--stats` prints the per-tick `TickStats`
//! accounting (`--stats-json FILE` writes the same stats as one JSON
//! object per tick). Service or cluster, the replay drives the host through
//! the `PatternHost` trait — the register and tick loops are one generic
//! code path. `--subscribe` additionally consumes every pattern's deltas
//! through the subscription API and cross-checks that the folded stream
//! reconstructs the live `ReadView`. `demo` runs the paper's Figure 1
//! example.
//!
//! The telemetry exporters: `--trace-summary` installs a span collector
//! for the run and prints a per-span-name summary table (count,
//! total/p50/p99 duration); `--trace-out FILE` writes the same collected
//! spans as Chrome trace-event JSON (load in `chrome://tracing` or
//! Perfetto to see the nested tick → phase → per-pattern flame);
//! `--metrics-out FILE` dumps the process metrics registry (counters,
//! gauges, histograms) in Prometheus text exposition format after the
//! last tick.
//!
//! `--backend {partitioned,sparse,paged}` selects the `SLen` backend.
//! `partitioned` materializes an `n × n` matrix; builds whose
//! estimated matrix exceeds `--max-index-gb` (default 4 GiB) are refused
//! with a pointer at `--backend sparse` instead of running into the OOM
//! killer — by `smoke` and `replay` before they generate the graph, with
//! the same text every host gives (`BackendKind::admit`). `paged` spills
//! the sparse rows to a temp file and keeps a hot-row cache of
//! `--cache-budget-mb` (default 64 MiB; `match`/`bench` always use the
//! default) — the backend for graphs whose index outgrows RAM; `--stats`
//! shows its per-tick cache hit rates and page IO. `--max-index-gb`
//! sizes no cache, and `--cache-budget-mb` admits nothing.

use std::path::PathBuf;
use std::process::ExitCode;

use ua_gpnm::distance::{AnyBackend, SlenBackend, DEFAULT_MAX_INDEX_GB};
use ua_gpnm::engine::BackendKind;
use ua_gpnm::matcher::render_match_table;
use ua_gpnm::prelude::*;
use ua_gpnm::workload::{
    datasets::from_edge_list, generate_batch, generate_pattern, generate_social_graph, read_trace,
    PatternConfig, SocialGraphConfig, UpdateProtocol,
};

struct Args {
    labels: usize,
    pattern_nodes: usize,
    updates: usize,
    seed: u64,
    backend: BackendKind,
    max_index_gb: f64,
    cache_budget_mb: Option<f64>,
    nodes: usize,
    edges: usize,
    patterns: usize,
    ticks: usize,
    trace: Option<String>,
    shards: Option<usize>,
    stats: bool,
    stats_json: Option<String>,
    subscribe: bool,
    trace_summary: bool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
}

/// Which subcommand the flags are parsed for — gates subcommand-specific
/// flags so e.g. `gpnm match x --ticks 3` fails loudly instead of
/// silently ignoring the knob.
#[derive(Clone, Copy, PartialEq)]
enum Cmd {
    /// `match`/`bench`: graph comes from an edge-list file.
    FromFile,
    /// `smoke`: in-process generator, single pattern.
    Smoke,
    /// `replay`: in-process generator, k standing patterns + tick stream.
    Replay,
}

/// Flag parsing differs per subcommand in two ways: the default backend
/// (`smoke`/`replay` default to 100k nodes, where only `sparse` fits the
/// memory guard — a bare `gpnm smoke` must work out of the box), and which
/// flags are accepted at all (`match`/`bench` read their graph from an
/// edge list; silently accepting a generator-shape flag there would let
/// users believe they subsampled).
fn parse_flags(rest: &[String], default_backend: BackendKind, cmd: Cmd) -> Result<Args, String> {
    let generated = cmd != Cmd::FromFile;
    let mut args = Args {
        labels: 30,
        pattern_nodes: 6,
        updates: 40,
        seed: 7,
        backend: default_backend,
        max_index_gb: DEFAULT_MAX_INDEX_GB,
        cache_budget_mb: None,
        nodes: 100_000,
        edges: 400_000,
        patterns: 3,
        ticks: 5,
        trace: None,
        shards: None,
        stats: false,
        stats_json: None,
        subscribe: false,
        trace_summary: false,
        trace_out: None,
        metrics_out: None,
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut take_str = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--labels" => args.labels = parse_num(take_str("--labels")?, "--labels")?,
            "--pattern-nodes" => {
                args.pattern_nodes = parse_num(take_str("--pattern-nodes")?, "--pattern-nodes")?;
            }
            "--updates" => args.updates = parse_num(take_str("--updates")?, "--updates")?,
            "--seed" => args.seed = parse_num(take_str("--seed")?, "--seed")?,
            "--nodes" | "--edges" if !generated => {
                return Err(format!(
                    "{flag} only applies to `gpnm smoke`/`gpnm replay` (match/bench take \
                     their graph from the edge-list file)"
                ));
            }
            "--cache-budget-mb" if !generated => {
                return Err(format!(
                    "{flag} only applies to `gpnm smoke`/`gpnm replay` (match/bench build \
                     the paged backend with its default 64 MiB cache)"
                ));
            }
            "--cache-budget-mb" => {
                args.cache_budget_mb = Some(parse_num(take_str(flag)?, flag)?);
            }
            "--nodes" => args.nodes = parse_num(take_str("--nodes")?, "--nodes")?,
            "--edges" => args.edges = parse_num(take_str("--edges")?, "--edges")?,
            "--patterns" | "--ticks" | "--trace" | "--shards" | "--stats" | "--stats-json"
            | "--subscribe" | "--trace-summary" | "--trace-out" | "--metrics-out"
                if cmd != Cmd::Replay =>
            {
                return Err(format!("{flag} only applies to `gpnm replay`"));
            }
            "--patterns" => args.patterns = parse_num(take_str("--patterns")?, "--patterns")?,
            "--ticks" => args.ticks = parse_num(take_str("--ticks")?, "--ticks")?,
            "--trace" => args.trace = Some(take_str("--trace")?.clone()),
            "--shards" => {
                let k = parse_num(take_str("--shards")?, "--shards")?;
                if k == 0 {
                    return Err("--shards: a cluster needs at least one shard".to_owned());
                }
                args.shards = Some(k);
            }
            "--stats" => args.stats = true,
            "--stats-json" => args.stats_json = Some(take_str("--stats-json")?.clone()),
            "--subscribe" => args.subscribe = true,
            "--trace-summary" => args.trace_summary = true,
            "--trace-out" => args.trace_out = Some(take_str("--trace-out")?.clone()),
            "--metrics-out" => args.metrics_out = Some(take_str("--metrics-out")?.clone()),
            "--backend" => args.backend = take_str("--backend")?.parse()?,
            "--max-index-gb" => args.max_index_gb = parse_num(take_str(flag)?, flag)?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// A flag's number. Whether a budget's number is a usable budget is
/// `BackendKind::admit`'s decision, the same on every host.
fn parse_num<T: std::str::FromStr>(value: &str, name: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse::<T>().map_err(|e| format!("{name}: {e}"))
}

/// The engine `args` configure over `graph`: the budgets are checked and
/// an over-budget dense build refused before anything is built.
fn build_engine(
    args: &Args,
    graph: DataGraph,
    pattern: PatternGraph,
) -> Result<GpnmEngine<AnyBackend>, String> {
    GpnmEngine::with_backend_kind(
        args.backend,
        graph,
        pattern,
        args.max_index_gb,
        args.cache_budget_mb,
    )
    .map_err(|e| e.to_string())
}

/// `smoke` and `replay` size their generated graph by `--nodes`: admit
/// the configuration at that size before spending the generator's time.
fn admit_generated(args: &Args) -> Result<(), String> {
    args.backend
        .admit(args.nodes, args.max_index_gb, args.cache_budget_mb)
        .map_err(|e| e.to_string())
}

fn load(path: &str, args: &Args) -> Result<(DataGraph, LabelInterner), String> {
    let path = PathBuf::from(path);
    from_edge_list(&path, args.labels, args.seed)
        .map_err(|e| format!("cannot load {}: {e}", path.display()))
}

fn make_pattern(args: &Args, interner: &LabelInterner) -> PatternGraph {
    generate_pattern(
        &PatternConfig {
            nodes: args.pattern_nodes,
            edges: args.pattern_nodes,
            bound_range: (1, 3),
            seed: args.seed,
        },
        interner,
    )
}

fn cmd_match(path: &str, args: &Args) -> Result<(), String> {
    let (graph, interner) = load(path, args)?;
    eprintln!(
        "loaded {} nodes / {} edges; building {} SLen index ...",
        graph.node_count(),
        graph.edge_count(),
        args.backend
    );
    let pattern = make_pattern(args, &interner);
    let mut engine = build_engine(args, graph, pattern)?;
    engine.initial_query();
    eprintln!(
        "index: {} rows resident, ~{:.1} MiB",
        engine.backend().resident_rows(),
        engine.backend().mem_bytes() as f64 / (1u64 << 20) as f64
    );
    println!(
        "{}",
        render_match_table(engine.pattern(), engine.result(), &interner, |n| n
            .to_string())
    );
    Ok(())
}

fn cmd_bench(path: &str, args: &Args) -> Result<(), String> {
    let (graph, interner) = load(path, args)?;
    let pattern = make_pattern(args, &interner);
    let mut base = build_engine(args, graph, pattern)?;
    base.initial_query();
    let protocol = UpdateProtocol::from_scale(args.pattern_nodes, args.updates);
    let batch = generate_batch(
        base.graph(),
        base.pattern(),
        &interner,
        &protocol,
        args.seed,
    );
    println!("backend: {}", args.backend);
    println!("batch: {} updates", batch.len());
    println!(
        "{:<15} {:>14} {:>11} {:>8}",
        "strategy", "query time", "eliminated", "repairs"
    );
    for strategy in Strategy::PAPER {
        let mut engine = base.clone();
        let stats = engine
            .subsequent_query(&batch, strategy)
            .map_err(|e| e.to_string())?;
        println!(
            "{:<15} {:>14?} {:>11} {:>8}",
            strategy.name(),
            stats.total_time,
            stats.eliminated,
            stats.repair_calls
        );
    }
    Ok(())
}

/// The large-graph end-to-end smoke: generate a power-law graph, answer
/// `IQuery`, apply a generated batch, answer `SQuery` — printing the
/// footprint numbers CI asserts on.
fn cmd_smoke(args: &Args) -> Result<(), String> {
    admit_generated(args)?;
    let t = std::time::Instant::now();
    let (graph, interner) = generate_social_graph(&SocialGraphConfig {
        nodes: args.nodes,
        edges: args.edges,
        labels: args.labels,
        communities: args.labels,
        seed: args.seed,
        ..Default::default()
    });
    println!(
        "generated {} nodes / {} edges in {:?}",
        graph.node_count(),
        graph.edge_count(),
        t.elapsed()
    );
    let pattern = make_pattern(args, &interner);
    let t = std::time::Instant::now();
    let mut engine = build_engine(args, graph, pattern)?;
    let build_time = t.elapsed();
    let t = std::time::Instant::now();
    engine.initial_query();
    println!(
        "backend={} build={build_time:?} iquery={:?} matches={} resident_rows={} index_mib={:.1}",
        args.backend,
        t.elapsed(),
        engine.result().total_matches(),
        engine.backend().resident_rows(),
        engine.backend().mem_bytes() as f64 / (1u64 << 20) as f64
    );
    let protocol = UpdateProtocol::from_scale(args.pattern_nodes, args.updates);
    let batch = generate_batch(
        engine.graph(),
        engine.pattern(),
        &interner,
        &protocol,
        args.seed,
    );
    let stats = engine
        .subsequent_query(&batch, Strategy::UaGpnm)
        .map_err(|e| e.to_string())?;
    println!(
        "squery: {} — matches={} resident_rows={} index_mib={:.1}",
        stats.summary(),
        engine.result().total_matches(),
        engine.backend().resident_rows(),
        engine.backend().mem_bytes() as f64 / (1u64 << 20) as f64
    );
    if let Some(io) = engine.backend().io_stats() {
        println!(
            "paging: hits={} misses={} hit_rate={:.1}% evictions={} pages_read={} \
             pages_written={}",
            io.cache_hits,
            io.cache_misses,
            io.hit_rate() * 100.0,
            io.cache_evictions,
            io.pages_read,
            io.pages_written,
        );
    }
    Ok(())
}

/// Parse a trace file into per-tick chunks (separated by `---` lines).
/// Split line-wise: only an all-dash line is a separator — deletion ops
/// (`-DE ...`) legitimately start with a dash and must survive intact.
fn parse_trace_chunks(path: &str) -> Result<Vec<String>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read trace {path}: {e}"))?;
    let mut chunks = vec![String::new()];
    for line in text.lines() {
        let trimmed = line.trim();
        if !trimmed.is_empty() && trimmed.chars().all(|c| c == '-') {
            chunks.push(String::new());
        } else {
            let current = chunks.last_mut().expect("starts non-empty");
            current.push_str(line);
            current.push('\n');
        }
    }
    // Blank/comment-only chunks (e.g. a trailing separator) carry no tick.
    chunks.retain(|c| {
        c.lines()
            .any(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
    });
    Ok(chunks)
}

/// One tick's batch: the next trace chunk, or a generated batch against
/// the current graph state.
fn tick_batch(
    args: &Args,
    trace_chunks: &Option<Vec<String>>,
    tick: usize,
    graph: &DataGraph,
    interner: &mut LabelInterner,
    protocol: &UpdateProtocol,
) -> Result<UpdateBatch, String> {
    match trace_chunks {
        Some(chunks) => {
            read_trace(&chunks[tick], interner).map_err(|e| format!("trace tick {tick}: {e}"))
        }
        None => Ok(generate_batch(
            graph,
            &PatternGraph::new(),
            interner,
            protocol,
            args.seed + 1000 + tick as u64,
        )),
    }
}

/// The k standing patterns a replay registers, in registration order.
fn replay_patterns(args: &Args, interner: &LabelInterner) -> Vec<PatternGraph> {
    (0..args.patterns)
        .map(|i| {
            generate_pattern(
                &PatternConfig {
                    nodes: args.pattern_nodes,
                    edges: args.pattern_nodes,
                    bound_range: (1, 3),
                    seed: args.seed + i as u64,
                },
                interner,
            )
        })
        .collect()
}

/// The continuous-query mode: k standing patterns over a stream of
/// data-update batches, per-tick per-pattern deltas — on one
/// `GpnmService`, or (with `--shards`) on a `GpnmCluster` whose ticks fan
/// out across the shards in parallel. Both run the *same*
/// [`PatternHost`]-generic register + tick loop ([`replay_register`] /
/// [`replay_ticks`]); `--shards` only changes which host is built and
/// which footprint lines print around it.
fn run_replay(args: &Args) -> Result<(), String> {
    admit_generated(args)?;
    let t = std::time::Instant::now();
    let (graph, mut interner) = generate_social_graph(&SocialGraphConfig {
        nodes: args.nodes,
        edges: args.edges,
        labels: args.labels,
        communities: args.labels,
        seed: args.seed,
        ..Default::default()
    });
    println!(
        "generated {} nodes / {} edges in {:?}",
        graph.node_count(),
        graph.edge_count(),
        t.elapsed()
    );
    let trace_chunks: Option<Vec<String>> = match &args.trace {
        Some(path) => Some(parse_trace_chunks(path)?),
        None => None,
    };

    // Span collection is opt-in: without a collector the instrumentation
    // in the tick pipeline stays on the disabled fast path.
    let collector = (args.trace_summary || args.trace_out.is_some())
        .then(ua_gpnm::telemetry::install_collector);
    let result = match args.shards {
        Some(shards) => run_replay_cluster(args, graph, &mut interner, trace_chunks, shards),
        None => run_replay_service(args, graph, &mut interner, trace_chunks),
    };
    if collector.is_some() {
        ua_gpnm::telemetry::uninstall_collector();
    }
    result?;

    if let Some(collector) = collector {
        let trace = collector.finish();
        if args.trace_summary {
            println!("{}", trace.summary_table());
        }
        if let Some(path) = &args.trace_out {
            std::fs::write(path, trace.chrome_json())
                .map_err(|e| format!("cannot write --trace-out {path}: {e}"))?;
            println!(
                "wrote Chrome trace-event JSON to {path} (load in chrome://tracing or Perfetto)"
            );
        }
    }
    if let Some(path) = &args.metrics_out {
        std::fs::write(path, ua_gpnm::telemetry::metrics_text())
            .map_err(|e| format!("cannot write --metrics-out {path}: {e}"))?;
        println!("wrote Prometheus text metrics to {path}");
    }
    Ok(())
}

/// Register the replay's standing patterns on any [`PatternHost`],
/// printing one line per registration.
fn replay_register<H: PatternHost>(
    host: &mut H,
    args: &Args,
    interner: &LabelInterner,
) -> Result<(), String> {
    for pattern in replay_patterns(args, interner) {
        let t = std::time::Instant::now();
        let handle = host
            .register_pattern(pattern, MatchSemantics::Simulation)
            .map_err(|e| e.to_string())?;
        println!(
            "registered {handle}: {} matches in {:?}",
            host.result(handle)
                .map_err(|e| e.to_string())?
                .total_matches(),
            t.elapsed()
        );
    }
    Ok(())
}

/// Stream the replay's ticks through any [`PatternHost`], printing the
/// per-tick summary, per-pattern delta lines, and (with `--stats`) the
/// host's stats rendering. With `--subscribe`, each pattern's deltas are
/// additionally consumed through the subscription API and cross-checked:
/// the stream folded over the pre-tick [`ReadView`] must reconstruct the
/// final published view exactly.
fn replay_ticks<H: PatternHost>(
    host: &mut H,
    args: &Args,
    interner: &mut LabelInterner,
    trace_chunks: Option<Vec<String>>,
) -> Result<(), String> {
    use std::io::Write as _;
    let mut json_out = match &args.stats_json {
        Some(path) => Some(
            std::fs::File::create(path)
                .map_err(|e| format!("cannot create --stats-json {path}: {e}"))?,
        ),
        None => None,
    };

    // Subscribe before the first tick so the streams are gap-free from
    // the base views down.
    let mut streams: Vec<(H::Handle, Subscription, MatchResult)> = Vec::new();
    if args.subscribe {
        for handle in host.handles() {
            let base = host.read_view(handle).map_err(|e| e.to_string())?;
            let sub = host.subscribe(handle).map_err(|e| e.to_string())?;
            streams.push((handle, sub, base.result.clone()));
        }
    }

    let ticks = trace_chunks.as_ref().map_or(args.ticks, Vec::len);
    let protocol = UpdateProtocol::from_scale(0, args.updates);
    for tick in 0..ticks {
        let batch = tick_batch(args, &trace_chunks, tick, host.graph(), interner, &protocol)?;
        let report = host.apply(&batch).map_err(|e| e.to_string())?;
        println!("{}", report.summary());
        for (handle, delta) in report.deltas() {
            println!(
                "  {handle}: +{} -{} (v{})",
                delta.added.len(),
                delta.removed.len(),
                delta.result_version
            );
        }
        if args.stats {
            println!("{}", report.render_stats());
        }
        if let Some(out) = &mut json_out {
            writeln!(out, "{}", report.stats_json())
                .map_err(|e| format!("cannot write --stats-json: {e}"))?;
        }
    }

    for (handle, sub, mut folded) in streams {
        let mut events = 0usize;
        while let Some(event) = sub.try_recv() {
            match event {
                SubEvent::Delta(delta) => {
                    folded = delta.apply_to(&folded);
                    events += 1;
                }
                SubEvent::Lagged {
                    missed_versions,
                    delta,
                } => {
                    println!("  {handle}: lagged — {missed_versions} ticks coalesced into one");
                    folded = delta.apply_to(&folded);
                    events += 1;
                }
                SubEvent::Closed => break,
            }
        }
        let live = host.read_view(handle).map_err(|e| e.to_string())?;
        if folded == live.result {
            println!(
                "subscription {handle}: {events} events reconstruct the live view (v{}, {} matches)",
                live.result_version,
                live.result.total_matches(),
            );
        } else {
            return Err(format!(
                "subscription {handle}: folded stream diverges from the live view (v{})",
                live.result_version
            ));
        }
    }
    Ok(())
}

fn run_replay_service(
    args: &Args,
    graph: DataGraph,
    interner: &mut LabelInterner,
    trace_chunks: Option<Vec<String>>,
) -> Result<(), String> {
    // The builder is the fallible construction path: a dense backend on a
    // 100k-node graph comes back as a typed refusal, not an OOM kill.
    let mut builder = GpnmService::builder()
        .backend(args.backend)
        .max_index_gb(args.max_index_gb);
    if let Some(mb) = args.cache_budget_mb {
        builder = builder.cache_budget_mb(mb);
    }
    let mut service = builder.build(graph).map_err(|e| e.to_string())?;

    replay_register(&mut service, args, interner)?;
    println!(
        "union requirements (label:horizon[kept]): {}; index: {} rows resident, {:.1} MiB ({})",
        service.requirements().render(interner),
        service.backend().resident_rows(),
        service.backend().mem_bytes() as f64 / (1u64 << 20) as f64,
        service.backend().kind(),
    );

    replay_ticks(&mut service, args, interner, trace_chunks)?;
    println!(
        "final: {} nodes / {} edges, index {} rows resident, {:.1} MiB",
        service.graph().node_count(),
        service.graph().edge_count(),
        service.backend().resident_rows(),
        service.backend().mem_bytes() as f64 / (1u64 << 20) as f64,
    );
    Ok(())
}

fn run_replay_cluster(
    args: &Args,
    graph: DataGraph,
    interner: &mut LabelInterner,
    trace_chunks: Option<Vec<String>>,
    shards: usize,
) -> Result<(), String> {
    let mut builder = GpnmCluster::builder()
        .shards(shards)
        .backend(args.backend)
        .max_index_gb(args.max_index_gb);
    if let Some(mb) = args.cache_budget_mb {
        builder = builder.cache_budget_mb(mb);
    }
    let mut cluster = builder.build(graph).map_err(|e| e.to_string())?;

    replay_register(&mut cluster, args, interner)?;
    for (i, shard) in cluster.shards().iter().enumerate() {
        println!(
            "shard {i}: {} patterns, horizons[kept] {}, {} rows resident, {:.1} MiB ({})",
            shard.pattern_count(),
            shard.requirements().render(interner),
            shard.backend().resident_rows(),
            shard.backend().mem_bytes() as f64 / (1u64 << 20) as f64,
            shard.backend().kind(),
        );
    }
    println!(
        "cluster total: {} rows resident, {:.1} MiB across {} shards",
        cluster.total_resident_rows(),
        cluster.total_index_bytes() as f64 / (1u64 << 20) as f64,
        cluster.shard_count(),
    );

    replay_ticks(&mut cluster, args, interner, trace_chunks)?;
    println!(
        "final: {} nodes / {} edges, cluster index {} rows resident, {:.1} MiB",
        cluster.graph().node_count(),
        cluster.graph().edge_count(),
        cluster.total_resident_rows(),
        cluster.total_index_bytes() as f64 / (1u64 << 20) as f64,
    );
    Ok(())
}

fn cmd_demo() {
    let fig = ua_gpnm::graph::paper::fig1();
    let reverse: std::collections::HashMap<NodeId, String> =
        fig.names.iter().map(|(k, &v)| (v, k.clone())).collect();
    let mut engine = GpnmEngine::new(fig.graph, fig.pattern, MatchSemantics::Simulation);
    engine.initial_query();
    println!(
        "{}",
        render_match_table(engine.pattern(), engine.result(), &fig.interner, |n| {
            reverse[&n].clone()
        })
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.split_first() {
        Some((cmd, _rest)) if cmd == "demo" => {
            cmd_demo();
            Ok(())
        }
        Some((cmd, rest)) if cmd == "match" && !rest.is_empty() => {
            match parse_flags(&rest[1..], BackendKind::Partitioned, Cmd::FromFile) {
                Ok(args) => cmd_match(&rest[0], &args),
                Err(e) => Err(e),
            }
        }
        Some((cmd, rest)) if cmd == "bench" && !rest.is_empty() => {
            match parse_flags(&rest[1..], BackendKind::Partitioned, Cmd::FromFile) {
                Ok(args) => cmd_bench(&rest[0], &args),
                Err(e) => Err(e),
            }
        }
        Some((cmd, rest)) if cmd == "smoke" => {
            match parse_flags(rest, BackendKind::Sparse, Cmd::Smoke) {
                Ok(args) => cmd_smoke(&args),
                Err(e) => Err(e),
            }
        }
        Some((cmd, rest)) if cmd == "replay" => {
            match parse_flags(rest, BackendKind::Sparse, Cmd::Replay) {
                Ok(args) => run_replay(&args),
                Err(e) => Err(e),
            }
        }
        _ => Err(
            "usage: gpnm demo | gpnm match <edge-list> [flags] | gpnm bench <edge-list> [flags] \
             | gpnm smoke [flags] | gpnm replay [flags]\n\
             flags: --backend partitioned|sparse|paged --max-index-gb G\n\
             \x20      --cache-budget-mb M (smoke/replay, paged backend)\n\
             \x20      --labels N --pattern-nodes N --updates N --seed S\n\
             \x20      --nodes N --edges M (smoke/replay only)\n\
             \x20      --patterns K --ticks T --trace FILE (replay only)\n\
             \x20      --shards K --stats --stats-json FILE --subscribe (replay only)\n\
             \x20      --trace-summary --trace-out FILE --metrics-out FILE (replay only)"
                .to_owned(),
        ),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
