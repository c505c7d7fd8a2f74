//! The five evaluation graphs (paper Table X) as laptop-scale stand-ins.
//!
//! | paper dataset | paper size | stand-in size | ratio preserved |
//! |---|---|---|---|
//! | email-EU-core | 1,005 / 25,571 | 1,005 / 25,571 | 1:1 |
//! | DBLP | 317,080 / 1,049,866 | 3,000 / 9,934 | m/n ≈ 3.3 |
//! | Amazon | 334,863 / 925,872 | 3,300 / 9,124 | m/n ≈ 2.8 |
//! | Youtube | 1,134,890 / 2,987,624 | 4,000 / 10,529 | m/n ≈ 2.6 |
//! | LiveJournal | 3,997,962 / 34,681,189 | 5,000 / 43,376 | m/n ≈ 8.7 |
//!
//! email-EU-core reproduces at full scale; the others shrink node counts
//! to what dense `SLen` handles on a laptop while preserving edge density
//! (the first-order driver of BFS/repair cost) and the relative size
//! ordering. [`from_edge_list`] loads the real SNAP files when available.

use std::io::BufRead;
use std::path::Path;

use gpnm_graph::{DataGraph, Label, LabelInterner, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gen::social::{generate_social_graph, SocialGraphConfig};

/// The five evaluation datasets of paper Table X.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// email-EU-core: 1,005 nodes / 25,571 edges (generated 1:1).
    EmailEuCore,
    /// DBLP stand-in (paper: 317,080 / 1,049,866).
    DblpSim,
    /// Amazon stand-in (paper: 334,863 / 925,872).
    AmazonSim,
    /// Youtube stand-in (paper: 1,134,890 / 2,987,624).
    YoutubeSim,
    /// LiveJournal stand-in (paper: 3,997,962 / 34,681,189).
    LiveJournalSim,
}

impl Dataset {
    /// All five, in the paper's Table X order.
    pub const ALL: [Dataset; 5] = [
        Dataset::EmailEuCore,
        Dataset::DblpSim,
        Dataset::AmazonSim,
        Dataset::YoutubeSim,
        Dataset::LiveJournalSim,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::EmailEuCore => "email-EU-core",
            Dataset::DblpSim => "DBLP(sim)",
            Dataset::AmazonSim => "Amazon(sim)",
            Dataset::YoutubeSim => "Youtube(sim)",
            Dataset::LiveJournalSim => "LiveJournal(sim)",
        }
    }

    /// The stand-in generator configuration.
    pub fn config(&self, seed: u64) -> SocialGraphConfig {
        let (nodes, edges) = match self {
            Dataset::EmailEuCore => (1_005, 25_571),
            Dataset::DblpSim => (3_000, 9_934),
            Dataset::AmazonSim => (3_300, 9_124),
            Dataset::YoutubeSim => (4_000, 10_529),
            Dataset::LiveJournalSim => (5_000, 43_376),
        };
        SocialGraphConfig {
            nodes,
            edges,
            labels: 60,
            communities: 60,
            label_coherence: 0.85,
            intra_community_bias: 0.8,
            seed,
        }
    }

    /// A smaller variant of the same shape for CI-speed experiments
    /// (`scale_div` divides both node and edge counts).
    pub fn config_scaled(&self, seed: u64, scale_div: usize) -> SocialGraphConfig {
        let mut cfg = self.config(seed);
        cfg.nodes = (cfg.nodes / scale_div).max(60);
        cfg.edges = (cfg.edges / scale_div).max(cfg.nodes);
        cfg.labels = cfg.labels.min(cfg.nodes / 4).max(4);
        cfg.communities = cfg.labels;
        cfg
    }

    /// Generate the stand-in graph.
    pub fn build(&self, seed: u64) -> (DataGraph, LabelInterner) {
        generate_social_graph(&self.config(seed))
    }
}

/// Load a SNAP-style whitespace-separated edge list (`u v` per line,
/// `#`-prefixed comments), assigning labels with the same
/// community-coherent scheme as the synthetic generator (SNAP graphs are
/// unlabeled; GPNM needs labels — DESIGN.md §5).
pub fn from_edge_list(
    path: &Path,
    labels: usize,
    seed: u64,
) -> std::io::Result<(DataGraph, LabelInterner)> {
    let file = std::fs::File::open(path)?;
    let reader = std::io::BufReader::new(file);
    let mut raw_edges: Vec<(usize, usize)> = Vec::new();
    let mut max_id = 0usize;
    for line in reader.lines() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let (Some(a), Some(b)) = (it.next(), it.next()) else {
            continue;
        };
        let (Ok(a), Ok(b)) = (a.parse::<usize>(), b.parse::<usize>()) else {
            continue;
        };
        max_id = max_id.max(a).max(b);
        raw_edges.push((a, b));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut interner = LabelInterner::new();
    let label_ids: Vec<Label> = (0..labels.max(1))
        .map(|i| interner.intern(&format!("L{i}")))
        .collect();
    let mut graph = DataGraph::with_capacity(max_id + 1);
    // Community = contiguous id blocks (SNAP ids cluster by crawl order,
    // a reasonable community proxy); coherent labels per block.
    let block = (max_id + 1).div_ceil(labels.max(1)).max(1);
    let ids: Vec<NodeId> = (0..=max_id)
        .map(|i| {
            let dominant = (i / block) % label_ids.len();
            let label = if rng.gen_bool(0.85) {
                label_ids[dominant]
            } else {
                label_ids[rng.gen_range(0..label_ids.len())]
            };
            graph.add_node(label)
        })
        .collect();
    graph.add_edges_lenient(raw_edges.into_iter().map(|(a, b)| (ids[a], ids[b])));
    Ok((graph, interner))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn email_builds_at_paper_scale() {
        let (g, _) = Dataset::EmailEuCore.build(1);
        assert_eq!(g.node_count(), 1_005);
        assert_eq!(g.edge_count(), 25_571);
    }

    #[test]
    fn stand_in_sizes_order_like_the_paper() {
        // The relative ordering of Table X must be preserved.
        let sizes: Vec<(usize, usize)> = Dataset::ALL
            .iter()
            .map(|d| {
                let c = d.config(1);
                (c.nodes, c.edges)
            })
            .collect();
        assert!(sizes
            .windows(2)
            .all(|w| w[0].0 <= w[1].0 || w[0].1 >= w[1].1));
        // LiveJournal stays the densest.
        let lj = Dataset::LiveJournalSim.config(1);
        let dblp = Dataset::DblpSim.config(1);
        assert!(lj.edges as f64 / lj.nodes as f64 > dblp.edges as f64 / dblp.nodes as f64);
    }

    #[test]
    fn scaled_configs_shrink() {
        let c = Dataset::LiveJournalSim.config_scaled(1, 10);
        assert_eq!(c.nodes, 500);
        assert!(c.edges >= c.nodes);
    }

    #[test]
    fn edge_list_loader_round_trips() {
        let dir = std::env::temp_dir().join("ua_gpnm_test_loader");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.txt");
        let mut f = std::fs::File::create(&path).unwrap();
        writeln!(f, "# comment line").unwrap();
        writeln!(f, "0 1").unwrap();
        writeln!(f, "1 2").unwrap();
        writeln!(f, "2 0").unwrap();
        writeln!(f, "2 0").unwrap(); // duplicate: skipped leniently
        writeln!(f, "3 3").unwrap(); // self loop: skipped
        drop(f);
        let (g, li) = from_edge_list(&path, 4, 9).unwrap();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(li.len(), 4);
        std::fs::remove_file(&path).ok();
    }
}
