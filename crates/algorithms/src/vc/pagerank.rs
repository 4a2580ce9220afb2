//! Vertex-centric PageRank with dangling-mass redistribution.

use vertexica_common::graph::VertexId;
use vertexica_common::pregel::{
    AggKind, AggregatorSpec, InitContext, VertexContext, VertexProgram,
};

/// PageRank: `iterations` synchronous rank updates with damping factor `d`.
///
/// Superstep 0 distributes the uniform initial rank; supersteps `1..=k`
/// update from incoming shares. Dangling vertices contribute their rank
/// through the `dangling` aggregator (visible one superstep later — the same
/// timing as the message shares, so results match the synchronous reference
/// implementation exactly).
#[derive(Debug, Clone)]
pub struct PageRank {
    pub iterations: u64,
    pub damping: f64,
}

impl PageRank {
    pub fn new(iterations: u64, damping: f64) -> Self {
        PageRank { iterations, damping }
    }
}

impl VertexProgram for PageRank {
    type Value = f64;
    type Message = f64;

    fn initial_value(&self, _id: VertexId, init: &InitContext) -> f64 {
        1.0 / init.num_vertices.max(1) as f64
    }

    fn compute(&self, ctx: &mut dyn VertexContext<f64, f64>, messages: &[f64]) {
        let n = ctx.num_vertices().max(1) as f64;
        if ctx.superstep() > 0 {
            let incoming: f64 = messages.iter().sum();
            let dangling = ctx.read_aggregate("dangling").unwrap_or(0.0);
            let rank = (1.0 - self.damping) / n + self.damping * (incoming + dangling / n);
            ctx.set_value(rank);
        }
        if ctx.superstep() < self.iterations {
            let rank = *ctx.value();
            let edges = ctx.out_edges();
            if edges.is_empty() {
                ctx.aggregate("dangling", rank);
            } else {
                let share = rank / edges.len() as f64;
                let targets: Vec<VertexId> = edges.iter().map(|e| e.dst).collect();
                for t in targets {
                    ctx.send_message(t, share);
                }
            }
        } else {
            ctx.vote_to_halt();
        }
    }

    fn combine(&self, a: &f64, b: &f64) -> Option<f64> {
        Some(a + b)
    }

    fn aggregators(&self) -> Vec<AggregatorSpec> {
        vec![AggregatorSpec { name: "dangling", kind: AggKind::Sum }]
    }

    fn max_supersteps(&self) -> u64 {
        self.iterations + 1
    }

    fn name(&self) -> &'static str {
        "pagerank"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use vertexica_common::graph::EdgeList;
    use vertexica_giraph::GiraphEngine;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < tol, "index {i}: {x} vs {y}");
        }
    }

    #[test]
    fn matches_reference_on_giraph_engine() {
        let g = EdgeList::from_pairs([(0, 1), (1, 2), (2, 0), (2, 3), (3, 0), (1, 3)]);
        let (values, _) = GiraphEngine::default().run(&g, &PageRank::new(15, 0.85));
        let expected = reference::pagerank(&g, 15, 0.85);
        assert_close(&values, &expected, 1e-12);
    }

    #[test]
    fn dangling_mass_conserved() {
        // Vertex 2 is a sink.
        let g = EdgeList::from_pairs([(0, 1), (1, 2), (0, 2)]);
        let (values, _) = GiraphEngine::default().run(&g, &PageRank::new(20, 0.85));
        let total: f64 = values.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
        let expected = reference::pagerank(&g, 20, 0.85);
        assert_close(&values, &expected, 1e-12);
    }

    #[test]
    fn halts_after_configured_iterations() {
        let g = EdgeList::from_pairs([(0, 1), (1, 0)]);
        let (_, stats) = GiraphEngine::default().run(&g, &PageRank::new(5, 0.85));
        assert_eq!(stats.supersteps, 6); // 0..=5
    }
}
