//! Every metric the harness can report, by name: unit, direction, and —
//! for end-to-end metrics — the share of the baseline median by which it
//! may worsen before `--compare` calls it a regression. Per-layer metrics
//! carry no bound: they explain a move, they do not gate one.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

/// One catalogue entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name as printed and as keyed in result files.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound for end-to-end metrics; `None` for per-layer ones.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The catalogue. End-to-end metrics first.
pub const METRICS: &[MetricDef] = &[
    // ---- end to end -------------------------------------------------------
    e2e("setup_s", "s", Lower, 0.25),
    e2e("qps", "1/s", Higher, 0.25),
    e2e("p50_us", "us", Lower, 0.25),
    e2e("p99_us", "us", Lower, 0.25),
    e2e("lookup_p50_us", "us", Lower, 0.25),
    e2e("lookup_p99_us", "us", Lower, 0.25),
    e2e("tag_p50_us", "us", Lower, 0.25),
    e2e("tag_p99_us", "us", Lower, 0.25),
    e2e("tag_p999_us", "us", Lower, 0.25),
    e2e("ingest_apply_p50_ms", "ms", Lower, 0.25),
    e2e("ingest_apply_p90_ms", "ms", Lower, 0.25),
    e2e("server_cpu_us_per_query", "us", Lower, 0.25),
    e2e("server_rss_mb", "MB", Lower, 0.10),
    e2e("failed_share", "share", Lower, 0.00),
    e2e("build_pages_per_s", "1/s", Higher, 0.25),
    e2e("boot_ms", "ms", Lower, 0.25),
    e2e("snapshot_bytes", "bytes", Lower, 0.01),
    // ---- cnp_server::http ------------------------------------------------
    layer("http.read_request_ns", "ns", Lower),
    layer("http.write_response_ns", "ns", Lower),
    layer("server.ctx_switches_per_query", "count", Lower),
    layer("socket.residual_us", "us", Lower),
    // ---- cnp_serve::json / ::wire ----------------------------------------
    layer("json.parse_ns", "ns", Lower),
    layer("json.write_ns", "ns", Lower),
    layer("json.request_bytes", "bytes", Lower),
    layer("json.response_bytes", "bytes", Lower),
    layer("wire.decode_query_ns", "ns", Lower),
    layer("wire.encode_response_ns", "ns", Lower),
    // ---- cnp_serve::exec / ::service -------------------------------------
    layer("serve.execute_self_ns", "ns", Lower),
    layer("serve.execute_ns.men2ent", "ns", Lower),
    layer("serve.execute_ns.getConcept", "ns", Lower),
    layer("serve.execute_ns.getEntity", "ns", Lower),
    layer("serve.execute_ns.getConceptByMention", "ns", Lower),
    layer("serve.execute_ns.mentionSenses", "ns", Lower),
    layer("serve.execute_ns.isA", "ns", Lower),
    layer("serve.execute_ns.ancestorsOf", "ns", Lower),
    layer("serve.execute_ns.tag", "ns", Lower),
    layer("serve.execute_batch_us", "us", Lower),
    layer("serve.items_per_response", "count", Lower),
    layer("serve.ingest_ms", "ms", Lower),
    layer("serve.compact_ms", "ms", Lower),
    layer("serve.compactions_published", "count", Lower),
    layer("serve.overlay_depth_max", "count", Lower),
    // ---- cnp_taxonomy::view (reads on the booted base) -------------------
    layer("taxonomy.men2ent_ns", "ns", Lower),
    layer("taxonomy.find_entity_ns", "ns", Lower),
    layer("taxonomy.find_concept_ns", "ns", Lower),
    layer("taxonomy.concepts_of_ns", "ns", Lower),
    layer("taxonomy.entities_of_ns", "ns", Lower),
    layer("taxonomy.ancestors_ns", "ns", Lower),
    layer("taxonomy.rows_decoded_per_call", "count", Lower),
    // ---- cnp_taxonomy::overlay / ::compact -------------------------------
    layer("overlay.men2ent_ns.d0", "ns", Lower),
    layer("overlay.men2ent_ns.d4", "ns", Lower),
    layer("overlay.concepts_of_ns.d0", "ns", Lower),
    layer("overlay.concepts_of_ns.d4", "ns", Lower),
    layer("overlay.ancestors_ns.d0", "ns", Lower),
    layer("overlay.ancestors_ns.d4", "ns", Lower),
    layer("overlay.apply_ms", "ms", Lower),
    layer("overlay.decode_us", "us", Lower),
    layer("compact.compacted_ms", "ms", Lower),
    // ---- cnp_tag / cnp_text ----------------------------------------------
    layer("tag.index_build_ms", "ms", Lower),
    layer("tag.index_words", "count", Lower),
    layer("tag.resolve_spans_us", "us", Lower),
    layer("tag.score_spans_us", "us", Lower),
    layer("tag.spans_per_doc", "count", Lower),
    layer("text.segment_us", "us", Lower),
    layer("load.tag_over_2ms_share", "share", Lower),
    // ---- cnp_taxonomy::persist / ::frozen --------------------------------
    layer("persist.encode_v3_ms", "ms", Lower),
    layer("view.open_ms", "ms", Lower),
    layer("frozen.freeze_ms", "ms", Lower),
    layer("persist.bytes_per_edge", "bytes", Lower),
    // ---- cnp_core / cnp_encyclopedia / cnp_nn ----------------------------
    layer("core.stage_ms.context", "ms", Lower),
    layer("core.stage_ms.bracket", "ms", Lower),
    layer("core.stage_ms.infobox", "ms", Lower),
    layer("core.stage_ms.abstract", "ms", Lower),
    layer("core.stage_ms.tag", "ms", Lower),
    layer("core.stage_ms.merge", "ms", Lower),
    layer("core.stage_ms.verification", "ms", Lower),
    layer("core.stage_ms.assembly", "ms", Lower),
    layer("core.candidates_merged", "count", Higher),
    layer("core.candidates_surviving", "count", Higher),
    layer("core.isa_precision", "share", Higher),
    layer("encyclopedia.generate_ms", "ms", Lower),
    // ---- the harness itself (validity of the run) ------------------------
    layer("load.send_lag_p99_us", "us", Lower),
    layer("load.client_cpu_share", "share", Lower),
    layer("load.host_probe_us", "us", Lower),
    layer("load.host_scale", "ratio", Lower),
    layer("replay.request_ns", "ns", Lower),
    layer("replay.request_p50_ns", "ns", Lower),
    layer("trace.self_time_coverage", "share", Higher),
    layer("trace.overhead_share", "share", Lower),
];

/// Looks a metric up by name.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = HashSet::new();
        for m in METRICS {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            if let Some(bound) = m.bound {
                assert!((0.0..=0.25).contains(&bound), "{}", m.name);
            }
        }
        assert_eq!(METRICS.iter().filter(|m| m.bound.is_some()).count(), 17);
    }
}
