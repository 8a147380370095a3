//! Table I: the four-system comparison.
//!
//! Runs CN-Probase and the three baselines on one corpus and reports the
//! paper's four columns — # entities, # concepts, # isA relations,
//! precision (sampled, 2 000 pairs) — in the same row order. The paper
//! reports, at full scale:
//!
//! | Taxonomy             | # entities | # concepts |      # isA | precision |
//! |----------------------|-----------:|-----------:|-----------:|----------:|
//! | Chinese WikiTaxonomy |    581 616 |     79 470 |  1 317 956 |    97.6 % |
//! | Bigcilin             |  9 000 000 |     70 000 | 10 000 000 |    90.0 % |
//! | Probase-Tran         |    404 910 |    151 933 |  1 819 273 |    54.5 % |
//! | CN-Probase           | 15 066 667 |    270 025 | 32 925 306 |    95.0 % |
//!
//! A synthetic corpus is orders of magnitude smaller, so only the shape
//! carries over: CN-Probase is the largest, and precision orders
//! WikiTaxonomy ≥ CN-Probase > Bigcilin ≫ Probase-Tran
//! (`table1_shape_holds`; `--nocapture` prints the measured table).

use crate::baselines::{bigcilin, probase_tran, wikitaxonomy, BaselineResult};
use crate::precision;
use cnp_core::pipeline::{Pipeline, PipelineConfig};
use cnp_encyclopedia::Corpus;
use std::fmt;

/// One Table I row.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRow {
    /// System name.
    pub name: String,
    /// Entity count.
    pub entities: usize,
    /// Concept count.
    pub concepts: usize,
    /// isA relation count.
    pub is_a: usize,
    /// Sampled precision.
    pub precision: f64,
}

/// The comparison result (rows in the paper's order).
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Rows: WikiTaxonomy, Bigcilin, Probase-Tran, CN-Probase.
    pub rows: Vec<TableRow>,
}

/// Sampled-precision protocol size (paper: 2 000 pairs).
pub const PRECISION_SAMPLE: usize = 2_000;

fn row_of(result: &BaselineResult, corpus: &Corpus, seed: u64) -> TableRow {
    let est = precision::estimate(&result.candidates, &corpus.gold, PRECISION_SAMPLE, seed);
    TableRow {
        name: result.name.to_string(),
        entities: result.taxonomy.num_entities(),
        concepts: result.taxonomy.num_concepts(),
        is_a: result.taxonomy.num_is_a(),
        precision: est.precision(),
    }
}

/// Runs the full Table I comparison, every pipeline on
/// [`PipelineConfig::fast`]; `seed` makes the sampling reproducible.
pub fn run(corpus: &Corpus, seed: u64) -> Comparison {
    let wiki = wikitaxonomy::build(corpus);
    let big = bigcilin::build(corpus);
    let tran = probase_tran::build(corpus, &Default::default(), seed);

    let outcome = Pipeline::new(PipelineConfig::fast()).run(corpus);
    let cnp = BaselineResult {
        name: "CN-Probase",
        taxonomy: outcome.taxonomy,
        candidates: outcome.candidates,
    };

    Comparison {
        rows: vec![
            row_of(&wiki, corpus, seed),
            row_of(&big, corpus, seed ^ 1),
            row_of(&tran, corpus, seed ^ 2),
            row_of(&cnp, corpus, seed ^ 3),
        ],
    }
}

impl Comparison {
    /// Row lookup by name.
    pub fn row(&self, name: &str) -> Option<&TableRow> {
        self.rows.iter().find(|r| r.name == name)
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table I: Comparisons with other taxonomies")?;
        writeln!(
            f,
            "{:<22} {:>10} {:>10} {:>12} {:>10}",
            "Taxonomy", "# entities", "# concepts", "# isA", "precision"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<22} {:>10} {:>10} {:>12} {:>9.1}%",
                r.name,
                r.entities,
                r.concepts,
                r.is_a,
                r.precision * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnp_encyclopedia::{CorpusConfig, CorpusGenerator};

    /// The headline shape of Table I must hold at test scale:
    /// CN-Probase is the largest; precision ordering
    /// WikiTaxonomy ≥ CN-Probase > Bigcilin ≫ Probase-Tran.
    #[test]
    fn table1_shape_holds() {
        let corpus = CorpusGenerator::new(CorpusConfig::small(101)).generate();
        let cmp = run(&corpus, 7);
        assert_eq!(cmp.rows.len(), 4);
        let wiki = cmp.row("Chinese WikiTaxonomy").unwrap();
        let big = cmp.row("Bigcilin").unwrap();
        let tran = cmp.row("Probase-Tran").unwrap();
        let cnp = cmp.row("CN-Probase").unwrap();

        // Size: CN-Probase dominates entities and relations.
        assert!(cnp.entities > big.entities);
        assert!(big.entities > wiki.entities);
        assert!(cnp.is_a > big.is_a);
        assert!(
            cnp.is_a > 10 * wiki.is_a,
            "CN-P {} vs WikiT {}",
            cnp.is_a,
            wiki.is_a
        );
        // Concepts: in the paper CN-Probase has ~4× Bigcilin's concepts;
        // at compressed test scale the gap narrows (both approach the
        // ontology size), so assert non-collapse rather than dominance.
        assert!(cnp.concepts > wiki.concepts);
        assert!(cnp.concepts * 2 >= big.concepts);

        // Precision ordering.
        assert!(
            cnp.precision > 0.90,
            "CN-Probase precision {:.3}",
            cnp.precision
        );
        assert!(
            cnp.precision > big.precision,
            "cnp {:.3} vs big {:.3}",
            cnp.precision,
            big.precision
        );
        assert!(big.precision > tran.precision + 0.15);
        assert!(tran.precision < 0.70);
        // WikiTaxonomy is at least CN-Probase-level precise.
        assert!(wiki.precision + 0.03 > cnp.precision);
        println!("{cmp}");
    }

    #[test]
    fn display_renders_four_rows() {
        let corpus = CorpusGenerator::new(CorpusConfig::tiny(102)).generate();
        let cmp = run(&corpus, 9);
        let text = cmp.to_string();
        assert!(text.contains("CN-Probase"));
        assert!(text.contains("Probase-Tran"));
        assert!(text.contains("precision"));
    }
}
