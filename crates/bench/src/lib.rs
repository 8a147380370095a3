#![forbid(unsafe_code)]
//! # cnp-bench — benchmark harness for CN-Probase
//!
//! One Criterion bench per table/figure of the paper, plus the build's
//! thread sweep. Every paper bench prints the measured table/series next to
//! the paper-reported values before running its timing loops:
//!
//! * `table1_comparison` — Table I four-system comparison.
//! * `table2_api` — Table II APIs (call mix + latency).
//! * `fig2_pipeline` — Figure 2 framework dataflow and stage timings.
//! * `fig3_separation` — Figure 3 separation-algorithm example + throughput.
//! * `source_precision` — §II in-text per-source yield/precision.
//! * `qa_coverage` — §IV-B QA coverage experiment.
//! * `ablation_verification` — verification-strategy power-set ablation.
//! * `pipeline_scaling` — end-to-end `Pipeline::run` at 1/2/4/8 threads.
//!
//! Serving is measured by `benchmark/` (`bash benchmark/run.sh`), not here.
