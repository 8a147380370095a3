#![forbid(unsafe_code)]
//! # cnp-nn — minimal neural-network library for CN-Probase
//!
//! The paper's *neural generation* component (§II) needs an
//! encoder-decoder with a copy mechanism (CopyNet, Gu et al. 2016). No
//! deep-learning framework is available offline, so this crate implements
//! the required machinery from scratch:
//!
//! * [`tensor`] — dense f32 matrices and stable softmax/sigmoid.
//! * [`params`] — learnable parameter storage with gradient accumulators.
//! * [`tape`] — reverse-mode autodiff over a linear tape, with a fused
//!   generate/copy mixture loss (gradient-checked against finite
//!   differences).
//! * [`vocab`] — token vocabulary with PAD/BOS/EOS/UNK.
//! * [`optim`] — Adam with global-norm gradient clipping.
//! * [`copynet`] — the GRU encoder-decoder with attention and copy
//!   mechanism, teacher-forced training and greedy decoding.

pub mod copynet;
pub mod optim;
pub mod params;
pub mod tape;
pub mod tensor;
pub mod vocab;

pub use copynet::{CopyNet, CopyNetConfig, CopySample};
pub use optim::Adam;
pub use params::{ParamId, Params};
pub use tape::{NodeId, Tape};
pub use tensor::Matrix;
pub use vocab::Vocab;
