//! Layered benchmark of the production CF pipeline: a TDAccess log feeds
//! the tstorm CF topology, which keeps its state in TDStore with `ckpt`
//! checkpoints, and `TopologyRecommender` answers queries from that state.
//! See `README.md` for the workloads and metrics.

pub mod check;
pub mod env;
pub mod gen;
pub mod oracle;
pub mod report;
pub mod stream;
pub mod sys;
pub mod workloads;
