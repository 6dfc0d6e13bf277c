//! # specdr — Specification-Based Data Reduction in Dimensional Data Warehouses
//!
//! A complete Rust reproduction of Skyt, Jensen & Pedersen,
//! *Specification-Based Data Reduction in Dimensional Data Warehouses*
//! (ICDE 2002 / TimeCenter TR-61).
//!
//! This facade crate re-exports the public API of the workspace:
//!
//! * [`mdm`] — the multidimensional data model (Section 3);
//! * [`spec`] — the reduction-action specification language (Section 4.1);
//! * [`prover`] — the decision procedure replacing PVS (Sections 5.2–5.3);
//! * [`reduce`] — the reduction semantics, soundness checks, and
//!   specification evolution (Sections 4–5);
//! * [`lint`] — static analysis over parsed specifications: span-anchored
//!   diagnostics (L001–L007) with concrete counterexamples (`specdr lint`);
//! * [`query`] — the query algebra over reduced MOs (Section 6);
//! * [`plan`] — subcube query planning: scan/skip decisions from each
//!   chunk's verdict under the query's own predicate (`specdr explain
//!   --query`);
//! * [`storage`] — the columnar star-schema substrate (Section 7);
//! * [`subcube`] — the subcube implementation strategy (Section 7);
//! * [`workload`] — the paper's example dataset and synthetic click-stream
//!   generators for the experiments;
//! * [`obs`] — the zero-dependency metrics/tracing layer wired through
//!   reduce, sync, and query (`--metrics`, `specdr stats`);
//! * [`introspect`] — warehouse introspection: the explain engine
//!   behind `specdr explain --query/--reduce/--age`.
//!
//! See `examples/quickstart.rs` for a guided tour, and `DESIGN.md` /
//! `EXPERIMENTS.md` for the experiment index.
#![warn(missing_docs)]

pub mod driver;
pub mod introspect;
pub mod serve;

pub use sdr_lint as lint;
pub use sdr_mdm as mdm;
pub use sdr_obs as obs;
pub use sdr_prover as prover;
pub use sdr_spec as spec;

pub use sdr_plan as plan;
pub use sdr_query as query;
pub use sdr_reduce as reduce;
pub use sdr_storage as storage;
pub use sdr_subcube as subcube;
pub use sdr_workload as workload;

/// Feature hygiene: a production build (`--no-default-features`, as used
/// for `specdr serve` releases) must never carry the model-checking
/// scheduler — its schedule points would serialize every lock in the
/// daemon. Cargo unifies features per build graph, so pulling `sdr-check`
/// in anywhere would silently flip `sdr-sync` to the model backend; this
/// assertion turns that mistake into a compile error.
#[cfg(not(feature = "check"))]
const _: () = assert!(
    !sdr_sync::MODEL_COMPILED,
    "the sdr-sync `model` feature leaked into a build without `check`"
);

/// The unit tests that toggle the process-global `sdr-obs` registry
/// serialize on this.
#[cfg(test)]
static OBS_REGISTRY: std::sync::Mutex<()> = std::sync::Mutex::new(());
