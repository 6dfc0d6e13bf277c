//! # sdr-mdm — the multidimensional data model substrate
//!
//! Implements the prototypical multidimensional data model of Section 3 of
//! *Specification-Based Data Reduction in Dimensional Data Warehouses*
//! (Skyt, Jensen & Pedersen, ICDE 2002 / TimeCenter TR-61):
//!
//! * **category types** and their containment partial order `≤_T` with
//!   `⊥_T`/`⊤_T`, `Anc`, GLB/LUB ([`category`]);
//! * **dimensions** — the calendar `Time` dimension with the paper's
//!   non-linear `day<week<⊤`, `day<month<quarter<year<⊤` hierarchy
//!   ([`time`]) and enumerated dimensions such as `URL` ([`dimension`]);
//! * **fact schemas** with measures and distributive default aggregate
//!   functions ([`schema`]);
//! * **multidimensional objects** `O = (S, F, D, R, M)` with columnar fact
//!   storage, characterization `f ⤳ v`, and `Gran(f)` ([`mo`]).
//!
//! Everything downstream — the reduction engine (`sdr-reduce`), the query
//! algebra (`sdr-query`), and the subcube implementation (`sdr-subcube`) —
//! is built on these types.

#![warn(missing_docs)]

pub mod calendar;
pub mod category;
pub mod dimension;
pub mod error;
pub mod mo;
pub mod pack;
pub mod print;
pub mod schema;
pub mod time;

pub use calendar::DayNum;
pub use category::{CatGraph, CatId};
pub use dimension::{
    DimId, DimValue, Dimension, EnumDimension, EnumDimensionBuilder, SubDimension,
};
pub use error::MdmError;
pub use mo::{check_same_schema, FactId, FactStore, Mo, ORIGIN_USER};
pub use pack::{FxBuildHasher, FxHashMap, FxHasher, KeyPacker, PackedKey};
pub use print::{render_table, TableOptions};
pub use schema::{AggFn, Granularity, MeasureDef, MeasureId, Schema};
pub use time::{cat as time_cat, Span, TimeDimension, TimeUnit, TimeValue};
