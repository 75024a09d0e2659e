//! Shared primitives for the Congestion Manager reproduction.
//!
//! Everything in this crate is intentionally independent of both the network
//! simulator ([`cm-netsim`]) and the Congestion Manager itself
//! ([`cm-core`]): simulated time, rate arithmetic, smoothing filters,
//! token buckets, a deterministic splittable RNG, and small statistics
//! helpers used by the experiment harness.
//!
//! All quantities are fixed-point integers (nanoseconds, bytes, bits per
//! second) so that simulations are exactly reproducible across platforms;
//! floating point appears only at the presentation edge (e.g.
//! [`Rate::as_kbytes_per_sec`]).
//!
//! [`cm-netsim`]: ../cm_netsim/index.html
//! [`cm-core`]: ../cm_core/index.html

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod ewma;
pub mod fxhash;
pub mod rate;
pub mod rng;
pub mod stats;
pub mod time;
pub mod token_bucket;

pub use ewma::{Ewma, RttEstimator};
pub use fxhash::{FxHashMap, FxHashSet};
pub use rate::Rate;
pub use rng::DetRng;
pub use stats::{Summary, TimeSeries};
pub use time::{Duration, Time};
pub use token_bucket::TokenBucket;
