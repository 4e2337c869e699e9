//! # rtlcov-fuzz
//!
//! Coverage-guided mutational fuzzing for RTL (§5.4 of the paper): an
//! AFL-style mutation engine ([`mutate`]), an rfuzz-style harness mapping
//! raw bytes onto DUT pins ([`harness`]), and a fuzzing loop that accepts
//! **any** instrumented coverage metric as feedback ([`fuzzer`]) — the
//! mix-and-match capability the cover-primitive design enables.
//!
//! [`equivalence`] holds the one list of simulator configurations that
//! must agree ([`equivalence::CONFIGS`]) and the comparisons every
//! cross-backend check uses ([`equivalence::agree`],
//! [`equivalence::same_coverage`]); its differential fuzzer drives that
//! list with random circuits.

#![warn(missing_docs)]

pub mod codec_fuzz;
pub mod equivalence;
pub mod fuzzer;
pub mod harness;
pub mod mutate;

pub use codec_fuzz::CodecFuzzReport;
pub use fuzzer::{averaged_campaign, CoveragePoint, Feedback, Fuzzer};
pub use harness::FuzzHarness;
