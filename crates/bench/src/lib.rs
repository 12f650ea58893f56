//! The paper's evaluation ([`figures`], printed and checked by the
//! `figures` binary; DESIGN.md §7) and the gated `bench_json` artifacts,
//! whose timed training step is the product's own, `nf_nn::LocalStep`.
//! [`scaled`] is the scaled-training harness the accuracy figures share.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod figures;
pub mod scaled;
