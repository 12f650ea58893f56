//! The document readers and both typed extractors under hostile input.
//!
//! Random byte strings, random truncations and random one-byte mutations
//! of every committed `examples/*.toml` go through `nf_value::toml::parse`
//! and `nf_value::json::parse`, and every document either reader accepts
//! goes through `RunConfig::from_value`. Each step must return `Ok` or a
//! typed error, never panic. A failing case prints its seed, and
//! `exercise(&input(seed))` replays it.

use nf_cli::{CliError, RunConfig};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::OnceLock;

/// The committed documents the mutations start from.
fn corpus() -> &'static [Vec<u8>] {
    static CORPUS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut paths: Vec<_> = std::fs::read_dir(root.join("examples"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "toml"))
            .collect();
        paths.sort();
        assert_eq!(paths.len(), 4, "{paths:?}");
        paths.iter().map(|p| std::fs::read(p).unwrap()).collect()
    })
}

/// A byte that is half the time one the readers give meaning to.
fn byte(rng: &mut StdRng) -> u8 {
    const SYNTAX: &[u8] = b"[]{}=\",.#:\\ \n-_0e9tfn";
    match rng.gen_bool(0.5) {
        true => SYNTAX[rng.gen_range(0..SYNTAX.len())],
        false => rng.gen_range(0..=u8::MAX),
    }
}

/// The input `seed` stands for: random bytes, or a truncation or a
/// one-byte mutation of a corpus document.
fn input(seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let docs = corpus();
    let mut doc = docs[rng.gen_range(0..docs.len())].clone();
    match rng.gen_range(0..3) {
        0 => (0..rng.gen_range(0..256)).map(|_| byte(&mut rng)).collect(),
        1 => {
            doc.truncate(rng.gen_range(0..=doc.len()));
            doc
        }
        _ => {
            let at = rng.gen_range(0..doc.len());
            doc[at] = byte(&mut rng);
            doc
        }
    }
}

/// Feeds one input through both readers and the config extractor.
fn exercise(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let docs = [nf_value::toml::parse(&text), nf_value::json::parse(&text)];
    for doc in docs.into_iter().flatten() {
        if let Err(e) = RunConfig::from_value(&doc) {
            assert!(
                matches!(e, CliError::Config { .. } | CliError::Msg(_)),
                "{e}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]
    #[test]
    fn readers_and_extractors_never_panic(seed in 0u64..u64::MAX) {
        let bytes = input(seed);
        let outcome = std::panic::catch_unwind(|| exercise(&bytes));
        prop_assert!(
            outcome.is_ok(),
            "`exercise(&input({seed}))` panics on {:?}",
            String::from_utf8_lossy(&bytes)
        );
    }
}

#[test]
fn unmutated_corpus_documents_load() {
    // The committed documents themselves are the fuzz's fixed points.
    let docs = corpus();
    for doc in docs {
        let value = nf_value::toml::parse(std::str::from_utf8(doc).unwrap()).unwrap();
        RunConfig::from_value(&value).unwrap();
    }
}
