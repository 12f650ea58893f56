//! Every claim of every figure that trains no scaled model holds, and each
//! figure that trains nothing prints the tables it printed when it was its
//! own binary (64-bit FNV-1a over its table lines, each ending in `\n`), so
//! a memory, timing or partitioning model change is a reviewed digest
//! diff. Figure 10 trains one scaled model (about 30 s in the dev profile)
//! and runs as its own test beside the rest, its table pinned the same
//! way. Figure 12 and Tables 2–3 take minutes each; they wait for the
//! Worker's per-epoch accuracy hook (ROADMAP item 9(c)), and until then
//! the `figures` binary checks their claims.

use nf_bench::figures::{Shared, FIGURES};

/// Figures whose claims rest on scaled training runs of minutes each.
const SCALED: [&str; 3] = ["fig12", "table2", "table3"];

/// Table digests: the figures that train nothing, and Figure 10.
const DIGESTS: [(&str, &str); 13] = [
    ("fig01", "275e6bebfe8b8f6d"),
    ("fig04", "f5a17cae2562f619"),
    ("fig05", "2c9d690ccb520e38"),
    ("fig06", "88f910faf3fd3540"),
    ("fig08", "17483d9687c1f363"),
    ("fig10", "10aaa055b77ae17d"),
    ("fig09", "a70f4bcaa7778008"),
    ("fig11", "592841253ed3e6d1"),
    ("obs", "522e115e1e92e474"),
    ("fig13", "e556ce20ea21a2b1"),
    ("overheads", "59eef5228d19f438"),
    ("ablation_rho", "836c25126db840ad"),
    ("ablation_cache", "c985523d4e3398f6"),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs the figures `select` picks and asserts every claim holds and every
/// pinned table digest matches.
fn check(select: impl Fn(&str) -> bool) {
    let shared = Shared::default();
    let mut broken = Vec::new();
    for (name, figure) in FIGURES.iter().filter(|(n, _)| select(n)) {
        let fig = figure(&shared).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(fig.name, *name);
        assert!(!fig.claims.is_empty(), "{name} claims nothing");
        broken.extend(fig.failed().map(|c| format!("{name}: failed: {}", c.text)));
        if let Some((_, pinned)) = DIGESTS.iter().find(|(n, _)| n == name) {
            let text: String = fig.table_lines().iter().map(|l| l.clone() + "\n").collect();
            let digest = format!("{:016x}", fnv1a(text.as_bytes()));
            if digest != *pinned {
                broken.push(format!("{name}: tables digest {digest}, pinned {pinned}"));
            }
        }
    }
    assert!(broken.is_empty(), "{}", broken.join("\n"));
}

#[test]
fn claims_hold_and_tables_match_their_digests() {
    for (name, _) in DIGESTS {
        assert!(FIGURES.iter().any(|(n, _)| *n == name), "no figure {name}");
    }
    check(|name| !SCALED.contains(&name) && name != "fig10");
}

/// Figure 10's one training, in its own test so the harness runs it beside
/// the one above.
#[test]
fn fig10_selects_a_shallower_exit_and_matches_its_digest() {
    check(|name| name == "fig10");
}
