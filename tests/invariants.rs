//! The workspace invariants no compiler lint can scope (DESIGN.md §13):
//! nothing allocates in the tensor kernels or in a `*_into` body of
//! nf-tensor and nf-nn, every crate root carries its lint gates, the
//! pinned no-panic modules keep their inner deny, and `unsafe` lives in
//! three pinned modules, each `unsafe fn` under a `// SAFETY:` comment.
//! Every scan also rejects a planted violation, so none passes by seeing
//! nothing; clippy carries the other contracts.

use std::{fmt::Display, fs, path::Path};

/// The only modules that may hold `unsafe` code. Each opts in with
/// `#![expect(unsafe_code, reason = "…")]` under its crate root's
/// `#![deny(unsafe_code)]`; every other crate root forbids it.
const UNSAFE_MODULES: [&str; 3] = [
    "crates/cli/src/net/sys.rs",
    "crates/tensor/src/kernels/simd.rs",
    "crates/tensor/src/kernels/simd_int8.rs",
];

/// The modules that take bytes or requests from outside the process: the
/// serve path, the wire format, config, the document readers and the
/// storage decoders — plus the Worker and Controller, whose per-unit
/// indexing runs over plan-sized vectors, and nf-cli's crate root, which
/// denies them for the whole crate. Each carries an inner `#![deny(..)]`
/// of every [`NO_PANIC`] lint, so clippy rejects a panic path in them.
const NO_PANIC_MODULES: [&str; 17] = [
    "crates/cli/src/config.rs",
    "crates/cli/src/lib.rs",
    "crates/cli/src/loadgen.rs",
    "crates/cli/src/net/reactor.rs",
    "crates/cli/src/net/sys.rs",
    "crates/cli/src/proto.rs",
    "crates/cli/src/schema.rs",
    "crates/cli/src/serve.rs",
    "crates/core/src/cache.rs",
    "crates/core/src/checkpoint.rs",
    "crates/core/src/codec.rs",
    "crates/core/src/controller.rs",
    "crates/core/src/params_io.rs",
    "crates/core/src/reader.rs",
    "crates/core/src/serve.rs",
    "crates/core/src/worker.rs",
    "crates/value/src/lib.rs",
];

/// The lints a no-panic module denies.
const NO_PANIC: [&str; 7] = [
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
    "clippy::indexing_slicing",
];

/// What allocates, as the hot-path scan matches it (space-separated).
const ALLOCS: &str = "Vec::new Vec::with_capacity vec! .to_vec .clone( .collect";

const DOCS: &str = "#![deny(missing_docs)]";
const FORBID: &str = "#![forbid(unsafe_code)]";

/// `src` with comments and string and char literals blanked, newlines
/// kept: the code the scans read, byte for byte and line for line.
fn code(src: &str) -> String {
    let b = src.as_bytes();
    let end_of = |i: usize, p: &str| src[i..].find(p).map_or(b.len(), |at| i + at + p.len());
    let (mut out, mut i) = (b.to_vec(), 0);
    while i < b.len() {
        let hashes = b[i + 1..].iter().take_while(|&&c| c == b'#').count();
        let end = match b[i] {
            b'/' if b.get(i + 1) == Some(&b'/') => end_of(i, "\n") - 1,
            b'/' if b.get(i + 1) == Some(&b'*') => end_of(i, "*/"),
            b'r' if b.get(i + 1 + hashes) == Some(&b'"') => {
                end_of(i + 2 + hashes, &format!("\"{}", "#".repeat(hashes)))
            }
            b'"' => {
                let mut j = i + 1;
                while j < b.len() && b[j] != b'"' {
                    j += if b[j] == b'\\' { 2 } else { 1 };
                }
                j + 1
            }
            b'\'' => match src[i + 1..].chars().next() {
                Some('\\') => end_of(i + 3, "'"),
                Some(c) if b.get(i + 1 + c.len_utf8()) == Some(&b'\'') => i + 2 + c.len_utf8(),
                _ => i + 1, // a lifetime
            },
            _ => {
                i += 1;
                continue;
            }
        };
        for c in &mut out[i..end.min(b.len())] {
            *c = if *c == b'\n' { b'\n' } else { b' ' };
        }
        i = end;
    }
    String::from_utf8(out).expect("whole characters were blanked")
}

/// Where `pat` starts in `code`, not glued to a longer identifier.
fn find(code: &str, pat: &str) -> Vec<usize> {
    let ident = |c: u8| c == b'_' || c.is_ascii_alphanumeric();
    let glued =
        |at: usize, edge: u8| ident(edge) && code.as_bytes().get(at).is_some_and(|&c| ident(c));
    let (head, tail) = (pat.as_bytes()[0], pat.as_bytes()[pat.len() - 1]);
    let whole = |&(at, _): &(usize, &str)| {
        (at == 0 || !glued(at - 1, head)) && !glued(at + pat.len(), tail)
    };
    code.match_indices(pat).filter(whole).map(|m| m.0).collect()
}

/// The end of the block the item at `from` opens; `None` if a `;` ends it.
fn block(code: &str, from: usize) -> Option<usize> {
    let (mut depth, mut nest) = (0, 0);
    for (i, c) in code.bytes().enumerate().skip(from) {
        match c {
            b'(' | b'[' => nest += 1,
            b')' | b']' => nest -= 1,
            b';' if depth == 0 && nest == 0 => return None,
            b'{' => depth += 1,
            b'}' if depth == 1 => return Some(i + 1),
            b'}' => depth -= 1,
            _ => {}
        }
    }
    panic!("unbalanced braces after byte {from}")
}

fn line(code: &str, at: usize) -> usize {
    code[..at].matches('\n').count() + 1
}

/// Lines that allocate in a kernel module, or in a `*_into` function
/// body elsewhere; `#[cfg(test)]` and `#[test]` items are skipped.
fn hot_path_allocs(path: &str, src: &str) -> Vec<usize> {
    let mut code = code(src);
    while let Some(at) = code.find("#[cfg(test)]").or_else(|| code.find("#[test]")) {
        let end = block(&code, at).unwrap_or(at + 7);
        let blank = code[at..end].replace(|c: char| c != '\n', " ");
        code.replace_range(at..end, &blank);
    }
    let kernel = path.contains("/kernels/");
    let mut bodies = vec![(0, if kernel { code.len() } else { 0 })];
    for at in find(&code, "fn") {
        let name = code[at + 2..].trim_start().split(['(', '<']).next();
        if name.is_some_and(|n| n.ends_with("_into")) {
            bodies.extend(block(&code, at).map(|end| (at, end)));
        }
    }
    let mut found = Vec::new();
    for pat in ALLOCS.split(' ') {
        for at in find(&code, pat) {
            if bodies.iter().any(|&(from, to)| (from..to).contains(&at)) {
                found.push(line(&code, at));
            }
        }
    }
    found
}

/// Lines with `unsafe` outside [`UNSAFE_MODULES`], or with an `unsafe fn`
/// inside one and no `// SAFETY` comment in the ten lines above.
fn unsafe_findings(path: &str, src: &str) -> Vec<usize> {
    let code = code(src);
    let safety: Vec<_> = src
        .lines()
        .map(|s| s.trim_start().starts_with("// SAFETY"))
        .collect();
    let documented = |l: usize| safety[l.saturating_sub(11)..l].contains(&true);
    let mut found = Vec::new();
    for at in find(&code, "unsafe") {
        let l = line(&code, at);
        let is_fn = code[at + 6..].trim_start().starts_with("fn ");
        if !UNSAFE_MODULES.contains(&path) || (is_fn && !documented(l)) {
            found.push(l);
        }
    }
    found
}

/// The gates a crate root lacks: `#![deny(missing_docs)]`, and
/// `#![forbid(unsafe_code)]` (`deny` where a pinned module lives).
fn missing_gates(path: &str, src: &str) -> Vec<&'static str> {
    let code = code(src);
    let dir = path.trim_end_matches("src/lib.rs");
    let pinned = !dir.is_empty() && UNSAFE_MODULES.iter().any(|m| m.starts_with(dir));
    let mut missing = Vec::new();
    if !code.contains(DOCS) {
        missing.push(DOCS);
    }
    if !(code.contains(FORBID) || pinned && code.contains("#![deny(unsafe_code)]")) {
        missing.push(FORBID);
    }
    missing
}

/// The [`NO_PANIC`] lints no inner `#![deny(..)]` of `src` names.
fn missing_no_panic(_path: &str, src: &str) -> Vec<&'static str> {
    let code = code(src);
    let denied: Vec<&str> = code
        .match_indices("#![deny(")
        .flat_map(|(at, _)| code[at..].split(')').next().unwrap_or("").split(['(', ',']))
        .map(str::trim)
        .collect();
    NO_PANIC
        .into_iter()
        .filter(|l| !denied.contains(l))
        .collect()
}

/// Every `.rs` file under `dir`: (workspace-relative path, source).
fn sources(dir: &str) -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (mut stack, mut files) = (vec![dir.to_string()], Vec::new());
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(root.join(&dir)).unwrap() {
            let rel = format!("{dir}/{}", entry.unwrap().file_name().to_string_lossy());
            if root.join(&rel).is_dir() {
                stack.push(rel);
            } else if rel.ends_with(".rs") {
                files.push((rel.clone(), fs::read_to_string(root.join(rel)).unwrap()));
            }
        }
    }
    assert!(!files.is_empty(), "no sources under {dir}");
    files.sort();
    files
}

/// The product sources: `src/` and every crate's `src/` tree.
fn product_sources() -> Vec<(String, String)> {
    let mut crates = sources("crates");
    crates.retain(|(p, _)| p.split('/').nth(2) == Some("src"));
    [sources("src"), crates].concat()
}

/// Runs `scan` over `files`; fails listing every finding.
fn check<T: Display>(files: &[(String, String)], scan: fn(&str, &str) -> Vec<T>) {
    let mut found = Vec::new();
    for (path, src) in files {
        found.extend(scan(path, src).iter().map(|f| format!("{path}: {f}")));
    }
    assert!(found.is_empty(), "broken at\n{}", found.join("\n"));
}

#[test]
fn hot_path_does_not_allocate() {
    let files = [sources("crates/tensor/src"), sources("crates/nn/src")].concat();
    assert!(files.iter().any(|(p, _)| p.contains("/kernels/")));
    check(&files, hot_path_allocs);
}

#[test]
fn crate_roots_carry_their_gates() {
    let root =
        |p: &str| p == "src/lib.rs" || p.ends_with("/src/lib.rs") && p.matches('/').count() == 3;
    let mut roots = product_sources();
    roots.retain(|(p, _)| root(p));
    assert!(roots.len() >= 10, "{} crate roots", roots.len());
    check(&roots, missing_gates);
}

#[test]
fn no_panic_modules_keep_their_deny() {
    let mut files = product_sources();
    files.retain(|(p, _)| NO_PANIC_MODULES.contains(&p.as_str()));
    assert_eq!(
        files.len(),
        NO_PANIC_MODULES.len(),
        "a pinned module is gone"
    );
    check(&files, missing_no_panic);
}

#[test]
fn unsafe_lives_in_the_pinned_modules_under_safety_comments() {
    let files = product_sources();
    check(&files, unsafe_findings);
    for module in UNSAFE_MODULES {
        let (_, src) = files.iter().find(|(p, _)| p == module).expect(module);
        let code = code(src);
        assert!(!find(&code, "unsafe").is_empty(), "{module}: no unsafe");
    }
}

#[test]
fn planted_allocations_are_rejected() {
    let src = "fn grow_into(x: &[f32; 2], out: &mut Vec<f32>) {\n    *out = x.to_vec(); // .clone()\n}\n\
               fn cold() -> Vec<u8> { vec![0] }\n#[cfg(test)]\nmod tests { fn t_into() { Vec::<u8>::new(); } }";
    assert_eq!(hot_path_allocs("crates/nn/src/x.rs", src), [2]);
    let kernel = "fn tile() {\n let s = \"vec![\"; let c = '{';\n let v: Vec<u8> = Vec::new(); }";
    assert_eq!(hot_path_allocs("t/kernels/x.rs", kernel), [3]);
}

#[test]
fn planted_gate_gaps_are_rejected() {
    let root = "//! Docs. #![forbid(unsafe_code)]\n#![deny(missing_docs)]\n#![deny(unsafe_code)]\n";
    assert_eq!(missing_gates("crates/nn/src/lib.rs", root), [FORBID]);
    assert!(missing_gates("crates/cli/src/lib.rs", root).is_empty());
    let undocumented = "#![forbid(unsafe_code)]\n// #![deny(missing_docs)]\n";
    assert_eq!(missing_gates("src/lib.rs", undocumented), [DOCS]);
}

#[test]
fn planted_no_panic_gaps_are_rejected() {
    let full = format!(
        "//! Docs.\n#![deny(\n    {},\n)]\n",
        NO_PANIC.join(",\n    ")
    );
    assert!(missing_no_panic("m.rs", &full).is_empty());
    let commented = format!("// {}", full.replace('\n', " "));
    assert_eq!(missing_no_panic("m.rs", &commented), NO_PANIC);
    let partial = full.replace("    clippy::indexing_slicing,\n", "");
    assert_eq!(
        missing_no_panic("m.rs", &partial),
        ["clippy::indexing_slicing"]
    );
    let split = "#![deny(clippy::unwrap_used, clippy::expect_used)]\n#![deny(clippy::panic)]";
    assert_eq!(missing_no_panic("m.rs", split), &NO_PANIC[3..]);
}

#[test]
fn planted_unsafe_is_rejected() {
    let src = "// SAFETY: eleven lines up.\n\n\n\n\n\n\n\n\n\n\nunsafe fn late() {}\n\
               // SAFETY: the caller checked the ISA.\n#[inline]\nunsafe fn ok() {}\nconst S: &str = \"unsafe\";";
    assert_eq!(unsafe_findings(UNSAFE_MODULES[1], src), [12]);
    assert_eq!(unsafe_findings("crates/nn/src/x.rs", src), [12, 15]);
    let raw = "let s = r#\"unsafe \"{\"#; let b = br\"}\";\nfn f<'a>(x: &'a u8) { unsafe {} }";
    assert_eq!(unsafe_findings("src/lib.rs", raw), [2]);
}
