//! The typed rule catalog and the per-rule checkers.
//!
//! Each checker walks the token stream of one file (plus its region
//! analysis) and emits [`Finding`]s. Checkers match token *sequences*
//! (`Instant :: now`, `. unwrap (`) rather than substrings, so
//! `unwrap_or` never matches `unwrap` and `#![forbid(unsafe_code)]`
//! never matches `unsafe`.

use crate::analysis::FileAnalysis;
use crate::config::LintConfig;
use crate::lexer::{Lexed, Token, TokenKind};

/// The closed set of invariants the linter enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// No allocation in tensor kernel modules or `*_into` fn bodies.
    HotPathAlloc,
    /// No panics or slice indexing in the serve/proto/loadgen layer.
    NoPanic,
    /// `unsafe` only in the `[[unsafe-module]]` entries declared (and
    /// justified) in `lint.toml`, each use SAFETY-commented.
    UnsafeConfinement,
    /// No wall clocks or sleeps outside `Clock` impls and bench bins.
    ClockDiscipline,
    /// No `HashMap`/`HashSet` where bit-identity depends on ordering.
    Determinism,
    /// Crate roots must deny missing docs and forbid unsafe code.
    LintHygiene,
}

impl Rule {
    /// All rules, in catalog order.
    pub const ALL: [Rule; 6] = [
        Rule::HotPathAlloc,
        Rule::NoPanic,
        Rule::UnsafeConfinement,
        Rule::ClockDiscipline,
        Rule::Determinism,
        Rule::LintHygiene,
    ];

    /// The kebab-case name used in `lint.toml` and reports.
    pub fn name(self) -> &'static str {
        match self {
            Rule::HotPathAlloc => "hot-path-alloc",
            Rule::NoPanic => "no-panic",
            Rule::UnsafeConfinement => "unsafe-confinement",
            Rule::ClockDiscipline => "clock-discipline",
            Rule::Determinism => "determinism",
            Rule::LintHygiene => "lint-hygiene",
        }
    }

    /// Parses a kebab-case rule name.
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == name)
    }
}

/// One rule violation at a specific source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The rule that fired.
    pub rule: Rule,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based source line.
    pub line: usize,
    /// The trimmed source line the finding sits on.
    pub excerpt: String,
    /// What to do about it.
    pub help: String,
    /// Name of the enclosing function, when known (allowlist matching).
    pub func: Option<String>,
}

/// Everything a checker needs about one file.
pub struct FileContext<'a> {
    /// Workspace-relative path with forward slashes.
    pub path: &'a str,
    /// Raw source lines (for excerpts).
    pub lines: &'a [&'a str],
    /// Lexed tokens + comments.
    pub lexed: &'a Lexed,
    /// Region masks.
    pub analysis: &'a FileAnalysis,
}

impl FileContext<'_> {
    fn excerpt(&self, line: usize) -> String {
        self.lines
            .get(line.saturating_sub(1))
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    fn finding(&self, rule: Rule, i: usize, help: impl Into<String>) -> Finding {
        let line = self.lexed.tokens[i].line;
        Finding {
            rule,
            file: self.path.to_string(),
            line,
            excerpt: self.excerpt(line),
            help: help.into(),
            func: self.analysis.fn_of[i].clone(),
        }
    }

    fn tok(&self, i: usize) -> Option<&Token> {
        self.lexed.tokens.get(i)
    }

    /// `true` when tokens [i..] start with the given (kind-insensitive)
    /// texts, comparing idents by text and puncts by char.
    fn seq(&self, i: usize, pattern: &[&str]) -> bool {
        pattern.iter().enumerate().all(|(k, want)| {
            self.tok(i + k).is_some_and(|t| {
                if want.chars().all(is_punct_char) && want.len() == 1 {
                    t.is_punct(want.chars().next().unwrap_or(' '))
                } else {
                    t.is_ident(want)
                }
            })
        })
    }
}

fn is_punct_char(c: char) -> bool {
    !(c == '_' || c.is_alphanumeric())
}

/// Rust keywords that can legally precede `[` without forming an index
/// expression (`&mut [f32]`, `impl [T; N]`-adjacent shapes).
const KEYWORDS: [&str; 24] = [
    "as", "box", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "ref", "return",
    "where",
];

fn is_keyword(t: &Token) -> bool {
    t.kind == TokenKind::Ident && KEYWORDS.contains(&t.text.as_str())
}

/// rule 1: hot-path-alloc — allocation constructs in kernel modules or
/// inside `*_into` function bodies.
pub fn check_hot_path_alloc(ctx: &FileContext<'_>, cfg: &LintConfig, out: &mut Vec<Finding>) {
    let in_kernel = cfg
        .kernel_paths
        .iter()
        .any(|p| ctx.path.starts_with(p.as_str()));
    let in_into_scope = cfg
        .into_paths
        .iter()
        .any(|p| ctx.path.starts_with(p.as_str()));
    if !in_kernel && !in_into_scope {
        return;
    }
    for i in 0..ctx.lexed.tokens.len() {
        if ctx.analysis.test_mask[i] {
            continue;
        }
        // Outside kernel modules, only `*_into` fn bodies are policed.
        if !in_kernel {
            let in_into_fn = ctx.analysis.fn_of[i]
                .as_deref()
                .is_some_and(|f| f.ends_with("_into"));
            if !in_into_fn {
                continue;
            }
        }
        let hit = if ctx.seq(i, &["Vec", ":", ":", "new"]) {
            Some("Vec::new")
        } else if ctx.seq(i, &["Vec", ":", ":", "with_capacity"]) {
            Some("Vec::with_capacity")
        } else if ctx.seq(i, &["vec", "!"]) {
            Some("vec![")
        } else if ctx.seq(i, &[".", "to_vec"]) {
            Some(".to_vec()")
        } else if ctx.seq(i, &[".", "clone"]) {
            Some(".clone()")
        } else if ctx.seq(i, &[".", "collect"]) {
            Some(".collect()")
        } else {
            None
        };
        if let Some(what) = hit {
            out.push(ctx.finding(
                Rule::HotPathAlloc,
                i,
                format!(
                    "{what} allocates; hot paths must reuse caller-provided or \
                     pre-sized buffers (see the `*_into` functions), or the call \
                     site needs a justified [[allow]] in lint.toml"
                ),
            ));
        }
    }
}

/// rule 2: no-panic — panicking constructs and slice indexing in the
/// serve/proto/loadgen layer.
pub fn check_no_panic(ctx: &FileContext<'_>, _cfg: &LintConfig, out: &mut Vec<Finding>) {
    let toks = &ctx.lexed.tokens;
    for i in 0..toks.len() {
        if ctx.analysis.test_mask[i] {
            continue;
        }
        let hit = if ctx.seq(i, &[".", "unwrap", "("]) || ctx.seq(i, &[".", "expect", "("]) {
            Some("replace with `?` on a typed error, or `unwrap_or`/`ok_or_else`")
        } else if ctx.seq(i, &["panic", "!"])
            || ctx.seq(i, &["unreachable", "!"])
            || ctx.seq(i, &["todo", "!"])
            || ctx.seq(i, &["unimplemented", "!"])
        {
            Some("return a typed error instead of panicking; the serve layer must degrade, not die")
        } else {
            None
        };
        if let Some(help) = hit {
            out.push(ctx.finding(Rule::NoPanic, i, help));
            continue;
        }
        // Index expressions: `[` directly after an expression-ending
        // token (non-keyword ident, `)`, `]`, or a literal). Macro
        // invocations (`vec![`) have a `!` in that position and slice
        // *types* (`&mut [f32]`) have `mut`/`&`, so neither matches.
        if toks[i].is_punct('[') && i > 0 {
            let prev = &toks[i - 1];
            let indexes = match prev.kind {
                TokenKind::Ident => !is_keyword(prev),
                TokenKind::Punct => prev.is_punct(')') || prev.is_punct(']'),
                TokenKind::Str | TokenKind::Num => true,
                _ => false,
            };
            // (`#[attr]`, `#![attr]`, and `vec![` all have `#`/`!` as the
            // previous token, which the match above already rejects.)
            if indexes {
                out.push(ctx.finding(
                    Rule::NoPanic,
                    i,
                    "slice indexing panics on out-of-range; use .get()/.get_mut() \
                     with a typed error or iterator adapters",
                ));
            }
        }
    }
}

/// rule 3: unsafe-confinement — `unsafe` outside the allowed modules,
/// or inside them without a `// SAFETY:` comment within 6 lines above.
pub fn check_unsafe_confinement(ctx: &FileContext<'_>, cfg: &LintConfig, out: &mut Vec<Finding>) {
    let allowed_here = cfg
        .unsafe_modules
        .iter()
        .any(|m| ctx.path.ends_with(m.path.as_str()));
    for (i, t) in ctx.lexed.tokens.iter().enumerate() {
        if !t.is_ident("unsafe") || ctx.analysis.test_mask[i] {
            continue;
        }
        if !allowed_here {
            out.push(ctx.finding(
                Rule::UnsafeConfinement,
                i,
                "unsafe is confined to the modules declared in lint.toml's \
                 [[unsafe-module]] entries; move the unsafe operation behind a \
                 safe wrapper there, or declare (and justify) this module",
            ));
            continue;
        }
        // The window is generous (10 lines) because attribute stacks
        // (`#[cfg]`, `#[allow]`, `#[target_feature]`) sit between a fn's
        // SAFETY comment and its `unsafe` keyword.
        let line = t.line;
        let documented = ctx
            .lexed
            .comments
            .iter()
            .any(|c| c.line + 10 >= line && c.line <= line && c.text.contains("SAFETY"));
        if !documented {
            out.push(ctx.finding(
                Rule::UnsafeConfinement,
                i,
                "every unsafe block/fn needs a `// SAFETY:` comment directly above \
                 stating why the invariants hold",
            ));
        }
    }
}

/// rule 4: clock-discipline — wall clocks and sleeps outside `Clock`
/// impls (bench bins are exempted by scope in lint.toml).
pub fn check_clock_discipline(ctx: &FileContext<'_>, _cfg: &LintConfig, out: &mut Vec<Finding>) {
    for i in 0..ctx.lexed.tokens.len() {
        if ctx.analysis.test_mask[i] || ctx.analysis.clock_mask[i] {
            continue;
        }
        let hit = if ctx.seq(i, &["Instant", ":", ":", "now"]) {
            Some("Instant::now")
        } else if ctx.seq(i, &["SystemTime", ":", ":", "now"]) {
            Some("SystemTime::now")
        } else if ctx.seq(i, &["thread", ":", ":", "sleep"]) {
            // Bare `sleep(` is NOT matched: `clock.sleep(d)` through the
            // Clock trait is exactly the sanctioned alternative.
            Some("thread::sleep")
        } else {
            None
        };
        if let Some(what) = hit {
            out.push(ctx.finding(
                Rule::ClockDiscipline,
                i,
                format!(
                    "{what} breaks virtual-clock replay and the idle-CPU invariant; \
                     route time through the Clock trait or justify with [[allow]]"
                ),
            ));
        }
    }
}

/// rule 5: determinism — `HashMap`/`HashSet` in bit-identity-pinned
/// crates; iteration order is nondeterministic across runs.
pub fn check_determinism(ctx: &FileContext<'_>, _cfg: &LintConfig, out: &mut Vec<Finding>) {
    for (i, t) in ctx.lexed.tokens.iter().enumerate() {
        if ctx.analysis.test_mask[i] {
            continue;
        }
        if t.is_ident("HashMap") || t.is_ident("HashSet") {
            out.push(ctx.finding(
                Rule::Determinism,
                i,
                format!(
                    "{} iterates in nondeterministic order; use BTreeMap/BTreeSet \
                     (or Vec + binary_search) where outputs are bit-pinned, or add \
                     a justified [[allow]] proving it is never iterated",
                    t.text
                ),
            ));
        }
    }
}

/// rule 6: lint-hygiene — crate roots must carry the doc/unsafe gates.
/// Only runs on files named `lib.rs` at a crate root.
pub fn check_lint_hygiene(ctx: &FileContext<'_>, _cfg: &LintConfig, out: &mut Vec<Finding>) {
    let is_crate_root = ctx.path == "src/lib.rs"
        || (ctx.path.starts_with("crates/") && ctx.path.ends_with("/src/lib.rs"));
    if !is_crate_root {
        return;
    }
    // Collect inner attributes `#![level(lint)]`.
    let toks = &ctx.lexed.tokens;
    let has = |level: &str, lint: &str| -> bool {
        (0..toks.len()).any(|i| {
            ctx.seq(i, &["#", "!", "["])
                && toks.get(i + 3).is_some_and(|t| t.is_ident(level))
                && toks.get(i + 4).is_some_and(|t| t.is_punct('('))
                && toks.get(i + 5).is_some_and(|t| t.is_ident(lint))
        })
    };
    let docs_ok = has("deny", "missing_docs") || has("forbid", "missing_docs");
    let unsafe_forbid = has("forbid", "unsafe_code");
    let unsafe_deny = has("deny", "unsafe_code");
    let first_line_finding = |help: String| Finding {
        rule: Rule::LintHygiene,
        file: ctx.path.to_string(),
        line: 1,
        excerpt: ctx.excerpt(1),
        help,
        func: None,
    };
    if !docs_ok {
        out.push(first_line_finding(
            "crate root must carry #![deny(missing_docs)]".to_string(),
        ));
    }
    if !unsafe_forbid {
        out.push(first_line_finding(if unsafe_deny {
            "crate root uses deny(unsafe_code) instead of forbid; only nf-tensor's \
             documented SIMD exception may do this — justify with [[allow]]"
                .to_string()
        } else {
            "crate root must carry #![forbid(unsafe_code)]".to_string()
        }));
    }
}

/// Runs every in-scope rule over one file.
pub fn check_file(ctx: &FileContext<'_>, cfg: &LintConfig) -> Vec<Finding> {
    let mut out = Vec::new();
    for rule in Rule::ALL {
        if !cfg.scope(rule).contains(ctx.path) {
            continue;
        }
        match rule {
            Rule::HotPathAlloc => check_hot_path_alloc(ctx, cfg, &mut out),
            Rule::NoPanic => check_no_panic(ctx, cfg, &mut out),
            Rule::UnsafeConfinement => check_unsafe_confinement(ctx, cfg, &mut out),
            Rule::ClockDiscipline => check_clock_discipline(ctx, cfg, &mut out),
            Rule::Determinism => check_determinism(ctx, cfg, &mut out),
            Rule::LintHygiene => check_lint_hygiene(ctx, cfg, &mut out),
        }
    }
    out
}
