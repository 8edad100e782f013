//! The rule families enforced by `abacus-lint`, and the per-file driver.
//!
//! Every rule operates on a [`crate::lexer::FileScan`] — never on
//! raw source — so string literals, doc comments, and raw strings can never
//! produce false call-site matches.  Which rules apply to a file is decided
//! by [`Scope`], computed from the file's workspace-relative path; per-line
//! escapes (`// lint:allow(<rule>): <reason>`) disable one rule for one line
//! and must carry a non-empty justification.

use crate::lexer::{scan, FileScan};
use std::collections::BTreeMap;
use std::fmt;

/// The magic strings whose spelling is restricted to the format registry
/// (`crates/graph/src/persist.rs`), together with that registry path.
pub const PERSIST_MAGICS: [&str; 5] = ["ABST1", "ABSNAP1", "ABWL1", "ABWM1", "ABMF1"];

/// Workspace-relative path of the one file allowed to spell magic literals.
pub const FORMAT_REGISTRY_PATH: &str = "crates/graph/src/persist.rs";

/// Path prefix of the PARABACUS per-batch hot path, where every allocating
/// constructor must either be recycled away or carry a justification escape
/// (the module's whole perf story is arena reuse — see
/// `crates/core/src/parabacus/`).
pub const HOT_PATH_PREFIX: &str = "crates/core/src/parabacus/";

/// Rule identifiers, as spelled inside `lint:allow(...)` escapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Wall-clock time, ambient randomness, or environment reads in
    /// estimate-affecting library code.
    Determinism,
    /// Iteration over unordered hash containers in estimate-affecting code.
    HashIter,
    /// `unwrap`/`expect`/`panic!`-family calls in non-test library code.
    PanicPolicy,
    /// Missing `#![forbid(unsafe_code)]` or undocumented `unsafe`.
    UnsafePolicy,
    /// A persist-format magic string spelled outside the format registry.
    PersistFormat,
    /// An allocating constructor in the PARABACUS per-batch hot path
    /// without a justification escape.
    HotPathAlloc,
    /// A malformed `lint:allow` escape (unknown rule, missing reason).
    LintEscape,
}

impl Rule {
    /// The spelling used in diagnostics and `lint:allow(...)`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::Determinism => "determinism",
            Rule::HashIter => "hash-iter",
            Rule::PanicPolicy => "panic-policy",
            Rule::UnsafePolicy => "unsafe-policy",
            Rule::PersistFormat => "persist-format",
            Rule::HotPathAlloc => "hot-path-alloc",
            Rule::LintEscape => "lint-escape",
        }
    }

    /// Parses a rule name as spelled in an allow escape.
    #[must_use]
    pub fn parse(name: &str) -> Option<Rule> {
        match name {
            "determinism" => Some(Rule::Determinism),
            "hash-iter" => Some(Rule::HashIter),
            "panic-policy" => Some(Rule::PanicPolicy),
            "unsafe-policy" => Some(Rule::UnsafePolicy),
            "persist-format" => Some(Rule::PersistFormat),
            "hot-path-alloc" => Some(Rule::HotPathAlloc),
            _ => None,
        }
    }

    /// A one-line remediation hint, used by `--fix-report`.
    #[must_use]
    pub fn hint(self) -> &'static str {
        match self {
            Rule::Determinism => {
                "route time/randomness through injected state (seeded RNG, caller-supplied \
                 clock); estimate paths must be replayable bit-for-bit"
            }
            Rule::HashIter => {
                "iterate a sorted copy (BTreeMap/BTreeSet, .sort()ed Vec) or reduce with an \
                 order-insensitive fold (integer sum/max/len); f64 accumulation over hash \
                 order is run-to-run nondeterministic"
            }
            Rule::PanicPolicy => {
                "return a typed error (EngineError/PersistError/StreamIoError) instead; \
                 if the call is a real invariant, justify it with \
                 `// lint:allow(panic-policy): <why the invariant holds>`"
            }
            Rule::UnsafePolicy => {
                "add `#![forbid(unsafe_code)]` to the crate root, or a `// SAFETY:` comment \
                 immediately above the unsafe block explaining why it is sound"
            }
            Rule::PersistFormat => {
                "reference abacus_graph::persist::format (e.g. format::ABST1.magic / .name) \
                 instead of re-spelling the literal"
            }
            Rule::HotPathAlloc => {
                "reuse a recycled buffer (spare pools, clear-don't-drop) instead \
                 of allocating per batch; one-time constructor or cold-path allocations are \
                 justified with `// lint:allow(hot-path-alloc): <why it is not per-batch>`"
            }
            Rule::LintEscape => "use `// lint:allow(<rule>): <non-empty reason>`",
        }
    }
}

/// One finding, pointing at a workspace-relative path and 1-based line.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// Which rule families apply to a file, derived from its path.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scope {
    /// Determinism rule (library code of estimate-relevant crates).
    pub determinism: bool,
    /// Hash-iteration rule (estimate-affecting modules).
    pub hash_iter: bool,
    /// Panic-policy rule (non-test library code).
    pub panic_policy: bool,
    /// `unsafe` blocks require `// SAFETY:` comments.
    pub unsafe_needs_safety: bool,
    /// The file is a non-compat crate root and must forbid unsafe code.
    pub require_forbid_unsafe: bool,
    /// Persist-format magic spelling rule.
    pub persist_format: bool,
    /// Allocation-constructor rule for the PARABACUS per-batch hot path.
    pub hot_path_alloc: bool,
    /// The file IS the format registry (magics must be defined here, once).
    pub is_format_registry: bool,
    /// Whether `lint:allow` escapes are parsed (and malformed ones flagged).
    /// Off inside the analyzer's own crate, whose docs and tests must be able
    /// to *mention* the escape grammar without arming live escapes.
    pub parse_escapes: bool,
}

/// Crates whose `src/` is "library code" for the panic policy.
const PANIC_POLICY_CRATES: [&str; 6] = [
    "core",
    "sampling",
    "graph",
    "stream",
    "baselines",
    "metrics",
];
/// Crates whose `src/` must be deterministic (no wall clock / ambient RNG).
const DETERMINISM_CRATES: [&str; 5] = ["core", "sampling", "graph", "stream", "baselines"];
/// Crates whose `src/` is estimate-affecting for the hash-iteration rule.
const HASH_ITER_CRATES: [&str; 4] = ["core", "sampling", "graph", "baselines"];
/// Non-compat workspace crates (must carry `#![forbid(unsafe_code)]` at the
/// library root).  `tests/ingest_memory.rs` installs an unsafe counting
/// `GlobalAlloc` in its own test crate, which is why the forbid requirement
/// targets library roots specifically.
const NON_COMPAT_CRATES: [&str; 9] = [
    "core",
    "sampling",
    "graph",
    "stream",
    "baselines",
    "metrics",
    "cli",
    "bench",
    "lint",
];

impl Scope {
    /// Scope for a workspace-relative path (forward slashes).  Returns
    /// `None` for files the analyzer skips entirely (lint fixtures, build
    /// output).
    #[must_use]
    pub fn for_path(path: &str) -> Option<Scope> {
        if path.starts_with("target/")
            || path.contains("/target/")
            || path.starts_with("crates/lint/tests/fixtures/")
        {
            return None;
        }
        let crate_name = path
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next());
        let in_crate_src = |name: &str| {
            crate_name == Some(name) && path.starts_with(&format!("crates/{name}/src/"))
        };
        let is_compat = crate_name == Some("compat");
        // The analyzer's own sources talk *about* magic strings and the
        // escape grammar (rule tables, fixtures-in-docs, its own tests), so
        // the textual rules don't apply to it — structural ones still do.
        let is_lint = crate_name == Some("lint");
        let is_lib_root = path == "src/lib.rs"
            || NON_COMPAT_CRATES
                .iter()
                .any(|c| path == format!("crates/{c}/src/lib.rs"));
        Some(Scope {
            determinism: DETERMINISM_CRATES.iter().any(|c| in_crate_src(c)),
            hash_iter: HASH_ITER_CRATES.iter().any(|c| in_crate_src(c)),
            panic_policy: PANIC_POLICY_CRATES.iter().any(|c| in_crate_src(c)),
            unsafe_needs_safety: true,
            require_forbid_unsafe: is_lib_root && !is_compat,
            persist_format: !is_lint,
            hot_path_alloc: path.starts_with(HOT_PATH_PREFIX),
            is_format_registry: path == FORMAT_REGISTRY_PATH,
            parse_escapes: !is_lint,
        })
    }
}

/// A `lint:allow` escape parsed from a comment.
#[derive(Debug)]
struct Allow {
    rule: Rule,
    /// The line(s) the escape covers.
    lines: [usize; 2],
}

/// Parses every `lint:allow(<rule>): <reason>` escape in the file.  A
/// trailing escape covers its own line; a standalone comment covers the
/// following line.  Malformed escapes produce [`Rule::LintEscape`]
/// diagnostics instead of silently allowing anything.  A bare `lint:allow`
/// without the opening paren is treated as prose (comments may legitimately
/// *talk about* the escape syntax) and ignored.
fn parse_allows(scan: &FileScan, path: &str, diags: &mut Vec<Diagnostic>) -> Vec<Allow> {
    let mut allows = Vec::new();
    for comment in &scan.comments {
        let mut rest = comment.text.as_str();
        while let Some(at) = rest.find("lint:allow(") {
            let open = &rest[at + "lint:allow(".len()..];
            rest = open;
            let Some(close) = open.find(')') else {
                diags.push(Diagnostic {
                    path: path.to_string(),
                    line: comment.line,
                    rule: Rule::LintEscape,
                    message: "malformed escape: unclosed rule name".into(),
                });
                break;
            };
            let name = open[..close].trim();
            let after = &open[close + 1..];
            rest = after;
            let Some(rule) = Rule::parse(name) else {
                diags.push(Diagnostic {
                    path: path.to_string(),
                    line: comment.line,
                    rule: Rule::LintEscape,
                    message: format!("unknown rule `{name}` in lint:allow"),
                });
                continue;
            };
            let reason = after
                .strip_prefix(':')
                .map(str::trim)
                .unwrap_or_default()
                .trim_end_matches(|c: char| c == '.' || c.is_whitespace());
            if reason.is_empty() {
                diags.push(Diagnostic {
                    path: path.to_string(),
                    line: comment.line,
                    rule: Rule::LintEscape,
                    message: format!(
                        "lint:allow({name}) needs a reason: `lint:allow({name}): <why>`"
                    ),
                });
                continue;
            }
            let covered = if comment.standalone {
                [comment.line + 1, comment.line]
            } else {
                [comment.line, comment.line]
            };
            allows.push(Allow {
                rule,
                lines: covered,
            });
        }
    }
    allows
}

/// Byte ranges of `#[cfg(test)]` / `#[test]` items, used to exempt test code
/// from the panic/determinism rules.
fn test_ranges(masked: &str) -> Vec<(usize, usize)> {
    let bytes = masked.as_bytes();
    let mut ranges = Vec::new();
    for marker in ["#[cfg(test)]", "#[test]"] {
        let mut from = 0usize;
        while let Some(at) = masked[from..].find(marker) {
            let attr_end = from + at + marker.len();
            // Scan forward: the guarded item ends at the matching `}` of its
            // first `{`, or at a top-level `;` for brace-less items.
            let mut depth = 0usize;
            let mut end = attr_end;
            let mut j = attr_end;
            let mut opened = false;
            while j < bytes.len() {
                match bytes[j] {
                    b'{' => {
                        depth += 1;
                        opened = true;
                    }
                    b'}' => {
                        depth = depth.saturating_sub(1);
                        if opened && depth == 0 {
                            end = j + 1;
                            break;
                        }
                    }
                    b';' if !opened && depth == 0 => {
                        end = j + 1;
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            if j >= bytes.len() {
                end = bytes.len();
            }
            ranges.push((from + at, end));
            from = attr_end;
        }
    }
    ranges
}

/// Maps byte offsets to 1-based line numbers.
struct LineIndex {
    starts: Vec<usize>,
}

impl LineIndex {
    fn new(text: &str) -> Self {
        let mut starts = vec![0usize];
        for (i, b) in text.bytes().enumerate() {
            if b == b'\n' {
                starts.push(i + 1);
            }
        }
        LineIndex { starts }
    }

    fn line_of(&self, offset: usize) -> usize {
        self.starts.partition_point(|&s| s <= offset)
    }

    /// Byte range of a 1-based line.
    fn range_of(&self, line: usize) -> (usize, usize) {
        let start = self.starts[line - 1];
        let end = self.starts.get(line).copied().unwrap_or(usize::MAX);
        (start, end)
    }
}

fn is_ident_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Finds word-boundary occurrences of `needle` in `haystack`, yielding byte
/// offsets.  "Word boundary" means the surrounding bytes are not
/// identifier characters (so `thread_rng` does not match `my_thread_rng`).
fn find_token(haystack: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let bytes = haystack.as_bytes();
    let mut from = 0;
    while let Some(at) = haystack[from..].find(needle) {
        let start = from + at;
        let end = start + needle.len();
        let left_ok = start == 0 || !is_ident_char(bytes[start - 1]);
        let first = needle.as_bytes()[0];
        let last = needle.as_bytes()[needle.len() - 1];
        let right_ok = end >= bytes.len() || !is_ident_char(bytes[end]) || !is_ident_char(last);
        let left_ok = left_ok || !is_ident_char(first);
        if left_ok && right_ok {
            out.push(start);
        }
        from = start + 1;
    }
    out
}

/// The full per-file analysis: lexes `source` and applies every rule `scope`
/// enables, honouring `lint:allow` escapes.
#[must_use]
pub fn check_file(path: &str, source: &str, scope: Scope) -> Vec<Diagnostic> {
    let scan = scan(source);
    let mut diags = Vec::new();
    let allows = if scope.parse_escapes {
        parse_allows(&scan, path, &mut diags)
    } else {
        Vec::new()
    };
    let index = LineIndex::new(&scan.masked);
    let tests = test_ranges(&scan.masked);
    let in_test = |offset: usize| tests.iter().any(|&(s, e)| offset >= s && offset < e);
    let line_in_test = |line: usize| {
        let (s, _) = index.range_of(line);
        in_test(s)
    };
    let allowed = |rule: Rule, line: usize| {
        allows
            .iter()
            .any(|a| a.rule == rule && a.lines.contains(&line))
    };
    let mut push = |rule: Rule, line: usize, message: String, diags: &mut Vec<Diagnostic>| {
        if !allowed(rule, line) {
            diags.push(Diagnostic {
                path: path.to_string(),
                line,
                rule,
                message,
            });
        }
    };

    if scope.determinism {
        for pattern in [
            "SystemTime::now",
            "Instant::now",
            "thread_rng",
            "from_entropy",
            "rand::random",
            "env::var",
            "env::vars",
            "random_state",
            "RandomState",
        ] {
            for at in find_token(&scan.masked, pattern) {
                if in_test(at) {
                    continue;
                }
                let line = index.line_of(at);
                push(
                    Rule::Determinism,
                    line,
                    format!("`{pattern}` is nondeterministic in estimate-affecting library code"),
                    &mut diags,
                );
            }
        }
    }

    if scope.panic_policy {
        let patterns: [(&str, &str); 7] = [
            (".unwrap()", "unwrap"),
            (".expect(", "expect"),
            (".unwrap_unchecked(", "unwrap_unchecked"),
            ("panic!", "panic!"),
            ("todo!", "todo!"),
            ("unimplemented!", "unimplemented!"),
            ("unreachable!", "unreachable!"),
        ];
        for (pattern, label) in patterns {
            for at in find_token(&scan.masked, pattern) {
                if in_test(at) {
                    continue;
                }
                // `.expect(` must not match `.expect_end(` — find_token's
                // boundary check already handles this because `(` terminates
                // the needle, but guard the principle explicitly for the
                // plain-word macros (`panic!` cannot be an ident tail).
                let line = index.line_of(at);
                push(
                    Rule::PanicPolicy,
                    line,
                    format!("`{label}` in library code: return a typed error instead"),
                    &mut diags,
                );
            }
        }
    }

    if scope.hash_iter {
        check_hash_iter(&scan, &index, &in_test, &mut push, &mut diags);
    }

    if scope.hot_path_alloc {
        // Allocating constructors.  The list is deliberately blunt: inside
        // the hot-path module *every* allocation site must either disappear
        // into a recycled buffer or explain why it is not per-batch — the
        // escape reasons double as the module's allocation inventory.
        // (`Arc::new` is exempt: the shared-ownership handoff is the batch
        // protocol itself, and the payloads it wraps are what get recycled.)
        const ALLOC_CTORS: [&str; 12] = [
            "Vec::new",
            "Vec::with_capacity",
            "vec!",
            "Box::new",
            "FxHashMap::default",
            "FxHashMap::with_capacity",
            "FxHashSet::default",
            "FxHashSet::with_capacity",
            "HashMap::new",
            "HashSet::new",
            "String::new",
            ".to_vec(",
        ];
        for pattern in ALLOC_CTORS {
            for at in find_token(&scan.masked, pattern) {
                if in_test(at) {
                    continue;
                }
                let line = index.line_of(at);
                push(
                    Rule::HotPathAlloc,
                    line,
                    format!(
                        "`{}` allocates in the per-batch hot path; recycle a buffer or \
                         justify the allocation",
                        pattern.trim_matches(|c| c == '.' || c == '(')
                    ),
                    &mut diags,
                );
            }
        }
    }

    if scope.unsafe_needs_safety {
        for at in find_token(&scan.masked, "unsafe") {
            let line = index.line_of(at);
            // A SAFETY comment on the same line or within the 3 preceding
            // lines justifies the block.
            let documented = scan
                .comments
                .iter()
                .any(|c| c.text.contains("SAFETY:") && c.line + 3 >= line && c.line <= line);
            if !documented {
                push(
                    Rule::UnsafePolicy,
                    line,
                    "`unsafe` without a `// SAFETY:` comment justifying soundness".into(),
                    &mut diags,
                );
            }
        }
    }

    if scope.require_forbid_unsafe && !scan.masked.contains("#![forbid(unsafe_code)]") {
        push(
            Rule::UnsafePolicy,
            1,
            "crate root is missing `#![forbid(unsafe_code)]`".into(),
            &mut diags,
        );
    }

    if scope.persist_format {
        for lit in &scan.strings {
            if let Some(&magic) = PERSIST_MAGICS.iter().find(|&&m| m == lit.value) {
                if scope.is_format_registry {
                    continue; // uniqueness is checked by the workspace pass
                }
                push(
                    Rule::PersistFormat,
                    lit.line,
                    format!(
                        "magic `{magic}` re-spelled as a literal; reference the \
                         persist::format registry instead"
                    ),
                    &mut diags,
                );
            }
        }
    }

    // Deterministic output order: by line, then rule.
    diags.sort_by_key(|a| (a.line, a.rule));
    let _ = line_in_test; // kept for future rules that are line-oriented
    diags
}

/// The escape-aware diagnostic sink rules report through.
type PushFn<'a> = dyn FnMut(Rule, usize, String, &mut Vec<Diagnostic>) + 'a;

/// The hash-iteration rule: collects identifiers declared with hash-map/set
/// types in this file, then flags iteration over them unless the statement
/// visibly re-orders or reduces order-insensitively.
fn check_hash_iter(
    scan: &FileScan,
    index: &LineIndex,
    in_test: &dyn Fn(usize) -> bool,
    push: &mut PushFn<'_>,
    diags: &mut Vec<Diagnostic>,
) {
    let masked = &scan.masked;
    let mut hash_names: Vec<String> = Vec::new();
    // Declarations: `name: [&][path::]FxHashMap<` / `HashSet<` …
    for ty in ["FxHashMap", "FxHashSet", "HashMap", "HashSet"] {
        for at in find_token(masked, ty) {
            let after = &masked[at + ty.len()..];
            if !after.trim_start().starts_with('<') && !after.trim_start().starts_with("::") {
                continue;
            }
            if let Some(name) = declared_name_before(masked, at) {
                if !hash_names.contains(&name) {
                    hash_names.push(name);
                }
            }
        }
    }
    // Constructor bindings: `let [mut] name = fx_hashmap_with_capacity(...)`.
    for ctor in ["fx_hashmap_with_capacity", "fx_hashset_with_capacity"] {
        for at in find_token(masked, ctor) {
            if let Some(name) = bound_name_before(masked, at) {
                if !hash_names.contains(&name) {
                    hash_names.push(name);
                }
            }
        }
    }

    const ITER_METHODS: [&str; 10] = [
        ".iter()",
        ".iter_mut()",
        ".keys()",
        ".values()",
        ".values_mut()",
        ".drain(",
        ".into_iter()",
        ".into_keys()",
        ".into_values()",
        ".retain(",
    ];
    for name in &hash_names {
        for method in ITER_METHODS {
            let needle = format!("{name}{method}");
            for at in find_token(masked, &needle) {
                if in_test(at) {
                    continue;
                }
                let line = index.line_of(at);
                if statement_is_order_insensitive(masked, index, at) {
                    continue;
                }
                push(
                    Rule::HashIter,
                    line,
                    format!(
                        "iteration over hash container `{name}` ({}) has nondeterministic \
                         order",
                        method.trim_matches(|c| c == '.' || c == '(' || c == ')')
                    ),
                    diags,
                );
            }
        }
        // `for x in &name` / `for x in name` loops are always order-exposed.
        for prefix in ["in &mut ", "in &", "in "] {
            let needle = format!("{prefix}{name}");
            for at in find_token(masked, &needle) {
                if in_test(at) {
                    continue;
                }
                // Only flag whole-identifier receivers (`in name {`, not
                // `in name_longer` — find_token guarantees that — and not
                // method chains like `in name.keys()` which the method pass
                // already saw).
                let end = at + needle.len();
                let next = masked.as_bytes().get(end).copied().unwrap_or(b' ');
                if next == b'.' {
                    continue;
                }
                let line = index.line_of(at);
                push(
                    Rule::HashIter,
                    line,
                    format!("`for … in {name}` iterates a hash container in hash order"),
                    diags,
                );
            }
        }
    }
}

/// Walks left from a type-token offset to find `ident :` — the declared
/// binding or field name — skipping path qualifiers and reference sigils.
fn declared_name_before(masked: &str, type_at: usize) -> Option<String> {
    let bytes = masked.as_bytes();
    let mut i = type_at;
    // Skip backwards over the path prefix: idents, `::`, `&`, whitespace,
    // `mut`, `<` (one level: `Option<FxHashMap<...>>`-style wrappers are
    // conservatively accepted).
    loop {
        while i > 0 && (bytes[i - 1] == b' ' || bytes[i - 1] == b'&' || bytes[i - 1] == b'<') {
            i -= 1;
        }
        if i >= 2 && &masked[i - 2..i] == "::" {
            i -= 2;
            while i > 0 && is_ident_char(bytes[i - 1]) {
                i -= 1;
            }
            continue;
        }
        break;
    }
    if i == 0 || bytes[i - 1] != b':' {
        return None;
    }
    i -= 1; // the `:`
    while i > 0 && bytes[i - 1] == b' ' {
        i -= 1;
    }
    let end = i;
    while i > 0 && is_ident_char(bytes[i - 1]) {
        i -= 1;
    }
    if i == end {
        return None;
    }
    let name = &masked[i..end];
    if name == "mut" || name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return None;
    }
    Some(name.to_string())
}

/// Walks left from a constructor-call offset across `=` to find the bound
/// name in `let [mut] name = ctor(...)`.
fn bound_name_before(masked: &str, ctor_at: usize) -> Option<String> {
    let bytes = masked.as_bytes();
    let mut i = ctor_at;
    while i > 0 && bytes[i - 1] == b' ' {
        i -= 1;
    }
    if i == 0 || bytes[i - 1] != b'=' {
        return None;
    }
    i -= 1;
    while i > 0 && bytes[i - 1] == b' ' {
        i -= 1;
    }
    let end = i;
    while i > 0 && is_ident_char(bytes[i - 1]) {
        i -= 1;
    }
    if i == end {
        return None;
    }
    Some(masked[i..end].to_string())
}

/// Whether the statement containing `at` visibly re-orders the iteration or
/// reduces it order-insensitively.  The window runs from the match to the
/// first `;` (capped at 8 lines); a `.collect`-ing statement also gets the
/// *following* statement, so the common collect-then-sort idiom is sanctioned
/// by the sort it feeds.
fn statement_is_order_insensitive(masked: &str, index: &LineIndex, at: usize) -> bool {
    const SANCTIONED: [&str; 16] = [
        "BTreeSet",
        "BTreeMap",
        "BinaryHeap",
        ".sort",
        "sorted",
        ".max()",
        ".min()",
        ".max_by_key(",
        ".min_by_key(",
        ".count()",
        ".len()",
        ".sum::<u64>()",
        ".sum::<u128>()",
        ".sum::<usize>()",
        ".all(",
        ".any(",
    ];
    let line = index.line_of(at);
    let (start, _) = index.range_of(line);
    let cap_line = line + 8;
    let end = if cap_line <= index.starts.len() {
        index.range_of(cap_line).0
    } else {
        masked.len()
    };
    let window = &masked[start..end.min(masked.len())];
    let first_semi = window.find(';').map_or(window.len(), |p| p + 1);
    let stmt_end = if window[..first_semi].contains(".collect") {
        // Collect-then-sort: the re-ordering lives one statement later.
        first_semi
            + window[first_semi..]
                .find(';')
                .map_or(window.len() - first_semi, |p| p + 1)
    } else {
        first_semi
    };
    let stmt = &window[..stmt_end];
    SANCTIONED.iter().any(|s| stmt.contains(s))
}

/// Groups diagnostics per rule for the `--fix-report` output.
#[must_use]
pub fn fix_report(diags: &[Diagnostic]) -> String {
    let mut by_rule: BTreeMap<&'static str, Vec<&Diagnostic>> = BTreeMap::new();
    let mut hints: BTreeMap<&'static str, &'static str> = BTreeMap::new();
    for d in diags {
        by_rule.entry(d.rule.name()).or_default().push(d);
        hints.insert(d.rule.name(), d.rule.hint());
    }
    let mut out = String::new();
    for (rule, group) in &by_rule {
        out.push_str(&format!("## {rule} ({} violations)\n", group.len()));
        out.push_str(&format!("   fix: {}\n", hints[rule]));
        for d in group {
            out.push_str(&format!("   {}:{}: {}\n", d.path, d.line, d.message));
        }
        out.push('\n');
    }
    out
}
