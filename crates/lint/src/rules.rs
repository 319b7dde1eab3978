//! The token-stream rule engine and the five workspace rules.
//!
//! Every rule is a linear pass over the lexed token stream with a small
//! amount of per-file context gathered first (which identifiers are declared
//! with unordered container types, which with known primitive types, which
//! token ranges belong to `#[cfg(test)]` / `#[test]` code). The rules are
//! deliberately *lexical*: they trade the precision of type-aware analysis
//! for zero dependencies and a guarantee that they run in CI in milliseconds.
//! Where a lexical rule cannot prove safety it flags, and the suppression
//! syntax (`// mugi-lint: allow(rule-id, "reason")`) turns every false
//! positive into an auditable, justified decision.
//!
//! Rule catalogue (ids as used in `allow(...)`):
//!
//! | id | contract it protects |
//! |----|----------------------|
//! | `unordered-iteration` | iteration order over `HashMap`/`HashSet` feeds FP-sum order and batch formation in the simulation crates |
//! | `ambient-nondeterminism` | wall clocks and OS-seeded RNG must never feed simulated state |
//! | `float-accumulation-order` | float `sum`/`fold` over an unordered source reorders FP addition |
//! | `lossy-cast` | narrowing/sign-crossing `as` on counters truncates at 10⁶-request scale |
//! | `hot-path-panic` | `unwrap`/`expect`/`panic!`/indexing in the serving hot path |

use crate::lexer::{lex, Token, TokenKind};

/// The five rules, in catalogue order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// R1: iteration over `HashMap`/`HashSet` contents in simulation crates.
    UnorderedIteration,
    /// R2: `Instant::now` / `SystemTime` / `thread_rng` / `RandomState`.
    AmbientNondeterminism,
    /// R3: float `sum`/`fold` whose source iterator is unordered.
    FloatAccumulationOrder,
    /// R4: narrowing / sign-crossing / float→int `as` casts in hot-path
    /// modules.
    LossyCast,
    /// R5: panics and indexing in the serving hot path.
    HotPathPanic,
}

impl Rule {
    /// Every rule, in catalogue order.
    pub const ALL: [Rule; 5] = [
        Rule::UnorderedIteration,
        Rule::AmbientNondeterminism,
        Rule::FloatAccumulationOrder,
        Rule::LossyCast,
        Rule::HotPathPanic,
    ];

    /// The stable rule id used in diagnostics and `allow(...)` comments.
    pub fn id(self) -> &'static str {
        match self {
            Rule::UnorderedIteration => "unordered-iteration",
            Rule::AmbientNondeterminism => "ambient-nondeterminism",
            Rule::FloatAccumulationOrder => "float-accumulation-order",
            Rule::LossyCast => "lossy-cast",
            Rule::HotPathPanic => "hot-path-panic",
        }
    }

    /// Parses a rule id as written in an `allow(...)` comment.
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == id)
    }

    /// One-line remediation advice appended to every diagnostic.
    pub fn help(self) -> &'static str {
        match self {
            Rule::UnorderedIteration => {
                "iterate a sorted view (BTreeMap/BTreeSet, or collect-and-sort) so iteration \
                 order is deterministic"
            }
            Rule::AmbientNondeterminism => {
                "thread simulated time / the vendored seeded RNG through instead; ambient clocks \
                 and OS entropy break replayability"
            }
            Rule::FloatAccumulationOrder => {
                "accumulate from an ordered source (sorted keys, Vec) — FP addition does not \
                 commute, so order changes the golden fingerprints"
            }
            Rule::LossyCast => {
                "use try_into()/try_from or a checked helper (mugi_numerics::cast) so truncation \
                 panics instead of silently wrapping"
            }
            Rule::HotPathPanic => {
                "return an error or use get()/checked APIs; a panic in the serving hot path \
                 takes down the whole simulation"
            }
        }
    }
}

/// One diagnostic produced by a rule.
#[derive(Clone, Debug)]
pub struct Finding {
    /// The rule that fired.
    pub rule: Rule,
    /// Workspace-relative path of the file.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// 1-based byte column of the offending token.
    pub col: u32,
    /// Length in bytes of the offending token (for caret underlining).
    pub len: u32,
    /// What went wrong, in one sentence.
    pub message: String,
    /// The reason string of the `allow(...)` that suppressed this finding,
    /// if one did.
    pub allowed: Option<String>,
}

/// One `mugi-lint: allow(...)` comment found in a file.
#[derive(Clone, Debug)]
pub struct Allow {
    /// The rule it suppresses.
    pub rule: Rule,
    /// The mandatory justification string.
    pub reason: String,
    /// 1-based line of the comment.
    pub line: u32,
    /// 1-based line the allow suppresses: the comment's own line for a
    /// trailing comment, the next code line when the comment stands alone
    /// (the clippy-attribute placement).
    pub applies_to: u32,
    /// Whether the comment sits in the module header (before the first
    /// non-attribute code token), making it file-scoped.
    pub module_scope: bool,
    /// How many findings it suppressed (0 = stale allow, reported).
    pub used: u32,
}

/// A malformed suppression comment (unknown rule id, or missing the
/// mandatory reason). Reported so a typo cannot silently disable auditing.
#[derive(Clone, Debug)]
pub struct MalformedAllow {
    /// File the comment is in.
    pub file: String,
    /// 1-based line of the comment.
    pub line: u32,
    /// What is wrong with it.
    pub problem: String,
}

/// Everything the engine learned about one file.
#[derive(Clone, Debug, Default)]
pub struct FileReport {
    /// All findings, suppressed ones included (with their reasons).
    pub findings: Vec<Finding>,
    /// All well-formed allows, with use counts.
    pub allows: Vec<Allow>,
    /// Suppression comments that could not be parsed.
    pub malformed: Vec<MalformedAllow>,
}

/// Identifiers whose calls make iteration order visible on an unordered
/// container.
const UNORDERED_ITER_METHODS: [&str; 11] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
    "extract_if",
];

/// Crates whose state feeds the bit-identity fingerprints: R1/R3 apply here.
const SIMULATION_CRATES: [&str; 4] = ["arch", "core", "runtime", "workloads"];

/// Hot-path files for R5 (matched on basename, under any simulation crate).
const HOT_PANIC_FILES: [&str; 9] = [
    "scheduler.rs",
    "executor.rs",
    "memo.rs",
    "control.rs",
    "kv.rs",
    "event.rs",
    "request.rs",
    "placement.rs",
    "stats.rs",
];

/// Whether `path` is a cycle/byte-accounting hot-path module for R4.
fn is_hot_cast_path(path: &str) -> bool {
    let p = path.replace('\\', "/");
    p.contains("crates/runtime/src/")
        || p.ends_with("crates/arch/src/perf.rs")
        || p.ends_with("crates/core/src/memo.rs")
}

/// The crate a workspace-relative path belongs to (`crates/<name>/…`), or
/// the first path segment for non-crate roots (`examples`, `tests`).
fn crate_of(path: &str) -> &str {
    let p = path.trim_start_matches("./");
    let mut parts = p.split(['/', '\\']);
    match parts.next() {
        Some("crates") => parts.next().unwrap_or(""),
        Some(first) => first,
        None => "",
    }
}

/// A primitive numeric type as seen in source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Prim {
    Int {
        /// Bit width; `usize`/`isize` are entered asymmetrically (64 as a
        /// source, 32 as a target) so platform-dependent widths are treated
        /// pessimistically in both directions.
        bits: u32,
        signed: bool,
    },
    Float {
        bits: u32,
    },
}

/// Parses a primitive type name. `usize`/`isize` width depends on `as_source`
/// (see [`Prim::Int::bits`]).
fn prim(name: &str, as_source: bool) -> Option<Prim> {
    let ptr_bits = if as_source { 64 } else { 32 };
    Some(match name {
        "u8" => Prim::Int { bits: 8, signed: false },
        "u16" => Prim::Int { bits: 16, signed: false },
        "u32" => Prim::Int { bits: 32, signed: false },
        "u64" => Prim::Int { bits: 64, signed: false },
        "u128" => Prim::Int { bits: 128, signed: false },
        "usize" => Prim::Int { bits: ptr_bits, signed: false },
        "i8" => Prim::Int { bits: 8, signed: true },
        "i16" => Prim::Int { bits: 16, signed: true },
        "i32" => Prim::Int { bits: 32, signed: true },
        "i64" => Prim::Int { bits: 64, signed: true },
        "i128" => Prim::Int { bits: 128, signed: true },
        "isize" => Prim::Int { bits: ptr_bits, signed: true },
        "f32" => Prim::Float { bits: 32 },
        "f64" => Prim::Float { bits: 64 },
        _ => return None,
    })
}

/// Whether casting `src` to `dst` with `as` can lose information.
fn cast_is_lossy(src: Prim, dst: Prim) -> bool {
    match (src, dst) {
        (Prim::Int { bits: sb, signed: ss }, Prim::Int { bits: db, signed: ds }) => {
            match (ss, ds) {
                (false, false) | (true, true) => sb > db,
                (false, true) => sb >= db, // top bit becomes a sign
                (true, false) => true,     // negatives wrap
            }
        }
        (Prim::Float { .. }, Prim::Int { .. }) => true, // truncates / saturates
        (Prim::Float { bits: sb }, Prim::Float { bits: db }) => sb > db,
        // int → float precision loss (u64 > 2^53) is real but out of scope
        // for R4: the workspace's int→float casts are reporting-side and
        // bounded; a future rule could tighten this.
        (Prim::Int { .. }, Prim::Float { .. }) => false,
    }
}

/// Per-file lexical context shared by the rule passes.
struct Ctx<'s> {
    src: &'s str,
    path: &'s str,
    /// Code tokens only (comments and shebang stripped).
    code: Vec<Token>,
    /// Comment tokens only.
    comments: Vec<Token>,
    /// `in_test[i]` — code token `i` is inside `#[cfg(test)]` or `#[test]`
    /// item.
    in_test: Vec<bool>,
    /// Identifiers declared with `HashMap`/`HashSet` types in this file.
    unordered_idents: Vec<String>,
    /// Identifiers with a lexically visible primitive type.
    prim_idents: Vec<(String, Prim)>,
}

impl<'s> Ctx<'s> {
    fn text(&self, t: &Token) -> &'s str {
        t.text(self.src)
    }

    /// The code token at `i`, if any.
    fn tok(&self, i: usize) -> Option<&Token> {
        self.code.get(i)
    }

    /// Whether code token `i` is the identifier `s`.
    fn is_ident(&self, i: usize, s: &str) -> bool {
        self.tok(i).is_some_and(|t| t.kind == TokenKind::Ident && self.text(t) == s)
    }

    /// Whether code token `i` is the punctuation byte `c`.
    fn is_punct(&self, i: usize, c: char) -> bool {
        self.tok(i).is_some_and(|t| t.kind == TokenKind::Punct && self.text(t).starts_with(c))
    }

    /// Index of the matching closer for the opener at `i` (`(`/`[`/`{`).
    fn matching_close(&self, i: usize) -> Option<usize> {
        let (open, close) = match self.text(&self.code[i]) {
            "(" => ('(', ')'),
            "[" => ('[', ']'),
            "{" => ('{', '}'),
            _ => return None,
        };
        let mut depth = 0i64;
        for j in i..self.code.len() {
            if self.is_punct(j, open) {
                depth += 1;
            } else if self.is_punct(j, close) {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
        }
        None
    }

    /// Index of the matching opener for the closer at `i`, scanning back.
    fn matching_open(&self, i: usize) -> Option<usize> {
        let (open, close) = match self.text(&self.code[i]) {
            ")" => ('(', ')'),
            "]" => ('[', ']'),
            "}" => ('{', '}'),
            _ => return None,
        };
        let mut depth = 0i64;
        for j in (0..=i).rev() {
            if self.is_punct(j, close) {
                depth += 1;
            } else if self.is_punct(j, open) {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
        }
        None
    }
}

/// Builds the per-file context: lexes, separates comments, masks test code
/// and gathers declared-type facts.
fn build_ctx<'s>(path: &'s str, src: &'s str) -> Ctx<'s> {
    let all = lex(src);
    let mut code = Vec::new();
    let mut comments = Vec::new();
    for t in all {
        match t.kind {
            TokenKind::LineComment | TokenKind::BlockComment => comments.push(t),
            TokenKind::Shebang => {}
            _ => code.push(t),
        }
    }
    let mut ctx = Ctx {
        src,
        path,
        code,
        comments,
        in_test: Vec::new(),
        unordered_idents: Vec::new(),
        prim_idents: Vec::new(),
    };
    ctx.in_test = test_mask(&ctx);
    collect_declared_types(&mut ctx);
    ctx
}

/// Marks the token ranges of `#[cfg(test)]`- and `#[test]`-attributed items
/// (the attribute through the matching close brace / semicolon).
fn test_mask(ctx: &Ctx<'_>) -> Vec<bool> {
    let mut mask = vec![false; ctx.code.len()];
    let mut i = 0;
    while i < ctx.code.len() {
        let is_test_attr = ctx.is_punct(i, '#')
            && ctx.is_punct(i + 1, '[')
            && ((ctx.is_ident(i + 2, "cfg")
                && ctx.is_punct(i + 3, '(')
                && ctx.is_ident(i + 4, "test"))
                || (ctx.is_ident(i + 2, "test") && ctx.is_punct(i + 3, ']')));
        if !is_test_attr {
            i += 1;
            continue;
        }
        // Skip past the attribute itself, then mask through the end of the
        // attributed item: the matching `}` of its first brace block (or a
        // terminating `;` for brace-less items).
        let attr_end = ctx.matching_close(i + 1).unwrap_or(i + 1);
        let mut j = attr_end + 1;
        let mut end = ctx.code.len().saturating_sub(1);
        while j < ctx.code.len() {
            if ctx.is_punct(j, '{') {
                end = ctx.matching_close(j).unwrap_or(end);
                break;
            }
            if ctx.is_punct(j, ';') {
                end = j;
                break;
            }
            j += 1;
        }
        for m in mask.iter_mut().take(end + 1).skip(i) {
            *m = true;
        }
        i = end + 1;
    }
    mask
}

/// Gathers identifiers with lexically visible types: `name: HashMap<…>`
/// struct fields / lets / params, `let name = HashMap::new()` style
/// constructions, `name: u64` primitive annotations and `let name = 0u64`
/// suffixed-literal initializers.
fn collect_declared_types(ctx: &mut Ctx<'_>) {
    let mut unordered = Vec::new();
    let mut prims = Vec::new();
    for i in 0..ctx.code.len() {
        let t = &ctx.code[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let name = ctx.text(t);
        // `name : <type tokens up to a delimiter at angle-depth 0>`
        if ctx.is_punct(i + 1, ':')
            && !ctx.is_punct(i + 2, ':')
            && i.checked_sub(1).is_none_or(|p| !ctx.is_punct(p, ':'))
        {
            let mut angle: i64 = 0;
            let mut j = i + 2;
            let mut first_prim: Option<Prim> = None;
            let mut saw_unordered = false;
            while let Some(tt) = ctx.tok(j) {
                let txt = ctx.text(tt);
                match txt {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "," | ";" | "=" | ")" | "{" | "}" if angle <= 0 => break,
                    _ => {}
                }
                if tt.kind == TokenKind::Ident {
                    if txt == "HashMap" || txt == "HashSet" {
                        saw_unordered = true;
                    }
                    if first_prim.is_none() && angle == 0 {
                        first_prim = prim(txt, true);
                    }
                }
                j += 1;
                if j > i + 40 {
                    break; // bail on pathological declarations
                }
            }
            if saw_unordered {
                unordered.push(name.to_string());
            } else if let Some(p) = first_prim {
                prims.push((name.to_string(), p));
            }
        }
        // `let [mut] name = HashMap::…` / `= 0u64`
        if name == "let" {
            let mut k = i + 1;
            if ctx.is_ident(k, "mut") {
                k += 1;
            }
            let Some(bound) = ctx.tok(k) else { continue };
            if bound.kind != TokenKind::Ident || !ctx.is_punct(k + 1, '=') {
                continue;
            }
            let bound_name = ctx.text(bound).to_string();
            if let Some(init) = ctx.tok(k + 2) {
                let init_txt = ctx.text(init);
                if init.kind == TokenKind::Ident && (init_txt == "HashMap" || init_txt == "HashSet")
                {
                    unordered.push(bound_name);
                } else if init.kind == TokenKind::Num {
                    if let Some(p) = literal_prim(init_txt) {
                        prims.push((bound_name, p));
                    }
                }
            }
        }
    }
    unordered.sort();
    unordered.dedup();
    ctx.unordered_idents = unordered;
    ctx.prim_idents = prims;
}

/// The type of a suffixed numeric literal (`1u64` → `u64`), if suffixed.
fn literal_prim(text: &str) -> Option<Prim> {
    for name in [
        "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
        "f32", "f64",
    ] {
        if text.ends_with(name) && text.len() > name.len() {
            return prim(name, true);
        }
    }
    None
}

/// The numeric value of an unsuffixed integer literal, if parseable.
fn literal_value(text: &str) -> Option<u128> {
    let clean: String = text.chars().filter(|&c| c != '_').collect();
    if let Some(hex) = clean.strip_prefix("0x") {
        u128::from_str_radix(hex, 16).ok()
    } else if let Some(oct) = clean.strip_prefix("0o") {
        u128::from_str_radix(oct, 8).ok()
    } else if let Some(bin) = clean.strip_prefix("0b") {
        u128::from_str_radix(bin, 2).ok()
    } else {
        clean.parse().ok()
    }
}

/// Whether an unsuffixed int literal fits `dst` without loss.
fn literal_fits(value: u128, dst: Prim) -> bool {
    match dst {
        Prim::Int { bits, signed } => {
            let usable = if signed { bits - 1 } else { bits };
            128 - value.leading_zeros() <= usable
        }
        Prim::Float { .. } => true,
    }
}

/// Analyzes one file and returns every finding, allow and malformed allow.
/// `path` should be workspace-relative — it drives which rules apply.
pub fn analyze_file(path: &str, src: &str) -> FileReport {
    let ctx = build_ctx(path, src);
    let mut findings = Vec::new();

    let krate = crate_of(path);
    let sim_crate = SIMULATION_CRATES.contains(&krate);
    let basename = path.rsplit(['/', '\\']).next().unwrap_or(path);

    if sim_crate {
        rule_unordered_iteration(&ctx, &mut findings);
        rule_float_accumulation(&ctx, &mut findings);
    }
    rule_ambient_nondeterminism(&ctx, &mut findings);
    if is_hot_cast_path(path) {
        rule_lossy_cast(&ctx, &mut findings);
    }
    if HOT_PANIC_FILES.contains(&basename) && path.replace('\\', "/").contains("/src/") {
        rule_hot_path_panic(&ctx, &mut findings);
    }

    findings.sort_by_key(|f| (f.line, f.col, f.rule));

    let (mut allows, malformed) = parse_allows(&ctx, path);
    for f in &mut findings {
        // Line-scoped allow first, then a module-header allow for the rule.
        let hit = allows
            .iter()
            .position(|a| !a.module_scope && a.applies_to == f.line && a.rule == f.rule)
            .or_else(|| allows.iter().position(|a| a.module_scope && a.rule == f.rule));
        if let Some(a) = hit.map(|i| &mut allows[i]) {
            a.used += 1;
            f.allowed = Some(a.reason.clone());
        }
    }
    FileReport { findings, allows, malformed }
}

/// Parses every `mugi-lint: allow(rule, "reason")` comment in the file.
fn parse_allows(ctx: &Ctx<'_>, path: &str) -> (Vec<Allow>, Vec<MalformedAllow>) {
    // Module scope = the comment sits before the first code token that is
    // not part of a leading run of inner attributes (`#![…]`).
    let mut first_code_line = u32::MAX;
    let mut i = 0;
    while i < ctx.code.len() {
        if ctx.is_punct(i, '#') && ctx.is_punct(i + 1, '!') && ctx.is_punct(i + 2, '[') {
            i = ctx.matching_close(i + 2).map_or(i + 3, |c| c + 1);
            continue;
        }
        first_code_line = ctx.code[i].line;
        break;
    }

    let mut allows = Vec::new();
    let mut malformed = Vec::new();
    for c in &ctx.comments {
        let text = ctx.text(c);
        // The directive must open the comment body (after the `//`/`//!`/`/*`
        // sigils). Prose that merely *mentions* the syntax — always preceded
        // by words or a backtick — is documentation, not a suppression.
        let body = if let Some(rest) = text.strip_prefix("//") {
            rest.trim_start_matches(['/', '!'])
        } else if let Some(rest) = text.strip_prefix("/*") {
            rest.trim_start_matches(['*', '!']).trim_end_matches("*/")
        } else {
            text
        };
        let Some(rest) = body.trim_start().strip_prefix("mugi-lint:") else { continue };
        let rest = rest.trim_start();
        let Some(args) = rest.strip_prefix("allow(") else {
            malformed.push(MalformedAllow {
                file: path.to_string(),
                line: c.line,
                problem: "expected `allow(rule-id, \"reason\")` after `mugi-lint:`".into(),
            });
            continue;
        };
        let Some(close) = args.rfind(')') else {
            malformed.push(MalformedAllow {
                file: path.to_string(),
                line: c.line,
                problem: "unclosed `allow(`".into(),
            });
            continue;
        };
        let args = &args[..close];
        let (id, reason) = match args.split_once(',') {
            Some((id, reason)) => (id.trim(), reason.trim()),
            None => (args.trim(), ""),
        };
        let Some(rule) = Rule::from_id(id) else {
            malformed.push(MalformedAllow {
                file: path.to_string(),
                line: c.line,
                problem: format!("unknown rule id `{id}`"),
            });
            continue;
        };
        let reason = reason.trim_matches('"').trim();
        if reason.is_empty() {
            malformed.push(MalformedAllow {
                file: path.to_string(),
                line: c.line,
                problem: format!(
                    "allow({id}) carries no reason — a justification string is mandatory"
                ),
            });
            continue;
        }
        // A trailing comment covers its own line; a comment standing alone
        // on a line covers the next code line, like a clippy attribute.
        let own_line_has_code = ctx.code.iter().any(|t| t.line == c.line);
        let applies_to = if own_line_has_code {
            c.line
        } else {
            ctx.code.iter().map(|t| t.line).find(|&l| l > c.line).unwrap_or(c.line)
        };
        allows.push(Allow {
            rule,
            reason: reason.to_string(),
            line: c.line,
            applies_to,
            module_scope: c.line < first_code_line,
            used: 0,
        });
    }
    (allows, malformed)
}

/// Emits a finding at code token `i`.
fn flag(ctx: &Ctx<'_>, findings: &mut Vec<Finding>, rule: Rule, i: usize, message: String) {
    let t = &ctx.code[i];
    findings.push(Finding {
        rule,
        file: ctx.path.to_string(),
        line: t.line,
        col: t.col,
        len: (t.end - t.start) as u32,
        message,
        allowed: None,
    });
}

/// R1: `for … in <unordered>` loops and order-revealing method calls on
/// identifiers declared with `HashMap`/`HashSet` types.
fn rule_unordered_iteration(ctx: &Ctx<'_>, findings: &mut Vec<Finding>) {
    let unordered = |s: &str| ctx.unordered_idents.iter().any(|u| u == s);
    for i in 0..ctx.code.len() {
        if ctx.in_test[i] {
            continue;
        }
        // `for <pat> in <expr> {` — flag an unordered ident inside the expr.
        if ctx.is_ident(i, "for") {
            let mut j = i + 1;
            let mut saw_in = None;
            while j < ctx.code.len() && j < i + 60 {
                if ctx.is_punct(j, '{') {
                    break;
                }
                if ctx.is_ident(j, "in") {
                    saw_in = Some(j);
                    break;
                }
                j += 1;
            }
            if let Some(in_idx) = saw_in {
                let mut k = in_idx + 1;
                let mut depth = 0i64;
                while k < ctx.code.len() {
                    let txt = ctx.text(&ctx.code[k]);
                    match txt {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "{" if depth == 0 => break,
                        _ => {}
                    }
                    if ctx.code[k].kind == TokenKind::Ident && unordered(txt) {
                        flag(
                            ctx,
                            findings,
                            Rule::UnorderedIteration,
                            k,
                            format!(
                                "`for` loop iterates `{txt}`, which is declared as an unordered \
                                 HashMap/HashSet: iteration order is arbitrary"
                            ),
                        );
                        break;
                    }
                    k += 1;
                }
            }
        }
        // `<ident>.method(` with method in the order-revealing family.
        if ctx.code[i].kind == TokenKind::Ident
            && UNORDERED_ITER_METHODS.contains(&ctx.text(&ctx.code[i]))
            && i >= 2
            && ctx.is_punct(i - 1, '.')
            && ctx.is_punct(i + 1, '(')
            && ctx.code[i - 2].kind == TokenKind::Ident
        {
            let recv = ctx.text(&ctx.code[i - 2]);
            if unordered(recv) {
                let method = ctx.text(&ctx.code[i]);
                flag(
                    ctx,
                    findings,
                    Rule::UnorderedIteration,
                    i,
                    format!(
                        "`.{method}()` on `{recv}` (a HashMap/HashSet) observes arbitrary \
                         iteration order"
                    ),
                );
            }
        }
    }
}

/// R2: ambient clocks and OS-seeded randomness.
fn rule_ambient_nondeterminism(ctx: &Ctx<'_>, findings: &mut Vec<Finding>) {
    for i in 0..ctx.code.len() {
        if ctx.in_test[i] || ctx.code[i].kind != TokenKind::Ident {
            continue;
        }
        let txt = ctx.text(&ctx.code[i]);
        let message = match txt {
            "Instant"
                if ctx.is_punct(i + 1, ':')
                    && ctx.is_punct(i + 2, ':')
                    && ctx.is_ident(i + 3, "now") =>
            {
                "`Instant::now()` reads the wall clock — simulated state must come from the \
                 cycle-accurate clock"
            }
            "SystemTime" => {
                "`SystemTime` reads ambient time — simulated state must come from the \
                 cycle-accurate clock"
            }
            "thread_rng" => {
                "`thread_rng()` is OS-seeded — use the vendored seeded RNG (rand_chacha) so runs \
                 replay bit-identically"
            }
            "RandomState" => {
                "`RandomState` seeds hashing from OS entropy — hash iteration order would differ \
                 across runs"
            }
            _ => continue,
        };
        flag(ctx, findings, Rule::AmbientNondeterminism, i, message.to_string());
    }
}

/// Walks a method chain backwards from the `.` at `dot`, collecting the
/// receiver identifiers and method names seen along the chain root-ward.
fn chain_idents(ctx: &Ctx<'_>, dot: usize) -> Vec<String> {
    let mut names = Vec::new();
    let mut i = dot; // points at a `.`
    loop {
        if i == 0 {
            break;
        }
        let prev = i - 1;
        match ctx.code[prev].kind {
            TokenKind::Punct if ctx.text(&ctx.code[prev]) == ")" => {
                // a call — skip its arguments, then expect `ident` before it
                let Some(open) = ctx.matching_open(prev) else { break };
                if open == 0 {
                    break;
                }
                let m = open - 1;
                if ctx.code[m].kind == TokenKind::Ident {
                    names.push(ctx.text(&ctx.code[m]).to_string());
                    if m >= 1 && ctx.is_punct(m - 1, '.') {
                        i = m - 1;
                        continue;
                    }
                }
                break;
            }
            TokenKind::Punct if ctx.text(&ctx.code[prev]) == "?" => {
                i = prev;
                continue;
            }
            TokenKind::Ident => {
                names.push(ctx.text(&ctx.code[prev]).to_string());
                if prev >= 1 && ctx.is_punct(prev - 1, '.') {
                    i = prev - 1;
                    continue;
                }
                break;
            }
            _ => break,
        }
    }
    names
}

/// R3: `.sum::<f32|f64>()` / float `fold` chained from an unordered source.
fn rule_float_accumulation(ctx: &Ctx<'_>, findings: &mut Vec<Finding>) {
    let unordered = |s: &str| ctx.unordered_idents.iter().any(|u| u == s);
    for i in 0..ctx.code.len() {
        if ctx.in_test[i] || ctx.code[i].kind != TokenKind::Ident {
            continue;
        }
        if i == 0 || !ctx.is_punct(i - 1, '.') {
            continue;
        }
        let name = ctx.text(&ctx.code[i]);
        let float_acc = match name {
            "sum" | "product" => {
                // turbofish `::<f32|f64>`
                ctx.is_punct(i + 1, ':')
                    && ctx.is_punct(i + 2, ':')
                    && ctx.is_punct(i + 3, '<')
                    && (ctx.is_ident(i + 4, "f32") || ctx.is_ident(i + 4, "f64"))
            }
            "fold" => {
                // first argument is a float literal (possibly negated)
                let mut j = i + 2; // past `(`
                if ctx.is_punct(j, '-') {
                    j += 1;
                }
                ctx.is_punct(i + 1, '(')
                    && ctx.tok(j).is_some_and(|t| {
                        t.kind == TokenKind::Num && {
                            let s = ctx.text(t);
                            s.contains('.') || s.ends_with("f32") || s.ends_with("f64")
                        }
                    })
            }
            _ => false,
        };
        if !float_acc {
            continue;
        }
        let chain = chain_idents(ctx, i - 1);
        if let Some(bad) = chain.iter().find(|n| unordered(n)) {
            flag(
                ctx,
                findings,
                Rule::FloatAccumulationOrder,
                i,
                format!(
                    "float `{name}` accumulates over `{bad}`, an unordered HashMap/HashSet \
                     source: FP addition order would vary run to run"
                ),
            );
        }
    }
}

/// R4: `as` casts that can narrow, cross signs or truncate floats, on
/// sources whose type is lexically visible — plus unknown-source casts to
/// integer targets, which cannot be proven lossless.
fn rule_lossy_cast(ctx: &Ctx<'_>, findings: &mut Vec<Finding>) {
    for i in 0..ctx.code.len() {
        if ctx.in_test[i] || !ctx.is_ident(i, "as") {
            continue;
        }
        let Some(dst_tok) = ctx.tok(i + 1) else { continue };
        if dst_tok.kind != TokenKind::Ident {
            continue;
        }
        let Some(dst) = prim(ctx.text(dst_tok), false) else { continue };
        if i == 0 {
            continue;
        }
        let prev = &ctx.code[i - 1];
        // Resolve the source type where the tokens allow it.
        let src_ty: Option<Prim> = match prev.kind {
            TokenKind::Num => {
                let txt = ctx.text(prev);
                if i >= 2 && ctx.is_punct(i - 2, '.') {
                    // `x.0 as …` is a tuple-field access, not a literal.
                    None
                } else if let Some(p) = literal_prim(txt) {
                    Some(p)
                } else if txt.contains('.') || txt.contains('e') || txt.contains('E') {
                    Some(Prim::Float { bits: 64 })
                } else if let Some(v) = literal_value(txt) {
                    // Unsuffixed int literal: decide by value.
                    if literal_fits(v, dst) {
                        continue;
                    }
                    flag(
                        ctx,
                        findings,
                        Rule::LossyCast,
                        i,
                        format!("literal `{txt}` does not fit `{}`", ctx.text(dst_tok)),
                    );
                    continue;
                } else {
                    None
                }
            }
            TokenKind::Ident => {
                let name = ctx.text(prev);
                ctx.prim_idents.iter().find(|(n, _)| n == name).map(|&(_, p)| p)
            }
            TokenKind::Punct if ctx.text(prev) == ")" => {
                // `….len() as X` / `….round() as X`: peek at the method.
                ctx.matching_open(i - 1)
                    .and_then(|open| open.checked_sub(1))
                    .filter(|&m| {
                        ctx.code[m].kind == TokenKind::Ident && m >= 1 && ctx.is_punct(m - 1, '.')
                    })
                    .and_then(|m| match ctx.text(&ctx.code[m]) {
                        "len" | "count" | "capacity" => prim("usize", true),
                        "round" | "ceil" | "floor" | "trunc" => Some(Prim::Float { bits: 64 }),
                        _ => None,
                    })
            }
            _ => None,
        };
        match src_ty {
            Some(src) if cast_is_lossy(src, dst) => {
                flag(
                    ctx,
                    findings,
                    Rule::LossyCast,
                    i,
                    format!(
                        "`as {}` from a {} source can lose information",
                        ctx.text(dst_tok),
                        describe(src),
                    ),
                );
            }
            Some(_) => {} // provably lossless
            None if matches!(dst, Prim::Int { .. }) => {
                flag(
                    ctx,
                    findings,
                    Rule::LossyCast,
                    i,
                    format!(
                        "`as {}` on a source of unknown width cannot be proven lossless",
                        ctx.text(dst_tok),
                    ),
                );
            }
            None => {} // unknown → float: out of scope
        }
    }
}

/// Human description of a primitive for diagnostics.
fn describe(p: Prim) -> String {
    match p {
        Prim::Int { bits, signed } => {
            format!("{}{bits}-bit integer", if signed { "signed " } else { "unsigned " })
        }
        Prim::Float { bits } => format!("{bits}-bit float"),
    }
}

/// R5: panic-family calls and bracket indexing in the hot-path files.
fn rule_hot_path_panic(ctx: &Ctx<'_>, findings: &mut Vec<Finding>) {
    for i in 0..ctx.code.len() {
        if ctx.in_test[i] {
            continue;
        }
        let t = &ctx.code[i];
        match t.kind {
            TokenKind::Ident => {
                let txt = ctx.text(t);
                let is_method_panic = (txt == "unwrap" || txt == "expect")
                    && i >= 1
                    && ctx.is_punct(i - 1, '.')
                    && ctx.is_punct(i + 1, '(');
                let is_macro_panic =
                    matches!(txt, "panic" | "unreachable" | "todo" | "unimplemented")
                        && ctx.is_punct(i + 1, '!');
                if is_method_panic {
                    flag(
                        ctx,
                        findings,
                        Rule::HotPathPanic,
                        i,
                        format!("`.{txt}()` can panic in the serving hot path"),
                    );
                } else if is_macro_panic {
                    flag(
                        ctx,
                        findings,
                        Rule::HotPathPanic,
                        i,
                        format!("`{txt}!` aborts the serving hot path"),
                    );
                }
            }
            TokenKind::Punct if ctx.text(t) == "[" && i >= 1 => {
                let prev = &ctx.code[i - 1];
                let indexes = match prev.kind {
                    TokenKind::Ident => {
                        // `arr[…]` — but not keywords that precede array
                        // literals / types.
                        !matches!(
                            ctx.text(prev),
                            "let"
                                | "mut"
                                | "in"
                                | "return"
                                | "match"
                                | "if"
                                | "else"
                                | "as"
                                | "const"
                                | "static"
                                | "ref"
                                | "move"
                                | "break"
                                | "where"
                        )
                    }
                    TokenKind::Punct => matches!(ctx.text(prev), ")" | "]"),
                    _ => false,
                };
                if indexes {
                    flag(
                        ctx,
                        findings,
                        Rule::HotPathPanic,
                        i,
                        "bracket indexing panics on out-of-bounds in the serving hot path"
                            .to_string(),
                    );
                }
            }
            _ => {}
        }
    }
}
