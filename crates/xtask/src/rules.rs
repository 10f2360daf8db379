//! The nine lint rules, evaluated over the token stream.
//!
//! Each per-file rule walks the *significant* (non-comment) tokens of
//! one file via [`FileContext`] and appends `(line, rule, message)`
//! tuples. Test regions are skipped through [`crate::scopes::Scopes`],
//! and the escape hatches (`// lint:allow(<rule>)` on the same or the
//! preceding line, `// lint:allow-file(<rule>)` anywhere) are honored
//! only when they appear inside comment tokens — a marker inside a
//! string literal is just a string.
//!
//! L6's lock-acquisition-order edges and L8's metric-name cross-check
//! are workspace-level analyses driven from [`crate::lint_workspace`];
//! this module provides their building blocks
//! ([`lock_order_edges`], [`metric_name_hygiene`]).

use crate::lexer::{TokenKind, TokenStream};
use crate::scopes::{ScopeKind, Scopes, Trivia};
use crate::{FileKind, Rule};

/// Everything the per-file rules need to know about one file.
pub struct FileContext<'a> {
    /// Workspace-relative path with `/` separators.
    pub rel: &'a str,
    /// How the file participates in the rule set.
    pub kind: FileKind,
    /// The lexed token stream.
    pub ts: &'a TokenStream<'a>,
    /// Brace/scope/test-region analysis.
    pub sc: &'a Scopes,
    /// Comment tokens (allow markers, ordering notes).
    pub tv: &'a Trivia,
    /// Whether L5 applies to this file.
    pub is_hot_path: bool,
    /// Whether this file is `crates/geom/src/angle.rs` (exempt from L2).
    pub is_angle_module: bool,
    /// Whether this file is `crates/core/src/obs/metrics.rs` (exempt
    /// from L7: the metrics cells are the one sanctioned atomics nest).
    pub is_metrics_module: bool,
}

/// One `(line, rule, message)` finding.
pub type Sink = Vec<(usize, Rule, String)>;

impl FileContext<'_> {
    /// Text of the `i`-th significant token (`""` out of range).
    fn t(&self, i: usize) -> &str {
        self.ts.sig_text(i)
    }

    /// 1-based line of the `i`-th significant token.
    fn line(&self, i: usize) -> usize {
        self.ts.sig_token(i).map(|t| t.line).unwrap_or(0)
    }

    fn emit(&self, out: &mut Sink, i: usize, rule: Rule, message: String) {
        let line = self.line(i);
        if !(self.tv.allows(line, rule.name()) || self.tv.allows_file(rule.name())) {
            out.push((line, rule, message));
        }
    }
}

/// Walk a `seg::seg::…::last` path forward from an ident at `i`.
/// Returns `(first_seg, last_seg, index_one_past_the_path)`.
fn path_forward<'a>(ctx: &'a FileContext<'_>, i: usize) -> (&'a str, &'a str, usize) {
    let first = ctx.t(i);
    let mut last = first;
    let mut j = i;
    while ctx.t(j + 1) == "::"
        && ctx
            .ts
            .sig_token(j + 2)
            .is_some_and(|t| t.kind == TokenKind::Ident)
    {
        j += 2;
        last = ctx.t(j);
    }
    (first, last, j + 1)
}

/// Walk a path *backward* from an ident at `i` to its first segment.
fn path_back(ctx: &FileContext<'_>, i: usize) -> usize {
    let mut j = i;
    while j >= 2
        && ctx.t(j - 1) == "::"
        && ctx
            .ts
            .sig_token(j - 2)
            .is_some_and(|t| t.kind == TokenKind::Ident)
    {
        j -= 2;
    }
    j
}

/// Render the source between two significant tokens (inclusive).
fn span_text<'a>(ctx: &FileContext<'a>, from: usize, to: usize) -> &'a str {
    match (ctx.ts.sig_token(from), ctx.ts.sig_token(to)) {
        (Some(a), Some(b)) if b.end >= a.start => &ctx.ts.source()[a.start..b.end],
        _ => "",
    }
}

/// L1: no `.unwrap()` / `.expect(` / `panic!(` in non-test library or
/// binary code. Exact token matches: `debug_panic!` or `unwrap_or` are
/// different identifiers and do not fire.
pub fn no_panic(ctx: &FileContext<'_>, out: &mut Sink) {
    if !ctx.kind.checks_panics() {
        return;
    }
    for i in 0..ctx.ts.sig_len() {
        if ctx.sc.in_test(i)
            || ctx
                .ts
                .sig_token(i)
                .is_none_or(|t| t.kind != TokenKind::Ident)
        {
            continue;
        }
        let what = match ctx.t(i) {
            "unwrap"
                if ctx.t(i.wrapping_sub(1)) == "."
                    && ctx.t(i + 1) == "("
                    && ctx.t(i + 2) == ")" =>
            {
                "`.unwrap()` can panic"
            }
            "expect" if ctx.t(i.wrapping_sub(1)) == "." && ctx.t(i + 1) == "(" => {
                "`.expect(...)` can panic"
            }
            "panic" if ctx.t(i + 1) == "!" => "explicit `panic!`",
            _ => continue,
        };
        let target = match ctx.kind {
            FileKind::Binary => "binary",
            _ => "library",
        };
        ctx.emit(
            out,
            i,
            Rule::NoPanic,
            format!("{what} in {target} code; return a typed error instead"),
        );
    }
}

/// After an opening construct at `start`, resolve an angle-wrap operand:
/// an optional `(`, an optional unary `-`, then either a const path whose
/// last segment is returned, or the `2.0 * PI` product (returned as
/// `"TAU"` since they are the same full turn).
fn wrap_operand<'a>(ctx: &'a FileContext<'_>, start: usize) -> Option<&'a str> {
    let mut j = start;
    if ctx.t(j) == "(" {
        j += 1;
    }
    if ctx.t(j) == "-" {
        j += 1;
    }
    let tok = ctx.ts.sig_token(j)?;
    match tok.kind {
        TokenKind::Ident => {
            let (_, last, _) = path_forward(ctx, j);
            Some(last)
        }
        TokenKind::Num if ctx.t(j) == "2.0" && ctx.t(j + 1) == "*" => {
            let k = j + 2;
            if ctx
                .ts
                .sig_token(k)
                .is_some_and(|t| t.kind == TokenKind::Ident)
            {
                let (_, last, _) = path_forward(ctx, k);
                if last == "PI" {
                    return Some("TAU");
                }
            }
            None
        }
        _ => None,
    }
}

/// L2: raw phase-wrap arithmetic outside `tagspin_geom::angle`.
pub fn angle_hygiene(ctx: &FileContext<'_>, out: &mut Sink) {
    if !ctx.kind.checks_expressions() || ctx.is_angle_module {
        return;
    }
    let n = ctx.ts.sig_len();
    for i in 0..n {
        if ctx.sc.in_test(i) {
            continue;
        }
        let text = ctx.t(i);
        // `x.rem_euclid(TAU)` / `x.rem_euclid(2.0 * PI)`.
        if text == "rem_euclid" && ctx.t(i.wrapping_sub(1)) == "." && ctx.t(i + 1) == "(" {
            if wrap_operand(ctx, i + 2) == Some("TAU") {
                ctx.emit(
                    out,
                    i,
                    Rule::AngleHygiene,
                    "raw 2\u{3c0} wrap; use tagspin_geom::angle::{wrap_tau, wrap_pi, diff} \
                     instead"
                        .to_string(),
                );
            }
            continue;
        }
        // `x % TAU` (but not `x % TAU_HALF`: token match is exact).
        if text == "%" && wrap_operand(ctx, i + 1) == Some("TAU") {
            ctx.emit(
                out,
                i,
                Rule::AngleHygiene,
                "raw 2\u{3c0} wrap; use tagspin_geom::angle::{wrap_tau, wrap_pi, diff} instead"
                    .to_string(),
            );
        }
    }
    // Manual ±π wrap: a PI comparison and a TAU adjustment on one line
    // (`if x > PI { x -= TAU }`, `while d <= -PI { d += TAU }`, …).
    let mut i = 0;
    while i < n {
        let line = ctx.line(i);
        let mut end = i;
        while end + 1 < n && ctx.line(end + 1) == line {
            end += 1;
        }
        if !ctx.sc.line_in_test(line) {
            let compares_pi = (i..=end).any(|j| {
                matches!(ctx.t(j), ">" | ">=" | "<" | "<=")
                    && wrap_operand(ctx, j + 1) == Some("PI")
            });
            let adjusts_tau = (i..=end).any(|j| {
                matches!(ctx.t(j), "+" | "-" | "+=" | "-=")
                    && ctx
                        .ts
                        .sig_token(j + 1)
                        .is_some_and(|t| t.kind == TokenKind::Ident)
                    && path_forward(ctx, j + 1).1 == "TAU"
            });
            if compares_pi && adjusts_tau {
                ctx.emit(
                    out,
                    i,
                    Rule::AngleHygiene,
                    "manual \u{b1}\u{3c0} wrap arithmetic; use tagspin_geom::angle::wrap_pi \
                     instead"
                        .to_string(),
                );
            }
        }
        i = end + 1;
    }
}

/// Whether a numeric literal is recognizably floating-point.
fn floatish_num(text: &str) -> bool {
    text.contains('.') || text.ends_with("f32") || text.ends_with("f64")
}

/// Whether the operand adjacent to a comparison is recognizably a float:
/// a float literal or an `f64::`/`f32::` associated constant.
/// Returns the rendered operand text when it is.
fn float_operand<'a>(ctx: &'a FileContext<'a>, i: usize, forward: bool) -> Option<&'a str> {
    let mut j = i;
    if forward && ctx.t(j) == "-" {
        j += 1;
    }
    let tok = ctx.ts.sig_token(j)?;
    match tok.kind {
        TokenKind::Num if floatish_num(ctx.t(j)) => Some(ctx.t(j)),
        TokenKind::Ident => {
            let (start, end) = if forward {
                let (_, _, after) = path_forward(ctx, j);
                (j, after - 1)
            } else {
                (path_back(ctx, j), j)
            };
            let first = ctx.t(start);
            if first == "f64" || first == "f32" {
                Some(span_text(ctx, start, end))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// L3: `==` / `!=` against floating-point values outside tests.
///
/// Token-lite: only comparisons with a recognizable float operand (a
/// float literal or an `f64::`/`f32::` constant) are flagged; variable ==
/// variable comparisons need type knowledge this analyzer does not have.
pub fn float_eq(ctx: &FileContext<'_>, out: &mut Sink) {
    if !ctx.kind.checks_expressions() {
        return;
    }
    for i in 0..ctx.ts.sig_len() {
        let op = ctx.t(i);
        if (op != "==" && op != "!=") || ctx.sc.in_test(i) {
            continue;
        }
        let lhs = if i > 0 {
            float_operand(ctx, i - 1, false)
        } else {
            None
        };
        let rhs = float_operand(ctx, i + 1, true);
        if lhs.is_some() || rhs.is_some() {
            let lhs = lhs.unwrap_or_else(|| if i > 0 { ctx.t(i - 1) } else { "" });
            let rhs = rhs.unwrap_or_else(|| ctx.t(i + 1));
            ctx.emit(
                out,
                i,
                Rule::FloatEq,
                format!(
                    "floating-point `{op}` comparison (`{lhs} {op} {rhs}`); \
                     use an epsilon/ULP helper from tagspin_dsp::float"
                ),
            );
        }
    }
}

/// L4: `Result<_, String>` in a `pub fn` signature.
pub fn stringly_error(ctx: &FileContext<'_>, out: &mut Sink) {
    if !ctx.kind.checks_signatures() {
        return;
    }
    let n = ctx.ts.sig_len();
    for i in 0..n {
        if ctx.t(i) != "pub" || ctx.sc.in_test(i) {
            continue;
        }
        let mut j = i + 1;
        if ctx.t(j) == "(" {
            // `pub(crate)` / `pub(super)` is not public API.
            continue;
        }
        while matches!(ctx.t(j), "async" | "const" | "unsafe") {
            j += 1;
        }
        if ctx.t(j) != "fn" {
            continue;
        }
        // Scan the signature until its body opens or the item ends.
        let mut k = j;
        let mut stringly = false;
        while k < n && ctx.t(k) != "{" && ctx.t(k) != ";" {
            if ctx.t(k) == "Result" && ctx.t(k + 1) == "<" {
                stringly |= result_err_is_string(ctx, k + 2);
            }
            k += 1;
        }
        if stringly {
            ctx.emit(
                out,
                i,
                Rule::StringlyError,
                "public API returns `Result<_, String>`; define a typed error enum \
                 implementing std::error::Error"
                    .to_string(),
            );
        }
    }
}

/// From the token after `Result<`, decide whether the error type (the
/// top-level second generic argument) is exactly `String`.
fn result_err_is_string(ctx: &FileContext<'_>, start: usize) -> bool {
    let mut depth = 1i32;
    let mut j = start;
    while j < ctx.ts.sig_len() && depth > 0 {
        match ctx.t(j) {
            "<" => depth += 1,
            ">" => depth -= 1,
            "<<" => depth += 2,
            ">>" => depth -= 2,
            "," if depth == 1 => {
                // The error type begins here.
                return ctx.t(j + 1) == "String" && ctx.t(j + 2) == ">";
            }
            _ => {}
        }
        j += 1;
    }
    false
}

/// Numeric types whose `as` casts are lossy-suspect (L5).
const NUMERIC_TYPES: [&str; 13] = [
    "usize", "u8", "u16", "u32", "u64", "u128", "isize", "i8", "i16", "i32", "i64", "f32", "f64",
];

/// L5: numeric `as` casts in hot-path files must carry an annotation.
pub fn lossy_cast(ctx: &FileContext<'_>, out: &mut Sink) {
    if !ctx.is_hot_path {
        return;
    }
    let mut last_line = 0;
    for i in 0..ctx.ts.sig_len() {
        if ctx.t(i) != "as" || ctx.sc.in_test(i) {
            continue;
        }
        let ty = ctx.t(i + 1);
        if !NUMERIC_TYPES.contains(&ty) {
            continue;
        }
        let line = ctx.line(i);
        if line == last_line {
            continue; // one finding per line is enough
        }
        last_line = line;
        ctx.emit(
            out,
            i,
            Rule::LossyCast,
            format!(
                "unannotated numeric cast `as {ty}` in a hot path; justify with \
                 `// lint:allow(lossy-cast) <why it cannot lose value>`"
            ),
        );
    }
}

/// Callees a live lock guard must not span (L6): observer emission and
/// the spectrum recompute entry points, whose latency and re-entrancy
/// must never be coupled to a held lock. `fix` and `estimate` are the
/// generic fix calls (`fix::<TwoD>()`); `fix_2d` is the manager alias and
/// the serve daemon's fix query.
const GUARDED_CALLEES: [&str; 13] = [
    "emit",
    "on_event",
    "on_batch",
    "spectrum_2d",
    "spectrum_3d",
    "spectrum_3d_for_disk",
    "fix",
    "estimate",
    "fix_2d",
    "tag_bearing_2d",
    "peak_2d",
    "peak_3d",
    "peak_3d_for_disk",
];

/// A lock guard binding discovered by the L6 scan.
struct Guard {
    /// Binding identifier.
    name: String,
    /// Lock class: last field segment of the receiver (`self.cache` →
    /// `cache`).
    class: String,
    /// Significant index where liveness begins (the binding's `;`).
    live_from: usize,
    /// Significant index where the enclosing block closes.
    live_to: usize,
    /// 1-based line of the acquisition.
    line: usize,
}

/// One nested lock acquisition: `held` was live when `acquired` was
/// taken. Aggregated workspace-wide for cycle detection.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// Module tag of the file (first path segment under `src/`).
    pub module: String,
    /// Class of the lock already held.
    pub held: String,
    /// Class of the lock being acquired.
    pub acquired: String,
    /// 1-based line of the nested acquisition.
    pub line: usize,
}

/// Detect a `.lock()` / `.read()` / `.write()` acquisition ending at
/// significant index `i` (the method ident). All three take no
/// arguments, which keeps `io::Read::read(&mut buf)` out of scope.
/// Returns the receiver's lock class and the index of the closing `)`.
fn lock_acquisition(ctx: &FileContext<'_>, i: usize) -> Option<(String, usize)> {
    if !matches!(ctx.t(i), "lock" | "read" | "write")
        || ctx.t(i.wrapping_sub(1)) != "."
        || ctx.t(i + 1) != "("
        || ctx.t(i + 2) != ")"
    {
        return None;
    }
    // Receiver chain: walk back over `ident (. ident)*`; the class is
    // the last field segment before the lock call.
    let mut j = i - 1; // the `.`
    let mut class = None;
    while j >= 1 {
        let recv = ctx.ts.sig_token(j - 1)?;
        if recv.kind != TokenKind::Ident {
            break;
        }
        if class.is_none() {
            class = Some(ctx.t(j - 1).to_string());
        }
        if j >= 3 && ctx.t(j - 2) == "." {
            j -= 2;
        } else {
            break;
        }
    }
    class.map(|c| (c, i + 2))
}

/// Skip an adapter chain after a closing `)` at `i`: `.unwrap()`,
/// `.expect(…)`, `.unwrap_or_else(…)`, `.unwrap_or_default()`. Returns
/// the significant index just past the chain.
fn skip_adapters(ctx: &FileContext<'_>, mut i: usize) -> usize {
    loop {
        if ctx.t(i + 1) == "."
            && matches!(
                ctx.t(i + 2),
                "unwrap" | "expect" | "unwrap_or_else" | "unwrap_or_default"
            )
            && ctx.t(i + 3) == "("
        {
            // Skip to the matching close paren.
            let mut depth = 0i32;
            let mut j = i + 3;
            while j < ctx.ts.sig_len() {
                match ctx.t(j) {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            i = j;
        } else {
            return i + 1;
        }
    }
}

/// Find the lock-guard `let` bindings of a file: `let [mut] g = recv
/// .lock()/.read()/.write()` plus optional adapters, terminated by `;`.
/// A chain that continues with any other method is a temporary whose
/// guard dies at the end of the statement, not a binding.
fn find_guards(ctx: &FileContext<'_>) -> Vec<Guard> {
    let mut guards = Vec::new();
    let n = ctx.ts.sig_len();
    for i in 0..n {
        if ctx.t(i) != "let" {
            continue;
        }
        let mut j = i + 1;
        if ctx.t(j) == "mut" {
            j += 1;
        }
        let name_tok = match ctx.ts.sig_token(j) {
            Some(t) if t.kind == TokenKind::Ident => ctx.t(j).to_string(),
            _ => continue,
        };
        if ctx.t(j + 1) != "=" {
            continue;
        }
        // Find the acquisition inside this statement.
        let mut k = j + 2;
        let mut acq = None;
        let mut depth = 0i32;
        while k < n {
            match ctx.t(k) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ";" if depth <= 0 => break,
                _ => {
                    if let Some(found) = lock_acquisition(ctx, k) {
                        let resume = found.1 + 1; // past the balanced `()`
                        acq = Some(found);
                        k = resume;
                        continue;
                    }
                }
            }
            k += 1;
        }
        let Some((class, close)) = acq else { continue };
        let after = skip_adapters(ctx, close);
        if ctx.t(after) != ";" {
            continue; // chain continues: the guard is a temporary
        }
        let Some(live_to) = ctx.sc.enclosing_block_end(i) else {
            continue;
        };
        guards.push(Guard {
            name: name_tok,
            class,
            live_from: after,
            live_to,
            line: ctx.line(i),
        });
    }
    guards
}

/// Where a guard's liveness actually ends: the enclosing block close or
/// an explicit `drop(guard)`, whichever comes first.
fn liveness_end(ctx: &FileContext<'_>, g: &Guard) -> usize {
    for j in g.live_from..g.live_to {
        if ctx.t(j) == "drop"
            && ctx.t(j + 1) == "("
            && ctx.t(j + 2) == g.name
            && ctx.t(j + 3) == ")"
        {
            return j;
        }
    }
    g.live_to
}

/// L6 (per-file half): no lock guard live across a call into
/// `Observer::emit` / spectrum recompute.
pub fn lock_discipline(ctx: &FileContext<'_>, out: &mut Sink) {
    if !ctx.kind.checks_expressions() {
        return;
    }
    for g in find_guards(ctx) {
        if ctx.sc.in_test(g.live_from) {
            continue;
        }
        let end = liveness_end(ctx, &g);
        for j in g.live_from..end {
            let text = ctx.t(j);
            if ctx
                .ts
                .sig_token(j)
                .is_none_or(|t| t.kind != TokenKind::Ident)
                || ctx.t(skip_turbofish(ctx, j + 1)) != "("
            {
                continue;
            }
            let method_call = ctx.t(j.wrapping_sub(1)) == ".";
            let steering_build = text == "build"
                && ctx.t(j.wrapping_sub(1)) == "::"
                && ctx.t(j.wrapping_sub(2)) == "SteeringTable";
            if (method_call && GUARDED_CALLEES.contains(&text)) || steering_build {
                ctx.emit(
                    out,
                    j,
                    Rule::LockDiscipline,
                    format!(
                        "lock guard `{}` (class `{}`, acquired line {}) is live across \
                         `{}(…)`; drop the guard before observer emission or spectrum \
                         recompute",
                        g.name, g.class, g.line, text
                    ),
                );
            }
        }
    }
}

/// The index just past a turbofish (`::<…>`, nested generics included)
/// starting at significant token `i`, or `i` itself when none starts
/// there — so `fix::<TwoD>(` reads as a call to `fix`.
fn skip_turbofish(ctx: &FileContext<'_>, i: usize) -> usize {
    if ctx.t(i) != "::" || ctx.t(i + 1) != "<" {
        return i;
    }
    let mut depth = 0i32;
    for k in i + 1..ctx.ts.sig_len() {
        depth += match ctx.t(k) {
            "<" => 1,
            "<<" => 2,
            ">" => -1,
            ">>" => -2,
            _ => 0,
        };
        if depth <= 0 {
            return k + 1;
        }
    }
    i
}

/// L6 (workspace half, collection): lock-acquisition-order edges —
/// every lock taken while another guard is live, including temporaries
/// acquired inside a guard's region.
pub fn lock_order_edges(ctx: &FileContext<'_>) -> Vec<LockEdge> {
    let module = module_tag(ctx.rel);
    let mut edges = Vec::new();
    for g in find_guards(ctx) {
        if ctx.sc.in_test(g.live_from) {
            continue;
        }
        let end = liveness_end(ctx, &g);
        for j in g.live_from..end {
            if let Some((acquired, _)) = lock_acquisition(ctx, j) {
                edges.push(LockEdge {
                    module: module.clone(),
                    held: g.class.clone(),
                    acquired,
                    line: ctx.line(j),
                });
            }
        }
    }
    edges
}

/// First path segment under `src/` (`crates/core/src/obs/metrics.rs` →
/// `obs`; `crates/core/src/session.rs` → `session`).
pub fn module_tag(rel: &str) -> String {
    let tail = rel.rsplit_once("src/").map(|(_, t)| t).unwrap_or(rel);
    let seg = tail.split('/').next().unwrap_or(tail);
    seg.trim_end_matches(".rs").to_string()
}

/// The five memory-ordering variants (excludes `std::cmp::Ordering`).
const ATOMIC_VARIANTS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// L7: every `Ordering::<variant>` literal outside `obs/metrics.rs`
/// needs an `// ordering:` justification on the same or preceding line;
/// `SeqCst` is flagged outright in ingest/recompute hot paths.
pub fn atomic_ordering(ctx: &FileContext<'_>, out: &mut Sink) {
    if !ctx.kind.checks_expressions() || ctx.is_metrics_module {
        return;
    }
    let seqcst_hot = ctx.is_hot_path || module_tag(ctx.rel) == "session";
    for i in 0..ctx.ts.sig_len() {
        if ctx.t(i) != "Ordering" || ctx.t(i + 1) != "::" || ctx.sc.in_test(i) {
            continue;
        }
        let variant = ctx.t(i + 2);
        if !ATOMIC_VARIANTS.contains(&variant) {
            continue;
        }
        if variant == "SeqCst" && seqcst_hot {
            ctx.emit(
                out,
                i,
                Rule::AtomicOrdering,
                "`Ordering::SeqCst` in an ingest/recompute hot path; use the weakest \
                 ordering that is correct and justify it with `// ordering: …`"
                    .to_string(),
            );
            continue;
        }
        if !ctx.tv.has_ordering_note(ctx.line(i)) {
            ctx.emit(
                out,
                i,
                Rule::AtomicOrdering,
                format!(
                    "`Ordering::{variant}` without an `// ordering: …` justification \
                     comment on the same or preceding line"
                ),
            );
        }
    }
}

/// Crates whose public items L9 requires doc comments on.
const DOC_CRATES: [&str; 4] = [
    "crates/core/src/",
    "crates/dsp/src/",
    "crates/geom/src/",
    "crates/epc/src/",
];

/// L9: public items in the core crates must carry doc comments.
///
/// Mirrors rustc's `missing_docs` reachability: only items at an
/// *effectively public* position count — file scope, `pub mod` chains,
/// and fields of `pub` ADTs reached through them. Methods in inherent
/// impls are left to `missing_docs` itself (their type's visibility is
/// out of a token analyzer's reach).
pub fn doc_coverage(ctx: &FileContext<'_>, out: &mut Sink) {
    if ctx.kind != FileKind::Library || !DOC_CRATES.iter().any(|p| ctx.rel.starts_with(p)) {
        return;
    }
    let n = ctx.ts.sig_len();
    // Effective publicness per open scope, synchronized on braces.
    let mut stack: Vec<(ScopeKind, bool)> = Vec::new();
    for i in 0..n {
        match ctx.t(i) {
            "{" => {
                let inner = if i + 1 < n {
                    ctx.sc.kind_at(i + 1)
                } else {
                    ScopeKind::NonItem
                };
                let eff = match inner {
                    ScopeKind::Mod | ScopeKind::Adt => {
                        parent_public(&stack) && item_before_brace_is_pub(ctx, i)
                    }
                    _ => false,
                };
                stack.push((inner, eff));
            }
            "}" => {
                stack.pop();
            }
            "pub" if !ctx.sc.in_test(i) => {
                if ctx.t(i + 1) == "(" {
                    continue; // pub(crate) / pub(super)
                }
                let here = stack.last().copied();
                let reportable = match here {
                    None => true,
                    Some((ScopeKind::Mod, eff)) => eff,
                    Some((ScopeKind::Adt, eff)) => eff,
                    _ => false,
                };
                if !reportable {
                    continue;
                }
                let Some((what, name)) = public_item_after(ctx, i, here) else {
                    continue;
                };
                if !has_doc_comment(ctx, i) {
                    ctx.emit(
                        out,
                        i,
                        Rule::DocCoverage,
                        format!("public {what} `{name}` is missing a doc comment"),
                    );
                }
            }
            _ => {}
        }
    }
}

fn parent_public(stack: &[(ScopeKind, bool)]) -> bool {
    match stack.last() {
        None => true,
        Some((ScopeKind::Mod, eff)) => *eff,
        _ => false,
    }
}

/// Whether the item whose body opens at brace `i` is declared `pub`.
fn item_before_brace_is_pub(ctx: &FileContext<'_>, brace: usize) -> bool {
    let mut j = brace;
    while j > 0 {
        j -= 1;
        match ctx.t(j) {
            ";" | "{" | "}" => return false,
            "mod" | "struct" | "enum" | "union" => return ctx.t(j.wrapping_sub(1)) == "pub",
            _ => {}
        }
        if brace - j > 64 {
            return false;
        }
    }
    false
}

/// Identify the public item introduced right after `pub` at `i`:
/// returns `(what, name)`, or `None` for forms L9 does not cover
/// (`pub use` re-exports, `pub` in non-item position).
fn public_item_after(
    ctx: &FileContext<'_>,
    i: usize,
    scope: Option<(ScopeKind, bool)>,
) -> Option<(&'static str, String)> {
    if matches!(scope, Some((ScopeKind::Adt, _))) {
        // A field: `pub name: Type`.
        let name = ctx.t(i + 1);
        if ctx
            .ts
            .sig_token(i + 1)
            .is_some_and(|t| t.kind == TokenKind::Ident)
            && ctx.t(i + 2) == ":"
        {
            return Some(("field", name.to_string()));
        }
        return None;
    }
    let mut j = i + 1;
    while matches!(ctx.t(j), "async" | "const" | "unsafe" | "extern") {
        // `pub const NAME` vs `pub const fn`: look ahead.
        if ctx.t(j) == "const" && ctx.t(j + 1) != "fn" {
            return Some(("const", ctx.t(j + 1).to_string()));
        }
        j += 1;
    }
    let what = match ctx.t(j) {
        "fn" => "fn",
        "struct" => "struct",
        "enum" => "enum",
        "trait" => "trait",
        // Out-of-line `pub mod name;` is documented by the target file's
        // inner `//!` docs, which rustc's `missing_docs` resolves and a
        // per-file token pass cannot; only inline `pub mod name { … }`
        // is checked here.
        "mod" if ctx.t(j + 2) == "{" => "mod",
        "static" => "static",
        "type" => "type alias",
        "union" => "union",
        _ => return None, // pub use, out-of-line mods, macro exports, …
    };
    Some((what, ctx.t(j + 1).to_string()))
}

/// Whether the item starting at significant index `i` has a doc comment,
/// looking back in the *full* token stream over attributes and plain
/// comments.
fn has_doc_comment(ctx: &FileContext<'_>, sig_i: usize) -> bool {
    let full = ctx.ts.significant().get(sig_i).copied().unwrap_or(0);
    let toks = ctx.ts.tokens();
    let mut k = full;
    while k > 0 {
        k -= 1;
        let t = &toks[k];
        match t.kind {
            TokenKind::DocComment => return true,
            TokenKind::LineComment | TokenKind::BlockComment => continue,
            TokenKind::Punct if ctx.ts.text(t) == "]" => {
                // Skip back over an attribute `#[…]`.
                let mut depth = 0i32;
                loop {
                    let txt = ctx.ts.text(&toks[k]);
                    if txt == "]" {
                        depth += 1;
                    } else if txt == "[" {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    if k == 0 {
                        return false;
                    }
                    k -= 1;
                }
                // Expect the `#` introducing the attribute.
                if k > 0 && ctx.ts.text(&toks[k - 1]) == "#" {
                    k -= 1;
                    continue;
                }
                return false;
            }
            _ => return false,
        }
    }
    false
}

/// A metric-name inventory entry parsed from code or docs.
#[derive(Debug, Clone)]
pub struct MetricName {
    /// The metric name string.
    pub name: String,
    /// 1-based line of the declaration.
    pub line: usize,
    /// Const identifier (code side) or kind (doc side).
    pub ident: String,
}

/// Parse `pub const IDENT: &str = "name";` items out of `names.rs`.
pub fn const_metric_names(source: &str) -> Vec<MetricName> {
    let ts = TokenStream::lex(source);
    let mut out = Vec::new();
    let n = ts.sig_len();
    for i in 0..n {
        if ts.sig_text(i) != "const" {
            continue;
        }
        // pub const IDENT : & str = "…" ;
        let ident = ts.sig_text(i + 1).to_string();
        if ts.sig_text(i + 2) == ":"
            && ts.sig_text(i + 3) == "&"
            && ts.sig_text(i + 4) == "str"
            && ts.sig_text(i + 5) == "="
            && ts
                .sig_token(i + 6)
                .is_some_and(|t| t.kind == TokenKind::Str)
        {
            let tok = *ts.sig_token(i + 6).expect("checked above");
            let raw = ts.text(&tok);
            let name = raw.trim_matches('"').to_string();
            out.push(MetricName {
                name,
                line: tok.line,
                ident,
            });
        }
    }
    out
}

/// Parse the ```` ```text tagspin-metric-inventory ```` fenced block out
/// of `docs/OBSERVABILITY.md`: one `<kind> <name> <description>` line per
/// metric.
pub fn documented_metric_names(doc: &str) -> Vec<MetricName> {
    let mut out = Vec::new();
    let mut in_block = false;
    for (idx, line) in doc.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.starts_with("```") {
            if in_block {
                break;
            }
            in_block = trimmed.trim_start_matches('`').trim() == "text tagspin-metric-inventory";
            continue;
        }
        if !in_block || trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let (Some(kind), Some(name)) = (parts.next(), parts.next()) else {
            continue;
        };
        if matches!(kind, "counter" | "gauge" | "histogram") {
            out.push(MetricName {
                name: name.to_string(),
                line: idx + 1,
                ident: kind.to_string(),
            });
        }
    }
    out
}

/// L8 (workspace): cross-check the metric-name inventory.
///
/// * every const in `obs/names.rs` must appear in the doc inventory,
/// * every documented name must have a const,
/// * every const must be *referenced* outside its own declaration (in
///   `metrics.rs` or elsewhere in `names.rs`) — a name that is declared
///   and documented but never emitted is telemetry drift too,
/// * `metrics.rs` must not pass raw string literals to registry
///   registration calls.
///
/// Returns `(file, line, message)` tuples; the caller wraps them.
pub fn metric_name_hygiene(
    names_src: &str,
    metrics_src: &str,
    doc_src: &str,
) -> Vec<(&'static str, usize, String)> {
    let consts = const_metric_names(names_src);
    let documented = documented_metric_names(doc_src);
    let mut out = Vec::new();

    for c in &consts {
        if !documented.iter().any(|d| d.name == c.name) {
            out.push((
                "names",
                c.line,
                format!(
                    "metric `{}` ({}) is emitted but missing from the inventory in \
                     docs/OBSERVABILITY.md",
                    c.name, c.ident
                ),
            ));
        }
    }
    for d in &documented {
        if !consts.iter().any(|c| c.name == d.name) {
            out.push((
                "doc",
                d.line,
                format!(
                    "documented {} `{}` has no matching const in obs/names.rs — stale \
                     inventory or silent rename",
                    d.ident, d.name
                ),
            ));
        }
    }

    // Reference check: each const ident must be used at a line other
    // than its declaration, in metrics.rs or names.rs.
    let metrics_ts = TokenStream::lex(metrics_src);
    let names_ts = TokenStream::lex(names_src);
    for c in &consts {
        let used_in_metrics = (0..metrics_ts.sig_len()).any(|i| {
            metrics_ts.sig_text(i) == c.ident
                && metrics_ts
                    .sig_token(i)
                    .is_some_and(|t| t.kind == TokenKind::Ident)
        });
        let used_in_names = (0..names_ts.sig_len()).any(|i| {
            names_ts.sig_text(i) == c.ident
                && names_ts
                    .sig_token(i)
                    .is_some_and(|t| t.line != c.line && t.kind == TokenKind::Ident)
        });
        if !used_in_metrics && !used_in_names {
            out.push((
                "names",
                c.line,
                format!(
                    "metric const `{}` (`{}`) is declared but never referenced by the \
                     metrics observer",
                    c.ident, c.name
                ),
            ));
        }
    }

    // No raw name literals at registration sites in metrics.rs.
    const REGISTRY_CALLS: [&str; 6] = [
        "register_counter",
        "register_gauge",
        "register_histogram",
        "counter",
        "gauge",
        "histogram",
    ];
    let sc = Scopes::analyze(&metrics_ts);
    for i in 0..metrics_ts.sig_len() {
        if sc.in_test(i) {
            continue;
        }
        if REGISTRY_CALLS.contains(&metrics_ts.sig_text(i))
            && metrics_ts.sig_text(i + 1) == "("
            && metrics_ts
                .sig_token(i + 2)
                .is_some_and(|t| t.kind == TokenKind::Str)
        {
            let tok = *metrics_ts.sig_token(i + 2).expect("checked above");
            out.push((
                "metrics",
                tok.line,
                format!(
                    "raw metric-name literal {} at a registry call; use a const from \
                     obs/names.rs so the inventory cross-check can see it",
                    metrics_ts.text(&tok)
                ),
            ));
        }
    }
    out
}

/// Detect directed cycles in the workspace lock-order graph. Returns one
/// finding per edge that participates in a cycle.
pub fn lock_order_cycles(edges: &[LockEdge]) -> Vec<(String, usize, String)> {
    // Adjacency over lock classes.
    let mut nodes: Vec<&str> = Vec::new();
    for e in edges {
        for c in [e.held.as_str(), e.acquired.as_str()] {
            if !nodes.contains(&c) {
                nodes.push(c);
            }
        }
    }
    let reachable = |from: &str, to: &str| -> bool {
        let mut seen: Vec<&str> = vec![from];
        let mut queue = vec![from];
        while let Some(cur) = queue.pop() {
            for e in edges {
                if e.held == cur && !seen.contains(&e.acquired.as_str()) {
                    if e.acquired == to {
                        return true;
                    }
                    seen.push(e.acquired.as_str());
                    queue.push(e.acquired.as_str());
                }
            }
        }
        false
    };
    let mut out = Vec::new();
    for e in edges {
        // The edge held→acquired closes a cycle iff `acquired` can reach
        // `held` through the rest of the graph.
        if e.acquired == e.held || reachable(&e.acquired, &e.held) {
            out.push((
                e.module.clone(),
                e.line,
                format!(
                    "lock-order cycle: `{}` acquired while `{}` is held, but the \
                     reverse order also exists in the workspace — consistent ordering \
                     required across session/quarantine/obs",
                    e.acquired, e.held
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(
        rel: &str,
        kind: FileKind,
        src: &str,
        rule: fn(&FileContext<'_>, &mut Sink),
    ) -> Vec<(usize, Rule, String)> {
        let ts = TokenStream::lex(src);
        let sc = Scopes::analyze(&ts);
        let tv = Trivia::collect(&ts);
        let ctx = FileContext {
            rel,
            kind,
            ts: &ts,
            sc: &sc,
            tv: &tv,
            is_hot_path: rel.contains("spectrum") || rel.contains("fourier"),
            is_angle_module: rel.ends_with("geom/src/angle.rs"),
            is_metrics_module: rel.ends_with("obs/metrics.rs"),
        };
        let mut out = Vec::new();
        rule(&ctx, &mut out);
        out
    }

    #[test]
    fn l1_flags_unwrap_but_not_tests_strings_or_lookalikes() {
        let src = "\
fn f(x: Option<u8>) -> u8 { x.unwrap() }
// a comment about .unwrap()
fn g(x: Option<u8>) -> u8 { x.unwrap_or(0) }
fn h() { debug_panic!(\"not the macro you seek\"); }
fn i() -> &'static str { \"panic!(never) .unwrap()\" }

#[cfg(test)]
mod tests {
    fn t(x: Option<u8>) { x.unwrap(); }
}
";
        let out = run("crates/core/src/a.rs", FileKind::Library, src, no_panic);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].0, 1);
    }

    #[test]
    fn l1_applies_to_binaries_under_v2() {
        let src = "fn main() { run().expect(\"boom\"); }\n";
        let out = run("src/bin/tagspin.rs", FileKind::Binary, src, no_panic);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].2.contains("binary"));
        let out = run("examples/demo.rs", FileKind::Example, src, no_panic);
        assert!(out.is_empty(), "examples stay exempt: {out:?}");
    }

    #[test]
    fn l1_allow_marker_in_string_is_inert() {
        let src = "\
fn s() -> &'static str { \"lint:allow-file(no-panic)\" }
fn f(x: Option<u8>) -> u8 { x.unwrap() }
";
        let out = run("crates/core/src/a.rs", FileKind::Library, src, no_panic);
        assert_eq!(out.len(), 1, "string marker must not suppress: {out:?}");
    }

    #[test]
    fn l2_flags_raw_wraps_everywhere_but_angle_rs() {
        let src = "\
fn f(x: f64) -> f64 { x.rem_euclid(TAU) }
fn g(x: f64) -> f64 { x % std::f64::consts::TAU }
fn h(mut x: f64) -> f64 { while x > PI { x -= TAU; } x }
fn i(x: f64) -> f64 { x.rem_euclid(2.0 * PI) }
";
        let out = run("crates/rf/src/a.rs", FileKind::Library, src, angle_hygiene);
        let mut lines: Vec<usize> = out.iter().map(|f| f.0).collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![1, 2, 3, 4], "{out:?}");
        let out = run(
            "crates/geom/src/angle.rs",
            FileKind::Library,
            src,
            angle_hygiene,
        );
        assert!(out.is_empty(), "angle.rs is exempt");
    }

    #[test]
    fn l2_exact_tokens_no_substring_false_positives() {
        let src = "\
fn f(x: f64) -> f64 { x % TAU_HALF }
fn g(x: f64) -> f64 { x.rem_euclid(TAU_QUARTER) }
fn h(x: f64) -> f64 { x % period }
";
        let out = run("crates/rf/src/a.rs", FileKind::Library, src, angle_hygiene);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn l3_flags_float_literal_comparisons_only() {
        let src = "\
fn f(x: f64) -> bool { x == 0.0 }
fn g(x: f64, y: f64) -> bool { x != y }
fn h(n: usize) -> bool { n == 0 }
fn i(x: f64) -> bool { x == f64::INFINITY }
fn j(x: f64) -> bool { x == -1.5 }
";
        let out = run("crates/core/src/a.rs", FileKind::Library, src, float_eq);
        let lines: Vec<usize> = out.iter().map(|f| f.0).collect();
        assert_eq!(lines, vec![1, 4, 5], "{out:?}");
    }

    #[test]
    fn l4_flags_stringly_results_including_multiline() {
        let src = "\
pub fn bad(&self) -> Result<(), String> { Ok(()) }
pub fn good(&self) -> Result<(), FooError> { Ok(()) }
pub fn also_bad(
    a: usize,
) -> Result<Fix, String> {
    todo()
}
pub fn vec_string_ok() -> Result<Vec<String>, FooError> { todo() }
pub fn nested_ok() -> Result<Result<u8, String>, FooError> { todo() }
";
        let out = run(
            "crates/core/src/a.rs",
            FileKind::Library,
            src,
            stringly_error,
        );
        let lines: Vec<usize> = out.iter().map(|f| f.0).collect();
        // `nested_ok` still carries a Result<_, String> inside — flagged.
        assert_eq!(lines, vec![1, 3, 9], "{out:?}");
    }

    #[test]
    fn l5_requires_annotation_in_hot_paths_only() {
        let src = "\
fn f(n: usize) -> f64 { n as f64 }
fn g(n: usize) -> f64 { n as f64 } // lint:allow(lossy-cast) grid index < 2^53
";
        let out = run(
            "crates/core/src/spectrum.rs",
            FileKind::Library,
            src,
            lossy_cast,
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].0, 1);
        let out = run(
            "crates/core/src/other.rs",
            FileKind::Library,
            src,
            lossy_cast,
        );
        assert!(out.is_empty(), "non-hot-path file is exempt");
    }

    #[test]
    fn l6_flags_guard_live_across_emit_and_recompute() {
        let src = "\
fn bad(&self) {
    let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
    self.obs.emit(|| Event::CacheLookup { hit: true });
    cache.push(1);
}
fn also_bad(&self) {
    let g = self.cache.lock().unwrap();
    let t = SteeringTable::build(10, 20);
    g.insert(t);
}
fn fine(&self) {
    let n = self.cache.lock().unwrap().len();
    self.obs.emit(|| Event::CacheLookup { hit: n > 0 });
}
fn dropped(&self) {
    let g = self.cache.lock().unwrap();
    let n = g.len();
    drop(g);
    self.obs.emit(|| Event::CacheLookup { hit: n > 0 });
}
fn turbofish(&self) {
    let g = self.cache.lock().unwrap();
    let e = self.session.estimate::<Wrap<Vec<u8>>>();
    g.insert(e);
}
";
        let out = run(
            "crates/core/src/spectrum/engine.rs",
            FileKind::Library,
            src,
            lock_discipline,
        );
        let lines: Vec<usize> = out.iter().map(|f| f.0).collect();
        assert_eq!(lines, vec![3, 8, 23], "{out:?}");
    }

    #[test]
    fn l6_lock_order_edges_and_cycles() {
        let src_a = "\
fn ab(&self) {
    let a = self.alpha.lock().unwrap();
    let b = self.beta.lock().unwrap();
    a.merge(b);
}
";
        let src_b = "\
fn ba(&self) {
    let b = self.beta.lock().unwrap();
    let a = self.alpha.lock().unwrap();
    b.merge(a);
}
";
        let edges = |rel: &str, src: &str| {
            let ts = TokenStream::lex(src);
            let sc = Scopes::analyze(&ts);
            let tv = Trivia::collect(&ts);
            let ctx = FileContext {
                rel,
                kind: FileKind::Library,
                ts: &ts,
                sc: &sc,
                tv: &tv,
                is_hot_path: false,
                is_angle_module: false,
                is_metrics_module: false,
            };
            lock_order_edges(&ctx)
        };
        let forward = edges("crates/core/src/session.rs", src_a);
        assert_eq!(forward.len(), 1, "{forward:?}");
        assert_eq!(forward[0].held, "alpha");
        assert_eq!(forward[0].acquired, "beta");
        assert!(
            lock_order_cycles(&forward).is_empty(),
            "one direction is fine"
        );

        let mut all = forward;
        all.extend(edges("crates/core/src/quarantine.rs", src_b));
        let cycles = lock_order_cycles(&all);
        assert_eq!(cycles.len(), 2, "both edges participate: {cycles:?}");
    }

    #[test]
    fn l7_requires_ordering_notes_outside_metrics() {
        let src = "\
fn f(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
    // ordering: independent counter, no happens-before needed
    c.fetch_add(1, Ordering::Relaxed);
    c.store(0, std::sync::atomic::Ordering::Release); // ordering: publishes init
}
fn g(o: std::cmp::Ordering) -> bool { o == std::cmp::Ordering::Less }
";
        let out = run(
            "crates/core/src/session.rs",
            FileKind::Library,
            src,
            atomic_ordering,
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].0, 2);
        let out = run(
            "crates/core/src/obs/metrics.rs",
            FileKind::Library,
            src,
            atomic_ordering,
        );
        assert!(out.is_empty(), "metrics.rs is exempt");
    }

    #[test]
    fn l7_flags_seqcst_in_hot_paths_even_with_note() {
        let src = "\
fn f(c: &AtomicU64) {
    // ordering: just to be safe
    c.fetch_add(1, Ordering::SeqCst);
}
";
        let out = run(
            "crates/core/src/spectrum.rs",
            FileKind::Library,
            src,
            atomic_ordering,
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].2.contains("SeqCst"));
        let out = run(
            "crates/rf/src/noise.rs",
            FileKind::Library,
            src,
            atomic_ordering,
        );
        assert!(out.is_empty(), "outside hot paths a note suffices: {out:?}");
    }

    #[test]
    fn l9_reports_undocumented_public_items_at_public_positions() {
        let src = "\
/// Documented.
pub fn documented() {}
pub fn naked() {}
pub struct S {
    /// Documented field.
    pub a: u8,
    pub b: u8,
}
mod private {
    pub fn internal() {}
}
pub mod public {
    pub fn inner_naked() {}
}
pub mod out_of_line;
pub use other::Thing;
";
        let out = run("crates/core/src/a.rs", FileKind::Library, src, doc_coverage);
        let lines: Vec<usize> = out.iter().map(|f| f.0).collect();
        assert_eq!(lines, vec![3, 4, 7, 12, 13], "{out:?}");
        // Other crates are out of scope.
        let out = run("crates/rf/src/a.rs", FileKind::Library, src, doc_coverage);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn l9_attributes_between_doc_and_item_are_fine() {
        let src = "\
/// Documented.
#[derive(Debug)]
pub struct S;
";
        let out = run("crates/core/src/a.rs", FileKind::Library, src, doc_coverage);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn l8_cross_checks_both_directions_and_usage() {
        let names = "\
/// Cache hits.
pub const CACHE_HIT: &str = \"engine.cache.hit\";
/// Never referenced anywhere.
pub const ORPHAN: &str = \"engine.orphan\";
/// Not documented.
pub const UNDOCUMENTED: &str = \"engine.mystery\";
";
        let metrics = "\
fn wire(reg: &MetricsRegistry) {
    reg.register_counter(CACHE_HIT);
    reg.register_counter(UNDOCUMENTED);
    reg.register_counter(\"raw.literal\");
}
";
        let doc = "\
# Observability
```text tagspin-metric-inventory
counter engine.cache.hit steering-table lookups
counter engine.orphan documented but never emitted
counter engine.ghost documented but no const
```
";
        let out = metric_name_hygiene(names, metrics, doc);
        let mut kinds: Vec<&str> = out.iter().map(|(k, _, _)| *k).collect();
        kinds.sort_unstable();
        assert_eq!(kinds, vec!["doc", "metrics", "names", "names"], "{out:?}");
        assert!(out.iter().any(|(_, _, m)| m.contains("engine.mystery")));
        assert!(out.iter().any(|(_, _, m)| m.contains("engine.ghost")));
        assert!(out.iter().any(|(_, _, m)| m.contains("ORPHAN")));
        assert!(out.iter().any(|(_, _, m)| m.contains("raw.literal")));
    }

    #[test]
    fn module_tags() {
        assert_eq!(module_tag("crates/core/src/session.rs"), "session");
        assert_eq!(module_tag("crates/core/src/obs/metrics.rs"), "obs");
        assert_eq!(module_tag("crates/core/src/obs.rs"), "obs");
        assert_eq!(module_tag("src/bin/tagspin.rs"), "bin");
    }
}
