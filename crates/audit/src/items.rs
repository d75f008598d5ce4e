//! A lightweight item parser on top of the lexer: `fn` definitions with
//! their enclosing `impl`/`trait` context, plus the call expressions in
//! each body.
//!
//! This is deliberately *not* name resolution — there are no types, no
//! imports, no trait solving. Each function is identified by its file,
//! bare name, and (when inside an `impl`/`trait` block) a qualifier like
//! `EventQueue::pop`; each call site records only its syntactic shape
//! (`foo(…)`, `.foo(…)`, `A::foo(…)`). The graph layer then resolves
//! calls *conservatively*: a bare or method name links to every function
//! with that name in the workspace, and anything that matches no
//! workspace definition lands in an explicit `unresolved` bucket instead
//! of silently vanishing.

use crate::lexer::Tok;
use crate::scan::FileScan;

/// One `fn` item found in a file. Test-masked functions are skipped —
/// the closure rules protect shipped code only, like every other rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// Workspace-relative file that defines it.
    pub file: String,
    /// Bare function name.
    pub name: String,
    /// Enclosing `impl`/`trait` type name, when there is one.
    pub owner: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token range of the body, `(open brace, close brace)` inclusive.
    /// `None` for bodyless trait methods.
    pub body: Option<(usize, usize)>,
    /// Every call expression in the body, in source order.
    pub calls: Vec<CallSite>,
}

impl FnItem {
    /// The qualified display name: `Type::name` or the bare name.
    pub fn qual(&self) -> String {
        match &self.owner {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }

    /// The unique display id used in reports: `file#qual`.
    pub fn id(&self) -> String {
        format!("{}#{}", self.file, self.qual())
    }
}

/// The syntactic shape of one call expression.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Call {
    /// `name(…)` — a free call (or a call through a local binding).
    Free(String),
    /// `.name(…)` — a method call on some receiver.
    Method(String),
    /// `A::name(…)` — the last two path segments of a path call.
    /// `Self::name(…)` arrives with the enclosing type substituted.
    Path(String, String),
}

impl Call {
    /// The callee's bare name.
    pub fn name(&self) -> &str {
        match self {
            Call::Free(n) | Call::Method(n) => n,
            Call::Path(_, n) => n,
        }
    }

    /// The report spelling: `name`, `.name`, or `A::name`.
    pub fn display(&self) -> String {
        match self {
            Call::Free(n) => n.clone(),
            Call::Method(n) => format!(".{n}"),
            Call::Path(t, n) => format!("{t}::{n}"),
        }
    }
}

/// One call expression with the 1-based line it occurs on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// The call's syntactic shape.
    pub call: Call,
    /// 1-based source line of the callee name.
    pub line: u32,
}

/// Rust keywords that can be directly followed by `(` without being
/// calls (`match (a, b)`, `return (x)`, `if (…)`, tuple patterns, …).
const NON_CALL_KEYWORDS: &[&str] = &[
    "as", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "fn", "for",
    "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref", "return",
    "static", "struct", "super", "trait", "type", "unsafe", "use", "where", "while", "yield",
];

/// Parses every non-test `fn` item in the file, with owner context and
/// call sites. Total: arbitrary token soup produces a (possibly empty)
/// item list, never a panic.
pub fn parse_items(scan: &FileScan) -> Vec<FnItem> {
    Parser { scan, ctx: Vec::new(), out: Vec::new() }.run()
}

struct Parser<'a> {
    scan: &'a FileScan,
    /// Enclosing `impl`/`trait` blocks: `(type name, end token index)`.
    ctx: Vec<(String, usize)>,
    out: Vec<FnItem>,
}

impl Parser<'_> {
    fn run(mut self) -> Vec<FnItem> {
        let n = self.scan.tokens.len();
        let mut i = 0usize;
        while i < n {
            while self.ctx.last().is_some_and(|(_, end)| *end <= i) {
                self.ctx.pop();
            }
            match self.ident(i) {
                Some("impl") | Some("trait") if !self.scan.is_test(i) => {
                    let is_impl = self.ident(i) == Some("impl");
                    if let Some((name, open)) = self.block_header(i + 1, is_impl) {
                        if let Some(end) = self.matching_brace(open) {
                            self.ctx.push((name, end));
                        }
                        i = open + 1;
                        continue;
                    }
                }
                Some("fn") if !self.scan.is_test(i) => {
                    // Require an identifier right after: `fn` in function
                    // pointer types (`fn(u32) -> u32`) has none.
                    if let Some(name) = self.ident(i + 1) {
                        let item = self.fn_item(i, name.to_string());
                        // Continue *inside* the body so nested fns and
                        // inner impl blocks are still discovered.
                        let next = match item.body {
                            Some((open, _)) => open + 1,
                            None => i + 2,
                        };
                        self.out.push(item);
                        i = next;
                        continue;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        // Bodies nest (closures, inner fns), so call extraction runs as a
        // second pass over each recorded body range.
        let items = std::mem::take(&mut self.out);
        items
            .into_iter()
            .map(|mut item| {
                if let Some((open, close)) = item.body {
                    item.calls = self.calls_in(open, close, item.owner.as_deref());
                }
                item
            })
            .collect()
    }

    fn ident(&self, idx: usize) -> Option<&str> {
        match self.scan.tokens.get(idx).map(|t| &t.tok) {
            Some(Tok::Ident(s)) => Some(s),
            _ => None,
        }
    }

    fn punct(&self, idx: usize) -> Option<char> {
        match self.scan.tokens.get(idx).map(|t| &t.tok) {
            Some(Tok::Punct(c)) => Some(*c),
            _ => None,
        }
    }

    /// The index just past the `>` closing the `<` at `open`, arrow-aware
    /// (`->` inside `Fn() -> T` bounds does not close the list).
    fn skip_angles(&self, open: usize) -> usize {
        let mut depth = 0i32;
        let mut j = open;
        while j < self.scan.tokens.len() {
            match self.punct(j) {
                Some('<') => depth += 1,
                Some('>') if self.punct(j.wrapping_sub(1)) == Some('-') => {}
                Some('>') => {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                // A stray `;` or `{` means the `<` was a comparison, not
                // a generic list — bail where we are.
                Some(';') | Some('{') => return j,
                _ => {}
            }
            j += 1;
        }
        j
    }

    /// Token index just past the `}` matching the `{` at `open`.
    fn matching_brace(&self, open: usize) -> Option<usize> {
        let mut depth = 0i32;
        let mut j = open;
        while j < self.scan.tokens.len() {
            match self.punct(j) {
                Some('{') => depth += 1,
                Some('}') => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(j + 1);
                    }
                }
                _ => {}
            }
            j += 1;
        }
        None
    }

    /// Parses an `impl`/`trait` header starting just past the keyword:
    /// returns the subject type name and the index of the opening `{`.
    /// For `impl Trait for Type` the subject is `Type`; the name is the
    /// last angle-depth-0 identifier of the (final) type expression, so
    /// `Box<dyn Model>` reads as `Box` and `a::b::Foo<T>` as `Foo`.
    fn block_header(&self, mut j: usize, is_impl: bool) -> Option<(String, usize)> {
        if self.punct(j) == Some('<') {
            j = self.skip_angles(j);
        }
        let mut name: Option<String> = None;
        let mut depth = 0i32;
        while j < self.scan.tokens.len() {
            match &self.scan.tokens[j].tok {
                Tok::Punct('{') if depth == 0 => {
                    return name.map(|n| (n, j));
                }
                Tok::Punct(';') => return None, // `impl Trait for T;` etc.
                Tok::Punct('<') => depth += 1,
                Tok::Punct('>') if self.punct(j.wrapping_sub(1)) == Some('-') => {}
                Tok::Punct('>') => depth -= 1,
                // `trait Name: Bound + Bound {` — the name is over at the
                // colon; supertrait bounds must not replace it.
                Tok::Punct(':') if depth == 0 && !is_impl => {
                    while j < self.scan.tokens.len() && self.punct(j) != Some('{') {
                        j += 1;
                    }
                    continue;
                }
                Tok::Ident(s) if depth == 0 => match s.as_str() {
                    // The subject of `impl Trait for Type` is `Type`.
                    "for" if is_impl => name = None,
                    // Bounds/clauses end the type expression.
                    "where" => {
                        // Skip to the `{` without collecting bound names.
                        while j < self.scan.tokens.len() && self.punct(j) != Some('{') {
                            j += 1;
                        }
                        continue;
                    }
                    "dyn" | "mut" => {}
                    _ => name = Some(s.clone()),
                },
                _ => {}
            }
            j += 1;
        }
        None
    }

    /// Builds the item for the `fn` keyword at `kw` (name already read).
    fn fn_item(&self, kw: usize, name: String) -> FnItem {
        let owner = self.ctx.last().map(|(t, _)| t.clone());
        let line = self.scan.tokens[kw].line;
        // The body is the first `{` after the signature; a `;` first is a
        // bodyless trait method. Braces cannot occur in the signature
        // itself (const generic defaults would, but the workspace has
        // none and the failure mode is a shorter body, not a panic).
        // Only a `;` outside brackets ends a bodyless signature: array
        // types (`[f64; W]`) carry one inside.
        let mut j = kw + 2;
        let mut body = None;
        let mut depth = 0i32;
        while j < self.scan.tokens.len() {
            match self.punct(j) {
                Some('{') => {
                    if let Some(end) = self.matching_brace(j) {
                        body = Some((j, end - 1));
                    }
                    break;
                }
                Some('(' | '[') => depth += 1,
                Some(')' | ']') => depth -= 1,
                Some(';') if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        FnItem { file: self.scan.path.clone(), name, owner, line, body, calls: Vec::new() }
    }

    /// Extracts call expressions from the body token range. `owner`
    /// substitutes for `Self::` path calls.
    fn calls_in(&self, open: usize, close: usize, owner: Option<&str>) -> Vec<CallSite> {
        let mut calls = Vec::new();
        for i in open..=close.min(self.scan.tokens.len().saturating_sub(1)) {
            let Some(name) = self.ident(i) else { continue };
            // `fn name` is a definition; keywords aren't callees.
            if self.ident(i.wrapping_sub(1)) == Some("fn")
                || NON_CALL_KEYWORDS.contains(&name)
            {
                continue;
            }
            // The callee name must be followed by `(`, optionally with a
            // turbofish `::<…>` in between.
            let mut after = i + 1;
            if self.punct(after) == Some(':')
                && self.punct(after + 1) == Some(':')
                && self.punct(after + 2) == Some('<')
            {
                after = self.skip_angles(after + 2);
            }
            if self.punct(after) != Some('(') {
                continue;
            }
            // Uppercase-initial names are tuple-struct/variant
            // constructors (`Some(x)`, `StepEvent::Arrival(…)` in
            // patterns) — workspace functions are snake_case.
            if name.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                continue;
            }
            let call = if self.punct(i.wrapping_sub(1)) == Some('.') {
                Call::Method(name.to_string())
            } else if self.punct(i.wrapping_sub(1)) == Some(':')
                && self.punct(i.wrapping_sub(2)) == Some(':')
            {
                match self.ident(i.wrapping_sub(3)) {
                    Some("Self") => match owner {
                        Some(t) => Call::Path(t.to_string(), name.to_string()),
                        None => Call::Free(name.to_string()),
                    },
                    Some(ty) => Call::Path(ty.to_string(), name.to_string()),
                    // `<T as Trait>::name(…)` and similar: the segment
                    // before `::` is punctuation — treat as a free call
                    // so conservative by-name resolution still applies.
                    None => Call::Free(name.to_string()),
                }
            } else {
                Call::Free(name.to_string())
            };
            calls.push(CallSite { call, line: self.scan.tokens[i].line });
        }
        calls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(src: &str) -> Vec<FnItem> {
        parse_items(&FileScan::new("t.rs", src))
    }

    fn shapes(item: &FnItem) -> Vec<Call> {
        item.calls.iter().map(|c| c.call.clone()).collect()
    }

    #[test]
    fn free_and_impl_fns_get_owners() {
        let src = "
            fn free() {}
            impl Foo { fn method(&self) {} }
            trait Bar { fn required(&self); fn provided(&self) {} }
            impl Bar for Baz { fn required(&self) {} }
        ";
        let got: Vec<String> = items(src).iter().map(FnItem::qual).collect();
        assert_eq!(
            got,
            ["free", "Foo::method", "Bar::required", "Bar::provided", "Baz::required"]
        );
    }

    #[test]
    fn generic_impls_and_trait_objects_resolve_subject() {
        let src = "
            impl<E: Clone> EventQueue<E> { fn pop(&mut self) {} }
            impl Clone for Box<dyn Model> { fn clone(&self) -> Self { x() } }
            impl<F: Fn(u32) -> u32> Wrap<F> { fn call(&self) {} }
        ";
        let got: Vec<String> = items(src).iter().map(FnItem::qual).collect();
        assert_eq!(got, ["EventQueue::pop", "Box::clone", "Wrap::call"]);
    }

    #[test]
    fn trait_supertraits_do_not_rename_the_trait() {
        let its = items("trait Model: Send + Sync { fn loss(&self) {} }");
        assert_eq!(its[0].qual(), "Model::loss");
        let its = items("pub trait Driver<E>: Iterator<Item = E> { fn advance(&mut self) {} }");
        assert_eq!(its[0].qual(), "Driver::advance");
    }

    #[test]
    fn bodyless_trait_fn_has_no_body_or_calls() {
        let its = items("trait T { fn f(&self); }");
        assert_eq!(its.len(), 1);
        assert!(its[0].body.is_none());
        assert!(its[0].calls.is_empty());
    }

    #[test]
    fn array_types_in_signatures_keep_the_body() {
        // The `;` of `[T; N]` in a parameter or return type must not read
        // as the end of a bodyless signature.
        let src = "
            fn lanes<const W: usize>(v: &[[f64; W]]) -> [f64; W] { helper() }
            trait T { fn f(&self) -> [u8; 2]; }
        ";
        let its = items(src);
        assert_eq!(its.len(), 2);
        assert!(its[0].body.is_some());
        assert_eq!(shapes(&its[0]), [Call::Free("helper".into())]);
        assert!(its[1].body.is_none());
    }

    #[test]
    fn call_shapes_are_classified() {
        let src = "
            fn f(&self) {
                helper();
                self.advance(3);
                SgdState::step(a, b);
                Self::inner();
                alloc::vec::from_elem(0, 1);
                parse::<u32>(s);
            }
        ";
        let src = format!("impl Driver {{ {src} }}");
        let its = items(&src);
        assert_eq!(its.len(), 1);
        assert_eq!(
            shapes(&its[0]),
            [
                Call::Free("helper".into()),
                Call::Method("advance".into()),
                Call::Path("SgdState".into(), "step".into()),
                Call::Path("Driver".into(), "inner".into()),
                Call::Path("vec".into(), "from_elem".into()),
                Call::Free("parse".into()),
            ]
        );
    }

    #[test]
    fn constructors_patterns_and_macros_are_not_calls() {
        let src = r#"
            fn f(e: StepEvent) {
                match e { StepEvent::Arrival(x) => use_it(x), _ => {} }
                let s = Some(3);
                let v = vec![1];
                let t = (a, b);
                if cond { work(); }
                println!("{}", 0);
            }
        "#;
        let calls = shapes(&items(src)[0]);
        assert_eq!(calls, [Call::Free("use_it".into()), Call::Free("work".into())]);
    }

    #[test]
    fn nested_fns_and_closures_are_attributed() {
        let src = "
            fn outer() {
                fn inner() { deep(); }
                let c = |x| lambda_call(x);
                c(1);
                top();
            }
        ";
        let its = items(src);
        let outer = its.iter().find(|i| i.name == "outer").unwrap();
        let inner = its.iter().find(|i| i.name == "inner").unwrap();
        // Outer's body *contains* inner's, so outer conservatively sees
        // deep() too — closure semantics want exactly that (outer can
        // reach everything its nested items call).
        let outer_calls = shapes(outer);
        assert!(outer_calls.contains(&Call::Free("deep".into())));
        assert!(outer_calls.contains(&Call::Free("lambda_call".into())));
        assert!(outer_calls.contains(&Call::Free("top".into())));
        assert_eq!(shapes(inner), [Call::Free("deep".into())]);
    }

    #[test]
    fn test_masked_fns_are_skipped() {
        let src = "
            fn real() {}
            #[cfg(test)]
            mod tests { fn helper() {} #[test] fn t() {} }
        ";
        let got: Vec<String> = items(src).iter().map(|i| i.name.clone()).collect();
        assert_eq!(got, ["real"]);
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let its = items("fn takes(f: fn(u32) -> u32) -> u32 { f(3) }");
        assert_eq!(its.len(), 1);
        assert_eq!(its[0].name, "takes");
        assert_eq!(shapes(&its[0]), [Call::Free("f".into())]);
    }

    #[test]
    fn where_clauses_and_return_impls_do_not_confuse_bodies() {
        let src = "
            fn g<T>(x: T) -> impl Iterator<Item = T> where T: Clone { once(x) }
        ";
        let its = items(src);
        assert_eq!(shapes(&its[0]), [Call::Free("once".into())]);
    }

    #[test]
    fn garbage_tokens_never_panic() {
        for bad in ["fn", "impl", "impl {", "fn (", "trait X fn", "impl < { }", "fn f({"] {
            let _ = items(bad);
        }
    }
}
