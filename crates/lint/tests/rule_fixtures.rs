//! Fixture-snippet tests: one firing and one clean case per rule
//! family, driven through [`bp_lint::lint_source`] with virtual paths
//! that land in (or miss) the default policy's module lists.

use bp_lint::{default_policy, lint_source, Rule};

const HOT_PATH: &str = "crates/tage/src/composed.rs";
const DET_PATH: &str = "crates/sim/src/report.rs";
const PANIC_PATH: &str = "crates/components/src/config.rs";
const NEUTRAL_PATH: &str = "crates/trace/src/lib.rs";

fn rules_fired(path: &str, src: &str) -> Vec<(Rule, u32)> {
    let policy = default_policy();
    lint_source(path, src, &policy)
        .diagnostics
        .into_iter()
        .map(|d| (d.rule, d.line))
        .collect()
}

#[test]
fn hot_path_alloc_fires_in_hot_module() {
    let src = "fn f() -> Vec<u8> {\n    let v = Vec::new();\n    v\n}\n";
    assert_eq!(rules_fired(HOT_PATH, src), vec![(Rule::HotPathAlloc, 2)]);
}

#[test]
fn hot_path_alloc_silent_outside_hot_modules_and_on_clean_code() {
    let src = "fn f() -> Vec<u8> {\n    let v = Vec::new();\n    v\n}\n";
    assert!(rules_fired(NEUTRAL_PATH, src).is_empty());
    let clean = "fn f(xs: &[u8]) -> u8 {\n    xs[0]\n}\n";
    assert!(rules_fired(HOT_PATH, clean).is_empty());
}

#[test]
fn hot_path_alloc_catches_macro_and_method_forms() {
    for snippet in [
        "fn f() { let v = vec![1, 2]; }",
        "fn f(s: &str) -> String { s.to_owned() }",
        "fn f(xs: &[u8]) -> Vec<u8> { xs.to_vec() }",
        "fn f(xs: &[u8]) -> Vec<u8> { xs.iter().copied().collect() }",
        "fn f(s: &String) -> String { s.clone() }",
        "fn f(n: u8) -> String { format!(\"{n}\") }",
    ] {
        let fired = rules_fired(HOT_PATH, snippet);
        assert_eq!(fired.len(), 1, "{snippet}: {fired:?}");
        assert_eq!(fired[0].0, Rule::HotPathAlloc, "{snippet}");
    }
}

#[test]
fn hot_path_alloc_respects_identifier_boundaries() {
    // `.cloned()` and `.unwrap_or` style lookalikes must not match.
    let src = "fn f(xs: &[u8]) -> u8 { xs.iter().cloned().next().unwrap_or(0) }";
    assert!(rules_fired(HOT_PATH, src).is_empty());
}

#[test]
fn determinism_fires_on_hash_collections_and_clocks() {
    for (snippet, line) in [
        ("use std::collections::HashMap;\n", 1),
        (
            "fn f() {\n    let s: std::collections::HashSet<u8> = Default::default();\n}",
            2,
        ),
        (
            "fn f() -> std::time::Instant {\n    std::time::Instant::now()\n}",
            1,
        ),
        ("fn f() {\n    let _ = std::env::var(\"HOME\");\n}", 2),
    ] {
        let fired = rules_fired(DET_PATH, snippet);
        assert!(
            fired
                .iter()
                .any(|&(r, l)| r == Rule::Determinism && l == line),
            "{snippet}: {fired:?}"
        );
    }
}

#[test]
fn determinism_fires_on_float_debug_formatting() {
    let src = "fn f(x: f64) -> String {\n    format!(\"{x:?}\")\n}";
    let fired = rules_fired(DET_PATH, src);
    assert!(
        fired.iter().any(|&(r, l)| r == Rule::Determinism && l == 2),
        "{fired:?}"
    );
}

#[test]
fn determinism_silent_outside_artifact_modules_and_on_btreemap() {
    let src = "use std::collections::HashMap;\n";
    assert!(rules_fired(NEUTRAL_PATH, src).is_empty());
    let clean =
        "use std::collections::BTreeMap;\nfn f(x: f64) -> String {\n    format!(\"{x:.6}\")\n}";
    assert!(rules_fired(DET_PATH, clean).is_empty());
}

#[test]
fn panic_surface_fires_on_unwrap_expect_panic() {
    for snippet in [
        "fn f(x: Option<u8>) -> u8 { x.unwrap() }",
        "fn f(x: Option<u8>) -> u8 { x.expect(\"present\") }",
        "fn f() { panic!(\"boom\"); }",
    ] {
        let fired = rules_fired(PANIC_PATH, snippet);
        assert_eq!(fired.len(), 1, "{snippet}: {fired:?}");
        assert_eq!(fired[0].0, Rule::PanicSurface, "{snippet}");
    }
}

#[test]
fn panic_surface_skips_test_code_and_boundary_lookalikes() {
    let in_test = "#[test]\nfn t() {\n    Some(1).unwrap();\n}";
    assert!(rules_fired(PANIC_PATH, in_test).is_empty());
    let in_mod = "#[cfg(test)]\nmod tests {\n    fn helper(x: Option<u8>) -> u8 {\n        x.unwrap()\n    }\n}";
    assert!(rules_fired(PANIC_PATH, in_mod).is_empty());
    // `expect_keys` and `unwrap_or_else` share a prefix with banned
    // names but are fine.
    let lookalike = "fn f(x: Option<u8>) -> u8 { x.unwrap_or_else(|| 0) }";
    assert!(rules_fired(PANIC_PATH, lookalike).is_empty());
}

#[test]
fn unsafe_audit_fires_without_safety_comment_everywhere() {
    let src = "fn f() {\n    unsafe { core::hint::unreachable_unchecked() }\n}";
    // Unsafe hygiene applies to every module, not just policy lists.
    let fired = rules_fired(NEUTRAL_PATH, src);
    assert_eq!(fired.len(), 1, "{fired:?}");
    assert_eq!(fired[0], (Rule::UnsafeAudit, 2));
}

#[test]
fn unsafe_audit_clean_with_safety_comment_and_inventories_site() {
    let src = "fn f() {\n    // SAFETY: provably unreachable by the match above.\n    unsafe { core::hint::unreachable_unchecked() }\n}";
    let outcome = lint_source(NEUTRAL_PATH, src, &default_policy());
    assert!(outcome.diagnostics.is_empty(), "{:?}", outcome.diagnostics);
    assert_eq!(outcome.unsafe_sites.len(), 1);
    assert_eq!(
        outcome.unsafe_sites[0].justification.as_deref(),
        Some("provably unreachable by the match above.")
    );
}

#[test]
fn allow_annotation_suppresses_and_unused_allow_fires() {
    let suppressed =
        "// bp-lint: allow(hot-path-alloc, \"cold constructor\")\nfn f() -> Vec<u8> { Vec::new() }";
    assert!(rules_fired(HOT_PATH, suppressed).is_empty());

    let unused = "// bp-lint: allow(hot-path-alloc, \"suppresses nothing\")\nfn f() {}\n";
    let fired = rules_fired(HOT_PATH, unused);
    assert_eq!(fired.len(), 1, "{fired:?}");
    assert_eq!(fired[0].0, Rule::LintAnnotation);
}

#[test]
fn allow_item_covers_whole_function() {
    let src = "// bp-lint: allow-item(hot-path-alloc, \"ctor\")\nfn new() -> Vec<u8> {\n    let mut v = Vec::new();\n    v.push(1);\n    v.clone()\n}\n";
    assert!(rules_fired(HOT_PATH, src).is_empty());
}

#[test]
fn malformed_and_unwaivable_annotations_are_diagnostics() {
    for snippet in [
        "// bp-lint: allow(hot-path-alloc)\n",
        "// bp-lint: allow(no-such-rule, \"x\")\n",
        "// bp-lint: allow(hot-path-alloc, \"\")\n",
        "// bp-lint: allow(unsafe-audit, \"nope\")\n",
    ] {
        let fired = rules_fired(NEUTRAL_PATH, snippet);
        assert_eq!(fired.len(), 1, "{snippet}: {fired:?}");
        assert_eq!(fired[0].0, Rule::LintAnnotation, "{snippet}");
    }
}

#[test]
fn rules_never_fire_inside_comments_or_strings() {
    let src = "// Vec::new() and .unwrap() and HashMap in a comment\nfn f() -> &'static str {\n    \"Vec::new() .unwrap() HashMap unsafe\"\n}\n";
    assert!(rules_fired(HOT_PATH, src).is_empty());
    assert!(rules_fired(PANIC_PATH, src).is_empty());
    // The `:?` scan only considers string literals in *format-macro*
    // positions conservatively; a HashMap mention in a string is not a
    // determinism violation.
    let det = "fn f() -> &'static str {\n    \"HashMap Instant std::env\"\n}\n";
    assert!(rules_fired(DET_PATH, det).is_empty());
}
