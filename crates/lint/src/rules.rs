//! Rule identities, the workspace policy (which files each rule
//! guards), banned-pattern matching over the blanked code view, and
//! `#[cfg(test)]` region detection.

use crate::lexer::LexedFile;

/// The rule families `bp lint` enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Every `unsafe` block/fn/impl must carry an immediately preceding
    /// `// SAFETY:` justification (or a `# Safety` doc section for
    /// `unsafe fn` declarations), and the sites are inventoried in
    /// `UNSAFE_AUDIT.md`. Not allowlistable: an annotation would be a
    /// justification-free `unsafe`, which is exactly what the rule
    /// exists to prevent.
    UnsafeAudit,
    /// Modules that feed byte-deterministic artifacts
    /// (`REPORT_*`/`SWEEP_*`/config text) must not use iteration-order
    /// or wall-clock dependent APIs.
    Determinism,
    /// Modules declared hot must not heap-allocate: the static twin of
    /// the counting-allocator test, which only covers configs the test
    /// happens to run.
    HotPathAlloc,
    /// Modules on the `PredictorConfig::validate`-then-`build` path
    /// must not `unwrap`/`expect`/`panic!` outside tests: invalid data
    /// must surface as `Err`, not a process abort.
    PanicSurface,
    /// Hygiene of the lint's own `// bp-lint:` annotations (malformed,
    /// unknown rule, missing reason, unused allow). Not allowlistable.
    LintAnnotation,
}

impl Rule {
    /// The rule's stable name, as used in annotations and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnsafeAudit => "unsafe-audit",
            Rule::Determinism => "determinism",
            Rule::HotPathAlloc => "hot-path-alloc",
            Rule::PanicSurface => "panic-surface",
            Rule::LintAnnotation => "lint-annotation",
        }
    }

    /// Parses an annotation rule name.
    pub fn from_name(name: &str) -> Option<Rule> {
        match name {
            "unsafe-audit" => Some(Rule::UnsafeAudit),
            "determinism" => Some(Rule::Determinism),
            "hot-path-alloc" => Some(Rule::HotPathAlloc),
            "panic-surface" => Some(Rule::PanicSurface),
            "lint-annotation" => Some(Rule::LintAnnotation),
            _ => None,
        }
    }

    /// Whether `// bp-lint: allow(...)` may suppress this rule.
    /// `unsafe-audit` and `lint-annotation` are contract-bearing and
    /// cannot be waived.
    pub fn allowlistable(self) -> bool {
        matches!(
            self,
            Rule::Determinism | Rule::HotPathAlloc | Rule::PanicSurface
        )
    }
}

/// One banned construct: the needle searched for in the blanked code
/// and the reason it is banned (quoted in the diagnostic).
#[derive(Debug, Clone, Copy)]
pub struct Banned {
    /// Substring to find (identifier-boundary-checked at both ends).
    pub needle: &'static str,
    /// Why the construct violates the contract.
    pub why: &'static str,
}

/// Allocation constructs banned in hot modules. Methods are matched by
/// `.name` with a trailing identifier boundary, so `.collect` catches
/// both `.collect()` and `.collect::<..>()` while `.clone` does not
/// catch `.cloned()`.
pub const HOT_PATH_BANNED: &[Banned] = &[
    Banned {
        needle: "Vec::new",
        why: "heap-allocates",
    },
    Banned {
        needle: "Vec::with_capacity",
        why: "heap-allocates",
    },
    Banned {
        needle: "Vec::from",
        why: "heap-allocates",
    },
    Banned {
        needle: "vec!",
        why: "heap-allocates",
    },
    Banned {
        needle: "Box::new",
        why: "heap-allocates",
    },
    Banned {
        needle: "String::new",
        why: "heap-allocates",
    },
    Banned {
        needle: "String::with_capacity",
        why: "heap-allocates",
    },
    Banned {
        needle: "String::from",
        why: "heap-allocates",
    },
    Banned {
        needle: ".to_vec",
        why: "clones into a fresh Vec",
    },
    Banned {
        needle: ".to_owned",
        why: "clones into an owned allocation",
    },
    Banned {
        needle: ".to_string",
        why: "formats into a fresh String",
    },
    Banned {
        needle: ".collect",
        why: "materializes an allocation",
    },
    Banned {
        needle: ".clone",
        why: "may deep-copy heap storage",
    },
    Banned {
        needle: "format!",
        why: "formats into a fresh String",
    },
];

/// Iteration-order- and wall-clock-dependent APIs banned in modules
/// that feed byte-deterministic artifacts.
pub const DETERMINISM_BANNED: &[Banned] = &[
    Banned {
        needle: "HashMap",
        why: "iteration order is randomized per process; use BTreeMap or a sorted Vec",
    },
    Banned {
        needle: "HashSet",
        why: "iteration order is randomized per process; use BTreeSet or a sorted Vec",
    },
    Banned {
        needle: "Instant",
        why: "wall-clock reads make artifact bytes run-dependent",
    },
    Banned {
        needle: "SystemTime",
        why: "wall-clock reads make artifact bytes run-dependent",
    },
    Banned {
        needle: "std::env",
        why: "environment reads make artifact bytes host-dependent",
    },
    Banned {
        needle: "env::var",
        why: "environment reads make artifact bytes host-dependent",
    },
    Banned {
        needle: "env::vars",
        why: "environment reads make artifact bytes host-dependent",
    },
    Banned {
        needle: "temp_dir",
        why: "host-dependent path reaches the artifact modules",
    },
];

/// Abort constructs banned on validate-then-build paths.
pub const PANIC_BANNED: &[Banned] = &[
    Banned {
        needle: ".unwrap",
        why: "aborts on Err/None; surface the error instead",
    },
    Banned {
        needle: ".expect",
        why: "aborts on Err/None; surface the error instead",
    },
    Banned {
        needle: "panic!",
        why: "aborts the process; surface the error instead",
    },
];

/// Which files each scoped rule guards. Paths are workspace-relative
/// with forward slashes. [`Rule::UnsafeAudit`] is unconditional and
/// has no list here.
#[derive(Debug, Clone)]
pub struct Policy {
    /// Files under the zero-steady-state-allocation contract
    /// (ARCHITECTURE.md "Hot-path invariants"): the static complement
    /// of `tests/hotpath_allocations.rs`.
    pub hot_modules: &'static [&'static str],
    /// Files that compute the byte-deterministic `REPORT_*`/`SWEEP_*`
    /// artifacts, the config text format, or the committed `BENCH_*`
    /// JSON.
    pub deterministic_modules: &'static [&'static str],
    /// Files on the `PredictorConfig::validate`-then-`build` path.
    pub panic_free_modules: &'static [&'static str],
}

/// The workspace contract: the module lists the four rule families
/// guard. Kept in one place so README/ARCHITECTURE can point at it.
pub fn default_policy() -> Policy {
    Policy {
        hot_modules: &[
            "crates/components/src/tage.rs",
            "crates/tage/src/composed.rs",
            "crates/gehl/src/gehl.rs",
            "crates/perceptron/src/lib.rs",
            "crates/components/src/sum.rs",
            "crates/components/src/kernel.rs",
            "crates/components/src/frontend.rs",
            "crates/components/src/predictor.rs",
            "crates/history/src/state.rs",
            "crates/sim/src/run.rs",
            "crates/sim/src/shared.rs",
            "crates/workloads/src/combinators.rs",
        ],
        deterministic_modules: &[
            "crates/cache/src/lib.rs",
            "crates/sim/src/shared.rs",
            "crates/sim/src/cache.rs",
            "crates/sim/src/report.rs",
            "crates/sim/src/scenario.rs",
            "crates/sim/src/sweep.rs",
            "crates/components/src/config.rs",
            "crates/components/src/frontend.rs",
            "crates/components/src/tage.rs",
            "crates/bench/src/sim_bench.rs",
            "crates/bench/src/trace_bench.rs",
        ],
        panic_free_modules: &[
            "crates/cache/src/lib.rs",
            "crates/sim/src/cache.rs",
            "crates/components/src/config.rs",
            "crates/sim/src/registry.rs",
            "crates/sim/src/sweep.rs",
            "crates/components/src/tage.rs",
            "crates/tage/src/sc.rs",
            "crates/tage/src/composed.rs",
            "crates/gehl/src/gehl.rs",
            "crates/perceptron/src/lib.rs",
            "crates/core/src/config.rs",
            "crates/wormhole/src/wrapper.rs",
            "src/bin/bp.rs",
        ],
    }
}

impl Policy {
    fn hits(list: &[&str], rel_path: &str) -> bool {
        list.contains(&rel_path)
    }

    /// Does the hot-path-alloc rule apply to this file?
    pub fn is_hot(&self, rel_path: &str) -> bool {
        Self::hits(self.hot_modules, rel_path)
    }

    /// Does the determinism rule apply to this file?
    pub fn is_deterministic(&self, rel_path: &str) -> bool {
        Self::hits(self.deterministic_modules, rel_path)
    }

    /// Does the panic-surface rule apply to this file?
    pub fn is_panic_free(&self, rel_path: &str) -> bool {
        Self::hits(self.panic_free_modules, rel_path)
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Finds every occurrence of `needle` in `code` that is a whole token:
/// if the needle starts (ends) with an identifier character, the byte
/// before (after) the match must not be one. Returns byte offsets.
pub fn find_banned(code: &str, needle: &str) -> Vec<usize> {
    let bytes = code.as_bytes();
    let nb = needle.as_bytes();
    let check_front = is_ident_byte(nb[0]);
    let check_back = is_ident_byte(nb[nb.len() - 1]);
    let mut hits = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = code[from..].find(needle) {
        let at = from + pos;
        let front_ok = !check_front || at == 0 || !is_ident_byte(bytes[at - 1]);
        let end = at + nb.len();
        let back_ok = !check_back || end >= bytes.len() || !is_ident_byte(bytes[end]);
        if front_ok && back_ok {
            hits.push(at);
        }
        from = at + 1;
    }
    hits
}

/// A half-open byte range of the blanked code that belongs to
/// test-only compilation (`#[cfg(test)]` / `#[test]` items). Scoped
/// rules skip violations inside these ranges; `unsafe-audit` does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TestRegion {
    /// First byte of the `#[...]` attribute.
    pub start: usize,
    /// One past the end of the attributed item.
    pub end: usize,
}

impl TestRegion {
    /// Is `offset` inside the region?
    pub fn contains(&self, offset: usize) -> bool {
        self.start <= offset && offset < self.end
    }
}

/// Detects test-only regions in the blanked code: an outer attribute
/// containing the word `test` (and not only inside `not(test)`)
/// followed by an item, which extends to the item's closing `}` or
/// terminating `;`.
pub fn test_regions(lexed: &LexedFile) -> Vec<TestRegion> {
    let code = lexed.code.as_bytes();
    let mut regions: Vec<TestRegion> = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        if code[i] != b'#' {
            i += 1;
            continue;
        }
        if regions.last().is_some_and(|r| r.contains(i)) {
            i += 1;
            continue;
        }
        // `#!` inner attributes configure the enclosing item, not the
        // next one; a file-level `#![cfg(test)]` does not occur in this
        // workspace and is out of scope.
        let Some((attr_end, attr_text)) = attribute_span(&lexed.code, i) else {
            i += 1;
            continue;
        };
        if !attr_marks_test(attr_text) {
            i = attr_end;
            continue;
        }
        // Skip whitespace and any further attributes to the item, then
        // run to the item's end.
        let mut j = attr_end;
        loop {
            while j < code.len() && code[j].is_ascii_whitespace() {
                j += 1;
            }
            if j < code.len() && code[j] == b'#' {
                match attribute_span(&lexed.code, j) {
                    Some((end, _)) => j = end,
                    None => break,
                }
            } else {
                break;
            }
        }
        let end = item_end(code, j);
        regions.push(TestRegion { start: i, end });
        i = attr_end;
    }
    regions
}

/// If a `#[...]` outer attribute starts at `i`, returns (end offset,
/// bracketed text). `#![...]` inner attributes return `None`.
fn attribute_span(code: &str, i: usize) -> Option<(usize, &str)> {
    let bytes = code.as_bytes();
    let mut j = i + 1;
    if bytes.get(j) == Some(&b'!') {
        return None;
    }
    while j < bytes.len() && bytes[j].is_ascii_whitespace() {
        j += 1;
    }
    if bytes.get(j) != Some(&b'[') {
        return None;
    }
    let open = j;
    let mut depth = 0usize;
    while j < bytes.len() {
        match bytes[j] {
            b'[' => depth += 1,
            b']' => {
                depth -= 1;
                if depth == 0 {
                    return Some((j + 1, &code[open + 1..j]));
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Does the attribute text mark test-only compilation? True for any
/// whole-word `test` occurrence that is not itself inside `not(test`.
fn attr_marks_test(attr: &str) -> bool {
    for at in find_banned(attr, "test") {
        let prefix = &attr[..at];
        let negated = prefix.trim_end().ends_with("not(");
        if !negated {
            return true;
        }
    }
    false
}

/// End of the item starting at (or after) `from`: one past the `}`
/// closing its first top-level brace block, or one past the first `;`
/// while no brace/bracket/paren is open. Used for test-region extents.
fn item_end(code: &[u8], from: usize) -> usize {
    let mut brace = 0isize;
    let mut round = 0isize;
    let mut square = 0isize;
    let mut i = from;
    while i < code.len() {
        match code[i] {
            b'{' => brace += 1,
            b'}' => {
                brace -= 1;
                if brace == 0 {
                    return i + 1;
                }
            }
            b'(' => round += 1,
            b')' => round -= 1,
            b'[' => square += 1,
            b']' => square -= 1,
            b';' if brace == 0 && round == 0 && square == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    code.len()
}

/// Finds the byte offset one past the `}` that closes the first `{`
/// found at or after `from`; `None` if no block opens. Used for
/// `allow-item` annotation scopes.
pub fn following_block_end(code: &str, from: usize) -> Option<usize> {
    let bytes = code.as_bytes();
    let open = bytes[from..].iter().position(|&b| b == b'{')? + from;
    let mut depth = 0isize;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i + 1);
                }
            }
            _ => {}
        }
    }
    Some(bytes.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_checked_matching() {
        assert_eq!(find_banned("Vec::new()", "Vec::new"), vec![0]);
        assert!(find_banned("MyVec::newer()", "Vec::new").is_empty());
        assert_eq!(find_banned("x.unwrap()", ".unwrap"), vec![1]);
        assert!(find_banned("x.unwrap_or(0)", ".unwrap").is_empty());
        assert_eq!(find_banned("it.collect::<Vec<_>>()", ".collect"), vec![2]);
        assert!(find_banned("it.cloned()", ".clone").is_empty());
        assert_eq!(find_banned("a\nformat!(\"x\")", "format!"), vec![2]);
    }

    #[test]
    fn cfg_test_mod_is_a_region() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() { x.unwrap(); }\n}\nfn c() {}";
        let lexed = LexedFile::lex(src);
        let regions = test_regions(&lexed);
        assert_eq!(regions.len(), 1);
        let unwrap_at = src.find(".unwrap").unwrap();
        assert!(regions[0].contains(unwrap_at));
        assert!(!regions[0].contains(src.find("fn c").unwrap()));
    }

    #[test]
    fn test_fn_with_extra_attributes() {
        let src = "#[test]\n#[should_panic]\nfn boom() { panic!(\"x\") }\nfn ok() {}";
        let lexed = LexedFile::lex(src);
        let regions = test_regions(&lexed);
        assert_eq!(regions.len(), 1);
        assert!(regions[0].contains(src.find("panic!").unwrap()));
        assert!(!regions[0].contains(src.find("fn ok").unwrap()));
    }

    #[test]
    fn not_test_is_not_a_region() {
        let src = "#[cfg(not(test))]\nfn live() { x.unwrap(); }";
        let lexed = LexedFile::lex(src);
        assert!(test_regions(&lexed).is_empty());
    }

    #[test]
    fn cfg_all_test_is_a_region() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nmod t { }\nfn live() {}";
        let lexed = LexedFile::lex(src);
        let regions = test_regions(&lexed);
        assert_eq!(regions.len(), 1);
        assert!(!regions[0].contains(src.find("fn live").unwrap()));
    }

    #[test]
    fn semicolon_item_region() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn live() {}";
        let lexed = LexedFile::lex(src);
        let regions = test_regions(&lexed);
        assert_eq!(regions.len(), 1);
        assert!(!regions[0].contains(src.find("fn live").unwrap()));
    }

    #[test]
    fn array_semicolon_does_not_end_item() {
        let src = "#[cfg(test)]\nfn t() -> [u8; 3] { [0u8; 3] }\nfn live() {}";
        let lexed = LexedFile::lex(src);
        let regions = test_regions(&lexed);
        assert_eq!(regions.len(), 1);
        assert!(regions[0].contains(src.find("[0u8").unwrap()));
        assert!(!regions[0].contains(src.find("fn live").unwrap()));
    }
}
