//! Repository hygiene, checked by `cargo test`: no `pub fn` goes
//! uncalled, no binary hand-rolls its own flag-value checks, and the
//! crates layer one way (`serve` never reaches `bench`).
//!
//! They read the checkout's sources and manifests, so they need no
//! tool beyond the test binary.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::{Path, PathBuf};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// Every `.rs` file under `dir`, recursively, as (path, bytes). Symbolic
/// links are not followed.
fn rust_sources(dir: &Path, out: &mut Vec<(PathBuf, Vec<u8>)>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let (path, Ok(kind)) = (entry.path(), entry.file_type()) else { continue };
        if kind.is_dir() {
            rust_sources(&path, out);
        } else if kind.is_file() && path.extension().is_some_and(|e| e == "rs") {
            out.push((path.clone(), std::fs::read(&path).expect("read a source file")));
        }
    }
}

fn is_word(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The identifiers in `text`: maximal runs of `[A-Za-z0-9_]` that start
/// with a letter or `_`, the words `\b[A-Za-z_][A-Za-z0-9_]*\b` matches.
fn identifiers(text: &[u8]) -> impl Iterator<Item = &[u8]> {
    text.split(|&b| !is_word(b)).filter(|w| w.first().is_some_and(|&b| !b.is_ascii_digit()))
}

/// The names declared `pub fn <name>` in `text`, at a word boundary.
fn pub_fn_names(text: &[u8]) -> Vec<&[u8]> {
    const DECL: &[u8] = b"pub fn ";
    let mut names = Vec::new();
    for at in 0..text.len().saturating_sub(DECL.len()) {
        let after = at + DECL.len();
        let boundary = at == 0 || !is_word(text[at - 1]);
        if boundary && text[at..].starts_with(DECL) && !text[after].is_ascii_digit() {
            let len = text[after..].iter().take_while(|&&b| is_word(b)).count();
            if len > 0 {
                names.push(&text[after..after + len]);
            }
        }
    }
    names
}

/// Dead public API: the `pub fn` names declared under `crates/` whose
/// identifier occurs only once across every source, so nothing calls,
/// tests or links them. It matches names, not paths: a dead method that
/// shares its name with a live one passes.
fn uncalled_pub_fns(sources: &[(PathBuf, Vec<u8>)]) -> Vec<String> {
    let crates = Path::new(ROOT).join("crates");
    let mut uses: HashMap<&[u8], usize> = HashMap::new();
    for (_, text) in sources {
        for word in identifiers(text) {
            *uses.entry(word).or_default() += 1;
        }
    }
    let declared: BTreeSet<&[u8]> = sources
        .iter()
        .filter(|(path, _)| path.starts_with(&crates))
        .flat_map(|(_, text)| pub_fn_names(text))
        .collect();
    declared
        .into_iter()
        .filter(|name| uses[name] == 1)
        .map(|name| String::from_utf8_lossy(name).into_owned())
        .collect()
}

/// The Rust sources the scan covers: `crates`, `src`, `tests`,
/// `examples` and `perfbench/src`.
fn workspace_sources() -> Vec<(PathBuf, Vec<u8>)> {
    let mut sources = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "perfbench/src"] {
        rust_sources(&Path::new(ROOT).join(dir), &mut sources);
    }
    sources
}

#[test]
fn no_pub_fn_goes_uncalled() {
    let mut sources = workspace_sources();
    assert!(sources.len() > 100, "the scan found {} source files", sources.len());
    let dead = uncalled_pub_fns(&sources);
    assert!(dead.is_empty(), "pub fn names used nowhere else (delete them or call them): {dead:?}");

    // A probe dropped into core is named. Its name is assembled here, so
    // this file does not mention it whole.
    let probe = ["never", "called", "probe"].join("_");
    let path = Path::new(ROOT).join("crates/core/src/hygiene_probe.rs");
    sources.push((path, format!("/// A probe.\npub fn {probe}() {{}}\n").into_bytes()));
    assert_eq!(uncalled_pub_fns(&sources), [probe]);
}

/// The messages only `spectrebench::cli::Args` may spell: a binary that
/// spells one checks flag values with a loop of its own.
const READER_MESSAGES: [&str; 2] = ["needs a value", "must be at least 1"];

/// The sources under `crates/*/src/bin/` that spell one of
/// [`READER_MESSAGES`].
fn hand_rolled_flag_checks(sources: &[(PathBuf, Vec<u8>)]) -> Vec<PathBuf> {
    let crates = Path::new(ROOT).join("crates");
    let in_bin = |path: &Path| {
        let parts: Vec<_> = path.strip_prefix(&crates).into_iter().flat_map(Path::iter).collect();
        parts.len() > 3 && parts[1] == "src" && parts[2] == "bin"
    };
    let spells = |text: &[u8]| {
        READER_MESSAGES.iter().any(|m| text.windows(m.len()).any(|w| w == m.as_bytes()))
    };
    let found = sources.iter().filter(|(path, text)| in_bin(path) && spells(text));
    found.map(|(path, _)| path.clone()).collect()
}

/// One command-line grammar: the binaries read their flags through
/// `spectrebench::cli::Args`, so the value checks and their wording live
/// there alone and a sixth hand-rolled argv loop cannot creep back.
#[test]
fn binaries_leave_flag_values_to_the_one_reader() {
    let mut sources = workspace_sources();
    assert!(sources.iter().any(|(path, _)| path.ends_with("crates/bench/src/bin/regen.rs")));
    assert_eq!(hand_rolled_flag_checks(&sources), Vec::<PathBuf>::new());

    // A probe binary with a check of its own is named; the same text
    // outside `src/bin/` is not.
    for (dir, named) in [("src/bin", true), ("src", false)] {
        let path = Path::new(ROOT).join(format!("crates/serve/{dir}/probe.rs"));
        let text = format!("fn main() {{ eprintln!(\"--queue {}\"); }}\n", READER_MESSAGES[1]);
        sources.push((path.clone(), text.into_bytes()));
        assert_eq!(hand_rolled_flag_checks(&sources), if named { vec![path] } else { vec![] });
        sources.pop();
    }
}

/// The `[section]` table of a manifest, as its keys (a dependency's key
/// is its crate name: `name.workspace = true` or `name = { .. }`).
fn section_keys(manifest: &str, section: &str) -> Vec<String> {
    let header = format!("[{section}]");
    let lines = manifest.lines().map(str::trim).skip_while(|l| *l != header).skip(1);
    lines
        .take_while(|l| !l.starts_with('['))
        .filter_map(|l| l.split(['.', '=', ' ']).next())
        .filter(|key| !key.is_empty() && !key.starts_with('#'))
        .map(str::to_string)
        .collect()
}

/// `name = "<value>"` in a manifest's `[package]` table.
fn package_name(manifest: &str) -> String {
    let lines = manifest.lines().skip_while(|l| l.trim() != "[package]").skip(1);
    let name = lines.take_while(|l| !l.starts_with('[')).find_map(|l| {
        let (key, value) = l.split_once('=')?;
        (key.trim() == "name").then(|| value.trim().trim_matches('"').to_string())
    });
    name.expect("a [package] name")
}

/// Every crate `from` reaches through `edges`, itself excluded.
fn reachable(edges: &BTreeMap<String, Vec<String>>, from: &str) -> BTreeSet<String> {
    let mut seen = BTreeSet::new();
    let mut todo = vec![from.to_string()];
    while let Some(krate) = todo.pop() {
        for dep in edges.get(&krate).into_iter().flatten() {
            if seen.insert(dep.clone()) {
                todo.push(dep.clone());
            }
        }
    }
    seen
}

/// The crates layer one way: the `regen` CLI (`bench`) builds on the
/// serving crate (`serve`), never the reverse, through any chain of
/// normal dependencies between the workspace's manifests.
#[test]
fn serve_does_not_reach_bench() {
    let mut manifests = vec![Path::new(ROOT).join("Cargo.toml")];
    for entry in std::fs::read_dir(Path::new(ROOT).join("crates")).expect("crates/").flatten() {
        let manifest = entry.path().join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    let manifests: Vec<String> =
        manifests.iter().map(|m| std::fs::read_to_string(m).expect("read a manifest")).collect();
    let members: BTreeSet<String> = manifests.iter().map(|m| package_name(m)).collect();
    let internal = |m: &str, section| -> Vec<String> {
        section_keys(m, section).into_iter().filter(|k| members.contains(k)).collect()
    };
    let edges: BTreeMap<String, Vec<String>> =
        manifests.iter().map(|m| (package_name(m), internal(m, "dependencies"))).collect();
    let dev: usize = manifests.iter().map(|m| internal(m, "dev-dependencies").len()).sum();
    let normal: usize = edges.values().map(Vec::len).sum();
    println!("crate-dependency edges: {normal} normal, {dev} dev, over {} crates", members.len());

    assert!(reachable(&edges, "bench").is_superset(&BTreeSet::from(
        ["serve", "spectrebench", "uarch"].map(String::from)
    )));
    let from_serve = reachable(&edges, "serve");
    assert!(
        !from_serve.contains("bench"),
        "serve reaches bench ({from_serve:?}); the regen CLI must sit on top"
    );
}
