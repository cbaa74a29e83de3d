//! The workspace carries no `unsafe` code, and the compiler keeps it that
//! way only where a crate root says `#![forbid(unsafe_code)]`. This test
//! reads the root package's `src/lib.rs` and every `crates/*/src/lib.rs`
//! and names each root that lacks the attribute.

use std::fs;
use std::path::Path;

#[test]
fn every_crate_root_forbids_unsafe_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut libs = vec![root.join("src/lib.rs")];
    for entry in fs::read_dir(root.join("crates")).expect("the workspace has a crates/ directory") {
        let lib = entry
            .expect("crates/ is readable")
            .path()
            .join("src/lib.rs");
        if lib.is_file() {
            libs.push(lib);
        }
    }
    assert!(
        libs.iter()
            .any(|lib| lib.ends_with("crates/pool/src/lib.rs")),
        "the crate scan missed crates/pool: {libs:?}"
    );
    let missing: Vec<&Path> = libs
        .iter()
        .filter(|lib| {
            let src = fs::read_to_string(lib).expect("a crate root is readable");
            !src.lines()
                .any(|line| line.trim() == "#![forbid(unsafe_code)]")
        })
        .map(|lib| lib.strip_prefix(root).unwrap_or(lib))
        .collect();
    assert!(
        missing.is_empty(),
        "crate roots without #![forbid(unsafe_code)]: {missing:?}"
    );
}
