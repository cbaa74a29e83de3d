//! The workspace carries no `unsafe` code and no dead code, and the
//! compiler keeps it that way only where a crate root says
//! `#![forbid(unsafe_code)]` and `#![forbid(dead_code)]`: forbidding dead
//! code also rejects any `allow(dead_code)` that would hide an item only
//! tests use. This test reads the root package's `src/lib.rs` and every
//! `crates/*/src/lib.rs` and names each root that lacks either attribute.

use std::fs;
use std::path::Path;

/// The attributes every crate root must carry.
const REQUIRED: [&str; 2] = ["#![forbid(unsafe_code)]", "#![forbid(dead_code)]"];

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
    let mut missing = Vec::new();
    for lib in &libs {
        let src = fs::read_to_string(lib).expect("a crate root is readable");
        for attr in REQUIRED {
            if !src.lines().any(|line| line.trim() == attr) {
                let lib = lib.strip_prefix(root).unwrap_or(lib);
                missing.push(format!("{} lacks {attr}", lib.display()));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "crate roots missing a forbid: {missing:?}"
    );
}
