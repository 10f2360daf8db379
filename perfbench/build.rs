//! Records provenance for the result header: the compiler version, and a
//! fingerprint of the sources the benchmark was built from (a checkout
//! without `.git` has no revision to report).

use std::path::{Path, PathBuf};

/// The source trees the binary is built from, relative to this package.
const SOURCES: [&str; 7] = [
    "../Cargo.toml",
    "../Cargo.lock",
    "../crates",
    "../src",
    "../vendor",
    "src",
    "Cargo.toml",
];

fn files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        let Ok(entries) = std::fs::read_dir(path) else {
            return;
        };
        for entry in entries.flatten() {
            let p = entry.path();
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            files(&p, out);
        }
    } else if path.is_file() {
        out.push(path.to_path_buf());
    }
}

/// FNV-1a over every source path and its bytes, in sorted path order.
fn fingerprint() -> String {
    let mut all = Vec::new();
    for s in SOURCES {
        files(Path::new(s), &mut all);
    }
    all.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in &all {
        eat(f.to_string_lossy().as_bytes());
        eat(&std::fs::read(f).unwrap_or_default());
    }
    format!("{h:016x}")
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_SOURCES={}", fingerprint());
    println!("cargo:rerun-if-changed=build.rs");
    for s in SOURCES {
        println!("cargo:rerun-if-changed={s}");
    }
}
