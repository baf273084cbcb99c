//! Host facts recorded with every result, and process resource usage.

use std::path::{Path, PathBuf};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("castedbench reads getrusage(2) with the 64-bit Linux struct layout");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// Resource usage of this process so far (all threads, the in-process
/// server included).
#[derive(Clone, Copy, Debug)]
pub struct Usage {
    /// User plus system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set size in MiB (`VmHWM`). Not `ru_maxrss`: Linux
    /// folds the pre-exec image of the launching process (`cargo run`)
    /// into it.
    pub peak_rss_mb: f64,
}

/// A `kB` field of `/proc/self/status` (`VmHWM`), in MiB.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("/proc/self/status is readable on Linux");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status carries {field} in kB"));
    kib / 1024.0
}

pub fn usage() -> Usage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` with the 64-bit
    // Linux layout (enforced by the compile_error above), which is all
    // getrusage(2) writes to; RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid buffer"
    );
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        peak_rss_mb: status_mb("VmHWM"),
    }
}

/// Worker threads the benchmark and the layers' pools may use.
pub fn nproc() -> usize {
    casted_util::pool::pool_threads()
}

/// Root of the checkout the benchmark was built from.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits one level below the repository root")
        .to_path_buf()
}

/// Directory for run artifacts (trace files, scratch stores).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// What a result was measured on and with.
pub struct HostFacts {
    pub nproc: usize,
    pub profile: &'static str,
    pub commit: String,
    pub target: String,
}

pub fn host_facts() -> HostFacts {
    let root = repo_root();
    HostFacts {
        nproc: nproc(),
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        commit: git_commit(&root).unwrap_or_else(|| "unknown".into()),
        target: format!("{}-{}", std::env::consts::ARCH, std::env::consts::OS),
    }
}

/// The checkout's commit when it is a git work tree.
fn git_commit(root: &Path) -> Option<String> {
    if !root.join(".git").exists() {
        return None;
    }
    let out = std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_reports_time_and_memory() {
        let u = usage();
        assert!(u.peak_rss_mb > 0.0);
        assert!(u.cpu_s >= 0.0);
    }
}
