//! Process and machine facts: resident memory, provenance, working
//! directories inside the working tree.

use std::path::{Path, PathBuf};
use std::process::Command;

extern "C" {
    /// glibc: hand freed heap memory back to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns freed heap pages to the kernel so a resident-set reading counts
/// live memory, not what an earlier, dropped instance left in the
/// allocator.
pub fn trim_heap() {
    // SAFETY: malloc_trim only walks the allocator's own free lists.
    unsafe {
        malloc_trim(0);
    }
}

/// Resident set size of this process, in bytes.
pub fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Git revision and clean-tree flag of the working directory, read only
/// when the working directory itself is the repository root, so git never
/// searches parent directories. An exported tree reports `unknown`.
pub fn git_provenance() -> (String, Option<bool>) {
    if !Path::new(".git").exists() {
        return ("unknown".into(), None);
    }
    let git = |args: &[&str]| {
        Command::new("git")
            .args(["--git-dir=.git", "--work-tree=."])
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rev = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let clean = git(&["status", "--porcelain", "--untracked-files=no"]).map(|s| s.is_empty());
    (rev, clean)
}

/// A working directory under `perfbench/.work`, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let dir = PathBuf::from("perfbench/.work").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either.
        let _ = std::fs::remove_dir(Path::new("perfbench/.work"));
    }
}

/// Total bytes of the regular files directly in `dir`, and of those whose
/// name starts with `prefix`.
pub fn dir_bytes(dir: &Path, prefix: &str) -> std::io::Result<(u64, u64)> {
    let (mut all, mut matching) = (0, 0);
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        if meta.is_file() {
            all += meta.len();
            if entry.file_name().to_string_lossy().starts_with(prefix) {
                matching += meta.len();
            }
        }
    }
    Ok((all, matching))
}
