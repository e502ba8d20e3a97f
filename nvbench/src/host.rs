//! The host stamp every document carries, the pid-unique scratch
//! directory, and the process's peak memory.

use crate::json::quote;
use std::path::{Path, PathBuf};

/// The flush instruction `MmapBackend` selects on this CPU. The product
/// keeps its choice private, so this mirrors its rule (CPUID leaf 7, EBX
/// bit 24 = CLWB, bit 23 = CLFLUSHOPT, else CLFLUSH).
pub fn flush_instruction() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{__cpuid, __cpuid_count};
        let ebx = if __cpuid(0).eax >= 7 {
            __cpuid_count(7, 0).ebx
        } else {
            0
        };
        if ebx & (1 << 24) != 0 {
            "clwb"
        } else if ebx & (1 << 23) != 0 {
            "clflushopt"
        } else {
            "clflush"
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    "none"
}

/// `available_parallelism` as the process found it — before any pinning,
/// which the call would otherwise reflect. (Pools created while the
/// process is confined to one CPU, as on the `wire-*` workloads, size
/// their allocator for one core; that is the same on every run.)
pub fn cores() -> usize {
    static AT_START: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *AT_START.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The commit the working tree is at, read from `.git` without running
/// git; `"unknown"` outside a repository (the driver's checkout is one).
pub fn git_rev() -> String {
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        if let Some(head) = read(d.join(".git/HEAD")) {
            return match head.strip_prefix("ref: ") {
                Some(r) => read(d.join(".git").join(r)).unwrap_or_else(|| "unknown".into()),
                None => head,
            };
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    "unknown".into()
}

/// File-system type holding `path`, from the longest matching mount point.
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Scheduler ticks (10 ms) during which the hypervisor ran something
/// else while one of `cpus` — all of them when empty — had work to do:
/// the `steal` column of `/proc/stat`. On a shared virtual machine this is
/// the dominant noise (the same binary read 0.94M and 1.77M ops/s on
/// `wire-batch64` as it went from 31 % to 0 %), and it is observable, so
/// a trial during which it moved is set aside rather than averaged in.
/// Reads 0 where the kernel does not report it.
pub fn steal_ticks(cpus: &[usize]) -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let steal = |line: &str| {
        line.split_whitespace()
            .nth(8)
            .and_then(|f| f.parse::<u64>().ok())
    };
    stat.lines()
        .filter(|l| {
            match l
                .split_whitespace()
                .next()
                .and_then(|name| name.strip_prefix("cpu"))
            {
                Some("") => cpus.is_empty(),
                Some(n) => n.parse().is_ok_and(|n: usize| cpus.contains(&n)),
                None => false,
            }
        })
        .filter_map(steal)
        .sum()
}

/// CPUs this process may run on, ascending.
#[cfg(target_os = "linux")]
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, the
    // layout `sched_getaffinity(2)` documents for a 1024-bit `cpu_set_t`.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread — and every thread it creates from now
/// on — to `cpus`. Returns whether the kernel accepted it.
#[cfg(target_os = "linux")]
pub fn pin_to_cpus(cpus: &[usize]) -> bool {
    let mut mask = [0u64; 16];
    for cpu in cpus.iter().filter(|&&c| c < 1024) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a readable `cpu_set_t`-shaped buffer of the size
    // passed; pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// No affinity control off Linux: nothing is pinned.
#[cfg(not(target_os = "linux"))]
pub fn allowed_cpus() -> Vec<usize> {
    Vec::new()
}

/// See the Linux version; a no-op here.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_cpus(_cpus: &[usize]) -> bool {
    false
}

/// While alive, the calling thread and the threads it creates run on one
/// CPU (the highest allowed one, away from CPU 0's interrupts); dropping
/// it restores the previous set.
#[derive(Debug)]
pub struct OneCpu {
    previous: Vec<usize>,
}

impl OneCpu {
    /// Confines the calling thread.
    pub fn confine() -> OneCpu {
        let previous = allowed_cpus();
        if let Some(last) = previous.last() {
            pin_to_cpus(&[*last]);
        }
        OneCpu { previous }
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        if !self.previous.is_empty() {
            pin_to_cpus(&self.previous);
        }
    }
}

/// The stamp, as a JSON object.
pub fn stamp_json(pool_dir: &Path) -> String {
    format!(
        "{{\"cores\":{},\"flush_instruction\":{},\"git_rev\":{},\"nvt_obs\":{},\"pool_dir_fs\":{},\"arch\":{},\"os\":{}}}",
        cores(),
        quote(flush_instruction()),
        quote(&git_rev()),
        quote(if nvtraverse_obs::enabled() { "on" } else { "off" }),
        quote(&fs_type(pool_dir)),
        quote(std::env::consts::ARCH),
        quote(std::env::consts::OS),
    )
}

/// A pid-unique directory for pool files and sockets, removed when
/// dropped — on success, on error return and on panic unwind alike.
///
/// It lives beside the running executable (inside the build directory,
/// hence inside the checkout and ignored by git) unless `--dir` names
/// another place, e.g. `/dev/shm`. The path is kept relative to the
/// working directory when it can be, so Unix-socket paths stay under the
/// 108-byte `sun_path` limit however deep the checkout sits.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    /// Creates the directory.
    pub fn create(base: Option<&Path>) -> std::io::Result<Scratch> {
        let base = match base {
            Some(b) => b.to_path_buf(),
            None => {
                let exe = std::env::current_exe()?;
                let dir = exe
                    .parent()
                    .unwrap_or(Path::new("."))
                    .join("nvbench-scratch");
                match std::env::current_dir()
                    .ok()
                    .and_then(|cwd| dir.strip_prefix(cwd).ok().map(Path::to_path_buf))
                {
                    Some(rel) => rel,
                    None => dir,
                }
            }
        };
        let root = base.join(format!("nvbench-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.root
    }

    /// A fresh, empty sub-directory path (removed first if present; not
    /// created — `KvStore::create` wants to make it).
    pub fn fresh(&self, name: &str) -> PathBuf {
        let p = self.root.join(name);
        let _ = std::fs::remove_dir_all(&p);
        let _ = std::fs::remove_file(&p);
        p
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_is_well_formed_and_scratch_cleans_up() {
        let tmp = std::env::temp_dir();
        let kept;
        {
            let s = Scratch::create(Some(&tmp)).unwrap();
            kept = s.path().to_path_buf();
            std::fs::write(s.fresh("x"), b"1").unwrap();
            assert!(kept.join("x").exists());
            let stamp = crate::json::parse(&stamp_json(s.path())).unwrap();
            assert!(
                stamp
                    .get("cores")
                    .and_then(crate::json::Value::as_f64)
                    .unwrap()
                    >= 1.0
            );
            assert!(stamp.get("pool_dir_fs").is_some());
        }
        assert!(!kept.exists(), "scratch must be removed on drop");
        assert!(peak_rss_mib() > 0.0);
        assert!(
            steal_ticks(&[]) >= steal_ticks(&[0]),
            "the aggregate line covers cpu0"
        );
    }
}
