//! Thin `mmap` wrapper: shared file mappings at an exact base, the window
//! new pools take their bases from, and the advisory file lock that makes a
//! pool single-writer.
//!
//! Declared directly against the C library (the build environment vendors no
//! `libc` crate): `mmap`/`munmap`/`msync`/`flock` are part of every Unix
//! libc that std already links. The declarations assume LP64 (`off_t` =
//! i64), so the real implementation is gated to 64-bit Unix; on every other
//! target these entry points compile but return `ErrorKind::Unsupported`,
//! keeping the workspace buildable (the simulator and hardware backends are
//! fully portable; only the pool is not).

use std::fs::File;
use std::io;
use std::path::Path;

#[cfg(all(unix, target_pointer_width = "64"))]
mod sys {
    use std::ffi::{c_int, c_void};
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    // SAFETY: the offset/address was produced by this pool's allocator or recovery walk and stays within the mapping; layout invariants are documented on the enclosing type.
    unsafe extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
        fn msync(addr: *mut c_void, len: usize, flags: c_int) -> c_int;
        fn flock(fd: c_int, operation: c_int) -> c_int;
    }

    const PROT_READ: c_int = 1;
    const PROT_WRITE: c_int = 2;
    const MAP_SHARED: c_int = 0x01;
    #[cfg(target_os = "linux")]
    const MAP_FIXED_NOREPLACE: c_int = 0x10_0000;
    const MS_SYNC: c_int = 4;
    const MAP_FAILED: usize = usize::MAX;
    const EEXIST: i32 = 17;
    const LOCK_EX: c_int = 2;
    const LOCK_NB: c_int = 4;
    const LOCK_UN: c_int = 8;

    pub fn map_shared(file: &File, len: usize, base: usize) -> io::Result<usize> {
        #[cfg(target_os = "linux")]
        let flags = MAP_SHARED | MAP_FIXED_NOREPLACE;
        #[cfg(not(target_os = "linux"))]
        let flags = MAP_SHARED;
        // SAFETY: len > 0, fd is a valid open file, and we never pass
        // MAP_FIXED, so no existing mapping can be clobbered.
        let p = unsafe {
            mmap(
                base as *mut c_void,
                len,
                PROT_READ | PROT_WRITE,
                flags,
                file.as_raw_fd(),
                0,
            )
        } as usize;
        if p == MAP_FAILED {
            let e = io::Error::last_os_error();
            return Err(if e.raw_os_error() == Some(EEXIST) {
                in_use(base)
            } else {
                e
            });
        }
        if p != base {
            // The address was only a hint (not Linux, or a kernel older
            // than 4.17 that ignores MAP_FIXED_NOREPLACE): undo.
            unmap(p, len);
            return Err(in_use(base));
        }
        Ok(p)
    }

    fn in_use(base: usize) -> io::Error {
        io::Error::new(
            io::ErrorKind::AddrInUse,
            format!("the range at {base:#x} is occupied"),
        )
    }

    pub fn read_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
        std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
    }

    pub fn unmap(base: usize, len: usize) {
        // SAFETY: only called with (base, len) pairs returned by map_shared.
        unsafe {
            munmap(base as *mut c_void, len);
        }
    }

    pub fn sync(base: usize, len: usize) -> io::Result<()> {
        // SAFETY: only called with live (base, len) pairs from map_shared.
        let rc = unsafe { msync(base as *mut c_void, len, MS_SYNC) };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }

    pub fn lock_exclusive(file: &File) -> io::Result<()> {
        // SAFETY: the offset/address was produced by this pool's allocator or recovery walk and stays within the mapping; layout invariants are documented on the enclosing type.
        let rc = unsafe { flock(file.as_raw_fd(), LOCK_EX | LOCK_NB) };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }

    pub fn unlock(file: &File) {
        // SAFETY: `file` is an open descriptor; unlocking one that holds
        // no lock is a no-op.
        unsafe { flock(file.as_raw_fd(), LOCK_UN) };
    }

    /// Reserves (PROT_NONE) an anonymous region at exactly `addr` — used by
    /// tests to occupy a pool's range. Returns false if the range is taken.
    #[cfg(all(test, target_os = "linux"))]
    pub fn reserve_anon_at(addr: usize, len: usize) -> bool {
        const PROT_NONE: c_int = 0;
        const MAP_PRIVATE: c_int = 0x02;
        const MAP_ANONYMOUS: c_int = 0x20;
        // SAFETY: the offset/address was produced by this pool's allocator or recovery walk and stays within the mapping; layout invariants are documented on the enclosing type.
        let p = unsafe {
            mmap(
                addr as *mut c_void,
                len,
                PROT_NONE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED_NOREPLACE,
                -1,
                0,
            )
        } as usize;
        p == addr
    }
    #[cfg(all(test, not(target_os = "linux")))]
    pub fn reserve_anon_at(_addr: usize, _len: usize) -> bool {
        false
    }
}

#[cfg(not(all(unix, target_pointer_width = "64")))]
mod sys {
    use std::fs::File;
    use std::io;

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "nvtraverse-pool requires a 64-bit Unix mmap; this target has none",
        ))
    }

    pub fn map_shared(_file: &File, _len: usize, _base: usize) -> io::Result<usize> {
        unsupported()
    }
    pub fn read_at(_file: &File, _buf: &mut [u8], _offset: u64) -> io::Result<()> {
        unsupported()
    }
    pub fn unmap(_base: usize, _len: usize) {}
    pub fn sync(_base: usize, _len: usize) -> io::Result<()> {
        unsupported()
    }
    pub fn lock_exclusive(_file: &File) -> io::Result<()> {
        unsupported()
    }
    pub fn unlock(_file: &File) {}
    #[cfg(test)]
    pub fn reserve_anon_at(_addr: usize, _len: usize) -> bool {
        false
    }
}

/// Maps `len` bytes of `file` shared and read-write at exactly `base`, or
/// fails with `AddrInUse` when any of the range is occupied
/// (`MAP_FIXED_NOREPLACE`: never a clobber, never another address).
pub fn map_shared(file: &File, len: usize, base: usize) -> io::Result<usize> {
    sys::map_shared(file, len, base)
}

/// Reads exactly `buf.len()` bytes of `file` at `offset` (one `pread`).
pub fn read_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    sys::read_at(file, buf, offset)
}

/// Unmaps a region previously returned by [`map_shared`].
pub fn unmap(base: usize, len: usize) {
    sys::unmap(base, len)
}

/// `msync(MS_SYNC)` over a mapped region.
pub fn sync(base: usize, len: usize) -> io::Result<()> {
    sys::sync(base, len)
}

/// A pool file under a non-blocking exclusive `flock`, which makes each
/// pool single-writer across *and within* processes: a second open of a
/// live pool fails instead of racing the allocator over shared pages.
///
/// Dropping it unlocks (`LOCK_UN`) before the descriptor closes. The close
/// alone would not do: the lock belongs to the open file description, and
/// a child forked by any thread of this process holds a copy of it until
/// its `exec`, so the pool would stay locked for that long after its close.
#[derive(Debug)]
pub struct LockedFile(File);

impl LockedFile {
    /// Locks `file`; `WouldBlock` when another descriptor holds the lock.
    pub fn lock(file: File) -> io::Result<LockedFile> {
        sys::lock_exclusive(&file)?;
        Ok(LockedFile(file))
    }
}

impl std::ops::Deref for LockedFile {
    type Target = File;

    fn deref(&self) -> &File {
        &self.0
    }
}

impl Drop for LockedFile {
    fn drop(&mut self) {
        sys::unlock(&self.0);
    }
}

/// Test hook: occupies `[addr, addr+len)` with an anonymous mapping.
#[cfg(test)]
pub fn reserve_anon_at(addr: usize, len: usize) -> bool {
    sys::reserve_anon_at(addr, len)
}

/// The address window new pools are mapped in: below the executable and
/// `brk` (a PIE loads near `0x5555_5555_0000`), far below the top-down
/// area where the kernel places every mapping that asks for no address,
/// so no such mapping ever lands on a pool's range.
pub const WINDOW: std::ops::Range<usize> = 0x1000_0000_0000..0x5000_0000_0000;
/// Granularity of pool bases in the window: 1 GiB, so 65 536 slots, and a
/// pool of [`MAX_CAPACITY`](crate::MAX_CAPACITY) spans 1 024 of them.
pub const SLOT: usize = 1 << 30;

/// The base a new pool of `len` bytes at `path` tries on its `probe`-th
/// attempt: the slot the path hashes to, then each next one, wrapping so
/// that the whole range `[base, base + len)` stays inside [`WINDOW`]. The
/// same path gets the same first base in every process, and distinct paths
/// rarely share a slot.
pub fn window_base(path: &Path, len: usize, probe: usize) -> usize {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in path.as_os_str().as_encoded_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let starts = starts(len) as u64;
    WINDOW.start + ((h % starts + probe as u64) % starts) as usize * SLOT
}

/// How many slots a range of `len` bytes can start at inside [`WINDOW`].
fn starts(len: usize) -> usize {
    (WINDOW.end - WINDOW.start) / SLOT + 1 - len.div_ceil(SLOT)
}

/// Maps a new pool file at the first free base [`window_base`] offers,
/// trying each start in the window once.
pub fn map_new(file: &File, len: usize, path: &Path) -> io::Result<usize> {
    for probe in 0..starts(len) {
        match map_shared(file, len, window_base(path, len, probe)) {
            Err(e) if e.kind() == io::ErrorKind::AddrInUse => continue,
            mapped => return mapped,
        }
    }
    Err(io::Error::new(
        io::ErrorKind::AddrInUse,
        format!("no free {len}-byte range in the pool window"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn new_file(tag: &str, len: u64) -> (std::path::PathBuf, File) {
        let path = std::env::temp_dir().join(format!("nvt-mmap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .unwrap();
        file.set_len(len).unwrap();
        (path, file)
    }

    #[test]
    fn map_write_sync_read_roundtrip() {
        let (path, file) = new_file("test", 8192);
        let base = map_new(&file, 8192, &path).unwrap();
        unsafe { (base as *mut u64).write(0xDEAD_BEEF) };
        sync(base, 8192).unwrap();
        unmap(base, 8192);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[..8], &0xDEAD_BEEFu64.to_le_bytes());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_base_keeps_the_whole_range_inside_the_window() {
        let mut lens = vec![
            crate::MIN_CAPACITY as usize,
            SLOT - 1,
            SLOT,
            SLOT + 1,
            17 << 30,
        ];
        lens.extend([
            (crate::MAX_CAPACITY as usize) - 4096,
            crate::MAX_CAPACITY as usize,
        ]);
        for i in 0..2000 {
            let path = format!("/tmp/nvt-window-{i}.pool");
            for &len in &lens {
                for probe in [0, 1, 7, starts(len) - 1, starts(len), 3 * starts(len) + 5] {
                    let base = window_base(Path::new(&path), len, probe);
                    assert!(
                        base >= WINDOW.start
                            && base + len <= WINDOW.end
                            && base.is_multiple_of(SLOT),
                        "{path}, {len} bytes, probe {probe}: base {base:#x} leaves the window"
                    );
                }
            }
        }
        // The same path starts at the same base; the next probe is the next
        // slot, or the window's first one after its last.
        let (a, b) = (Path::new("/tmp/a.pool"), Path::new("/tmp/b.pool"));
        assert_eq!(window_base(a, SLOT, 0), window_base(a, SLOT, 0));
        assert_ne!(window_base(a, SLOT, 0), window_base(b, SLOT, 0));
        let next = window_base(a, SLOT, 1);
        assert!(next == window_base(a, SLOT, 0) + SLOT || next == WINDOW.start);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn exact_mapping_at_free_base_succeeds_and_conflict_fails() {
        let (path, file) = new_file("fixed", 4096);
        let want = window_base(&path, 4096, 0);
        let base = map_shared(&file, 4096, want).unwrap();
        assert_eq!(base, want);
        // The same range is now occupied: an exact request must fail.
        let err = map_shared(&file, 4096, want).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse);
        unmap(base, 4096);
        std::fs::remove_file(&path).unwrap();
    }
}
