//! Allocation right after a reopen: what the first inserts pay for the free
//! blocks an open leaves behind, on a key-value store and on a raw pool
//! whose rarest class's free blocks lie at the top of the heap — and, for
//! contrast, allocation after a free-heavy phase in a pool never reopened.
//!
//! ```text
//! cargo run --release --example insert_after_reopen -- [dir] [threads] [keys]
//! ```
//!
//! Defaults: `/tmp/nvt-insert-after-reopen`, 4 threads, 2^18 keys. Each run
//! builds both images from scratch, closes them, reopens them and prints
//! one line per image, then two `churn` lines (times in wall-clock
//! milliseconds):
//!
//! * `kv` — a 2-shard NVTraverse `KvStore` that took `keys` inserts and then
//!   removed every other key, so the reopened heap holds `keys / 2` free
//!   node blocks; `threads` threads then insert `keys / 2` new keys, each
//!   smaller than every old one so it lands at the head of its chain.
//! * `pool` — a pool of `keys / 2` 64-byte and `keys / 2` 128-byte blocks,
//!   interleaved, every other one freed, topped by 16 1 KiB blocks of which
//!   8 are freed. After the reopen one allocation of the rare 1 KiB class
//!   is timed alone (`rare_us`), then `threads` threads take the freed
//!   common blocks, each alternating the two classes.
//! * `churn` — in a fresh pool, one thread allocates `blocks` 64-byte
//!   blocks (`first_fill_ms`), frees them all (`free_ms`) and allocates
//!   `blocks` again (`refill_ms`), at 2^16 and 2^17 blocks. The refill
//!   should cost no more than the first fill, and twice the blocks about
//!   twice the time.
//!
//! To compare two builds, alternate their runs on one directory.

use nvtraverse_suite::core::pool::Pool;
use nvtraverse_suite::server::{KvStore, PolicyKind};
use std::path::Path;
use std::time::Instant;

const SHARDS: usize = 2;
const RARE_SIZE: usize = 1000;
const RARE: usize = 16;

fn main() -> std::io::Result<()> {
    let mut args = std::env::args().skip(1);
    let dir = args
        .next()
        .unwrap_or_else(|| "/tmp/nvt-insert-after-reopen".into());
    let threads: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);
    let keys: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(1 << 18);
    let dir = Path::new(&dir);
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)?;
    kv(&dir.join("kv"), threads, keys)?;
    pool(&dir.join("blocks.pool"), threads, keys / 2)?;
    for blocks in [1 << 16, 1 << 17] {
        churn(&dir.join(format!("churn-{blocks}.pool")), blocks)?;
    }
    std::fs::remove_dir_all(dir)
}

fn kv(dir: &Path, threads: u64, keys: u64) -> std::io::Result<()> {
    let old = |i: u64| keys + i;
    let store = KvStore::create(dir, PolicyKind::NvTraverse, SHARDS, 64 << 20)?;
    for i in (0..keys).rev() {
        assert_eq!(store.try_insert(old(i), i), Ok(true));
    }
    for i in (0..keys).step_by(2) {
        assert_eq!(store.try_remove(old(i)), Ok(true));
    }
    store.close()?;

    let t0 = Instant::now();
    let store = KvStore::open(dir)?;
    let open_ms = ms(t0);
    let fresh = keys / 2;
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let store = &store;
            s.spawn(move || {
                for k in (0..fresh).rev().filter(|k| k % threads == t) {
                    assert_eq!(store.try_insert(k, k), Ok(true));
                }
            });
        }
    });
    let insert_ms = ms(t0);
    assert_eq!(store.len() as u64, keys);
    println!(
        "kv threads={threads} inserts={fresh} open_ms={open_ms:.2} insert_ms={insert_ms:.2} inserts_per_s={:.0}",
        fresh as f64 / insert_ms * 1e3
    );
    store.close()
}

fn pool(path: &Path, threads: u64, per_class: u64) -> std::io::Result<()> {
    const SIZES: [usize; 2] = [40, 100];
    {
        let pool = Pool::builder().path(path).capacity(64 << 20).create()?;
        let mut blocks = Vec::new();
        for _ in 0..per_class {
            for size in SIZES {
                blocks.push(pool.alloc(size, 8).expect("pool full"));
            }
        }
        blocks.extend((0..RARE).map(|_| pool.alloc(RARE_SIZE, 8).expect("pool full")));
        // Every other block of each class: the two classes alternate.
        for pair in blocks.chunks(4) {
            for &p in &pair[..2.min(pair.len())] {
                // SAFETY: allocated above, referenced by nobody.
                unsafe { pool.dealloc(p) };
            }
        }
    }

    let t0 = Instant::now();
    let pool = Pool::builder().path(path).open()?;
    let open_ms = ms(t0);
    let t0 = Instant::now();
    pool.alloc(RARE_SIZE, 8).expect("pool full");
    let rare_us = ms(t0) * 1e3;
    let each = per_class / 2 / threads;
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let pool = &pool;
            s.spawn(move || {
                for i in 0..each {
                    for j in 0..2 {
                        pool.alloc(SIZES[((i + j + t) % 2) as usize], 8)
                            .expect("pool full");
                    }
                }
            });
        }
    });
    let alloc_ms = ms(t0);
    println!(
        "pool threads={threads} allocs={} open_ms={open_ms:.2} rare_us={rare_us:.1} alloc_ms={alloc_ms:.2} allocs_per_s={:.0}",
        2 * each * threads,
        (2 * each * threads) as f64 / alloc_ms * 1e3
    );
    Ok(())
}

fn churn(path: &Path, blocks: usize) -> std::io::Result<()> {
    const SIZE: usize = 40; // a 64-byte block with its header
    let pool = Pool::builder().path(path).capacity(64 << 20).create()?;
    let t0 = Instant::now();
    let held: Vec<*mut u8> = (0..blocks)
        .map(|_| pool.alloc(SIZE, 8).expect("pool full"))
        .collect();
    let first_fill_ms = ms(t0);
    let t0 = Instant::now();
    for &p in &held {
        // SAFETY: allocated above, referenced by nobody, freed once.
        unsafe { pool.dealloc(p) };
    }
    let free_ms = ms(t0);
    let t0 = Instant::now();
    for _ in 0..blocks {
        pool.alloc(SIZE, 8).expect("pool full");
    }
    let refill_ms = ms(t0);
    println!(
        "churn blocks={blocks} first_fill_ms={first_fill_ms:.2} free_ms={free_ms:.2} refill_ms={refill_ms:.2}"
    );
    Ok(())
}

fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}
