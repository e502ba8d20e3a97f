//! A durable KV service over a Unix socket: `nvtraverse-server` in front
//! of a sharded pool-backed store, surviving restarts (and crashes — the
//! reopen runs the pool's full recovery pipeline over every shard).
//!
//! ```text
//! cargo run --release --example kv_server [sock] [dir] [policy] [shards]
//! ```
//!
//! Defaults: socket `/tmp/nvt-kv.sock`, store `/tmp/nvt-kv-store`, policy
//! `nvt` (or `soft`), 4 shards (1 to 15: each is a root of the store's
//! one pool). Run it, then talk to it from another
//! terminal with [`nvtraverse_server::Client`]:
//!
//! ```ignore
//! let mut c = Client::connect_uds("/tmp/nvt-kv.sock")?;
//! c.insert(1, 100)?;
//! assert_eq!(c.get(1)?, Some(100));
//! c.shutdown_server()?; // graceful: drains, fsyncs, exits
//! ```

use nvtraverse_server::{KvStore, PolicyKind, Server, ServerConfig};

fn main() -> std::io::Result<()> {
    let mut args = std::env::args().skip(1);
    let sock = args.next().unwrap_or_else(|| "/tmp/nvt-kv.sock".into());
    let dir = args.next().unwrap_or_else(|| "/tmp/nvt-kv-store".into());
    let policy = args
        .next()
        .as_deref()
        .and_then(PolicyKind::from_name)
        .unwrap_or(PolicyKind::NvTraverse);
    let shards: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);

    let store = match KvStore::open_or_create(&dir, policy, shards, 64 << 20) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("kv_server: cannot open or create the store at {dir}: {e}");
            std::process::exit(2);
        }
    };
    for r in store.recovery_reports() {
        if r.ops_descriptors > 0 || r.ops_pending > 0 {
            println!(
                "recovered {} detectable-op descriptors ({} pending)",
                r.ops_descriptors, r.ops_pending
            );
        }
    }
    println!(
        "store: {} keys in {} shard(s) of one pool under the {} policy at {dir}",
        store.len(),
        store.shard_count(),
        store.policy().name()
    );

    let server = Server::start_uds(&sock, store, ServerConfig::default())?;
    println!("serving on {sock} — stop with Client::shutdown_server() (the SHUTDOWN op)");
    server.wait_for_shutdown_request();
    server.shutdown()?;
    println!("clean shutdown: every acknowledged operation is durable; restart to reopen");
    Ok(())
}
