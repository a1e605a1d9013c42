//! The system under test: store construction and the server in front of
//! it, through the public `graphbi` and `graphbi_serve` APIs only.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use graphbi::{disk, AggFn, GraphStore, MvccStore};
use graphbi_columnstore::{os_vfs, Verify};
use graphbi_serve::{ServeConfig, ServeStore, Server};

use crate::inputs::{Inputs, VIEW_BUDGET};
use crate::Workload;

/// Column cache of `read-disk-uniform`: about a seventh of the store.
pub const DISK_CACHE: usize = 4 << 20;
/// Column cache of `ingest-mixed`: the whole store fits.
pub const INGEST_CACHE: usize = 64 << 20;

/// An in-memory store over the base records, with views advised from the
/// workload's Zipf pool when it has one.
pub fn mem_store(inputs: &Inputs) -> GraphStore {
    let mut store = GraphStore::load(inputs.universe.clone(), &inputs.base);
    if !inputs.advise.is_empty() {
        store.advise_views(&inputs.advise, VIEW_BUDGET);
        store
            .advise_agg_views(&inputs.advise, AggFn::Sum, VIEW_BUDGET)
            .expect("generated paths are acyclic");
    }
    store
}

/// A served store.
pub struct System {
    pub store: Arc<MvccStore>,
    pub server: Server,
    /// The database directory of disk-backed workloads.
    pub dir: Option<PathBuf>,
    /// Resident bytes of the in-memory store the run built.
    pub mem_bytes: usize,
}

impl System {
    /// Builds, advises, saves and opens the workload's store and starts a
    /// server in front of it. `dir` is emptied first.
    pub fn start(workload: Workload, inputs: &Inputs, dir: &Path) -> System {
        let mem = mem_store(inputs);
        let mem_bytes = mem.size_in_bytes();
        let (store, dir) = match workload.cache_bytes() {
            None => (MvccStore::new_mem(mem), None),
            Some(cache) => {
                let _ = std::fs::remove_dir_all(dir);
                disk::save_store(&mem, dir).expect("store saves");
                drop(mem);
                (open(dir, cache), Some(dir.to_path_buf()))
            }
        };
        let store = Arc::new(store);
        System {
            server: serve(&store),
            store,
            dir,
            mem_bytes,
        }
    }

    /// Stops the server and waits for its threads.
    pub fn stop(mut self) -> Arc<MvccStore> {
        self.server.shutdown();
        self.store
    }
}

fn open(dir: &Path, cache: usize) -> MvccStore {
    MvccStore::open_disk(dir, cache, os_vfs(), Verify::Checksums).expect("store opens")
}

fn serve(store: &Arc<MvccStore>) -> Server {
    Server::start(
        ServeStore::Mvcc(Arc::clone(store)),
        "127.0.0.1:0",
        ServeConfig::default(),
    )
    .expect("server binds a local port")
}

/// Bytes of every file under `dir` (store generations plus WAL).
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}
