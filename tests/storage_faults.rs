//! Storage faults: every durability path outside serving (checkpoint atomic
//! replaces, dataset save/load, telemetry snapshot ticks, raw vfs
//! append/sync/rename/list/remove traffic) under seeded [`FaultVfs`]
//! schedules covering every injector kind, alone and mixed. Each schedule
//! must show
//!
//! 1. no panic,
//! 2. no silent corruption: an artifact reads back bitwise-correct, fails
//!    with a typed error, or (formats without a checksum) drifts only when
//!    the schedule's ledger shows an injected `Corrupt` fault,
//! 3. telemetry degraded to notes: a faulted tick keeps the previous
//!    exposition file whole, and
//! 4. the injector's exact [`IoFaultLedger`] equal to the window's
//!    `io.fault.*` counter deltas, kind by kind.
//!
//! The serving journal under the same faults is covered by
//! `crates/serve/tests/recovery_props.rs`. This test installs the global
//! vfs and reads deltas of the process-global `io.*` counters, so it is
//! the only test in its binary.

use std::path::Path;
use std::sync::Arc;

use tpgnn_data::{io as dataio, DatasetKind, GraphDataset};
use tpgnn_obs::metrics::DeltaCursor;
use tpgnn_obs::snapshot::SnapshotWriter;
use tpgnn_obs::vfs::{self, FaultPlan, FaultVfs, IoFaultKind, RetryVfs, StdVfs, Vfs};
use tpgnn_tensor::ckpt;

/// Repeated atomic replaces of one checkpoint. The final path always holds
/// the last acked body, bitwise; a failed replace may only damage the temp
/// sibling.
fn checkpoint_leg(name: &str, v: &dyn Vfs, dir: &Path) {
    let path = dir.join("model.ckpt");
    let mut committed: Option<String> = None;
    for i in 0..8u32 {
        let body = format!("storage-faults checkpoint generation {i}\npayload {}\n", i * 31 + 7);
        if ckpt::write_atomic_with(v, &path, &body).is_ok() {
            committed = Some(body);
        }
        // Through the faulted stack: the committed text or a typed error
        // (the checksum trailer turns injected bit flips into errors).
        if let Ok(text) = ckpt::read_atomic_with(v, &path) {
            assert_eq!(Some(&text), committed.as_ref(), "{name}: read back an unacked checkpoint");
        }
        // Ground truth through the real filesystem.
        if let Some(want) = &committed {
            let raw = std::fs::read_to_string(&path).unwrap();
            let got = ckpt::verify_checksum_trailer(&raw)
                .unwrap_or_else(|e| panic!("{name}: final checkpoint corrupt on disk: {e}"));
            assert_eq!(got, want, "{name}: final checkpoint holds an unacked body");
        }
    }
}

/// Dataset save/load through the globally installed vfs. The format has no
/// checksum, so a successful load may drift only under injected corruption.
fn dataset_leg(name: &str, dir: &Path, ds: &GraphDataset, injector: &FaultVfs) {
    let truth = dataio::to_string(ds);
    let path = dir.join("dataset.txt");
    for _ in 0..4 {
        if dataio::save(ds, &path).is_err() {
            continue;
        }
        if let Ok(back) = dataio::load(&path) {
            assert!(
                dataio::to_string(&back) == truth
                    || injector.ledger().count(IoFaultKind::Corrupt) > 0,
                "{name}: dataset drifted bitwise with no corruption injected"
            );
        }
    }
}

/// Snapshot ticks under fault: never a panic, and a failed replace keeps
/// the previous exposition file whole.
fn telemetry_leg(name: &str, dir: &Path, v: &Arc<dyn Vfs>) {
    let mut writer =
        SnapshotWriter::with_vfs("storage-faults", dir.join("telemetry"), Arc::clone(v));
    for _ in 0..6 {
        let _ = writer.tick();
    }
    if let Ok(text) = std::fs::read_to_string(writer.expo_path()) {
        assert!(
            text.is_empty() || text.lines().any(|l| l.starts_with('#') || l.contains(' ')),
            "{name}: exposition file is torn"
        );
    }
}

/// Raw append/sync/rename/list/remove traffic, checked against the real
/// filesystem.
fn raw_leg(name: &str, v: &dyn Vfs, dir: &Path, injector: &FaultVfs) {
    let log = dir.join("raw.log");
    let mut expected = Vec::new();
    if let Ok(mut f) = v.open_append(&log) {
        for i in 0..6u32 {
            let chunk = format!("chunk {i} {}\n", i * 17 + 3);
            match f.append(chunk.as_bytes()) {
                Ok(()) => expected.extend_from_slice(chunk.as_bytes()),
                // A short write landed an unknown prefix: the log is no
                // longer exactly predictable.
                Err(e) if e.fault() == Some(IoFaultKind::ShortWrite) => {
                    expected.clear();
                    break;
                }
                Err(_) => {}
            }
            let _ = f.sync();
        }
    }
    if !expected.is_empty() {
        let raw = std::fs::read(&log).unwrap_or_default();
        assert!(
            raw == expected || injector.ledger().count(IoFaultKind::ShortWrite) > 0,
            "{name}: append-only log drifted from acked writes"
        );
    }
    // Rename moves the file whole or leaves the source untouched.
    let dst = dir.join("raw.renamed");
    let before = std::fs::read(&log).ok();
    if v.rename(&log, &dst).is_ok() {
        assert!(!log.exists(), "{name}: rename left the source behind");
        assert!(
            before.is_none() || std::fs::read(&dst).ok() == before,
            "{name}: rename tore the file"
        );
    } else {
        assert_eq!(std::fs::read(&log).ok(), before, "{name}: failed rename modified the source");
    }
    // List and remove: typed errors are fine, lies are not.
    if let Ok(names) = v.list(dir) {
        for n in ["model.ckpt", "dataset.txt"] {
            assert!(
                !dir.join(n).exists() || names.iter().any(|x| x == n),
                "{name}: list omitted existing file {n}"
            );
        }
    }
    if dst.exists() && v.remove(&dst).is_ok() {
        assert!(!dst.exists(), "{name}: remove acked but the file survived");
    }
}

#[test]
fn every_durability_path_survives_io_faults_with_exact_ledgers() {
    let base = std::env::temp_dir().join(format!("tpgnn-storage-faults-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let ds = DatasetKind::ForumJava.generate(6, 42);
    let schedules = [
        ("short-write", FaultPlan::new(0xA001).with(IoFaultKind::ShortWrite, 0.25)),
        ("no-space", FaultPlan::new(0xA002).with(IoFaultKind::NoSpace, 0.25)),
        ("sync-failed", FaultPlan::new(0xA003).with(IoFaultKind::SyncFailed, 0.25)),
        ("rename-failed", FaultPlan::new(0xA004).with(IoFaultKind::RenameFailed, 0.25)),
        ("transient", FaultPlan::new(0xA005).with(IoFaultKind::Transient, 0.30)),
        ("corrupt", FaultPlan::new(0xA006).with(IoFaultKind::Corrupt, 0.30)),
        ("mixed", FaultPlan::uniform(0xA007, 0.12)),
        ("mixed-capped", FaultPlan::uniform(0xA008, 0.20).cap(24)),
    ];
    let mut cursor = DeltaCursor::new();
    cursor.take(); // drain startup noise so every window is schedule-exact

    for (name, plan) in schedules {
        let dir = base.join(name);
        std::fs::create_dir_all(&dir).unwrap();
        // Retry/backoff over the seeded injector over the real filesystem.
        // The injector clone shares its ledger with the type-erased stack.
        let injector = FaultVfs::new(Arc::new(StdVfs), plan);
        let v: Arc<dyn Vfs> = Arc::new(RetryVfs::new(Arc::new(injector.clone())));
        // Dataset io and trace writers route through the global slot.
        let previous = vfs::install(Arc::clone(&v));
        checkpoint_leg(name, &*v, &dir);
        dataset_leg(name, &dir, &ds, &injector);
        telemetry_leg(name, &dir, &v);
        raw_leg(name, &*v, &dir, &injector);
        vfs::install(previous);

        // Every injected error is observed once by the retry layer, and
        // corruption is counted at injection, so the window's counters
        // equal the ledger exactly.
        let ledger = injector.ledger();
        assert!(name == "mixed-capped" || ledger.total() > 0, "{name}: injected nothing");
        let window = cursor.take();
        for kind in IoFaultKind::ALL {
            assert_eq!(
                window.counter_delta(kind.counter_name()),
                ledger.count(kind),
                "{name}: {} counter vs ledger ({})",
                kind.counter_name(),
                ledger.render()
            );
        }
    }
    std::fs::remove_dir_all(&base).ok();
}
