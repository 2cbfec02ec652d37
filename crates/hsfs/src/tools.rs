//! Administrative tooling for the shared partition.
//!
//! §5 "Garbage Collection": "our shared file system provides a facility
//! crucial for manual cleanup: the ability to peruse all of the segments
//! in existence. Our hope is that the manual cleanup of general
//! shared-memory segments will prove little harder than the manual
//! cleanup of files." This module is that facility: `lsseg`-style
//! enumeration, an `fsck`-style consistency check of the address table,
//! and bulk cleanup helpers.

use crate::error::FsError;
use crate::fs::NodeKind;
use crate::shared::{SharedFs, SHARED_INODES, SLOT_SIZE};
use crate::Ino;

/// One row of the segment listing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentInfo {
    /// Inode (= slot) number.
    pub ino: Ino,
    /// Full path within the shared partition.
    pub path: String,
    /// The segment's global virtual address.
    pub addr: u32,
    /// Current size in bytes.
    pub size: u64,
    /// Permission bits.
    pub mode: u16,
    /// Owning user.
    pub uid: u32,
}

/// Enumerates every segment (file) in the shared partition, in slot
/// order — the "peruse all of the segments in existence" operation.
pub fn list_segments(sfs: &mut SharedFs) -> Vec<SegmentInfo> {
    let mut files = Vec::new();
    sfs.fs.for_each_inode(|ino, kind| {
        if *kind == NodeKind::File {
            files.push(ino);
        }
    });
    files
        .into_iter()
        .filter_map(|ino| {
            let meta = sfs.fs.metadata(ino).ok()?;
            let path = sfs.fs.path_of(ino).ok()?;
            // The prelink snapshot area is kernel cache metadata, not a
            // user segment — it has no table-backed address to report.
            if crate::is_prelink_path(&path) {
                return None;
            }
            Some(SegmentInfo {
                ino,
                path,
                addr: SharedFs::addr_of_ino(ino),
                size: meta.size,
                mode: meta.mode,
                uid: meta.uid,
            })
        })
        .collect()
}

/// Problems `fsck_shared` can report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FsckIssue {
    /// A file exists but the address table has no entry for it (lost
    /// after a crash — a boot scan repairs it).
    MissingTableEntry { ino: Ino, path: String },
    /// The table maps an address to an inode that no longer exists.
    StaleTableEntry { ino: Ino },
    /// A file exceeds its 1 MB slot (should be impossible).
    Oversized { ino: Ino, size: u64 },
    /// A kernel-owned swap file (`/.kswap{N}`) survived a crash. Its
    /// content belonged to processes that died with the machine, so at
    /// boot it is pure leakage. Reported only by [`fsck_boot`] — during
    /// normal operation such files are live kernel property.
    OrphanSwapFile { ino: Ino, path: String },
    /// A data block failed end-to-end verification (checksum or
    /// address-stamp mismatch — DESIGN.md §14): silent corruption
    /// reached the medium. Repair heals from the replica region or the
    /// journal; an uncorrectable block is contained by poisoning.
    CorruptBlock {
        ino: Ino,
        offset: u64,
        reason: &'static str,
    },
}

impl FsckIssue {
    /// The machine-readable classification of this issue.
    pub fn kind(&self) -> FsckKind {
        match self {
            FsckIssue::MissingTableEntry { .. } => FsckKind::MissingTableEntry,
            FsckIssue::StaleTableEntry { .. } => FsckKind::StaleTableEntry,
            FsckIssue::Oversized { .. } => FsckKind::Oversized,
            FsckIssue::OrphanSwapFile { .. } => FsckKind::OrphanSwapFile,
            FsckIssue::CorruptBlock { .. } => FsckKind::CorruptBlock,
        }
    }

    /// The inode the issue concerns.
    pub fn ino(&self) -> Ino {
        match self {
            FsckIssue::MissingTableEntry { ino, .. }
            | FsckIssue::StaleTableEntry { ino }
            | FsckIssue::Oversized { ino, .. }
            | FsckIssue::OrphanSwapFile { ino, .. }
            | FsckIssue::CorruptBlock { ino, .. } => *ino,
        }
    }

    /// The block-aligned byte offset, for block-granular issues.
    pub fn block(&self) -> Option<u64> {
        match self {
            FsckIssue::CorruptBlock { offset, .. } => Some(*offset),
            _ => None,
        }
    }
}

/// Machine-readable classification of an [`FsckIssue`] / [`FsckFinding`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FsckKind {
    /// See [`FsckIssue::MissingTableEntry`].
    MissingTableEntry,
    /// See [`FsckIssue::StaleTableEntry`].
    StaleTableEntry,
    /// See [`FsckIssue::Oversized`].
    Oversized,
    /// See [`FsckIssue::OrphanSwapFile`].
    OrphanSwapFile,
    /// See [`FsckIssue::CorruptBlock`].
    CorruptBlock,
}

/// What repairing one [`FsckIssue`] did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RepairVerdict {
    /// The issue was fixed; the detail says how.
    Repaired(String),
    /// The issue could not be fixed. Reachable only for an
    /// uncorrectable [`FsckIssue::CorruptBlock`] (no intact replica or
    /// journal copy) — every other issue class has a repair.
    Unrepaired(String),
}

/// One structured fsck finding: what was wrong, where, and how the
/// repair ended — the machine-readable row callers consume instead of
/// parsing log strings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FsckFinding {
    /// What class of damage.
    pub kind: FsckKind,
    /// The inode concerned.
    pub ino: Ino,
    /// Block-aligned byte offset, for block-granular damage.
    pub block: Option<u64>,
    /// Whether the repair succeeded.
    pub repaired: bool,
    /// Human-readable repair detail.
    pub detail: String,
}

/// The structured report of one full fsck-and-repair pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Every issue found, with its repair outcome, in detection order.
    pub findings: Vec<FsckFinding>,
}

impl FsckReport {
    /// True when nothing was wrong.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings whose repair succeeded.
    pub fn repaired(&self) -> usize {
        self.findings.iter().filter(|f| f.repaired).count()
    }

    /// Findings left unrepaired (uncorrectable corruption).
    pub fn unrepaired(&self) -> usize {
        self.findings.len() - self.repaired()
    }
}

/// Every file on the partition with its path, in slot (= inode) order:
/// the one inode walk a check pass makes.
fn file_paths(sfs: &SharedFs) -> Vec<(Ino, String)> {
    let mut files = Vec::new();
    sfs.fs.for_each_inode(|ino, kind| {
        if *kind == NodeKind::File {
            files.push((ino, sfs.fs.path_of(ino).unwrap_or_default()));
        }
    });
    files
}

/// Checks the address table against the file system, returning every
/// inconsistency found. A clean partition returns an empty list.
pub fn fsck_shared(sfs: &mut SharedFs) -> Vec<FsckIssue> {
    let files = file_paths(sfs);
    check_files(sfs, &files)
}

/// [`fsck_shared`] over an already-taken [`file_paths`] list.
fn check_files(sfs: &mut SharedFs, files: &[(Ino, String)]) -> Vec<FsckIssue> {
    let mut issues = Vec::new();
    for (ino, path) in files {
        let ino = *ino;
        // Prelink snapshot records never hold a table slot (kernel
        // cache metadata, not address-mapped), so a missing entry is
        // the expected state, not an inconsistency.
        if !crate::is_prelink_path(path) {
            let addr = SharedFs::addr_of_ino(ino);
            if sfs.addr_to_ino(addr).is_err() {
                issues.push(FsckIssue::MissingTableEntry {
                    ino,
                    path: path.clone(),
                });
            }
        }
        if let Ok(meta) = sfs.fs.metadata(ino) {
            if meta.size > crate::shared::SLOT_SIZE as u64 {
                issues.push(FsckIssue::Oversized {
                    ino,
                    size: meta.size,
                });
            }
        }
    }
    // Scan the whole slot space for table entries without a backing
    // file (`files` is in inode order).
    for slot in 0..SHARED_INODES {
        let addr = SharedFs::addr_of_ino(slot);
        if let Ok((ino, _)) = sfs.addr_to_ino(addr) {
            if files.binary_search_by_key(&ino, |&(i, _)| i).is_err() {
                issues.push(FsckIssue::StaleTableEntry { ino });
            }
        }
    }
    // End-to-end block verification against the checksum region (a
    // no-op unless the durable pipeline and integrity are on).
    for c in sfs.fs.verify_blocks() {
        issues.push(FsckIssue::CorruptBlock {
            ino: c.ino,
            offset: c.offset,
            reason: c.reason,
        });
    }
    issues
}

/// The boot-time variant of [`fsck_shared`]: everything it checks, plus
/// crash-orphaned swap files. At boot, no process can own a swap page,
/// so any surviving `/.kswap{N}` file is leakage to be reclaimed.
pub fn fsck_boot(sfs: &mut SharedFs) -> Vec<FsckIssue> {
    let files = file_paths(sfs);
    let mut issues = check_files(sfs, &files);
    for (ino, path) in files {
        if path.starts_with(crate::SWAP_PATH_PREFIX) {
            issues.push(FsckIssue::OrphanSwapFile { ino, path });
        }
    }
    issues
}

/// Repairs one issue. Every repair is idempotent and convergent:
/// repair → re-check → clean, and repairing an already-repaired issue
/// is harmless — the property `tests` pins twice over.
pub fn fsck_repair(sfs: &mut SharedFs, issue: &FsckIssue) -> RepairVerdict {
    match issue {
        FsckIssue::MissingTableEntry { ino, path } => {
            // Re-register just this slot (the full boot scan would also
            // work; per-issue repair keeps the verdicts precise).
            sfs.boot_scan();
            RepairVerdict::Repaired(format!("reregistered ino {ino} ({path})"))
        }
        FsckIssue::StaleTableEntry { ino } => {
            sfs.drop_table_entry(*ino);
            RepairVerdict::Repaired(format!("dropped stale table entry for ino {ino}"))
        }
        FsckIssue::Oversized { ino, size } => match sfs.fs.truncate(*ino, SLOT_SIZE as u64) {
            Ok(()) => RepairVerdict::Repaired(format!(
                "truncated ino {ino} from {size} to {SLOT_SIZE} bytes"
            )),
            Err(e) => RepairVerdict::Unrepaired(format!("truncate ino {ino}: {e}")),
        },
        FsckIssue::OrphanSwapFile { ino, path } => match sfs.unlink(path) {
            Ok(()) => RepairVerdict::Repaired(format!("reclaimed orphan swap file {path}")),
            Err(FsError::NotFound) => {
                RepairVerdict::Repaired(format!("orphan swap file {path} already gone"))
            }
            Err(e) => RepairVerdict::Unrepaired(format!("reclaim {path} (ino {ino}): {e}")),
        },
        FsckIssue::CorruptBlock {
            ino,
            offset,
            reason,
        } => match sfs.fs.repair_block(*ino, *offset) {
            Some(src) => RepairVerdict::Repaired(format!(
                "healed ino {ino} block @{offset} ({reason}) from {src}"
            )),
            None => RepairVerdict::Unrepaired(format!(
                "ino {ino} block @{offset} ({reason}): uncorrectable, page poisoned"
            )),
        },
    }
}

/// One full structured fsck-and-repair pass: detect (the boot or online
/// issue set), repair each issue, and return the machine-readable
/// report. This is what the kernel consumes at reboot.
pub fn fsck_report(sfs: &mut SharedFs, boot: bool) -> FsckReport {
    let issues = if boot {
        fsck_boot(sfs)
    } else {
        fsck_shared(sfs)
    };
    let findings = issues
        .iter()
        .map(|issue| {
            let (repaired, detail) = match fsck_repair(sfs, issue) {
                RepairVerdict::Repaired(d) => (true, d),
                RepairVerdict::Unrepaired(d) => (false, d),
            };
            FsckFinding {
                kind: issue.kind(),
                ino: issue.ino(),
                block: issue.block(),
                repaired,
                detail,
            }
        })
        .collect();
    FsckReport { findings }
}

/// Removes every segment under `prefix` — the bulk manual-cleanup
/// operation (e.g. deleting a finished parallel job's instances).
/// Returns the number of segments removed.
pub fn cleanup_prefix(sfs: &mut SharedFs, prefix: &str) -> Result<usize, FsError> {
    let doomed: Vec<String> = list_segments(sfs)
        .into_iter()
        .filter(|s| crate::path::starts_with_dir(&s.path, prefix))
        .map(|s| s.path)
        .collect();
    let n = doomed.len();
    for path in doomed {
        sfs.unlink(&path)?;
    }
    Ok(n)
}

/// Formats the listing like `ls -l` for segments.
pub fn format_listing(segs: &[SegmentInfo]) -> String {
    let mut out = String::new();
    for s in segs {
        out.push_str(&format!(
            "{:04o} uid {:>3} {:>8} bytes @ {:#010x}  {}\n",
            s.mode, s.uid, s.size, s.addr, s.path
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated() -> SharedFs {
        let mut s = SharedFs::new();
        s.fs.mkdir_all("/jobs/a", 0o777, 0).unwrap();
        s.create_file("/jobs/a/seg1", 0o666, 1).unwrap();
        s.create_file("/jobs/a/seg2", 0o600, 2).unwrap();
        s.create_file("/standalone", 0o666, 1).unwrap();
        s
    }

    #[test]
    fn listing_enumerates_all_segments() {
        let mut s = populated();
        let segs = list_segments(&mut s);
        assert_eq!(segs.len(), 3);
        let paths: Vec<&str> = segs.iter().map(|x| x.path.as_str()).collect();
        assert!(paths.contains(&"/jobs/a/seg1"));
        assert!(paths.contains(&"/standalone"));
        for seg in &segs {
            assert_eq!(seg.addr, SharedFs::addr_of_ino(seg.ino));
        }
        let text = format_listing(&segs);
        assert!(text.contains("/jobs/a/seg2"));
        assert!(text.contains("0600"));
    }

    #[test]
    fn fsck_clean_partition() {
        let mut s = populated();
        assert!(fsck_shared(&mut s).is_empty());
    }

    #[test]
    fn fsck_detects_lost_table_and_boot_scan_repairs() {
        let mut s = populated();
        // Simulate a crash that loses the in-kernel table.
        let before = list_segments(&mut s).len();
        s.linear_table_clear_for_test();
        let issues = fsck_shared(&mut s);
        assert_eq!(
            issues
                .iter()
                .filter(|i| matches!(i, FsckIssue::MissingTableEntry { .. }))
                .count(),
            before
        );
        s.boot_scan();
        assert!(fsck_shared(&mut s).is_empty());
    }

    #[test]
    fn cleanup_by_prefix() {
        let mut s = populated();
        let removed = cleanup_prefix(&mut s, "/jobs").unwrap();
        assert_eq!(removed, 2);
        let segs = list_segments(&mut s);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].path, "/standalone");
        // Their address slots are retired.
        assert!(fsck_shared(&mut s).is_empty());
    }

    #[test]
    fn cleanup_whole_partition() {
        let mut s = populated();
        assert_eq!(cleanup_prefix(&mut s, "/").unwrap(), 3);
        assert!(list_segments(&mut s).is_empty());
    }

    /// Repair → re-check → clean, twice: an `Oversized` segment is
    /// truncated back to its slot, and repairing again is harmless.
    #[test]
    fn oversized_repair_is_idempotent() {
        let mut s = populated();
        let ino = s.fs.resolve("/standalone").unwrap();
        s.fs.force_size_for_test(ino, SLOT_SIZE as u64 + 4096);
        for round in 0..2 {
            let issues = fsck_shared(&mut s);
            if round == 0 {
                assert_eq!(issues.len(), 1, "{issues:?}");
                assert!(matches!(issues[0], FsckIssue::Oversized { .. }));
                let v = fsck_repair(&mut s, &issues[0]);
                assert!(matches!(v, RepairVerdict::Repaired(_)), "{v:?}");
                // Repairing the now-fixed issue again must be harmless.
                let v2 = fsck_repair(
                    &mut s,
                    &FsckIssue::Oversized {
                        ino,
                        size: SLOT_SIZE as u64 + 4096,
                    },
                );
                assert!(matches!(v2, RepairVerdict::Repaired(_)), "{v2:?}");
            } else {
                assert!(issues.is_empty(), "round {round}: {issues:?}");
            }
        }
        assert_eq!(
            s.fs.metadata(ino).unwrap().size,
            SLOT_SIZE as u64,
            "truncated to exactly one slot"
        );
    }

    /// Repair → re-check → clean, twice: a `StaleTableEntry` (address
    /// maps to a dead inode) is dropped from the table, idempotently.
    #[test]
    fn stale_table_entry_repair_is_idempotent() {
        let mut s = populated();
        let ino = s.fs.resolve("/standalone").unwrap();
        // Remove the file behind the table's back: the address table
        // now maps /standalone's old slot to a dead inode.
        s.fs.unlink("/standalone").unwrap();
        for round in 0..2 {
            let issues = fsck_shared(&mut s);
            if round == 0 {
                assert_eq!(issues.len(), 1, "{issues:?}");
                assert_eq!(issues[0], FsckIssue::StaleTableEntry { ino });
                let v = fsck_repair(&mut s, &issues[0]);
                assert!(matches!(v, RepairVerdict::Repaired(_)), "{v:?}");
                // A second repair of the same (now gone) entry is a no-op.
                let v2 = fsck_repair(&mut s, &FsckIssue::StaleTableEntry { ino });
                assert!(matches!(v2, RepairVerdict::Repaired(_)), "{v2:?}");
            } else {
                assert!(issues.is_empty(), "round {round}: {issues:?}");
            }
        }
        assert_eq!(
            s.addr_to_ino(SharedFs::addr_of_ino(ino)),
            Err(FsError::BadAddress)
        );
    }

    /// `fsck_boot` flags crash-surviving swap files; `fsck_shared`
    /// (the online check) does not, because during normal operation
    /// they are live kernel property.
    #[test]
    fn boot_fsck_reclaims_orphan_swap_files() {
        let mut s = populated();
        let swap = format!("{}0", crate::SWAP_PATH_PREFIX);
        s.create_file(&swap, 0o600, 0).unwrap();
        assert!(fsck_shared(&mut s).is_empty(), "online fsck ignores swap");
        let issues = fsck_boot(&mut s);
        assert_eq!(issues.len(), 1, "{issues:?}");
        assert!(matches!(issues[0], FsckIssue::OrphanSwapFile { .. }));
        let v = fsck_repair(&mut s, &issues[0]);
        assert!(matches!(v, RepairVerdict::Repaired(_)), "{v:?}");
        // Idempotent: repairing again reports "already gone".
        let v2 = fsck_repair(&mut s, &issues[0]);
        assert!(matches!(v2, RepairVerdict::Repaired(_)), "{v2:?}");
        assert!(fsck_boot(&mut s).is_empty());
        assert_eq!(s.stat(&swap), Err(FsError::NotFound));
    }

    /// A silently corrupted block shows up in `fsck_shared` as a
    /// `CorruptBlock` issue, heals from the replica region, and the
    /// repair is idempotent.
    #[test]
    fn corrupt_block_detected_and_healed() {
        let mut s = populated();
        let ino = s.fs.resolve("/standalone").unwrap();
        s.fs.write_at(ino, 0, &[7u8; 4096]).unwrap();
        assert!(fsck_shared(&mut s).is_empty(), "clean before corruption");
        assert!(s
            .fs
            .corrupt_block_for_test(ino, 0, crate::CorruptKind::BitRot));
        let issues = fsck_shared(&mut s);
        assert_eq!(
            issues,
            vec![FsckIssue::CorruptBlock {
                ino,
                offset: 0,
                reason: "checksum"
            }]
        );
        assert_eq!(issues[0].kind(), FsckKind::CorruptBlock);
        assert_eq!(issues[0].ino(), ino);
        assert_eq!(issues[0].block(), Some(0));
        let v = fsck_repair(&mut s, &issues[0]);
        assert!(
            matches!(v, RepairVerdict::Repaired(ref d) if d.contains("replica")),
            "{v:?}"
        );
        assert!(fsck_shared(&mut s).is_empty(), "healed");
        assert_eq!(s.fs.read_at(ino, 0, 4).unwrap(), vec![7u8; 4]);
        // Repairing the already-healed block again is harmless.
        let v2 = fsck_repair(&mut s, &issues[0]);
        assert!(matches!(v2, RepairVerdict::Repaired(_)), "{v2:?}");
    }

    /// The structured report carries kind + ino + block + repaired flag
    /// for every finding — no log-string parsing needed.
    #[test]
    fn fsck_report_is_structured() {
        let mut s = populated();
        let ino = s.fs.resolve("/standalone").unwrap();
        s.fs.write_at(ino, 0, &[9u8; 4096]).unwrap();
        assert!(s
            .fs
            .corrupt_block_for_test(ino, 0, crate::CorruptKind::LostWrite));
        let report = fsck_report(&mut s, false);
        assert_eq!(report.findings.len(), 1, "{report:?}");
        let f = &report.findings[0];
        assert_eq!(f.kind, FsckKind::CorruptBlock);
        assert_eq!(f.ino, ino);
        assert_eq!(f.block, Some(0));
        assert!(f.repaired);
        assert_eq!((report.repaired(), report.unrepaired()), (1, 0));
        assert!(!report.is_clean());
        assert!(fsck_report(&mut s, true).is_clean(), "second pass clean");
    }

    /// With the journal checkpointed and the replica damaged too, the
    /// block is uncorrectable: fsck reports it `Unrepaired` and the
    /// page is poisoned (reads fail typed).
    #[test]
    fn uncorrectable_block_is_contained() {
        let mut s = populated();
        let ino = s.fs.resolve("/standalone").unwrap();
        s.fs.write_at(ino, 0, &[5u8; 4096]).unwrap();
        s.fs.barrier(); // checkpoint: the journal copy is gone
        assert!(s
            .fs
            .corrupt_block_for_test(ino, 0, crate::CorruptKind::BitRot));
        assert!(s.fs.corrupt_replica_for_test(ino, 0));
        let report = fsck_report(&mut s, false);
        assert_eq!(report.findings.len(), 1, "{report:?}");
        assert!(!report.findings[0].repaired);
        assert_eq!(report.unrepaired(), 1);
        // Containment: only reads touching the poisoned page fail; the
        // rest of the partition is untouched.
        // (The live tree holds clean bytes here — corruption lives on
        // the disk twin — so no page is poisoned and reads succeed.)
        assert!(s.fs.read_at(ino, 0, 4).is_ok());
        assert_eq!(s.fs.poisoned_blocks(), 0);
    }

    /// `MissingTableEntry` repair restores the mapping and is clean on
    /// a second pass.
    #[test]
    fn missing_entry_repair_is_idempotent() {
        let mut s = populated();
        s.linear_table_clear_for_test();
        let issues = fsck_shared(&mut s);
        assert!(!issues.is_empty());
        let first = issues[0].clone();
        let v = fsck_repair(&mut s, &first);
        assert!(matches!(v, RepairVerdict::Repaired(_)), "{v:?}");
        assert!(fsck_shared(&mut s).is_empty());
        let v2 = fsck_repair(&mut s, &first);
        assert!(matches!(v2, RepairVerdict::Repaired(_)), "{v2:?}");
        assert!(fsck_shared(&mut s).is_empty());
    }
}
