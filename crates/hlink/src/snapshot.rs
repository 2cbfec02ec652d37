//! Persistent prelink snapshots: cross-boot link-state caching.
//!
//! Hemlock's central invariant — a sharable segment's virtual address is
//! `SHARED_BASE + ino * SLOT_SIZE` in *every* protection domain and
//! across *every* boot — means a resolved link map never goes stale by
//! relocation. What can go stale is the *content* it was resolved
//! against: a module rewritten, its metadata record replaced, the scope
//! configuration changed, a slot reassigned to a different file. So
//! after each successful resolve the linker stages what this process
//! knows of its link map and the modules' metadata records do not
//! (per module: path, inode, lazy bit, pendings and trampoline use as
//! this process saw them, DAG parents; for the image: its patch list,
//! trampoline targets, pendings and warnings) as a versioned,
//! checksummed record, and the embedder writes the staged record once
//! per process lifetime (at exit, kill, barrier or clean halt) under
//! [`hsfs::PRELINK_DIR_INNER`] on the shared partition, keyed by:
//!
//! * the **scope hash** — a digest of the executable image, the runtime
//!   `LD_LIBRARY_PATH`, and the working directory (everything that
//!   steers scoped resolution);
//! * per-module **digests** — the CRC-32 of the instance file and the
//!   envelope trailer of its metadata record (the CRC-32 of the
//!   record's payload) — checked on every consult.
//!
//! A valid snapshot maps every recorded segment directly at its slot
//! address, taking layout, exports and search information from the
//! metadata records validation has just read, and replays the
//! image-owned patches — no export-index search, no trampoline
//! synthesis. The embedder prices the whole validation flat
//! (`snapshot_validate_ns`) instead of per symbol, which is why all
//! snapshot I/O runs under [`hsfs::Vfs::unpriced`]. Staleness or
//! corruption yields a typed [`LinkError::BadSnapshot`]-class
//! rejection, full resolution, and an atomic rebuild through the
//! ordinary (journaled) write path — so crash-point enumeration and
//! scrub/heal cover snapshot blocks for free, and a snapshot torn by a
//! power cut simply fails its envelope checksum at the next boot.

use crate::error::LinkError;
use crate::meta::ModuleMeta;
use hobj::binfmt::{crc32, reloc_kind_from, reloc_kind_tag, BinError, Reader, Writer};
use hobj::{ImageReloc, LoadImage, RelocKind, ShareClass};
use hsfs::vfs::Mount;
use hsfs::{Ino, Vfs};

/// Magic for prelink snapshot records ("HSNP").
pub const SNAP_MAGIC: u32 = 0x504E_5348;

/// One module instance's resolved link state: only what the process
/// knows and the module's metadata record does not. Layout, exports and
/// search information are read from that record on a hit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapModule {
    /// Module name.
    pub name: String,
    /// Sharing class (always a public class — private instances live at
    /// per-process addresses and are never snapshotted).
    pub class: ShareClass,
    /// Unified-namespace path of the instance file.
    pub path: String,
    /// Shared-partition inode backing the instance (its slot address
    /// follows from it).
    pub ino: Ino,
    /// Still awaiting its first touch (mapped without access).
    pub lazy: bool,
    /// Trampoline bytes used, as this process saw them.
    pub tramp_used: u32,
    /// Relocations still unresolved, as this process saw them.
    pub pending: Vec<ImageReloc>,
    /// Link-DAG parents, in registration order.
    pub parents: Vec<String>,
    /// CRC-32 of the instance file's bytes at snapshot time.
    pub content_digest: u32,
    /// The metadata record's envelope trailer (the CRC-32 of its
    /// payload) at snapshot time.
    pub meta_digest: u32,
}

/// The whole resolved link map of one executable.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PrelinkSnapshot {
    /// Digest of everything that steers resolution: the image itself,
    /// the runtime `LD_LIBRARY_PATH`, the working directory.
    pub scope_hash: u32,
    /// `image_tramp.2` after the resolve (initial + replayed).
    pub image_tramp_used: u32,
    /// Targets of image-owned runtime trampolines, in allocation order
    /// (their addresses follow from the image's trampoline base).
    pub tramp_targets: Vec<u32>,
    /// Image-owned patches applied at init: (site, kind, final value) —
    /// replayed verbatim into the fresh private image on a hit.
    pub image_patches: Vec<(u32, RelocKind, u32)>,
    /// Image references still unresolved after the eager pass.
    pub image_pending: Vec<ImageReloc>,
    /// Warnings init produced (dynamic modules that were not found) —
    /// replayed so a hit is observably identical to the cold path.
    pub warnings: Vec<String>,
    /// Every module instance, sorted by name (deterministic encoding).
    pub modules: Vec<SnapModule>,
}

fn class_tag(c: ShareClass) -> u8 {
    match c {
        ShareClass::StaticPrivate => 0,
        ShareClass::DynamicPrivate => 1,
        ShareClass::StaticPublic => 2,
        ShareClass::DynamicPublic => 3,
    }
}

fn class_from(tag: u8) -> Result<ShareClass, BinError> {
    Ok(match tag {
        0 => ShareClass::StaticPrivate,
        1 => ShareClass::DynamicPrivate,
        2 => ShareClass::StaticPublic,
        3 => ShareClass::DynamicPublic,
        _ => return Err(BinError::Malformed("share class tag")),
    })
}

fn put_relocs(w: &mut Writer, relocs: &[ImageReloc]) {
    w.u32(relocs.len() as u32);
    for p in relocs {
        w.u32(p.addr);
        w.u8(reloc_kind_tag(p.kind));
        w.str(&p.symbol);
        w.i32(p.addend);
    }
}

fn get_relocs(r: &mut Reader) -> Result<Vec<ImageReloc>, BinError> {
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(65536));
    for _ in 0..n {
        let addr = r.u32()?;
        let kind = reloc_kind_from(r.u8()?)?;
        let symbol = r.str()?;
        let addend = r.i32()?;
        out.push(ImageReloc {
            addr,
            kind,
            symbol,
            addend,
        });
    }
    Ok(out)
}

impl PrelinkSnapshot {
    /// Serializes the record (binfmt envelope: magic, version, CRC-32
    /// trailer — "versioned, checksummed" comes with the format).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new(SNAP_MAGIC);
        w.u32(self.scope_hash);
        w.u32(self.image_tramp_used);
        w.u32(self.tramp_targets.len() as u32);
        for t in &self.tramp_targets {
            w.u32(*t);
        }
        w.u32(self.image_patches.len() as u32);
        for (addr, kind, value) in &self.image_patches {
            w.u32(*addr);
            w.u8(reloc_kind_tag(*kind));
            w.u32(*value);
        }
        put_relocs(&mut w, &self.image_pending);
        w.str_list(&self.warnings);
        w.u32(self.modules.len() as u32);
        for m in &self.modules {
            w.str(&m.name);
            w.u8(class_tag(m.class));
            w.str(&m.path);
            w.u32(m.ino);
            w.u8(m.lazy as u8);
            w.u32(m.tramp_used);
            put_relocs(&mut w, &m.pending);
            w.str_list(&m.parents);
            w.u32(m.content_digest);
            w.u32(m.meta_digest);
        }
        w.finish()
    }

    /// Deserializes a record; any structural problem is a [`BinError`],
    /// never a panic (satellite: fuzzed bytes must fall back cleanly).
    pub fn decode(buf: &[u8]) -> Result<PrelinkSnapshot, BinError> {
        let mut r = Reader::open(buf, SNAP_MAGIC)?;
        let scope_hash = r.u32()?;
        let image_tramp_used = r.u32()?;
        let ntramp = r.u32()? as usize;
        let mut tramp_targets = Vec::with_capacity(ntramp.min(65536));
        for _ in 0..ntramp {
            tramp_targets.push(r.u32()?);
        }
        let npatch = r.u32()? as usize;
        let mut image_patches = Vec::with_capacity(npatch.min(65536));
        for _ in 0..npatch {
            let addr = r.u32()?;
            let kind = reloc_kind_from(r.u8()?)?;
            let value = r.u32()?;
            image_patches.push((addr, kind, value));
        }
        let image_pending = get_relocs(&mut r)?;
        let warnings = r.str_list()?;
        let nmod = r.u32()? as usize;
        let mut modules = Vec::with_capacity(nmod.min(4096));
        for _ in 0..nmod {
            let name = r.str()?;
            let class = class_from(r.u8()?)?;
            let path = r.str()?;
            let ino = r.u32()?;
            let lazy = r.u8()? != 0;
            let tramp_used = r.u32()?;
            let pending = get_relocs(&mut r)?;
            let parents = r.str_list()?;
            let content_digest = r.u32()?;
            let meta_digest = r.u32()?;
            modules.push(SnapModule {
                name,
                class,
                path,
                ino,
                lazy,
                tramp_used,
                pending,
                parents,
                content_digest,
                meta_digest,
            });
        }
        r.done()?;
        Ok(PrelinkSnapshot {
            scope_hash,
            image_tramp_used,
            tramp_targets,
            image_patches,
            image_pending,
            warnings,
            modules,
        })
    }

    /// Validates the snapshot against the current world and returns
    /// each module's metadata record, in `modules` order. `Ok` means
    /// every recorded segment is still the file it was, with the bytes
    /// and the metadata record it was resolved against. `Err` carries a
    /// human-readable staleness reason.
    ///
    /// The caller prices this flat (`snapshot_validate_ns`) and wraps
    /// the call in [`Vfs::unpriced`].
    pub fn validate(&self, vfs: &mut Vfs, scope_hash: u32) -> Result<Vec<ModuleMeta>, String> {
        if self.scope_hash != scope_hash {
            return Err("scope changed (image, LD_LIBRARY_PATH, or cwd)".into());
        }
        let mut metas = Vec::with_capacity(self.modules.len());
        for m in &self.modules {
            let v = vfs
                .resolve(&m.path)
                .map_err(|_| format!("module `{}`: instance file vanished", m.name))?;
            if v.mount != Mount::Shared || v.ino != m.ino {
                return Err(format!("module `{}`: address reassigned", m.name));
            }
            // The checksum region vouches for the bytes when it can;
            // otherwise they are read and hashed.
            let content = match vfs.shared.fs.durable_digest(v.ino) {
                Some(crc) => crc,
                None => crc32(
                    &vfs.read_all(&m.path)
                        .map_err(|_| format!("module `{}`: instance unreadable", m.name))?,
                ),
            };
            if content != m.content_digest {
                return Err(format!("module `{}`: content rewritten", m.name));
            }
            let raw = vfs
                .read_all(&ModuleMeta::path_for(m.ino))
                .map_err(|_| format!("module `{}`: metadata vanished", m.name))?;
            // Decoding checks the trailer against the payload, so the
            // trailer alone stands for the record's bytes.
            let (meta, crc) = ModuleMeta::decode_with_crc(&raw)
                .map_err(|_| format!("module `{}`: metadata corrupt", m.name))?;
            if crc != m.meta_digest {
                return Err(format!("module `{}`: metadata changed", m.name));
            }
            metas.push(meta);
        }
        Ok(metas)
    }
}

/// The snapshot file for an executable, in the unified namespace. Keyed
/// by sanitized image name: one snapshot per executable, rewritten in
/// place, so the system area's inode usage is bounded by the number of
/// distinct programs — not by boots or rebuilds.
pub fn path_for(vfs: &Vfs, image_name: &str) -> String {
    let safe: String = image_name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    let safe = if safe.is_empty() {
        "_".to_string()
    } else {
        safe
    };
    format!("{}/{}.snap", vfs.prelink_dir(), safe)
}

/// Digest of everything that steers scoped resolution for one
/// executable: the image bytes themselves (exports, pendings, dynamic
/// list, recorded strategy), the runtime `LD_LIBRARY_PATH`, and the
/// working directory. Any change ⇒ a different hash ⇒ invalidation.
pub fn scope_hash(image: &LoadImage, ld_library_path: Option<&str>, cwd: &str) -> u32 {
    let mut buf = hobj::binfmt::encode_image(image);
    // The envelope ends with its own CRC-32 trailer, and the CRC of a
    // message followed by its CRC is a *constant* — hashing the whole
    // envelope would make every image hash alike. Strip the trailer so
    // the hash depends on the content again.
    buf.truncate(buf.len().saturating_sub(4));
    buf.extend_from_slice(b"\0env\0");
    buf.extend_from_slice(ld_library_path.unwrap_or("").as_bytes());
    buf.extend_from_slice(b"\0cwd\0");
    buf.extend_from_slice(cwd.as_bytes());
    crc32(&buf)
}

/// Loads and decodes the snapshot at `path`. Distinguishes the three
/// outcomes the linker prices differently: `Ok(None)` — no snapshot
/// (a free miss); `Ok(Some(..))` — a decoded record (validation still
/// pending); `Err(BadSnapshot)` — bytes exist but are corrupt or
/// truncated (a priced invalidation, never a panic).
pub fn load(vfs: &mut Vfs, path: &str) -> Result<Option<PrelinkSnapshot>, LinkError> {
    let raw = match vfs.unpriced(|v| v.read_all(path)) {
        Ok(b) => b,
        Err(hsfs::FsError::NotFound) => return Ok(None),
        Err(e) => {
            return Err(LinkError::BadSnapshot {
                path: path.to_string(),
                why: format!("unreadable: {e}"),
            })
        }
    };
    match PrelinkSnapshot::decode(&raw) {
        Ok(s) => Ok(Some(s)),
        Err(e) => Err(LinkError::BadSnapshot {
            path: path.to_string(),
            why: e.to_string(),
        }),
    }
}

/// What [`store`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreOutcome {
    /// The record was written (or rewritten).
    Written,
    /// The stored record was already byte-identical; nothing moved.
    Unchanged,
    /// The write could not complete (chaos, no space). The caller
    /// absorbs this silently: a failed store only costs the *next*
    /// run its warm path.
    Failed,
}

/// Writes (or rewrites) the snapshot at `path` through the ordinary —
/// journaled — write path, unpriced.
pub fn store(vfs: &mut Vfs, path: &str, snap: &PrelinkSnapshot) -> StoreOutcome {
    let bytes = snap.encode();
    let dir = vfs.prelink_dir();
    vfs.unpriced(|v| {
        // Skip the write (and its journal traffic) when the on-disk
        // record is already byte-identical — a warm program whose link
        // map did not change since its last lifetime rewrites nothing,
        // and the crash-point write stream stays small.
        if v.read_all(path).is_ok_and(|old| old == bytes) {
            return StoreOutcome::Unchanged;
        }
        if v.mkdir_all(&dir, 0o777, 0).is_ok() && v.write_file(path, &bytes, 0o666, 0).is_ok() {
            StoreOutcome::Written
        } else {
            StoreOutcome::Failed
        }
    })
}

/// Removes the snapshot at `path` (used when the resolved link map
/// contains private instances, which cannot be cached cross-process).
pub fn remove(vfs: &mut Vfs, path: &str) {
    vfs.unpriced(|v| {
        let _ = v.unlink(path);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PrelinkSnapshot {
        PrelinkSnapshot {
            scope_hash: 0xDEAD_BEEF,
            image_tramp_used: 24,
            tramp_targets: vec![0x3010_0000],
            image_patches: vec![(0x0040_0010, RelocKind::Word32, 0x3010_0004)],
            image_pending: vec![ImageReloc {
                addr: 0x0040_0020,
                kind: RelocKind::Jump26,
                symbol: "ghost".into(),
                addend: -4,
            }],
            warnings: vec!["ldl: cannot find dynamic module `ghost`".into()],
            modules: vec![SnapModule {
                name: "mod7".into(),
                class: ShareClass::DynamicPublic,
                path: "/shared/lib/mod7".into(),
                ino: 7,
                lazy: false,
                tramp_used: 12,
                pending: vec![],
                parents: vec!["<main>".into()],
                content_digest: 0x1234_5678,
                meta_digest: 0x8765_4321,
            }],
        }
    }

    #[test]
    fn round_trip() {
        let s = sample();
        assert_eq!(PrelinkSnapshot::decode(&s.encode()), Ok(s));
    }

    #[test]
    fn corrupt_bytes_rejected_not_panicked() {
        let good = sample().encode();
        // Flip every byte position in turn: decode must return an error
        // or an (unequal) record — never panic. The envelope CRC makes
        // "unequal record" unreachable in practice, but the property we
        // pin is no-panic + no-false-accept.
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0xA5;
            if let Ok(s) = PrelinkSnapshot::decode(&bad) {
                assert_eq!(s, sample(), "CRC collision would be astonishing");
            }
        }
        // Truncations, including cutting the envelope itself.
        for len in 0..good.len() {
            assert!(PrelinkSnapshot::decode(&good[..len]).is_err());
        }
    }

    #[test]
    fn path_is_sanitized_and_stable() {
        let vfs = Vfs::new();
        assert_eq!(path_for(&vfs, "chain"), "/shared/.prelink/chain.snap");
        assert_eq!(
            path_for(&vfs, "/bin/rwho v2"),
            "/shared/.prelink/_bin_rwho_v2.snap"
        );
        assert_eq!(path_for(&vfs, ""), "/shared/.prelink/_.snap");
    }

    #[test]
    fn scope_hash_tracks_its_inputs() {
        let img = LoadImage {
            name: "p".into(),
            ..Default::default()
        };
        let h = scope_hash(&img, None, "/");
        assert_eq!(h, scope_hash(&img, None, "/"), "deterministic");
        assert_ne!(h, scope_hash(&img, Some("/lib"), "/"), "env matters");
        assert_ne!(h, scope_hash(&img, None, "/home"), "cwd matters");
        let img2 = LoadImage {
            name: "q".into(),
            ..Default::default()
        };
        assert_ne!(h, scope_hash(&img2, None, "/"), "image matters");
    }

    #[test]
    fn load_store_remove_via_vfs() {
        let mut vfs = Vfs::new();
        let path = path_for(&vfs, "prog");
        assert_eq!(load(&mut vfs, &path), Ok(None), "absent is a miss");
        let s = sample();
        assert_eq!(store(&mut vfs, &path, &s), StoreOutcome::Written);
        assert_eq!(load(&mut vfs, &path), Ok(Some(s.clone())));
        // A byte-identical store is a no-op (no journal traffic).
        let stamp = vfs.shared.fs.content_stamp();
        assert_eq!(store(&mut vfs, &path, &s), StoreOutcome::Unchanged);
        assert_eq!(vfs.shared.fs.content_stamp(), stamp);
        // Corrupt the stored bytes: load must yield BadSnapshot.
        let mut raw = vfs.read_all(&path).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0xFF;
        vfs.write(&path, 0, &raw).unwrap();
        match load(&mut vfs, &path) {
            Err(LinkError::BadSnapshot { .. }) => {}
            other => panic!("expected BadSnapshot, got {other:?}"),
        }
        remove(&mut vfs, &path);
        assert_eq!(load(&mut vfs, &path), Ok(None));
    }

    #[test]
    fn store_does_not_bill_or_stamp() {
        let mut vfs = Vfs::new();
        let stats = vfs.shared.fs.stats;
        let stamp = vfs.shared.fs.content_stamp();
        let path = path_for(&vfs, "prog");
        assert_eq!(store(&mut vfs, &path, &sample()), StoreOutcome::Written);
        assert_eq!(vfs.shared.fs.stats, stats, "snapshot writes are unpriced");
        assert_eq!(
            vfs.shared.fs.content_stamp(),
            stamp,
            "cache writes are not content changes"
        );
    }
}
