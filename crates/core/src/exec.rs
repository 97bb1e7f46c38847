//! Workload execution: turning [`vfs::Op`]s into system calls.
//!
//! The executor is shared between the recorded run and the oracle run so
//! both materialize byte-identical writes. It tracks the descriptor-slot
//! table that slot-addressed operations reference and reports, per
//! operation, the path the operation targeted (used by the checker's
//! data-write relaxation and the weak-guarantee fsync check).

use vfs::{
    workload::fill_data,
    FileSystem, FsError, FsResult, Op, OpenFlags,
};

/// Result of executing one operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpResult {
    /// The system-call result (`Ok` or the errno).
    pub result: Result<(), FsError>,
    /// The primary path the operation addressed, if resolvable.
    pub target: Option<String>,
}

/// Executes workload operations against a [`FileSystem`], maintaining the
/// descriptor-slot table.
#[derive(Debug, Default, Clone)]
pub struct Executor {
    slots: Vec<Option<(vfs::Fd, String)>>,
}

impl Executor {
    /// Creates a fresh executor (empty slot table).
    pub fn new() -> Self {
        Executor::default()
    }

    fn slot(&self, i: usize) -> FsResult<(vfs::Fd, String)> {
        self.slots.get(i).and_then(|s| s.clone()).ok_or(FsError::BadFd)
    }

    fn set_slot<F: FileSystem>(&mut self, fs: &mut F, i: usize, v: Option<(vfs::Fd, String)>) {
        if self.slots.len() <= i {
            self.slots.resize(i + 1, None);
        }
        // Close whatever previously occupied the slot.
        if let Some((old, _)) = self.slots[i].take() {
            let _ = fs.close(old);
        }
        self.slots[i] = v;
    }

    /// Executes `op` (the `seq`-th operation of the workload) on `fs`.
    pub fn exec<F: FileSystem>(&mut self, fs: &mut F, op: &Op, seq: usize) -> OpResult {
        match op {
            Op::Creat { path } => OpResult { result: fs.creat(path), target: Some(path.clone()) },
            Op::Mkdir { path } => OpResult { result: fs.mkdir(path), target: Some(path.clone()) },
            Op::Rmdir { path } => OpResult { result: fs.rmdir(path), target: Some(path.clone()) },
            Op::Unlink { path } => {
                OpResult { result: fs.unlink(path), target: Some(path.clone()) }
            }
            Op::Remove { path } => {
                let r = match fs.unlink(path) {
                    Err(FsError::IsDir) => fs.rmdir(path),
                    other => other,
                };
                OpResult { result: r, target: Some(path.clone()) }
            }
            Op::Link { old, new } => {
                OpResult { result: fs.link(old, new), target: Some(new.clone()) }
            }
            Op::Rename { old, new } => {
                let r = fs.rename(old, new);
                if r.is_ok() {
                    // Keep slot paths current: a rename of the opened file
                    // (or any ancestor directory) changes where the
                    // descriptor's inode is visible, and the checker's
                    // data-write relaxation keys on that path.
                    //
                    // Known hole (ROADMAP item 1): a slot's path is only
                    // rebound here. After `link` + `unlink` (or a rename
                    // *onto* the slot's path) it still names a path the
                    // inode no longer has, e.g. `/x0` for a file now only
                    // at `/d0/f0`. The oracle's shared snapshot then misses
                    // the write, which flags a false positive on fixed
                    // PMFS and NOVA (fuzz seed 0xc41f); and the write's
                    // crash scope misses the live name, so the scoped walk
                    // cannot see a real lost write there. The fix keys
                    // slots by inode, not by path.
                    for s in self.slots.iter_mut().flatten() {
                        if s.1 == *old {
                            s.1 = new.clone();
                        } else if let Some(rest) = s.1.strip_prefix(old.as_str()) {
                            if rest.starts_with('/') {
                                s.1 = format!("{new}{rest}");
                            }
                        }
                    }
                }
                OpResult { result: r, target: Some(new.clone()) }
            }
            Op::Truncate { path, size } => {
                OpResult { result: fs.truncate(path, *size), target: Some(path.clone()) }
            }
            Op::WritePath { path, off, size } => {
                let r = (|| {
                    let fd = fs.open(path, OpenFlags::CREATE)?;
                    let data = fill_data(seq, *off, *size as usize);
                    let w = fs.pwrite(fd, *off, &data);
                    let c = fs.close(fd);
                    w?;
                    c
                })();
                OpResult { result: r, target: Some(path.clone()) }
            }
            Op::FallocPath { path, mode, off, len } => {
                let r = (|| {
                    let fd = fs.open(path, OpenFlags::CREATE)?;
                    let f = fs.fallocate(fd, *mode, *off, *len);
                    let c = fs.close(fd);
                    f?;
                    c
                })();
                OpResult { result: r, target: Some(path.clone()) }
            }
            Op::FsyncPath { path } => {
                let r = (|| {
                    let fd = fs.open(path, OpenFlags::RDWR)?;
                    let s = fs.fsync(fd);
                    let c = fs.close(fd);
                    s?;
                    c
                })();
                OpResult { result: r, target: Some(path.clone()) }
            }
            Op::Open { slot, path, flags } => match fs.open(path, *flags) {
                Ok(fd) => {
                    self.set_slot(fs, *slot, Some((fd, path.clone())));
                    OpResult { result: Ok(()), target: Some(path.clone()) }
                }
                Err(e) => OpResult { result: Err(e), target: Some(path.clone()) },
            },
            Op::Close { slot } => match self.slot(*slot) {
                Ok((fd, path)) => {
                    self.slots[*slot] = None;
                    OpResult { result: fs.close(fd), target: Some(path) }
                }
                Err(e) => OpResult { result: Err(e), target: None },
            },
            Op::Write { slot, size } => match self.slot(*slot) {
                Ok((fd, path)) => {
                    let data = fill_data(seq, 0, *size as usize);
                    OpResult { result: fs.write(fd, &data).map(|_| ()), target: Some(path) }
                }
                Err(e) => OpResult { result: Err(e), target: None },
            },
            Op::Pwrite { slot, off, size } => match self.slot(*slot) {
                Ok((fd, path)) => {
                    let data = fill_data(seq, *off, *size as usize);
                    OpResult {
                        result: fs.pwrite(fd, *off, &data).map(|_| ()),
                        target: Some(path),
                    }
                }
                Err(e) => OpResult { result: Err(e), target: None },
            },
            Op::Falloc { slot, mode, off, len } => match self.slot(*slot) {
                Ok((fd, path)) => {
                    OpResult { result: fs.fallocate(fd, *mode, *off, *len), target: Some(path) }
                }
                Err(e) => OpResult { result: Err(e), target: None },
            },
            Op::Fsync { slot } => match self.slot(*slot) {
                Ok((fd, path)) => OpResult { result: fs.fsync(fd), target: Some(path) },
                Err(e) => OpResult { result: Err(e), target: None },
            },
            Op::Fdatasync { slot } => match self.slot(*slot) {
                Ok((fd, path)) => OpResult { result: fs.fdatasync(fd), target: Some(path) },
                Err(e) => OpResult { result: Err(e), target: None },
            },
            Op::Sync => OpResult { result: fs.sync(), target: None },
            Op::Read { slot, off, len } => match self.slot(*slot) {
                Ok((fd, path)) => {
                    let mut buf = vec![0u8; (*len as usize).min(1 << 20)];
                    OpResult {
                        result: fs.pread(fd, *off, &mut buf).map(|_| ()),
                        target: Some(path),
                    }
                }
                Err(e) => OpResult { result: Err(e), target: None },
            },
            Op::SetXattr { path, name, value } => {
                OpResult { result: fs.setxattr(path, name, value), target: Some(path.clone()) }
            }
            Op::RemoveXattr { path, name } => {
                OpResult { result: fs.removexattr(path, name), target: Some(path.clone()) }
            }
            Op::SetCpu { cpu } => {
                fs.set_cpu(*cpu);
                OpResult { result: Ok(()), target: None }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfs::model::ModelFs;

    #[test]
    fn slot_table_open_write_close() {
        let mut m = ModelFs::new();
        let mut ex = Executor::new();
        let ops = [Op::Creat { path: "/f".into() },
            Op::Open { slot: 0, path: "/f".into(), flags: OpenFlags::RDWR },
            Op::Pwrite { slot: 0, off: 0, size: 10 },
            Op::Close { slot: 0 }];
        for (i, op) in ops.iter().enumerate() {
            let r = ex.exec(&mut m, op, i);
            assert!(r.result.is_ok(), "{op:?}: {r:?}");
        }
        assert_eq!(m.read_file("/f").unwrap(), fill_data(2, 0, 10));
    }

    #[test]
    fn bad_slot_reports_badfd() {
        let mut m = ModelFs::new();
        let mut ex = Executor::new();
        let r = ex.exec(&mut m, &Op::Write { slot: 3, size: 8 }, 0);
        assert_eq!(r.result, Err(FsError::BadFd));
    }

    #[test]
    fn remove_dispatches_on_type() {
        let mut m = ModelFs::new();
        let mut ex = Executor::new();
        ex.exec(&mut m, &Op::Mkdir { path: "/d".into() }, 0);
        ex.exec(&mut m, &Op::Creat { path: "/f".into() }, 1);
        assert!(ex.exec(&mut m, &Op::Remove { path: "/d".into() }, 2).result.is_ok());
        assert!(ex.exec(&mut m, &Op::Remove { path: "/f".into() }, 3).result.is_ok());
        assert!(m.stat("/d").is_err());
        assert!(m.stat("/f").is_err());
    }

    #[test]
    fn rename_keeps_slot_paths_current() {
        let mut m = ModelFs::new();
        let mut ex = Executor::new();
        ex.exec(&mut m, &Op::Mkdir { path: "/d".into() }, 0);
        ex.exec(&mut m, &Op::Open { slot: 0, path: "/d/f".into(), flags: OpenFlags::CREAT_TRUNC }, 1);
        ex.exec(&mut m, &Op::Open { slot: 1, path: "/db".into(), flags: OpenFlags::CREAT_TRUNC }, 2);
        // Ancestor rename: the slot's path must follow the move; the
        // similarly-prefixed sibling must not.
        ex.exec(&mut m, &Op::Rename { old: "/d".into(), new: "/e".into() }, 3);
        let r = ex.exec(&mut m, &Op::Pwrite { slot: 0, off: 0, size: 4 }, 4);
        assert_eq!(r.target.as_deref(), Some("/e/f"));
        let r = ex.exec(&mut m, &Op::Write { slot: 1, size: 4 }, 5);
        assert_eq!(r.target.as_deref(), Some("/db"));
        // Direct rename of the opened file itself.
        ex.exec(&mut m, &Op::Rename { old: "/e/f".into(), new: "/g".into() }, 6);
        let r = ex.exec(&mut m, &Op::Fsync { slot: 0 }, 7);
        assert_eq!(r.target.as_deref(), Some("/g"));
    }

    #[test]
    fn reopening_a_slot_closes_previous_fd() {
        let mut m = ModelFs::new();
        let mut ex = Executor::new();
        ex.exec(&mut m, &Op::Open { slot: 0, path: "/a".into(), flags: OpenFlags::CREAT_TRUNC }, 0);
        ex.exec(&mut m, &Op::Open { slot: 0, path: "/b".into(), flags: OpenFlags::CREAT_TRUNC }, 1);
        let r = ex.exec(&mut m, &Op::Write { slot: 0, size: 4 }, 2);
        assert!(r.result.is_ok());
        assert_eq!(m.read_file("/b").unwrap().len(), 4);
        assert_eq!(m.read_file("/a").unwrap().len(), 0);
    }
}
