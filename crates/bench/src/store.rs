//! Content-addressed on-disk record store.
//!
//! One [`Store`] type backs both of the crate's caches: the
//! [`CheckpointStore`](crate::CheckpointStore) of fast-forward positions
//! and the [`ResultStore`](crate::ResultStore) of finished DSE
//! measurements. A store is a directory with one file per key; the
//! [`Record`] a store holds fixes the file names and the bytes. File
//! names are a format commitment (existing stores must keep hitting), and
//! every record's bytes open with its own magic and version words.
//!
//! The store is a cache, never a source of truth: a file that fails to
//! decode, or decodes to a record for another key, loads as an
//! [`io::ErrorKind::InvalidData`] error, which callers treat as a miss.

use std::io;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

/// A value a [`Store`] persists, one file per key.
pub trait Record: Sized {
    /// What addresses a record.
    type Key: Copy;
    /// File-name prefix shared by every record of this kind (`"res_"`).
    const PREFIX: &'static str;

    /// The key-specific part of the file name, between [`Record::PREFIX`]
    /// and `.bin`.
    fn file_stem(key: Self::Key) -> String;

    /// The record's bytes.
    fn encode(&self) -> Vec<u8>;

    /// Decodes bytes written by [`Record::encode`].
    ///
    /// # Errors
    ///
    /// A message describing the first malformation.
    fn decode(bytes: &[u8]) -> Result<Self, String>;

    /// Whether a decoded record belongs under `key`. Records that carry
    /// their own key check it; the default trusts the file name.
    fn belongs_to(&self, _key: Self::Key) -> bool {
        true
    }
}

/// A directory of [`Record`]s, one file per key.
#[derive(Clone, Debug)]
pub struct Store<R> {
    dir: PathBuf,
    record: PhantomData<fn() -> R>,
}

impl<R: Record> Store<R> {
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// An [`io::Error`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Store<R>> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Store {
            dir,
            record: PhantomData,
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file a key maps to (exists or not).
    pub fn path_for(&self, key: R::Key) -> PathBuf {
        self.dir
            .join(format!("{}{}.bin", R::PREFIX, R::file_stem(key)))
    }

    /// Persists `record` under `key`. Overwrites silently — content
    /// addressing makes a collision a re-save of identical bytes.
    ///
    /// # Errors
    ///
    /// An [`io::Error`] when the file cannot be written.
    pub fn save(&self, key: R::Key, record: &R) -> io::Result<PathBuf> {
        let path = self.path_for(key);
        std::fs::write(&path, record.encode())?;
        Ok(path)
    }

    /// Loads the record for `key`; `Ok(None)` when absent.
    ///
    /// # Errors
    ///
    /// An [`io::Error`] on a read failure, or one of kind
    /// [`io::ErrorKind::InvalidData`] when the file exists but fails to
    /// decode (truncated or corrupt) or holds another key's record.
    pub fn load(&self, key: R::Key) -> io::Result<Option<R>> {
        let path = self.path_for(key);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let record =
            R::decode(&bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        if !record.belongs_to(key) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("record at {} carries a different key", path.display()),
            ));
        }
        Ok(Some(record))
    }

    /// Number of records currently in the store.
    ///
    /// # Errors
    ///
    /// An [`io::Error`] when the directory cannot be read.
    pub fn len(&self) -> io::Result<usize> {
        let mut n = 0;
        for entry in std::fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if name.starts_with(R::PREFIX) && name.ends_with(".bin") {
                n += 1;
            }
        }
        Ok(n)
    }

    /// Whether the store holds no records.
    ///
    /// # Errors
    ///
    /// As for [`Store::len`].
    pub fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }
}
