//! Typed errors for the storage stack.
//!
//! Every fallible operation on the persistence path — physical page
//! I/O, buffer-pool faults, record-file scans, index load/save —
//! returns [`CfResult`] instead of panicking. The variants separate
//! the three failure classes a disk-resident database must distinguish:
//! the operating system refused the operation ([`CfError::Io`]), the
//! bytes that came back fail validation ([`CfError::Corrupt`]), or a
//! test harness deterministically injected the failure
//! ([`CfError::Injected`]).

use crate::disk::PageId;
use std::fmt;
use std::io;

/// Result alias used across the storage stack.
pub type CfResult<T> = Result<T, CfError>;

/// Which physical operation an injected fault fired on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// A physical page read.
    Read,
    /// A physical page write.
    Write,
}

impl fmt::Display for FaultOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultOp::Read => f.write_str("read"),
            FaultOp::Write => f.write_str("write"),
        }
    }
}

/// A typed storage-stack error.
#[derive(Debug)]
pub enum CfError {
    /// The operating system failed the underlying file operation.
    Io {
        /// What the stack was doing when the OS call failed.
        context: String,
        /// The underlying OS error.
        source: io::Error,
    },
    /// On-disk bytes failed validation (bad checksum, bad magic,
    /// unknown tag, out-of-range handle, …).
    Corrupt {
        /// The page the corrupt bytes came from, when known.
        page: Option<PageId>,
        /// Human-readable description of what failed to validate.
        detail: String,
    },
    /// A deterministic fault injected by the test harness (see
    /// [`crate::Fault`]).
    Injected {
        /// The physical operation that was failed.
        op: FaultOp,
        /// Zero-based ordinal of that operation since the injector was
        /// last cleared.
        ordinal: u64,
    },
    /// An in-place update of a compressed page did not fit: re-encoding
    /// the page's records with the new value exceeds the page size. The
    /// data on disk is untouched and still valid — the caller should
    /// repack the file to restore per-page slack.
    PageFull {
        /// The page that could not absorb the update.
        page: PageId,
        /// Records on the page at the time of the update.
        records: usize,
    },
    /// A caller-supplied cell id is not mapped by the index it was
    /// handed to (out of range, or a hole in a non-dense id space).
    /// User input must never panic the storage stack — mutation paths
    /// return this instead.
    InvalidCell {
        /// The cell id the caller supplied.
        cell: usize,
        /// How many cell ids the index maps (`0..cells` is the valid
        /// id range, though sparse indexes may hold holes inside it).
        cells: usize,
    },
    /// A caller-supplied record carries a NaN sample value. Such a
    /// record has no value interval, so no index could find it again;
    /// mutation paths refuse it before touching any state.
    InvalidRecord {
        /// The cell id the record was supplied for.
        cell: usize,
    },
    /// A caller-supplied record index or range list does not fit the
    /// record file it was handed to: an index or range end past `len`,
    /// or ranges that are inverted, unsorted or overlapping. Nothing
    /// was read or written.
    InvalidRange {
        /// Which index or range was refused, and the file length.
        detail: String,
    },
}

impl CfError {
    /// Builds an [`CfError::Io`] with context.
    pub fn io(context: impl Into<String>, source: io::Error) -> Self {
        CfError::Io {
            context: context.into(),
            source,
        }
    }

    /// Builds a [`CfError::Corrupt`] with an optional page id.
    pub fn corrupt(page: impl Into<Option<PageId>>, detail: impl Into<String>) -> Self {
        CfError::Corrupt {
            page: page.into(),
            detail: detail.into(),
        }
    }

    /// `true` for [`CfError::Corrupt`] (the typed-error tests of
    /// dependent crates).
    pub fn is_corrupt(&self) -> bool {
        matches!(self, CfError::Corrupt { .. })
    }

    /// `true` for [`CfError::Injected`] (the typed-error tests of
    /// dependent crates).
    pub fn is_injected(&self) -> bool {
        matches!(self, CfError::Injected { .. })
    }

    /// `true` for [`CfError::InvalidCell`] (the typed-error tests of
    /// dependent crates).
    pub fn is_invalid_cell(&self) -> bool {
        matches!(self, CfError::InvalidCell { .. })
    }

    /// `true` for [`CfError::InvalidRecord`] (the typed-error tests of
    /// dependent crates).
    pub fn is_invalid_record(&self) -> bool {
        matches!(self, CfError::InvalidRecord { .. })
    }

    /// `true` for [`CfError::InvalidRange`].
    #[cfg(test)]
    pub(crate) fn is_invalid_range(&self) -> bool {
        matches!(self, CfError::InvalidRange { .. })
    }

    /// The page carried by a [`CfError::Corrupt`], if any.
    pub fn page(&self) -> Option<PageId> {
        match self {
            CfError::Corrupt { page, .. } => *page,
            _ => None,
        }
    }
}

impl fmt::Display for CfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CfError::Io { context, source } => {
                write!(f, "I/O error while {context}: {source}")
            }
            CfError::Corrupt {
                page: Some(p),
                detail,
            } => write!(f, "corrupt data on page {}: {detail}", p.0),
            CfError::Corrupt { page: None, detail } => {
                write!(f, "corrupt data: {detail}")
            }
            CfError::Injected { op, ordinal } => {
                write!(f, "injected fault on physical {op} #{ordinal}")
            }
            CfError::PageFull { page, records } => {
                write!(
                    f,
                    "compressed page {} is full ({records} records): update does not fit, repack to restore slack",
                    page.0
                )
            }
            CfError::InvalidCell { cell, cells } => {
                write!(
                    f,
                    "cell id {cell} is not mapped by this index ({cells} cells)"
                )
            }
            CfError::InvalidRecord { cell } => {
                write!(f, "record for cell {cell} has a NaN sample value")
            }
            CfError::InvalidRange { detail } => {
                write!(f, "invalid record range: {detail}")
            }
        }
    }
}

impl std::error::Error for CfError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CfError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<CfError> for io::Error {
    fn from(e: CfError) -> Self {
        match e {
            CfError::Io { source, .. } => source,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_page_context() {
        let e = CfError::corrupt(PageId(42), "checksum mismatch");
        assert!(e.to_string().contains("page 42"), "{e}");
        assert!(e.is_corrupt());
        assert_eq!(e.page(), Some(PageId(42)));

        let e = CfError::corrupt(None, "no valid slot");
        assert!(e.to_string().contains("no valid slot"));
        assert_eq!(e.page(), None);
    }

    #[test]
    fn io_errors_chain_their_source() {
        let e = CfError::io(
            "reading page",
            io::Error::new(io::ErrorKind::UnexpectedEof, "short"),
        );
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("reading page"));
    }

    #[test]
    fn invalid_cell_names_the_offending_id() {
        let e = CfError::InvalidCell {
            cell: 99,
            cells: 64,
        };
        assert!(e.is_invalid_cell());
        assert!(!e.is_corrupt());
        assert!(e.to_string().contains("cell id 99 is not mapped"), "{e}");
    }

    #[test]
    fn injected_faults_name_op_and_ordinal() {
        let e = CfError::Injected {
            op: FaultOp::Write,
            ordinal: 7,
        };
        assert!(e.is_injected());
        assert!(e.to_string().contains("write #7"), "{e}");
    }
}
