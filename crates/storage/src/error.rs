//! Storage-stack error type.
//!
//! Malformed fio jobs used to `panic!` deep inside the library, taking the
//! whole `repro`/`greenness` process down with a backtrace instead of a
//! diagnostic. [`StorageError`] carries those conditions (plus filesystem
//! errors) out to the caller as values, so the binaries can print one line
//! and exit nonzero.

use crate::fs::FsError;

/// Errors surfaced by the storage stack (fio engine, filesystem).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// An fio job's request size is not a positive multiple of the device
    /// block size.
    MisalignedBlockSize {
        /// The offending request size, bytes.
        block_bytes: u64,
    },
    /// An fio job moves less than one request worth of data.
    JobSmallerThanBlock {
        /// Total bytes the job would move.
        total_bytes: u64,
        /// Request size, bytes.
        block_bytes: u64,
    },
    /// An fio job's region does not fit on the device.
    JobExceedsDevice {
        /// Blocks the job needs.
        job_blocks: u64,
        /// Blocks the device has.
        device_blocks: u64,
    },
    /// A verified fio job read back different bytes than it wrote.
    VerifyMismatch {
        /// Device block where the mismatch was found.
        block: u64,
        /// Byte offset within the block.
        byte: usize,
    },
    /// A filesystem error (missing file, full device, bad offset).
    Fs(FsError),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::MisalignedBlockSize { block_bytes } => {
                write!(
                    f,
                    "fio block size {block_bytes} must be a positive multiple of {}",
                    crate::block::BLOCK_SIZE
                )
            }
            StorageError::JobSmallerThanBlock {
                total_bytes,
                block_bytes,
            } => {
                write!(
                    f,
                    "fio job of {total_bytes} bytes is smaller than one {block_bytes}-byte block"
                )
            }
            StorageError::JobExceedsDevice {
                job_blocks,
                device_blocks,
            } => {
                write!(
                    f,
                    "fio job needs {job_blocks} blocks but the device has {device_blocks}"
                )
            }
            StorageError::VerifyMismatch { block, byte } => {
                write!(f, "verify failed at block {block} byte {byte}")
            }
            StorageError::Fs(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Fs(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FsError> for StorageError {
    fn from(e: FsError) -> Self {
        StorageError::Fs(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_diagnostic() {
        let e = StorageError::MisalignedBlockSize { block_bytes: 1000 };
        assert!(e.to_string().contains("multiple"));
        let e = StorageError::VerifyMismatch { block: 7, byte: 42 };
        assert!(e.to_string().contains("block 7 byte 42"));
        let e = StorageError::from(FsError::NoSpace);
        assert_eq!(e.to_string(), FsError::NoSpace.to_string());
        assert!(std::error::Error::source(&e).is_some());
    }
}
