//! # mpiio — MPI-IO over the simulated runtime and file system
//!
//! Implements the MPI-IO feature subset the paper's evaluation needs:
//!
//! * collective `open`/`close` and `set_view` (file views built from the
//!   derived datatypes of [`mpisim::datatype`]);
//! * **independent** `read_at`/`write_at` — the "vanilla MPI-IO" baseline
//!   of §V.C, where every noncontiguous extent becomes its own file-system
//!   request;
//! * **two-phase collective** `write_all_at`/`read_all_at` — the paper's
//!   OCIO baseline (ROMIO's algorithm), with aggregators, file-domain
//!   partitioning, an Isend/Irecv all-to-all exchange phase, and
//!   memory-accounted collective buffers.
//!
//! See `DESIGN.md` at the repository root for the experiment map.

pub mod collective;
mod engine;
pub mod error;
pub mod extents;
pub mod file;
pub mod parcoll;
pub mod reqagg;
pub mod retry;
pub mod sieve;
pub mod view;
pub mod viewcoll;

pub use collective::{read_all_at, write_all_at, CollectiveConfig};
pub use error::{IoError, Result};
pub use extents::ExtentSet;
pub use file::{File, Mode, Whence};
pub use parcoll::write_all_partitioned;
pub use retry::pfs_retry;
pub use sieve::SieveConfig;
pub use view::FileView;
pub use viewcoll::{read_all_view_based, register_views, write_all_view_based, RegisteredViews};
