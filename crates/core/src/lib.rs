//! XFM: the refresh-cycle-multiplexed near-memory accelerated SFM —
//! the paper's primary contribution.
//!
//! XFM places a (de)compression accelerator in the DIMM buffer device and
//! gives it DRAM access **only during all-bank refresh windows** (`tRFC`),
//! when the rank is locked to the CPU anyway. The result: SFM swap traffic
//! disappears from the DDR channel and the cache hierarchy, at zero cost
//! to host accesses (paper §4–§6).
//!
//! Module map (mirroring the paper's Fig. 4/§6 component list):
//!
//! - [`spm`] — the ScratchPad Memory staging buffer with PENDING/COMPLETED
//!   tags;
//! - [`regs`] — the MMIO register file (`SP_Capacity_Register`, region
//!   config) and the `Compress_Request_Queue` ring;
//! - [`engine`] — the (de)compression engine: functionally a real
//!   [`xfm_compress`] codec, with throughput parameters calibrated to the
//!   paper's FPGA (1.4/1.7 GB/s) and AxDIMM-class (14.8/17.2 GB/s) builds;
//! - [`sched`] — the refresh-window access scheduler: batches NMA accesses
//!   per `tREFI`, serves them inside `tRFC` as *conditional* accesses
//!   (target row is in the refresh set — no activation needed) or
//!   *random* accesses (Fig. 7 subarray latches), and back-pressures when
//!   window capacity or SPM space runs out;
//! - [`nma`] — the per-DIMM accelerator composing the above;
//! - [`driver`] — the `XFM_Driver`: `xfm_paramset` / `xfm_compress` /
//!   `xfm_decompress` / `xfm_compact` MMIO-level API with lazy
//!   `SP_Capacity_Register` reads;
//! - [`backend`] — the `XFM_Backend` implementing
//!   [`xfm_sfm::SwapPlane`], with `CPU_Fallback`, the `do_offload`
//!   policy, checksummed stores, bounded retry, and degraded modes;
//! - [`multichannel`] — page striping across 1/2/4 DIMMs with
//!   same-offset compressed placement (§6 "Multi-Channel Mode");
//! - [`system`] — [`XfmSystem`], the top-level public API.
//!
//! # Examples
//!
//! ```
//! use xfm_core::{XfmConfig, XfmSystem};
//! use xfm_sfm::SwapPlane;
//! use xfm_types::{Nanos, PageNumber};
//!
//! let mut sys = XfmSystem::new(XfmConfig::default());
//! let page = vec![0xabu8; 4096];
//! sys.advance_to(Nanos::from_ms(1));
//! sys.backend().swap_out(PageNumber::new(7), &page)?;
//! let (restored, _) = sys.backend().swap_in(PageNumber::new(7), true)?;
//! assert_eq!(restored, page);
//! # Ok::<(), xfm_types::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod driver;
pub mod engine;
pub mod multichannel;
pub mod nma;
pub mod regs;
pub mod sched;
pub mod spm;
pub mod system;

pub use backend::{PlaneBuilder, XfmBackend, XfmBackendConfig};
pub use driver::XfmDriver;
pub use engine::EngineModel;
pub use nma::{NearMemoryAccelerator, NmaConfig, NmaStats};
pub use regs::{OffloadKind, OffloadRequest, Reg, RegisterFile, RequestQueue};
pub use sched::{SchedStats, WindowScheduler};
pub use spm::{Spm, SpmSlotState};
pub use system::{XfmConfig, XfmSystem};
